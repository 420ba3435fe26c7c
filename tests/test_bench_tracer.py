"""The benchmark tracer's names resolve in the package, and it puts every one back.

``bench/tracer.py`` wraps package names from outside: the series methods,
``div``, the named series, the operator builders, ``QOperator.apply`` and
``apply_at``, the suites, the wire format and ``cli.main`` and
``cli.ThreadPoolExecutor``. A change that deletes or renames one of them makes
``install`` fail here, not only in the benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import qsusy.cli  # noqa: F401  (loads every module of the package)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qsusy_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_modules():
    return {name: mod for name, mod in sys.modules.items() if name == "qsusy" or name.startswith("qsusy.")}


def bindings(modules):
    """Every name of each module, and of each class it defines, with its value."""
    out = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[name, attr, key] = member
    return out


def changed(before, after):
    return sorted(str(key) for key in before.keys() | after.keys()
                  if before.get(key, before) is not after.get(key, after))


def test_install_wraps_the_pinned_names_and_uninstall_restores_them():
    modules = package_modules()
    before = bindings(modules)
    tracer = load_tracer().Tracer(modules)
    try:
        tracer.install()
        wrapped = changed(before, bindings(modules))
    finally:
        tracer.uninstall()
    for key in (("qsusy.cli", "ThreadPoolExecutor"), ("qsusy.cli", "main"),
                ("qsusy.operators", "QOperator", "apply_at"), ("qsusy.operators", "t_plus_q"),
                ("qsusy.operators", "vacuum_pair"), ("qsusy.series", "div"),
                ("qsusy.series", "PowerSeries", "jackson_derivative"), ("qsusy.verify", "leibniz_suite")):
        assert str(key) in wrapped
    assert changed(before, bindings(modules)) == []
