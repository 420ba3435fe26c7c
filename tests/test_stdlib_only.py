"""The engine imports nothing outside the standard library.

Every module of ``src/qsusy`` is parsed, not imported, so a module that
would fail to import still has its imports read. Relative imports stay
inside the package; each absolute import must name a standard-library
module at its top level (``sys.stdlib_module_names``, Python 3.10 and later).
The JSON and CSV forms are written once, in ``serialize``, so ``cli.py``
imports none of ``csv``, ``io`` and ``json``.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qsusy").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The modules a source file imports by absolute name."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def outside_the_standard_library(path: Path) -> list[str]:
    """The absolute imports of a module whose top-level name is not a stdlib module."""
    return [name for name in absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names]


def test_every_module_is_read():
    assert {p.name for p in SOURCES} >= {"__init__.py", "series.py", "qspecial.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_standard_library(path):
    assert outside_the_standard_library(path) == []


def test_the_check_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import json, os.path\nfrom numpy import array\nimport hypothesis.strategies\n"
        "from . import series\nfrom fractions import Fraction\n",
        encoding="utf-8",
    )
    assert outside_the_standard_library(module) == ["numpy", "hypothesis.strategies"]


def test_cli_writes_no_document_format_itself():
    (cli,) = [p for p in SOURCES if p.name == "cli.py"]
    assert {name.split(".")[0] for name in absolute_imports(cli)} & {"csv", "io", "json"} == set()
