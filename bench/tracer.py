"""Layer spans and counters for a traced run, installed from outside the package.

Wrappers are put on the names where the program looks them up, not only
where they are defined: ``beta_q`` and ``q_gauss`` are imported by name into
``operators``, ``verify`` and ``cli``, and ``div`` is a global of
``operators``. Methods are wrapped on their classes, including
``QOperator.__call__``, an alias of ``apply``. ``uninstall`` puts every
original back.

A span's times are CPU times of its own thread (``time.thread_time``), so a
``verify all`` cell waiting for the interpreter lock in a pool thread is not
charged for the wait. Self time is the span's time minus that of its direct
children in the same thread; the tracer's own bookkeeping after a call
(coefficient bit sizes, the record) is charged to neither. Pool threads keep
the submitting span as their parent. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Optional

FIELDS = ("id", "parent", "thread", "name", "wall_start", "wall_end",
          "cpu_s", "self_s", "outer", "order", "max_bits", "amount")

SERIES_METHODS = {
    "__mul__": "series.mul",  # scalar products pass through unrecorded
    "__add__": "series.addsub",
    "__sub__": "series.addsub",
    "jackson_derivative": "series.jackson",
    "scale_arg": "series.scale_arg",
    "mul_poly": "series.mul_poly",
}
GAUSS_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__")
BUILDERS = ("identity_op", "scalar_op", "multiplication_op", "poly_multiplication_op",
            "jackson_op", "classical_darboux", "t_plus_q", "t_minus_q",
            "second_order_composed", "second_order_direct", "classical_hermite_op",
            "classical_schrodinger_op", "susy_pair_limit", "t_generalized",
            "vacuum_pair", "generalized_pair")
SUITES = ("kernel", "factorization", "leibniz", "limits", "classical")


class Tracer:
    def __init__(self, modules: dict[str, ModuleType]) -> None:
        self.modules = modules
        self.spans: list[tuple] = []
        self.gauss_arith = itertools.count()
        self.gauss_truth = itertools.count()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._series_type = modules["qsusy.series"].PowerSeries

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _bits(self, values: tuple) -> Optional[int]:
        best = None
        for v in values:
            if isinstance(v, self._series_type):
                for c in v.coeffs:
                    for x in (c.re, c.im):
                        b = max(x.numerator.bit_length(), x.denominator.bit_length())
                        if best is None or b > best:
                            best = b
        return best

    def span(self, name: str, fn: Callable, amount: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; amount(args, result) adds a size."""
        tracer = self
        series_type = self._series_type
        thread_time, perf_counter = time.thread_time, time.perf_counter

        def wrapper(*args, **kwargs):
            entry = thread_time()
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            outer = all(frame[1] != name for frame in stack)
            frame = [next(tracer._ids), name, 0.0]
            stack.append(frame)
            wall0 = perf_counter()
            cpu0 = thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu1 = thread_time()
                wall1 = perf_counter()
                stack.pop()
                parent_id = parent[0] if parent else getattr(tracer._local, "root", None)
                order = result.order if isinstance(result, series_type) else None
                tracer.spans.append((
                    frame[0], parent_id, threading.get_ident(), name, wall0, wall1,
                    cpu1 - cpu0, cpu1 - cpu0 - frame[2], outer, order,
                    tracer._bits(args + (result,)),
                    amount(args, result) if amount is not None else None,
                ))
                if parent is not None:
                    parent[2] += thread_time() - entry

        return wrapper

    def current_span(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1][0] if stack else getattr(self._local, "root", None)

    # -- installation -----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original: Any, wrapper: Any) -> None:
        """Point every qsusy module name bound to original at wrapper."""
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        m = self.modules
        qcore, series, qspecial = m["qsusy.qcore"], m["qsusy.series"], m["qsusy.qspecial"]
        operators, verify, serialize, cli = (m["qsusy.operators"], m["qsusy.verify"],
                                            m["qsusy.serialize"], m["qsusy.cli"])

        gauss = qcore.GaussRational
        for attr in GAUSS_ARITH:
            self._set(gauss, attr, _counted2(gauss.__dict__[attr], self.gauss_arith))
        self._set(gauss, "__bool__", _counted1(gauss.__dict__["__bool__"], self.gauss_truth))

        ps = series.PowerSeries
        for attr, name in SERIES_METHODS.items():
            original = ps.__dict__[attr]
            wrapped = self.span(name, original)
            if attr == "__mul__":
                wrapped = _series_only(original, wrapped, ps)
            self._set(ps, attr, wrapped)
        self._replace_everywhere(series.div, self.span("series.div", series.div))

        for fn in ("q_exp", "q_gauss", "beta_q", "q_hermite", "u_transform"):
            original = getattr(qspecial, fn)
            self._replace_everywhere(original, self.span(f"qspecial.{fn}", original))

        for fn in BUILDERS:
            original = getattr(operators, fn)
            self._replace_everywhere(original, self.span("operators.build", original))
        qop = operators.QOperator
        apply = self.span("operators.apply", qop.__dict__["apply"])
        self._set(qop, "apply", apply)
        self._set(qop, "__call__", apply)
        self._set(qop, "apply_at", self.span("operators.apply_at", qop.__dict__["apply_at"]))

        count_checks = lambda args, result: len(result)
        for suite in SUITES:
            original = getattr(verify, f"{suite}_suite")
            self._replace_everywhere(original, self.span(f"verify.{suite}", original, count_checks))

        to_json, from_json = serialize.series_to_json, serialize.series_from_json
        self._replace_everywhere(to_json, self.span(
            "serialize.to_json", to_json, lambda args, result: len(result.encode())))
        self._replace_everywhere(from_json, self.span(
            "serialize.from_json", from_json, lambda args, result: len(args[0].encode())))

        self._set(cli, "main", self.span("cli.main", cli.main))
        self._set(cli, "ThreadPoolExecutor", _traced_pool(self))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": FIELDS}) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer calls, self and inclusive CPU seconds and sizes per round; peak bits."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        bits: dict[str, int] = defaultdict(int)
        amount: dict[str, int] = defaultdict(int)
        for (_, _, _, name, _, _, cpu, own, outer, order, max_bits, size) in self.spans:
            calls[name] += 1
            self_s[name] += own
            if outer:
                incl_s[name] += cpu
            if max_bits is not None and max_bits > bits[name]:
                bits[name] = max_bits
            if size is not None:
                amount[name] += size
            if name in ("series.mul", "series.div") and order is not None:
                bucket = "n32" if order <= 32 else "n64" if order <= 64 else "n128"
                self_s[f"{name}.{bucket}"] += own

        out: dict[str, float] = {
            "qcore.gauss_arith.calls": next(self.gauss_arith),
            "qcore.gauss_truth.calls": next(self.gauss_truth),
        }
        for op in ("mul", "div", "jackson", "scale_arg", "mul_poly", "addsub"):
            out[f"series.{op}.calls"] = calls[f"series.{op}"]
            out[f"series.{op}.self_s"] = self_s[f"series.{op}"]
        for op in ("mul", "div"):
            out[f"series.{op}.max_bits"] = bits[f"series.{op}"]
            for bucket in ("n32", "n64", "n128"):
                out[f"series.{op}.{bucket}.self_s"] = self_s[f"series.{op}.{bucket}"]
        out["qspecial.q_exp.calls"] = calls["qspecial.q_exp"]
        out["qspecial.q_exp.self_s"] = self_s["qspecial.q_exp"]
        for fn in ("beta_q", "q_gauss", "q_hermite", "u_transform"):
            out[f"qspecial.{fn}.s"] = incl_s[f"qspecial.{fn}"]
        out["operators.build.s"] = incl_s["operators.build"]
        out["operators.apply.calls"] = calls["operators.apply"]
        out["operators.apply.self_s"] = self_s["operators.apply"]
        out["operators.apply_at.calls"] = calls["operators.apply_at"]
        out["operators.apply_at.s"] = incl_s["operators.apply_at"]
        for suite in SUITES:
            out[f"verify.{suite}.s"] = incl_s[f"verify.{suite}"]
        out["verify.checks"] = sum(amount[f"verify.{suite}"] for suite in SUITES)
        out["serialize.to_json.s"] = incl_s["serialize.to_json"]
        out["serialize.from_json.s"] = incl_s["serialize.from_json"]
        out["serialize.bytes"] = amount["serialize.to_json"] + amount["serialize.from_json"]
        out["cli.main.self_s"] = self_s["cli.main"]
        return {k: v if k.endswith("max_bits") else v / rounds for k, v in out.items()}


def _counted1(fn: Callable, counter: itertools.count) -> Callable:
    # next() on an itertools.count is atomic under the interpreter lock, so
    # the counts stay exact when verify all runs its cells on a thread pool
    def wrapper(self):
        next(counter)
        return fn(self)

    return wrapper


def _counted2(fn: Callable, counter: itertools.count) -> Callable:
    def wrapper(self, other):
        next(counter)
        return fn(self, other)

    return wrapper


def _series_only(original: Callable, traced: Callable, series_type: type) -> Callable:
    def wrapper(self, other):
        if isinstance(other, series_type):
            return traced(self, other)
        return original(self, other)

    return wrapper


def _traced_pool(tracer: Tracer) -> type:
    class TracedPool(ThreadPoolExecutor):
        """Runs each task with the submitting span as its parent."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current_span()

            def run(*a, **k):
                tracer._local.root = parent
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.root = None

            return super().submit(run, *args, **kwargs)

    return TracedPool
