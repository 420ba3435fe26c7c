"""The two seeded workloads: their inputs, their operations, their output checks.

``verify_build`` is a ``verify_all`` round followed by a ``series_build``
round, from cold caches; ``apply_batch`` keeps its caches. A workload is run
in rounds. Every round is the same list of operation slots: the verify cells
and ``apply_batch`` repeat identical commands, and ``series_build`` draws
each slot's parameters afresh from the workload's seeded stream at a cost
fixed by the slot. So every run attempts whole rounds of the same mix, and
the same seed gives the same operations. Each operation is one ``qsusy``
command line with an ``--output`` file; its check reads that file after the
timed loop and compares it with an independent computation from ``oracle``,
never with a stored copy of output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle

F = Fraction
Check = Callable[[str], Optional[str]]


@dataclass
class Op:
    """One CLI command, where it writes, and how to judge what it wrote."""

    argv: list[str]
    output: Path
    check: Check
    completes: tuple[int, ...] = (0,)  # exit codes that mean "ran and wrote its output"
    cold: bool = False  # clear every program cache before it, as a fresh process starts


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_series(text: str, order: int) -> list[Fraction]:
    """Read the program's series JSON; every coefficient must be real and parse exactly."""
    data = json.loads(text)
    if data.get("order") != order or len(data.get("coeffs", ())) != order + 1:
        raise ValueError(f"expected order {order}, got {data.get('order')!r}")
    out = []
    for k, (re_text, im_text) in enumerate(data["coeffs"]):
        if Fraction(im_text) != 0:
            raise ValueError(f"coefficient {k} has imaginary part {im_text}")
        out.append(Fraction(re_text))
    return out


def first_mismatch(got: list[Fraction], want: list[Fraction]) -> Optional[str]:
    if len(got) != len(want):
        return f"length {len(got)} != {len(want)}"
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"coefficient {k} differs from the independent value"
    return None


def guarded(check: Check) -> Check:
    """A check that reports a malformed output as a failure, not a crash."""

    def run(text: str) -> Optional[str]:
        try:
            return check(text)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
            return f"unreadable output: {exc!r}"

    return run


def write_series(path: Path, coeffs: list[Fraction]) -> None:
    doc = {"order": len(coeffs) - 1, "coeffs": [[fmt(c), "0"] for c in coeffs]}
    path.write_text(json.dumps(doc), encoding="utf-8")


# -- verify cells -------------------------------------------------------------

VERIFY_QS = (F(2), F(3, 2), F(5, 4))
VERIFY_BETAS = (F(-1, 2), F(1, 2))
LEIBNIZ_QS = (F(2), F(3, 2))
LEIBNIZ_SEED = 0x5EED
CLI_ORDER = 32
# checks whose worst deviation is the largest coefficient of an exact residual
RESIDUAL_CHECKS = {
    "kernel", "factorization[b]", "factorization[f]", "leibniz",
    "undeformed_reduction[b]", "undeformed_reduction[f]",
    "hermite_annihilation", "oscillator_annihilation", "rodrigues_collapse",
}
SWEEP = [1 + F(1, 2**k) for k in range(1, 7)]
SWEEP_LABEL = "1+2^-k, k=1..6"


def verify_grid() -> set[tuple]:
    """Every (check name, params) that ``qsusy verify all`` must report at its defaults."""
    o = str(CLI_ORDER)
    grid = set()
    for q in VERIFY_QS:
        for beta in VERIFY_BETAS:
            cell = (("beta", fmt(beta)), ("order", o), ("q", fmt(q)))
            grid |= {("kernel", cell), ("factorization[b]", cell), ("factorization[f]", cell)}
    for q in LEIBNIZ_QS:
        grid.add(("leibniz", (("pairs", "200"), ("q", fmt(q)), ("seed", str(LEIBNIZ_SEED)))))
    for beta in VERIFY_BETAS:
        cell = (("beta", fmt(beta)), ("order", o))
        grid |= {("undeformed_reduction[b]", cell), ("undeformed_reduction[f]", cell)}
        sweep = (("beta", fmt(beta)), ("sweep", SWEEP_LABEL))
        grid |= {("limit_rate[beta0]", sweep), ("drift_vanishes", sweep), ("limit_rate[drift]", sweep)}
    for n in range(7):
        cell = (("n", str(n)), ("order", o))
        grid |= {("hermite_annihilation", cell), ("oscillator_annihilation", cell),
                 ("rodrigues_collapse", cell)}
    return grid


def beta0_rate_gap() -> Fraction:
    """Largest |r_k - 1/4| of the beta_q(0) deviation ratios, from the closed form.

    beta_q(0) = beta [2]_q = beta (q + 1/q), so its deviation from 2 beta is
    |beta| (q - 1)**2 / q; the ratios do not depend on beta.
    """
    devs = [(q - 1) ** 2 / q for q in SWEEP]
    return max(abs(b / a - F(1, 4)) for a, b in zip(devs, devs[1:]))


# the checks each suite reports, and the cells ``verify all`` fans out at its
# defaults, in its own order (cli._verify_cells): one per (suite, q, beta)
SUITE_CHECKS = {
    "kernel": {"kernel"},
    "factorization": {"factorization[b]", "factorization[f]"},
    "leibniz": {"leibniz"},
    "limits": {"undeformed_reduction[b]", "undeformed_reduction[f]",
               "limit_rate[beta0]", "drift_vanishes", "limit_rate[drift]"},
    "classical": {"hermite_annihilation", "oscillator_annihilation", "rodrigues_collapse"},
}
VERIFY_CELLS = (
    [("kernel", q, b) for q in VERIFY_QS for b in VERIFY_BETAS]
    + [("factorization", q, b) for q in VERIFY_QS for b in VERIFY_BETAS]
    + [("leibniz", q, None) for q in LEIBNIZ_QS]
    + [("limits", None, None), ("classical", None, None)]
)


def cell_grid(suite: str, q: Optional[Fraction], beta: Optional[Fraction]) -> set[tuple]:
    """The part of ``verify_grid`` that one cell must report."""
    pinned = {k: fmt(v) for k, v in (("q", q), ("beta", beta)) if v is not None}
    return {(name, params) for name, params in verify_grid()
            if name in SUITE_CHECKS[suite] and pinned.items() <= dict(params).items()}


@lru_cache(maxsize=None)
def drift_gaps(beta: Fraction) -> tuple[str, str]:
    """``drift_vanishes`` and ``limit_rate[drift]`` deviations, from the oracle.

    The drift beta_q(x^2) - (1/q) beta_q(x^2/q^2) has coefficients
    b_k (1 - q**-(k+1)); the suite takes the largest at order 8 along the
    sweep, reports the last one, and the largest |r - 1/2| of their ratios.
    """
    devs = [max(abs(b * (1 - q ** -(k + 1))) for k, b in enumerate(oracle.drift(beta, q, 8)))
            for q in SWEEP]
    return fmt(devs[-1]), fmt(max(abs(b / a - F(1, 2)) for a, b in zip(devs, devs[1:])))


def check_verify_report(text: str, grid: set[tuple]) -> Optional[str]:
    report = json.loads(text)
    checks = report["checks"]
    seen = [(c["name"], tuple(sorted(c["params"].items()))) for c in checks]
    if len(seen) != len(set(seen)) or set(seen) != grid:
        return f"check grid differs: {len(seen)} reported, {len(grid)} expected"
    rate_gap = fmt(beta0_rate_gap())
    for c in checks:
        if c["status"] != "pass" or "first_failure_index" in c:
            return f"{c['name']} {c['params']} did not pass"
        worst = Fraction(c["worst_deviation"])
        if c["name"] in RESIDUAL_CHECKS and worst != 0:
            return f"{c['name']} {c['params']} left residual {c['worst_deviation']}"
        if c["name"] == "limit_rate[beta0]" and c["worst_deviation"] != rate_gap:
            return f"limit_rate[beta0] gap {c['worst_deviation']} != closed form {rate_gap}"
        if c["name"] in ("drift_vanishes", "limit_rate[drift]"):
            vanish, rate = drift_gaps(Fraction(c["params"]["beta"]))
            want = vanish if c["name"] == "drift_vanishes" else rate
            if c["worst_deviation"] != want:
                return f"{c['name']} {c['params']} deviation {c['worst_deviation']} != oracle {want}"
    return None


def verify_ops(index: int, out: Path) -> list[Op]:
    """The 51 checks of ``qsusy verify all``, one ``verify <suite>`` command per cell.

    These are the 16 cells that ``verify all`` runs at its defaults, in its
    order, each pinned by ``--q``/``--beta``. The caches are cleared before
    the first cell only, so the cells do the work of one cold ``verify all``
    in a fresh process, sharing caches as they do there.
    """
    ops = []
    for k, (suite, q, beta) in enumerate(VERIFY_CELLS):
        path = out / f"verify-{index}-{k}.json"
        pins = [f"--q={fmt(q)}"] if q is not None else []
        pins += [f"--beta={fmt(beta)}"] if beta is not None else []
        check = guarded(lambda text, grid=cell_grid(suite, q, beta): check_verify_report(text, grid))
        # exit code 1 is a report with a failed identity: a wrong output, not a crash
        ops.append(Op(["verify", suite, *pins, "--output", str(path)],
                      path, check, (0, 1), cold=k == 0))
    return ops


# -- series commands ----------------------------------------------------------

BUILD_ORDERS = (32, 64, 128)
# one base q per command; a draw picks q or 1/q, which cost the same (every
# [n]_q is symmetric) but are distinct inputs, so each slot's cost is fixed
BUILD_BASE_Q = {"beta": F(3, 2), "delta": F(4, 3), "hermite": F(5, 4), "ufunc": F(2)}
# |beta| changes the coefficients' sizes, so it is fixed per order; a draw
# picks its sign, which changes no size
BUILD_BETA = {32: F(3), 64: F(2, 3), 128: F(1, 2)}
# n and p change the cost (parity decides which products the zero skip
# saves), so they are fixed per order rather than drawn: both parities of
# q_hermite and three p of u_transform are still covered
BUILD_N = {32: 1, 64: 2, 128: 3}
BUILD_P = {32: 0, 64: 2, 128: 4}


# a run sees each (command, q, beta, order) many times; the oracle's answer
# for it is computed once, after the timed loop like every check
hermite_of = lru_cache(maxsize=None)(oracle.hermite)
ufunc_of = lru_cache(maxsize=None)(oracle.ufunc)
drift_of = lru_cache(maxsize=None)(oracle.drift)


def check_drift(b: list[Fraction], beta: Fraction, q: Fraction) -> Optional[str]:
    """beta_q must satisfy D_q g = x beta_q g for the closed-form vacuum g.

    g has a non-zero constant term, so the truncated solution is unique: the
    series solved from that equation by ``oracle.drift``.
    """
    if b[0] != beta * (q + 1 / q):
        return "constant term is not beta (q + 1/q)"
    return first_mismatch(b, drift_of(beta, q, len(b) - 1))


def beta_check(beta: Fraction, q: Fraction, order: int) -> Check:
    return guarded(lambda text: check_drift(parse_series(text, order), beta, q))


def delta_check(beta: Fraction, q: Fraction, order: int) -> Check:
    """beta_q(x^2) - (1/q) beta_q(x^2/q^2) has coefficients b_k (1 - q**-(k+1))."""

    def check(text: str) -> Optional[str]:
        d = parse_series(text, order)
        b = [c / (1 - q ** -(k + 1)) for k, c in enumerate(d)]
        return check_drift(b, beta, q)

    return guarded(check)


def hermite_check(n: int, q: Fraction, order: int) -> Check:
    def check(text: str) -> Optional[str]:
        h = parse_series(text, order - n)
        if any(c for k, c in enumerate(h) if (k - n) % 2):
            return f"q_hermite(n={n}) breaks parity (-1)**n"
        return first_mismatch(h, hermite_of(n, q, order))

    return guarded(check)


def ufunc_check(p: int, q: Fraction, order: int) -> Check:
    def check(text: str) -> Optional[str]:
        u = parse_series(text, order - p)
        if any(c for k, c in enumerate(u) if k % 2):
            return f"u_transform(p={p}) is not even"
        return first_mismatch(u, ufunc_of(p, q, order))

    return guarded(check)


def series_ops(rng: random.Random, index: int, out: Path) -> list[Op]:
    """beta / beta --delta / hermite / ufunc at orders 32, 64, 128, each from cold caches."""
    ops = []
    for order in BUILD_ORDERS:
        for cmd, base in BUILD_BASE_Q.items():
            q = base if rng.random() < 0.5 else 1 / base
            path = out / f"build-{index}-{cmd}-{order}.json"
            common = ["--q", fmt(q), "--order", str(order), "--output", str(path)]
            if cmd in ("beta", "delta"):
                beta = rng.choice((1, -1)) * BUILD_BETA[order]
                argv = ["beta", "--beta", fmt(beta)] + common
                if cmd == "delta":
                    ops.append(Op(argv + ["--delta"], path, delta_check(beta, q, order), cold=True))
                else:
                    ops.append(Op(argv, path, beta_check(beta, q, order), cold=True))
            elif cmd == "hermite":
                n = BUILD_N[order]
                ops.append(Op(["hermite", "--n", str(n)] + common, path, hermite_check(n, q, order), cold=True))
            else:
                p = BUILD_P[order]
                ops.append(Op(["ufunc", "--p", str(p)] + common, path, ufunc_check(p, q, order), cold=True))
    return ops


# -- apply_batch --------------------------------------------------------------

APPLY_QS = (F(3, 2), F(5, 4))
APPLY_BETAS = (F(-1, 2), F(1, 2))
APPLY_ORDERS = (24, 32, 40, 48)
# small enough that the truncated tail stays far below 1e-10 for q <= 3/2,
# large enough that the float q-quotient keeps its digits
TABLE_XS = (F(1, 8), F(-1, 8), F(3, 16), F(-3, 16), F(1, 4), F(-1, 4))
TABLE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Input:
    """A generated input series, and the vacuum it is, if it is one."""

    path: Path
    coeffs: tuple[Fraction, ...]
    kind: str  # "vacuum", "dense" or "poly"
    q: Optional[Fraction] = None
    beta: Optional[Fraction] = None


def random_coefficient(rng: random.Random) -> Fraction:
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


class ApplyBatch:
    """A batch of apply / table --op requests on generated series in one process.

    Caches are kept between requests: q and beta come from two-value pools, so
    the operators' coefficient series repeat and qspecial's caches hit.
    """

    name = "apply_batch"

    def __init__(self) -> None:
        self.inputs: list[Input] = []
        self._batch: Optional[list[tuple]] = None
        self._expected: dict[tuple, list[Fraction]] = {}

    def write_inputs(self, directory: Path, rng: random.Random) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        inputs = []
        for q in APPLY_QS:
            for beta in APPLY_BETAS:
                for order in APPLY_ORDERS:
                    coeffs = oracle.gauss(beta, q, order)
                    inputs.append(Input(directory / f"vac-{len(inputs)}.json", tuple(coeffs), "vacuum", q, beta))
        for i in range(8):
            order = APPLY_ORDERS[i % len(APPLY_ORDERS)]
            coeffs = [random_coefficient(rng) for _ in range(order + 1)]
            inputs.append(Input(directory / f"dense-{i}.json", tuple(coeffs), "dense"))
        for i in range(8):
            order = APPLY_ORDERS[i % len(APPLY_ORDERS)]
            degree = rng.randint(4, 10)
            coeffs = [random_coefficient(rng) for _ in range(degree + 1)] + [F(0)] * (order - degree)
            inputs.append(Input(directory / f"poly-{i}.json", tuple(coeffs), "poly"))
        for item in inputs:
            write_series(item.path, list(item.coeffs))
        self.inputs = inputs

    def expected(self, op: str, item: Input, q: Fraction, beta: Fraction, n: int) -> list[Fraction]:
        key = (op, item.path.name, q, beta, n)
        if key not in self._expected:
            self._expected[key] = oracle.apply_named(op, list(item.coeffs), q, beta, n)
        return self._expected[key]

    def apply_check(self, op: str, item: Input, q: Fraction, beta: Fraction, n: int) -> Check:
        drop = 1 if op in ("Tplus", "Tminus") else 2

        def check(text: str) -> Optional[str]:
            got = parse_series(text, len(item.coeffs) - 1 - drop)
            if item.q == q and item.beta == beta and op in ("Tplus", "Ob"):
                if any(got):
                    return f"{op} does not annihilate its own vacuum"
            return first_mismatch(got, self.expected(op, item, q, beta, n))

        return guarded(check)

    def table_check(self, op: str, item: Input, q: Fraction, beta: Fraction, xs: list[Fraction]) -> Check:
        def check(text: str) -> Optional[str]:
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["x", "value"] or [r[0] for r in rows[1:]] != [fmt(x) for x in xs]:
                return "table rows do not match the requested points"
            exact = self.expected(op, item, q, beta, 0)
            for x, (_, value) in zip(xs, rows[1:]):
                want = float(oracle.evaluate(exact, x))
                # relative to the sum of the terms' sizes, so a value that
                # cancels to near zero is judged on the digits it can carry
                size = float(sum(abs(c) * abs(x) ** k for k, c in enumerate(exact)))
                if not math.isclose(float(value), want, rel_tol=0.0, abs_tol=TABLE_TOLERANCE * size):
                    return f"{op} at x={fmt(x)}: {value} vs exact {want!r}"
            return None

        return guarded(check)

    def draw_batch(self, rng: random.Random) -> list[tuple]:
        """The run's request batch: the twelve-request mix once per (order, q) pair.

        The order, q and kind of input of every request are fixed, so every
        seed's batch costs the same; the seed picks which file of that kind
        and order, beta, n and the sample points.
        """
        batch = []
        for order in APPLY_ORDERS:
            for q in APPLY_QS:
                def pick(kind: str, keep: Callable[[Input], bool] = lambda i: True) -> Input:
                    return rng.choice([i for i in self.inputs if i.kind == kind
                                       and len(i.coeffs) == order + 1 and keep(i)])

                own = pick("vacuum", lambda i: i.q == q)
                batch.append(("apply", "Tplus", own, q, own.beta, 0, None))
                batch.append(("apply", "Ob", own, q, own.beta, 0, None))
                for op, kind in (("Tminus", "dense"), ("Of", "vacuum"), ("h0", "dense"),
                                 ("h1", "vacuum"), ("OH", "dense"), ("Ophi", "vacuum")):
                    batch.append(("apply", op, pick(kind), q, rng.choice(APPLY_BETAS), rng.randrange(5), None))
                for op, kind in (("Ob", "poly"), ("Of", "vacuum"), ("Tplus", "poly"), ("Tminus", "vacuum")):
                    beta = rng.choice(APPLY_BETAS)
                    # an own vacuum maps to zero, where a relative comparison means nothing
                    item = pick(kind, lambda i: (i.q, i.beta) != (q, beta))
                    batch.append(("table", op, item, q, beta, 0, rng.sample(TABLE_XS, 3)))
        return batch

    def round(self, rng: random.Random, index: int, out: Path) -> list[Op]:
        """The same batch every round, so the caches fill in the first round and then hit."""
        if self._batch is None:
            self._batch = self.draw_batch(rng)
        ops = []
        for k, (command, op, item, q, beta, n, xs) in enumerate(self._batch):
            common = ["--op", op, "--q", fmt(q), "--beta", fmt(beta), "--input", str(item.path)]
            if command == "apply":
                path = out / f"apply-{index}-{k}.json"
                argv = ["apply", *common, "--n", str(n), "--output", str(path)]
                ops.append(Op(argv, path, self.apply_check(op, item, q, beta, n)))
            else:
                path = out / f"table-{index}-{k}.csv"
                argv = ["table", *common, "--xs", ",".join(fmt(x) for x in xs), "--output", str(path)]
                ops.append(Op(argv, path, self.table_check(op, item, q, beta, xs)))
        return ops


class VerifyBuild:
    """The cold workload: the ``verify all`` cells, then the series commands.

    Both start from cold caches and share no inputs; they run as one workload
    so that each run lasts long enough to be steady on a shared host. The
    per-layer metrics still tell them apart: ``verify.*`` and order-32 series
    work come from the verify cells, orders 64/128 and ``max_bits`` from the
    series commands.
    """

    name = "verify_build"

    def write_inputs(self, directory: Path, rng: random.Random) -> None:
        directory.mkdir(parents=True, exist_ok=True)

    def round(self, rng: random.Random, index: int, out: Path) -> list[Op]:
        return verify_ops(index, out) + series_ops(rng, index, out)


WORKLOADS = {w.name: w for w in (VerifyBuild, ApplyBatch)}
