"""Identity suites: the machine-checkable claims behind the construction.

Each suite checks one cell of the (suite, q, beta) grid that ``cells`` owns
and returns a list of CheckResult records, one per identity; its fixed sizes
are module constants. ``run_cell`` is the one code that runs a cell, for
``run_suite`` and for ``qsusy verify`` alike. A suite's default order, in its
signature, is the library's: ``qsusy verify`` always passes an order
(``--order``, QSUSY_ORDER or 32), so ``verify kernel`` reports order 32 where
``run_suite("kernel")`` reports 40.

Everything is exact: a check passes only when the residual series is zero in
every valid coefficient, and the reported worst deviation is an exact
rational (so "0" really means zero).

Suites:

* kernel: x beta_q e, which Tplus applies to its vacuum e, is D_q e in
  closed form.
* factorization: the five-term expanded partner operators equal the composed
  products on a full monomial basis; Of's table is Ob's with each row
  (a, m, k) times (-1)^(m+k).
* leibniz: the product rule of the symmetric q-derivative on random
  polynomial pairs, each side chained through the kernel bodies unreduced
  and the residual judged unreduced.
* limits: undeformed reduction at q = 1 and the convergence rates of the
  drift data as q -> 1.
* classical: Hermite/oscillator annihilation and the q = 1 collapse of the
  deformed Hermite functions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add as _add, sub as _sub
from typing import Optional, Sequence

from .qcore import Deformation, Rational, _Frozen, _shown, format_rational
from .series import PowerSeries, _from_ratios
from .qspecial import (
    VacuumSpec,
    beta_q,
    classical_hermite,
    drift_deviations,
    q_gauss,
    q_hermite,
)
from . import operators
from .operators import (
    NormalForm,
    classical_hermite_op,
    classical_schrodinger_op,
    convergence_ratios,
    normal_form,
    second_order_composed,
    susy_pair_limit,
)

__all__ = [
    "CheckResult",
    "DEFAULT_QS",
    "DEFAULT_BETAS",
    "LEIBNIZ_QS",
    "SUITES",
    "kernel_suite",
    "factorization_suite",
    "leibniz_suite",
    "limits_suite",
    "classical_suite",
    "cells",
    "run_cell",
    "run_suite",
]

DEFAULT_QS: tuple[Rational, ...] = (Fraction(2), Fraction(3, 2), Fraction(5, 4))
DEFAULT_BETAS: tuple[Rational, ...] = (Fraction(-1, 2), Fraction(1, 2))
#: The q values the leibniz suite sweeps when no --q is pinned.
LEIBNIZ_QS: tuple[Rational, ...] = (Fraction(2), Fraction(3, 2))
# the fixed sizes of the suites; a run sets only q, beta and order
LEIBNIZ_PAIRS = 200
LEIBNIZ_MAX_DEGREE = 10
LEIBNIZ_SEED = 0x5EED
LIMITS_TOP_DEGREE = 20
CLASSICAL_MAX_N = 6


class CheckResult(_Frozen):
    """One identity's outcome; ``params`` is a new empty dict when not given."""

    __slots__ = ("name", "params", "status", "worst_deviation", "first_failure_index")

    def __init__(
        self,
        name: str,
        params: Optional[dict[str, str]] = None,
        status: str = "pass",
        worst_deviation: str = "0",
        first_failure_index: Optional[int] = None,
    ) -> None:
        params = {} if params is None else params
        super().__init__(name, params, status, worst_deviation, first_failure_index)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _residual_result(
    name: str, params: dict[str, str], residual: PowerSeries, min_order: int
) -> CheckResult:
    """Pass only if the residual is exactly zero and long enough to mean it.

    The residual need not be reduced: ``max_abs_coeff`` is a reduced Fraction
    and ``first_nonzero_index`` does not read the denominator.
    """
    if residual.order < min_order:
        return CheckResult(
            name=name,
            params=params,
            status="fail",
            worst_deviation=f"insufficient order {residual.order} < {min_order}",
        )
    if residual.is_zero:
        return CheckResult(name=name, params=params)
    return CheckResult(
        name=name,
        params=params,
        status="fail",
        worst_deviation=format_rational(residual.max_abs_coeff()),
        first_failure_index=residual.first_nonzero_index(),
    )


def _probe_result(
    name: str, params: dict[str, str], diff: NormalForm, degrees: range, min_order: int
) -> CheckResult:
    """Pass only if the difference operator sends every probe x^j to exactly zero.

    Each probe's residual is its rows, an unreduced series; the first one that
    is not zero (or is too short) is reported as it stands.
    """
    for j in degrees:
        residual = diff.rows(j)
        if residual.order < min_order or not residual.is_zero:
            return _residual_result(name, params, residual, min_order)
    return CheckResult(name=name, params=params)


def _cell_params(v: VacuumSpec) -> dict[str, str]:
    return {
        "q": format_rational(v.d.q),
        "beta": format_rational(v.beta),
        "order": str(v.order),
    }


# -- suites -------------------------------------------------------------------


def kernel_suite(q: Rational, beta: Rational, order: int = 40) -> list[CheckResult]:
    """x beta_q(x^2) e, the product Tplus applies to e = e_q(beta x^2), is D_q e in closed form,
    beta x (q e_q(q beta x^2) + e_q(beta x^2 / q) / q): no division, by [2n]_q = [n]_q (q^n + q^-n).
    """
    d = Deformation(q)
    v = VacuumSpec(beta=beta, d=d, order=order)
    applied = beta_q(v)._times(q_gauss(v))
    # e_q(q beta x^2) is e_q(beta x^2 / q) at qx
    low = q_gauss(VacuumSpec(v.beta / d.q, d, order))
    closed = low._scale_arg(d.q)._scaled(v.beta * d.q)._combine(low._scaled(v.beta / d.q), _add)
    residual = applied._combine(closed, _sub)
    # x times the difference is x beta_q e - D_q e; a zero one passes as it is
    if not residual.is_zero:
        residual = residual._mul_poly([0, 1])
    return [_residual_result("kernel", _cell_params(v), residual, order - 1)]


def factorization_suite(q: Rational, beta: Rational, order: int = 32) -> list[CheckResult]:
    """Expanded five-term partner operators equal the composed products.

    The cell builds the five-term table once, from the vacuum's drift series
    beta_q, for Ob = Tminus Tplus; Of's table is its mirror, row (a, m, k)
    times (-1)^(m+k), since Tplus is Tminus with D_q -> -D_q. The rows stay
    unreduced, so a passing cell takes no gcd. Each side is checked against
    its own composed product, so "f" still tests Tplus Tminus. Checked on the
    complete monomial basis x^0..x^order, which settles the operator identity
    on the whole truncated space by linearity. Both sides are read through the
    term normal form of their difference.
    """
    v = VacuumSpec(beta=beta, d=Deformation(q), order=order)
    # the table is looked up on the module at call time, so that a wrong
    # table or sign rule put there reaches this check
    rows = operators.five_term_table(v.d, beta_q(v), "b")
    return [
        _probe_result(
            f"factorization[{which}]",
            _cell_params(v),
            normal_form(operators._expanded(v.d, table) - second_order_composed(v, which), order),
            range(order + 1),
            order - 2,
        )
        for which, table in (("b", rows), ("f", operators._mirrored(rows)))
    ]


def _random_polynomial(rng: random.Random, max_degree: int, order: int) -> PowerSeries:
    """Polynomial with rational coefficients in [-5, 5], small denominators."""
    degree = rng.randint(0, max_degree)
    nums, dens = [], []
    for _ in range(degree + 1):
        den = rng.randint(1, 6)
        nums.append(rng.randint(-5 * den, 5 * den))
        dens.append(den)
    pad = order - degree
    return _from_ratios(order, nums + [0] * pad, dens + [1] * pad)


def leibniz_suite(q: Rational) -> list[CheckResult]:
    """Product rule D_q(FG) = (D_q F) G(qx) + F(x/q) (D_q G), exactly.

    Checked on LEIBNIZ_PAIRS seeded random polynomial pairs of degree at most
    LEIBNIZ_MAX_DEGREE; one result, the first failing pair's if any. Each
    side chains the kernel bodies unreduced, as the operator walk does, and
    the first residual that is not zero (or is too short) is reported as it
    stands, with no gcd.
    """
    d = Deformation(q)
    up, down = Fraction(q), 1 / Fraction(q)
    rng = random.Random(LEIBNIZ_SEED)
    order = 2 * LEIBNIZ_MAX_DEGREE + 2
    params = {"q": format_rational(q), "pairs": str(LEIBNIZ_PAIRS), "seed": str(LEIBNIZ_SEED)}
    for _ in range(LEIBNIZ_PAIRS):
        f = _random_polynomial(rng, LEIBNIZ_MAX_DEGREE, order)
        g = _random_polynomial(rng, LEIBNIZ_MAX_DEGREE, order)
        lhs = f._times(g)._jackson(d)
        left = f._jackson(d)._times(g._scale_arg(up))
        right = f._scale_arg(down)._times(g._jackson(d))
        residual = lhs._combine(left._combine(right, _add), _sub)
        if residual.order < order - 1 or not residual.is_zero:
            return [_residual_result("leibniz", params, residual, order - 1)]
    return [CheckResult(name="leibniz", params=params)]


def _ratio_band_result(
    name: str,
    params: dict[str, str],
    ratios: Sequence[Rational],
    target: Rational,
    tolerance: Rational,
    require_all: bool,
) -> CheckResult:
    """Successive-ratio convergence check, computed and compared exactly.

    With require_all, every ratio must sit inside target +- tolerance;
    otherwise only the final ratio must, and the distance to the target must
    shrink monotonically (the sequence converges into the band).
    """
    gaps = [abs(r - target) for r in ratios]
    if require_all:
        ok = all(g <= tolerance for g in gaps)
    else:
        ok = gaps[-1] <= tolerance and all(a > b for a, b in zip(gaps, gaps[1:]))
    return CheckResult(
        name=name,
        params=params,
        status="pass" if ok else "fail",
        worst_deviation=format_rational(max(gaps)),
    )


def limits_suite(order: int = 24) -> list[CheckResult]:
    """Undeformed reduction at q = 1 and convergence of the drift data.

    * At q = 1 exactly, the composed partner operators act on monomials
      x^0..x^LIMITS_TOP_DEGREE identically to -D^2 + b1^2 x^2 +- b1, b1 = 2 beta.
    * Along q = 1 + 2**-k the deviation beta_q(0) - 2 beta is second order
      in (q - 1), successive ratios inside 1/4 +- 1/20.
    * The drift series beta_q(x^2) - (1/q) beta_q(x^2/q^2) goes to zero at
      first order: its constant term carries the factor (1 - 1/q), so the
      ratios converge to 1/2, checked inside 1/2 +- 1/20.
    """
    out = []
    need = max(order, LIMITS_TOP_DEGREE + 4)
    # one cell that takes no pin: it covers the betas of the default grid
    betas = dict.fromkeys(beta for _, _, beta in cells("kernel"))
    for beta in betas:
        v1 = VacuumSpec(beta=beta, d=Deformation(1), order=need)
        h0, h1 = susy_pair_limit(v1)
        for which, target in (("b", h0), ("f", h1)):
            out.append(_probe_result(
                f"undeformed_reduction[{which}]",
                {"beta": format_rational(beta), "order": str(need)},
                normal_form(second_order_composed(v1, which) - target, need),
                range(LIMITS_TOP_DEGREE + 1),
                need - 2,
            ))

    sweep = [1 + Fraction(1, 2**k) for k in range(1, 7)]
    for beta in betas:
        beta0_devs = []
        drift_devs = []
        for q in sweep:
            beta0_dev, drift_dev = drift_deviations(VacuumSpec(beta=beta, d=Deformation(q), order=8))
            beta0_devs.append(beta0_dev)
            drift_devs.append(drift_dev)
        params = {"beta": format_rational(beta), "sweep": "1+2^-k, k=1..6"}
        out.append(
            _ratio_band_result(
                "limit_rate[beta0]",
                params,
                convergence_ratios(beta0_devs),
                Fraction(1, 4),
                Fraction(1, 20),
                require_all=True,
            )
        )
        shrink_ok = all(a > b for a, b in zip(drift_devs, drift_devs[1:]))
        out.append(
            CheckResult(
                name="drift_vanishes",
                params=params,
                status="pass" if shrink_ok and drift_devs[-1] < drift_devs[0] / 8 else "fail",
                worst_deviation=format_rational(drift_devs[-1]),
            )
        )
        out.append(
            _ratio_band_result(
                "limit_rate[drift]",
                params,
                convergence_ratios(drift_devs),
                Fraction(1, 2),
                Fraction(1, 20),
                require_all=False,
            )
        )
    return out


def classical_suite(order: int = 24) -> list[CheckResult]:
    """q = 1 oracles: operator annihilation and Rodrigues/recurrence agreement.

    ``rodrigues_collapse`` reads ``q_hermite``'s q-binomial construction at
    q = 1; the tests check that construction against the series product
    (-1)**n e_q(x^2) D_q**n e_q(-x^2) itself, at q = 1 and away from it.
    """
    out = []
    d1 = Deformation(1)
    gauss = q_gauss(VacuumSpec(beta=Fraction(-1, 2), d=d1, order=order))
    for n in range(CLASSICAL_MAX_N + 1):
        params = {"n": str(n), "order": str(order)}
        hn = classical_hermite(n, order)
        out.append(
            _residual_result(
                "hermite_annihilation",
                params,
                classical_hermite_op(n).apply(hn),
                order - 2,
            )
        )
        phi = gauss * hn
        out.append(
            _residual_result(
                "oscillator_annihilation",
                params,
                classical_schrodinger_op(n).apply(phi),
                order - 2,
            )
        )
        # the Rodrigues product loses n orders; sized per level, the residual
        # runs to order >= n + 4, so it also finds a nonzero coefficient of
        # the q = 1 product above degree n, where H_n has none
        h_order = max(order, 2 * n + 4)
        residual = q_hermite(n, d1, h_order)._combine(classical_hermite(n, h_order), _sub)
        out.append(_residual_result("rodrigues_collapse", params, residual, h_order - n))
    return out


SUITES = ("kernel", "factorization", "leibniz", "limits", "classical")

Cell = tuple[str, Optional[Rational], Optional[Rational]]
# the suites whose sizes are all fixed: they take no order
_FIXED_SIZE = ("leibniz",)


def cells(
    suite: str, q: Optional[Rational] = None, beta: Optional[Rational] = None, order: Optional[int] = None
) -> list[Cell]:
    """The (suite, q, beta) cells that a run of one suite, or of "all", covers.

    kernel and factorization sweep DEFAULT_QS x DEFAULT_BETAS, leibniz sweeps
    LEIBNIZ_QS, and limits (over that grid's betas) and classical are one cell
    each. A pinned q or beta replaces its sweep; a pinned order is read by
    every suite but leibniz. "all" is the union of the suites, so it keeps a
    pin that some suite takes; a pin that no cell takes would be silently
    ignored, so it raises ``ValueError``. So does an order below
    CLASSICAL_MAX_N for a run with the classical cell, which checks H_0
    through H_CLASSICAL_MAX_N.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown verification suite: {suite!r}")
    qs = DEFAULT_QS if q is None else (Fraction(q),)
    betas = DEFAULT_BETAS if beta is None else (Fraction(beta),)
    out: list[Cell] = []
    for name in SUITES if suite == "all" else (suite,):
        if name in ("kernel", "factorization"):
            out += [(name, qq, bb) for qq in qs for bb in betas]
        elif name == "leibniz":
            out += [(name, qq, None) for qq in (LEIBNIZ_QS if q is None else qs)]
        else:
            out.append((name, None, None))
    ignored = [flag for k, (flag, pin) in enumerate((("--q", q), ("--beta", beta)), 1)
               if pin is not None and all(cell[k] is None for cell in out)]
    if order is not None and all(cell[0] in _FIXED_SIZE for cell in out):
        ignored.append("--order")
    if ignored:
        raise ValueError(f"verify {suite} does not take {' or '.join(ignored)}")
    if order is not None and order < CLASSICAL_MAX_N and ("classical", None, None) in out:
        raise ValueError(f"verify {suite} needs --order >= {CLASSICAL_MAX_N}, got {_shown(order)}")
    return out


def run_suite(
    suite: str,
    q: Optional[Rational] = None,
    beta: Optional[Rational] = None,
    order: Optional[int] = None,
) -> list[CheckResult]:
    """Run one named suite over its ``cells``, optionally pinned to one q, beta or order."""
    if suite not in SUITES:
        raise ValueError(f"unknown verification suite: {suite!r}")
    return [check for cell in cells(suite, q, beta, order) for check in run_cell(cell, order)]


def run_cell(cell: Cell, order: Optional[int] = None) -> list[CheckResult]:
    """The checks of one cell of ``cells``, at ``order`` when its suite reads one.

    Without an order a suite runs at the default of its signature; a fixed-size
    suite (leibniz) ignores the order, so that "all" can carry one.
    """
    suite, q, beta = cell
    # the suite is looked up by its module name at call time, so a wrapper put
    # on that name (a tracer, a test's fault) is the one that runs
    run = globals()[f"{suite}_suite"]
    pins = [pin for pin in (q, beta) if pin is not None]
    if order is None or suite in _FIXED_SIZE:
        return run(*pins)
    return run(*pins, order=order)
