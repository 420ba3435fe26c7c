"""The suites' cell grid, and seeded faults that each classical and limit check must catch.

Each fault test computes the expected ``worst_deviation`` and
``first_failure_index`` itself, from closed forms or from the unpatched
library, and never through the suite's own comparison.
"""

import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsusy import qspecial, series, verify
from qsusy.operators import scalar_op
from qsusy.qcore import Deformation, format_rational
from qsusy.qspecial import VacuumSpec
from qsusy.series import PowerSeries, constant_series, make_series, monomial

SWEEP = [1 + F(1, 2**k) for k in range(1, 7)]


# -- the grid -----------------------------------------------------------------


@pytest.mark.parametrize("suite, pins, flags", [
    ("limits", {"q": 2}, "--q"),
    ("leibniz", {"beta": 5}, "--beta"),
    ("classical", {"q": 3}, "--q"),
    ("classical", {"q": 3, "beta": 5}, "--q or --beta"),
    ("leibniz", {"order": 28}, "--order"),
])
def test_run_suite_refuses_a_pin_it_would_ignore(suite, pins, flags):
    with pytest.raises(ValueError, match=f"^verify {suite} does not take {flags}$"):
        verify.run_suite(suite, **pins)


def test_cells_refuse_an_order_that_no_cell_reads():
    with pytest.raises(ValueError, match="^verify leibniz does not take --order$"):
        verify.cells("leibniz", order=64)
    with pytest.raises(ValueError, match="^verify leibniz does not take --beta or --order$"):
        verify.cells("leibniz", beta=5, order=64)
    for suite in ("all", "kernel", "factorization", "limits", "classical"):
        assert verify.cells(suite, order=64) == verify.cells(suite)


@pytest.mark.parametrize("suite, order", [("classical", 4), ("classical", 5), ("all", 5)])
def test_a_run_with_the_classical_cell_refuses_an_order_below_6(suite, order):
    # the classical cell checks H_0 through H_6, so order 6 is the least it takes
    refusal = f"^verify {suite} needs --order >= 6, got {order}$"
    with pytest.raises(ValueError, match=refusal):
        verify.cells(suite, order=order)
    if suite != "all":
        with pytest.raises(ValueError, match=refusal):
            verify.run_suite(suite, order=order)
    assert verify.cells(suite, order=6) == verify.cells(suite)
    assert verify.cells("kernel", order=order) == verify.cells("kernel")


def test_run_suite_refuses_an_unknown_suite():
    for suite in ("all", "kernels"):
        with pytest.raises(ValueError, match="unknown verification suite"):
            verify.run_suite(suite)


def test_run_suite_covers_the_default_grid():
    grid = [(q, beta) for q in verify.DEFAULT_QS for beta in verify.DEFAULT_BETAS]
    assert verify.run_suite("kernel", order=12) == [
        c for q, beta in grid for c in verify.kernel_suite(q, beta, order=12)
    ]
    assert verify.run_suite("kernel", q=F(3, 2), order=12) == [
        c for beta in verify.DEFAULT_BETAS for c in verify.kernel_suite(F(3, 2), beta, order=12)
    ]
    assert verify.run_suite("leibniz", q=2) == verify.leibniz_suite(F(2))


def one_cell(suite, q, beta, order):
    """The suite's one-cell call, written out here, not read off run_suite."""
    sized = {} if order is None else {"order": order}
    if suite in ("kernel", "factorization"):
        return getattr(verify, f"{suite}_suite")(q, beta, **sized)
    if suite == "leibniz":
        return verify.leibniz_suite(q)
    return getattr(verify, f"{suite}_suite")(**sized)


PINS = {"kernel": {"q": F(3, 2)}, "factorization": {"beta": F(1, 3)}, "leibniz": {"q": F(5, 4)}}


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("order", [None, 28])
@pytest.mark.parametrize("suite", verify.SUITES)
def test_run_suite_is_its_cells_one_by_one(suite, order, pinned):
    pins = PINS.get(suite, {}) if pinned else {}
    if suite == "leibniz" and order is not None:
        # leibniz reads no order, so a run of it alone refuses one
        with pytest.raises(ValueError, match="^verify leibniz does not take --order$"):
            verify.run_suite(suite, order=order, **pins)
        return
    expected = [
        check
        for _, q, beta in verify.cells(suite, **pins)
        for check in one_cell(suite, q, beta, order)
    ]
    assert verify.run_suite(suite, order=order, **pins) == expected
    assert expected and all(c.passed for c in expected)


def test_each_default_order_is_its_suite_signature():
    orders = {"kernel": "40", "factorization": "32", "limits": "24", "classical": "24"}
    for suite, order in orders.items():
        assert {c.params.get("order", order) for c in verify.run_suite(suite)} == {order}


def test_cells():
    assert len(verify.cells("all")) == 16
    assert verify.cells("leibniz") == [("leibniz", F(2), None), ("leibniz", F(3, 2), None)]
    assert verify.cells("all", q=2, beta=F(1, 3))[:2] == [
        ("kernel", F(2), F(1, 3)), ("factorization", F(2), F(1, 3)),
    ]
    assert verify.cells("all", beta=F(1, 3))[-3:] == [
        ("leibniz", F(3, 2), None), ("limits", None, None), ("classical", None, None),
    ]


# -- classical ----------------------------------------------------------------


def hermite_coeffs(n):
    """H_n by its explicit sum n! sum_m (-1)^m (2x)^(n-2m) / (m! (n-2m)!)."""
    c = [F(0)] * (n + 1)
    for m in range(n // 2 + 1):
        c[n - 2 * m] = F((-1) ** m * factorial(n) * 2 ** (n - 2 * m), factorial(m) * factorial(n - 2 * m))
    return c


def oscillator_coeffs(n, order):
    """exp(-x^2/2) H_n, coefficients 0..order."""
    gauss = [F(0)] * (order + 1)
    for k in range(order // 2 + 1):
        gauss[2 * k] = F((-1) ** k, 2**k * factorial(k))
    h = hermite_coeffs(n)
    return [sum(h[j] * gauss[i - j] for j in range(min(i, n) + 1)) for i in range(order + 1)]


def worst_and_first(coeffs):
    nonzero = [k for k, c in enumerate(coeffs) if c]
    return format_rational(max(abs(c) for c in coeffs)), nonzero[0]


def classical_checks(name, order=24):
    return [c for c in verify.classical_suite(order=order) if c.name == name]


def test_wrong_hermite_constant_fails_hermite_annihilation(monkeypatch):
    # D^2 - 2x D + 2n + 1: the residual is H_n itself
    original = verify.classical_hermite_op
    monkeypatch.setattr(verify, "classical_hermite_op", lambda n: original(n) + scalar_op(1))
    checks = classical_checks("hermite_annihilation")
    assert [c.params["n"] for c in checks] == [str(n) for n in range(7)]
    for n, check in enumerate(checks):
        assert check.status == "fail"
        assert (check.worst_deviation, check.first_failure_index) == worst_and_first(hermite_coeffs(n))


def test_wrong_oscillator_constant_fails_oscillator_annihilation(monkeypatch):
    # -D^2 + x^2 - 2n: the residual is exp(-x^2/2) H_n through order 22
    original = verify.classical_schrodinger_op
    monkeypatch.setattr(verify, "classical_schrodinger_op", lambda n: original(n) + scalar_op(1))
    checks = classical_checks("oscillator_annihilation")
    for n, check in enumerate(checks):
        assert check.status == "fail"
        expected = worst_and_first(oscillator_coeffs(n, 22))
        assert (check.worst_deviation, check.first_failure_index) == expected


def test_perturbed_q1_hermite_fails_rodrigues_collapse(monkeypatch):
    original = verify.q_hermite
    monkeypatch.setattr(
        verify, "q_hermite", lambda n, d, order: original(n, d, order) + monomial(n, order, F(1, 3))
    )
    checks = classical_checks("rodrigues_collapse")
    assert len(checks) == 7
    for n, check in enumerate(checks):
        assert check.status == "fail"
        assert (check.worst_deviation, check.first_failure_index) == ("1/3", n)


def test_q1_hermite_with_a_tail_fails_rodrigues_collapse(monkeypatch):
    # nonzero x^(n+1) and x^(n+2), where H_n has none: the residual reaches them
    original = verify.q_hermite

    def with_tail(n, d, order):
        return original(n, d, order) + monomial(n + 1, order, F(1, 5)) + monomial(n + 2, order, F(-1, 7))

    monkeypatch.setattr(verify, "q_hermite", with_tail)
    checks = classical_checks("rodrigues_collapse")
    assert len(checks) == 7
    for n, check in enumerate(checks):
        assert check.status == "fail"
        assert (check.worst_deviation, check.first_failure_index) == ("1/5", n + 1)


def test_classical_passes_unpatched():
    assert all(c.passed and c.worst_deviation == "0" for c in verify.classical_suite(order=24))


# -- limit rates ----------------------------------------------------------------


def limit_checks(name):
    return {c.params["beta"]: c for c in verify.limits_suite() if c.name == name}


def band_gap(devs, target):
    ratios = [b / a for a, b in zip(devs, devs[1:])]
    return format_rational(max(abs(r - target) for r in ratios))


def drift_devs(drift, beta, fault):
    """Largest coefficient of fault(q, drift(v)) along the sweep, as the suite sizes it."""
    return [fault(q, drift(VacuumSpec(beta, Deformation(q), 8))).max_abs_coeff() for q in SWEEP]


def test_first_order_beta0_fails_its_rate(monkeypatch):
    # beta_q(0) - 2 beta gains a (q - 1) term, so the ratios go to 1/2, not 1/4
    original = qspecial.beta_q
    monkeypatch.setattr(qspecial, "beta_q", lambda v: original(v) + constant_series(v.d.q - 1, v.order))
    checks = limit_checks("limit_rate[beta0]")
    for beta in verify.DEFAULT_BETAS:
        # beta_q(0) = beta (q + 1/q), so its deviation is beta (q - 1)^2 / q
        devs = [abs(beta * (q - 1) ** 2 / q + (q - 1)) for q in SWEEP]
        check = checks[format_rational(beta)]
        assert check.status == "fail"
        assert (check.worst_deviation, check.first_failure_index) == (band_gap(devs, F(1, 4)), None)


def test_drift_that_does_not_vanish_fails(monkeypatch):
    original = qspecial.delta_beta_q
    offset = lambda q, s: s + constant_series(F(1, 10), s.order)
    monkeypatch.setattr(qspecial, "delta_beta_q", lambda v: offset(v.d.q, original(v)))
    for beta in verify.DEFAULT_BETAS:
        devs = drift_devs(original, beta, offset)
        check = limit_checks("drift_vanishes")[format_rational(beta)]
        assert check.status == "fail"
        assert (check.worst_deviation, check.first_failure_index) == (format_rational(devs[-1]), None)


def test_second_order_drift_fails_its_rate_only(monkeypatch):
    # a drift that vanishes as (q - 1)^2 still vanishes, at the wrong rate
    original = qspecial.delta_beta_q
    square = lambda q, s: s * (q - 1)
    monkeypatch.setattr(qspecial, "delta_beta_q", lambda v: square(v.d.q, original(v)))
    for beta in verify.DEFAULT_BETAS:
        devs = drift_devs(original, beta, square)
        check = limit_checks("limit_rate[drift]")[format_rational(beta)]
        assert check.status == "fail"
        assert (check.worst_deviation, check.first_failure_index) == (band_gap(devs, F(1, 2)), None)
        assert limit_checks("drift_vanishes")[format_rational(beta)].passed


def test_limits_pass_unpatched():
    assert all(c.passed for c in verify.limits_suite())


# -- leibniz: the unreduced residual against the reducing path ------------------


def reducing_leibniz(q):
    """The leibniz cell through the public operations, each result reduced."""
    d = Deformation(q)
    rng = random.Random(verify.LEIBNIZ_SEED)
    order = 2 * verify.LEIBNIZ_MAX_DEGREE + 2
    params = {"q": format_rational(q), "pairs": str(verify.LEIBNIZ_PAIRS), "seed": str(verify.LEIBNIZ_SEED)}
    for _ in range(verify.LEIBNIZ_PAIRS):
        f = verify._random_polynomial(rng, verify.LEIBNIZ_MAX_DEGREE, order)
        g = verify._random_polynomial(rng, verify.LEIBNIZ_MAX_DEGREE, order)
        lhs = (f * g).jackson_derivative(d)
        rhs = f.jackson_derivative(d) * g.scale_arg(q) + f.scale_arg(1 / q) * g.jackson_derivative(d)
        res = verify._residual_result("leibniz", dict(params), lhs - rhs, order - 1)
        if not res.passed:
            return [res]
    return [verify.CheckResult(name="leibniz", params=params)]


def test_random_polynomial_draws_as_fractions_did():
    # the same rng draws, in the same order, as one Fraction per coefficient
    a, b = random.Random(7), random.Random(7)
    for _ in range(50):
        degree = b.randint(0, 10)
        coeffs = []
        for _ in range(degree + 1):
            den = b.randint(1, 6)
            coeffs.append(F(b.randint(-5 * den, 5 * den), den))
        got = verify._random_polynomial(a, 10, 22)
        want = make_series(coeffs, 22)
        assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


def weight_two(s):
    num = list(s.num)
    if len(num) > 2:
        num[2] *= 2
    return series._make(s.order, num, s.den)


def drop_two(s):
    return series._make(s.order - 2, s.num[: s.order - 1], s.den)


@pytest.mark.parametrize("body, fault", [
    ("_jackson", weight_two),
    ("_scale_arg", weight_two),
    ("_jackson", drop_two),
    ("_scale_arg", drop_two),
])
@pytest.mark.parametrize("q", [F(2), F(3, 2)])
def test_leibniz_fault_gives_the_reducing_report(monkeypatch, body, fault, q):
    assert verify.leibniz_suite(q) == reducing_leibniz(q) == [
        verify.CheckResult(name="leibniz", params={"q": format_rational(q), "pairs": "200", "seed": "24301"})
    ]
    original = getattr(PowerSeries, body)
    monkeypatch.setattr(PowerSeries, body, lambda self, *args: fault(original(self, *args)))
    [check] = verify.leibniz_suite(q)
    assert check.status == "fail"
    assert [check] == reducing_leibniz(q)


# -- residuals are judged unreduced ---------------------------------------------


def residual_pair(order, num, den, k):
    """A residual with k times each numerator over k times den, and its reduced form."""
    unreduced = series._make(order, [x * k for x in num], den * k)
    return unreduced, series._reduced(unreduced)


@pytest.mark.parametrize("order, num, den, min_order, status", [
    (6, [0] * 7, 35, 5, "pass"),
    (6, [0] * 7, 1, 6, "pass"),
    (5, [0, 0, 6, -15, 0, 9], 12, 4, "fail"),
    (3, [0, 4, -8, 2], 6, 3, "fail"),
    (3, [0] * 4, 7, 5, "fail"),
    (3, [1, 2, 0, 0], 7, 5, "fail"),
])
@pytest.mark.parametrize("k", [1, 6, 35])
def test_residual_result_reads_an_unreduced_residual(order, num, den, min_order, status, k):
    # a zero, a failing and a too-short residual give the reduced form's record
    unreduced, reduced = residual_pair(order, num, den, k)
    got = verify._residual_result("r", {"x": "1"}, unreduced, min_order)
    assert got == verify._residual_result("r", {"x": "1"}, reduced, min_order)
    assert got.status == status


@given(st.integers(-1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([0, 0, 0, 1, -2, 3, 12, -35]), min_size=n + 1, max_size=n + 1),
)), st.integers(1, 36), st.integers(1, 36), st.integers(0, 9))
def test_residual_result_ignores_a_common_factor(parts, den, k, min_order):
    unreduced, reduced = residual_pair(*parts, den, k)
    assert (verify._residual_result("r", {}, unreduced, min_order)
            == verify._residual_result("r", {}, reduced, min_order))
