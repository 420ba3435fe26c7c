"""The operator tree's term normal form, against series apply, and the checks built on it.

The oracle throughout is series apply of the nested tree, which shares no
code with the normal form beyond the leaf operations of the series kernel.
"""

from fractions import Fraction as F

import pytest

from qsusy import operators, qspecial, series, verify
from qsusy.cli import OPERATOR_NAMES, _build_operator, parse_args
from qsusy.operators import (
    QOperator,
    Shift,
    jackson_op,
    multiplication_op,
    normal_form,
    poly_multiplication_op,
    scalar_op,
    second_order_composed,
    second_order_direct,
    susy_pair_limit,
    t_generalized,
    t_plus_q,
)
from qsusy.qcore import GaussRational, Deformation, format_rational
from qsusy.qspecial import VacuumSpec, _log_derivative, beta_q, delta_beta_q, q_gauss, u_transform
from qsusy.series import _make, _reduced, constant_series, make_series, monomial, zero_series

D1 = Deformation(1)
FORMS = OPERATOR_NAMES + ("direct[b]", "direct[f]")


def build(name, q, order):
    if name.startswith("direct"):
        v = VacuumSpec(beta=F(-1, 2), d=Deformation(q), order=order)
        return second_order_direct(v, name[-2])
    config = parse_args([
        "apply", "--op", name, "--q", format_rational(q), "--beta", "-1/2", "--n", "2",
        "--order", str(order), "--input", "unused.json",
    ])
    return _build_operator(config, order)


def assert_same_series(got, want):
    """Equal in value and in order: canonical forms are unique, so compare them."""
    assert got.order == want.order
    assert (got.num, got.den) == (want.num, want.den)


def assert_rows_apply(nf, op, j, order):
    """nf.rows(j), an unreduced series, is op x^j: in value and order as it
    stands, and in stored form once reduced."""
    rows, want = nf.rows(j), op.apply(monomial(j, order))
    assert rows.order == want.order and rows == want
    assert_same_series(_reduced(rows), want)


def first_series_failure(left, right, order, degrees):
    """worst_deviation and first_failure_index of left - right on the first failing probe."""
    for j in degrees:
        probe = monomial(j, order)
        residual = left.apply(probe) - right.apply(probe)
        if not residual.is_zero:
            return format_rational(residual.max_abs_coeff()), residual.first_nonzero_index()
    return None


@pytest.mark.parametrize("order", [8, 16, 32])
@pytest.mark.parametrize("q", [F(1), F(3, 2), F(2, 3)])
@pytest.mark.parametrize("name", FORMS)
def test_normal_form_matches_nested_series_apply(name, q, order):
    op = build(name, q, order)
    nf = normal_form(op, order)
    for j in range(order + 1):
        assert_rows_apply(nf, op, j, order)


def test_scales_and_shifts_both_ways():
    # D_q after f(x/q^2) keeps a derivative term with lam = q^-2, so the rows
    # read the factor lam of the Jackson rule's (m + 1, lam) term
    d = Deformation(F(3, 2))
    v = VacuumSpec(beta=F(1, 2), d=d, order=12)
    op = (jackson_op(d) @ Shift(d, -2)) * F(-7, 3) + (
        multiplication_op(q_gauss(v)) @ Shift(d, 1)
    ) - poly_multiplication_op([0, F(5, 7)]) @ jackson_op(d) @ jackson_op(d)
    nf = normal_form(op, 12)
    assert (1, F(4, 9)) in nf.terms
    for j in range(13):
        assert_rows_apply(nf, op, j, 12)


def test_rows_are_the_unreduced_numerators():
    v = VacuumSpec(beta=F(-1, 2), d=Deformation(F(5, 4)), order=10)
    nf = normal_form(t_plus_q(v), 10)
    for j in range(11):
        rows = nf.rows(j)
        want = t_plus_q(v).apply(monomial(j, 10))
        assert rows.order == want.order
        assert [F(x, rows.den) for x in rows.num] == [c.re for c in want.coeffs]


def partner_differences(q, beta, order):
    """The two operators whose normal forms a passing check reads: direct - composed
    at q != 1 (factorization), composed - the undeformed partner at q = 1 (limits)."""
    v = VacuumSpec(beta=beta, d=Deformation(q), order=order)
    if q != 1:
        return [second_order_direct(v, w) - second_order_composed(v, w) for w in ("b", "f")]
    return [second_order_composed(v, w) - h for w, h in zip("bf", susy_pair_limit(v))]


PASSING_CELLS = [(q, beta, 32) for q in verify.DEFAULT_QS for beta in verify.DEFAULT_BETAS] + [
    (F(1), beta, 24) for beta in verify.DEFAULT_BETAS
]


@pytest.mark.parametrize("q, beta, order", PASSING_CELLS, ids=str)
def test_correct_identity_cancels_termwise(q, beta, order):
    # each identity holds term by term, so the difference has no terms left
    # and every probe row is empty
    for diff in partner_differences(q, beta, order):
        assert normal_form(diff, order).terms == {}


@pytest.mark.parametrize("q", [F(1), F(3, 2), F(2, 3)])
@pytest.mark.parametrize("name", FORMS)
def test_every_kept_term_is_canonical(name, q):
    # _reduced returns its argument itself when the gcd is already 1
    for a in normal_form(build(name, q, 16), 16).terms.values():
        assert _reduced(a) is a


@pytest.mark.parametrize("which", ["b", "f"])
@pytest.mark.parametrize("q, beta", [(F(3, 2), F(-1, 2)), (F(2), F(1, 2)), (F(4, 5), F(1, 2))])
def test_five_term_table_is_the_public_methods_table(q, beta, which):
    v = VacuumSpec(beta=beta, d=Deformation(q), order=20)
    sign, b = (1 if which == "b" else -1), beta_q(v)
    want = [
        (constant_series(-1, 20), 2, 0),
        (delta_beta_q(v).mul_poly([0, 1]) * -sign, 1, 0),
        ((b * b).mul_poly([0, 0, 1]), 0, 0),
        (b.jackson_derivative(v.d).mul_poly([0, 1]) * (sign * q), 0, 1),
        (b.scale_arg(1 / q) * sign, 0, 1),
    ]
    got = operators.five_term_table(v.d, b, which)
    assert [(m, k) for _, m, k in got] == [(m, k) for _, m, k in want]
    for (got_a, _, _), (want_a, _, _) in zip(got, want):
        assert_same_series(_reduced(got_a), want_a)


def drift(u, d):
    """B = w / x for the even transformation function u, with w = (D_q u) / u odd."""
    w = _log_derivative(u, d)
    assert w.num[0] == 0
    return _make(w.order - 1, w.num[1:], w.den)


def failing_probes(op, n):
    """The monomials x^j, j <= n, that op does not send to zero."""
    nf = normal_form(op, n)
    return [j for j in range(n + 1) if not nf.rows(j).is_zero]


@pytest.mark.parametrize("which", ["b", "f"])
@pytest.mark.parametrize("p", [0, 2, 4])
@pytest.mark.parametrize("q", [F(1), F(3, 2), F(5, 4), F(2)], ids=str)
def test_five_term_table_expands_the_pairs_of_u_p(q, p, which):
    # the table of B = (D_q u) / (x u) is the partner of +-D_q - (D_q u) / u
    d = Deformation(q)
    u, wrong = u_transform(p, d, 16), u_transform(p + 2, d, 16)
    plus, minus = t_generalized(u, d, 1), t_generalized(u, d, -1)
    composed = minus @ plus if which == "b" else plus @ minus
    n = u.order - 1
    table = lambda b: operators._expanded(d, operators.five_term_table(d, b, which))
    assert failing_probes(table(drift(u, d)) - composed, n) == []
    assert failing_probes(table(drift(wrong, d)) - composed, n) != []


@pytest.mark.parametrize("beta", [F(-1, 2), F(1, 2)], ids=str)
@pytest.mark.parametrize("q", [F(2), F(3, 2), F(5, 4), F(4, 5)], ids=str)
def test_of_is_ob_with_the_q_derivative_negated(q, beta):
    # read off the composed products, which never read the five-term table:
    # every term (m, q^k) of Of is (-1)^(m+k) times the same term of Ob
    v = VacuumSpec(beta=beta, d=Deformation(q), order=16)
    ob, of = (normal_form(second_order_composed(v, w), 16).terms for w in "bf")
    assert ob.keys() == of.keys() and ob
    for (m, lam), a in ob.items():
        (k,) = [k for k in range(-4, 5) if q**k == lam]
        assert_same_series(of[m, lam], a * (-1) ** (m + k))


def test_one_deformation_per_normal_form():
    op = jackson_op(Deformation(2)) @ jackson_op(Deformation(F(3, 2)))
    with pytest.raises(ValueError):
        normal_form(op, 8)


def test_insufficient_order_is_reported():
    # every row is zero, but the result is too short to mean it
    short = multiplication_op(zero_series(3))
    result = verify._probe_result("x", {}, normal_form(short, 10), range(11), 8)
    assert result.status == "fail"
    assert result.worst_deviation == "insufficient order 3 < 8"
    assert result.first_failure_index is None


class TestTree:
    def test_immutable(self):
        op = jackson_op(D1)
        with pytest.raises(AttributeError):
            op.d = Deformation(2)

    def test_point_form_needs_real_scales_and_a_deformed_derivative(self):
        d = Deformation(2)
        assert jackson_op(d).has_point_form
        # a complex scale or polynomial is refused when it is built
        with pytest.raises(ValueError, match="series and operators are real"):
            jackson_op(d) * GaussRational(0, 1)
        with pytest.raises(ValueError, match="series and operators are real"):
            poly_multiplication_op([GaussRational(0, 1)])
        assert (jackson_op(d) * GaussRational(3)).has_point_form
        assert not (jackson_op(d) @ jackson_op(D1)).has_point_form

    def test_no_point_form_without_float_values(self):
        # a q, a shift factor q^k or a scalar past the float range, or a
        # nonzero below it, leaves the series path to answer
        for big in (10**400, F(1, 10**400)):
            assert not jackson_op(Deformation(big)).has_point_form
            assert not (jackson_op(Deformation(2)) * big).has_point_form
        assert not Shift(Deformation(10**200), 2).has_point_form
        assert Shift(Deformation(10**200), 1).has_point_form
        assert (jackson_op(Deformation(2)) * 0).has_point_form

    def test_a_node_holds_only_its_fields(self):
        # nothing float is computed when a node is made, so a q or a scalar
        # past the float range builds and applies exactly
        assert QOperator.__slots__ == ()
        big = 10**400
        op = jackson_op(Deformation(big)) + scalar_op(big)
        assert not hasattr(op, "__dict__")
        assert op.apply(monomial(1, 4)) == make_series([1, big], 3)

    def test_point_form_keeps_the_float_order(self):
        # a sum adds left to right, a scale multiplies after its operand, and a
        # composition reads the inner form wherever the outer one reads f
        d = Deformation(F(3, 2))
        g = make_series([F(1, 3), F(-2, 5), F(1, 7)], 2)
        op = (jackson_op(d) @ multiplication_op(g)) * F(2, 3) + Shift(d, -1)
        f = lambda x: 1.0 / (1.0 + x * x)
        inner = lambda y: g.evaluate_float(y) * f(y)
        qf, x = 1.5, 0.3
        iqf = 1.0 / qf
        want = float(F(2, 3)) * ((inner(qf * x) - inner(iqf * x)) / (x * (qf - iqf)))
        assert op.apply_at(f, x) == want + f(float(F(2, 3)) * x)

    def test_name_shows_the_tree(self):
        op = jackson_op(Deformation(2)) - multiplication_op(constant_series(1, 4), "w")
        assert op.name == "Sum(Jackson(q=2), Scale(-1, w))"


# -- checks shown to fail ------------------------------------------------------

CELL = dict(q=F(3, 2), beta=F(-1, 2), order=16)


def flip_shifted_terms(rows):
    return [(-a if k else a, m, k) for a, m, k in rows]


def perturb_b2x2(rows):
    a, m, k = rows[2]
    rows[2] = (a + monomial(5, a.order, F(1, 7)), m, k)
    return rows


@pytest.mark.parametrize("fault", [flip_shifted_terms, perturb_b2x2])
def test_wrong_five_term_table_fails_factorization(monkeypatch, fault):
    table = operators.five_term_table
    monkeypatch.setattr(operators, "five_term_table", lambda d, b, which: fault(table(d, b, which)))
    q, beta, order = CELL["q"], CELL["beta"], CELL["order"]
    checks = verify.factorization_suite(q, beta, order)
    assert [c.name for c in checks] == ["factorization[b]", "factorization[f]"]
    v = VacuumSpec(beta=beta, d=Deformation(q), order=order)
    for check in checks:
        assert check.status == "fail"
        which = check.name[-2]
        expected = first_series_failure(
            second_order_direct(v, which), second_order_composed(v, which),
            order, range(order + 1),
        )
        assert (check.worst_deviation, check.first_failure_index) == expected


def derivative_rows_only(rows):
    """A wrong sign rule: (-1)^m, which leaves the shifted rows of Ob unsigned."""
    return [(-a if m % 2 else a, m, k) for a, m, k in rows]


@pytest.mark.parametrize("q", verify.DEFAULT_QS, ids=str)
@pytest.mark.parametrize("beta", verify.DEFAULT_BETAS, ids=str)
def test_wrong_sign_rule_fails_only_the_f_check(monkeypatch, q, beta):
    # "f" is still judged against Tplus Tminus, not against the mirrored table
    monkeypatch.setattr(operators, "_mirrored", derivative_rows_only)
    b, f = verify.factorization_suite(q, beta, 32)
    assert (b.name, b.status) == ("factorization[b]", "pass")
    assert (f.name, f.status) == ("factorization[f]", "fail")


def test_a_cell_builds_the_five_term_table_once(monkeypatch):
    table, calls = operators.five_term_table, []

    def counted(d, b, which):
        calls.append(which)
        return table(d, b, which)

    monkeypatch.setattr(operators, "five_term_table", counted)
    checks = verify.factorization_suite(CELL["q"], CELL["beta"], CELL["order"])
    assert all(c.passed for c in checks)
    assert calls == ["b"]


def test_factorization_passes_unpatched():
    checks = verify.factorization_suite(CELL["q"], CELL["beta"], CELL["order"])
    assert all(c.passed and c.worst_deviation == "0" for c in checks)


def count_reductions_in_normal_form(monkeypatch):
    """Patch ``_reduced`` in series and operators, and verify's normal_form, so that
    the returned list records the order of each reduction inside a normal form."""
    calls, depth = [], []
    real_reduced, real_normal_form = series._reduced, operators.normal_form

    def counted(s):
        if depth:
            calls.append(s.order)
        return real_reduced(s)

    def traced(op, n):
        depth.append(n)
        try:
            return real_normal_form(op, n)
        finally:
            depth.pop()

    monkeypatch.setattr(series, "_reduced", counted)
    monkeypatch.setattr(operators, "_reduced", counted)
    monkeypatch.setattr(verify, "normal_form", traced)
    return calls


def test_a_passing_check_reduces_nothing_in_the_normal_form(monkeypatch):
    calls = count_reductions_in_normal_form(monkeypatch)
    checks = verify.factorization_suite(CELL["q"], CELL["beta"], CELL["order"])
    checks += [c for c in verify.limits_suite() if c.name.startswith("undeformed")]
    assert len(checks) == 6 and all(c.passed for c in checks)
    assert calls == []


def test_a_passing_cell_reduces_nothing(monkeypatch):
    # with the vacuum's beta_q cached, neither the table nor the normal form takes a gcd
    q, beta, order = F(5, 4), F(-1, 2), 32
    beta_q(VacuumSpec(beta=beta, d=Deformation(q), order=order))
    calls, real = [], series._reduced

    def counted(s):
        calls.append(s.order)
        return real(s)

    for module in (series, qspecial, operators):
        monkeypatch.setattr(module, "_reduced", counted)
    checks = verify.factorization_suite(q, beta, order)
    assert [c.status for c in checks] == ["pass", "pass"]
    assert calls == []


def test_a_failing_check_reduces_only_the_terms_it_keeps(monkeypatch):
    # the counter sees reductions: a wrong table leaves one term, reduced once
    table = operators.five_term_table
    monkeypatch.setattr(
        operators, "five_term_table", lambda d, b, which: perturb_b2x2(table(d, b, which))
    )
    calls = count_reductions_in_normal_form(monkeypatch)
    checks = verify.factorization_suite(CELL["q"], CELL["beta"], CELL["order"])
    assert not any(c.passed for c in checks)
    assert calls == [CELL["order"], CELL["order"]]


def test_wrong_h0_constant_fails_undeformed_reduction(monkeypatch):
    def wrong_pair(v):
        b1 = 2 * F(v.beta)
        _, h1 = susy_pair_limit(v)
        h0 = -(jackson_op(D1) @ jackson_op(D1)) + poly_multiplication_op([b1 + 1, 0, b1 * b1])
        return h0, h1

    monkeypatch.setattr(verify, "susy_pair_limit", wrong_pair)
    checks = {
        (c.name, c.params["beta"]): c
        for c in verify.limits_suite() if c.name.startswith("undeformed")
    }
    for beta in verify.DEFAULT_BETAS:
        v1 = VacuumSpec(beta=beta, d=D1, order=24)
        bad = checks["undeformed_reduction[b]", format_rational(beta)]
        assert bad.status == "fail"
        expected = first_series_failure(
            second_order_composed(v1, "b"), wrong_pair(v1)[0], 24, range(21)
        )
        assert (bad.worst_deviation, bad.first_failure_index) == expected
        assert checks["undeformed_reduction[f]", format_rational(beta)].passed


# -- order cost -----------------------------------------------------------------


def least_input_order(op, limit=8):
    """The least n >= 0 for which op applied to a series of order n has order >= 0."""
    return next(n for n in range(limit) if op.apply(make_series(range(1, n + 2), n)).order >= 0)


@pytest.mark.parametrize("q", [F(1), F(3, 2), F(2, 3)])
@pytest.mark.parametrize("name", OPERATOR_NAMES)
def test_order_cost_of_the_cli_operators(name, q):
    assert build(name, q, 16).order_cost == least_input_order(build(name, q, 16))


def test_order_cost_is_read_off_the_order_walk():
    d = Deformation(F(3, 2))
    x_dq = poly_multiplication_op([0, 1]) @ jackson_op(d)
    # x D_q c = 0 holds to order 0, so a constant is long enough
    assert x_dq.order_cost == least_input_order(x_dq) == 0
    result = x_dq.apply(constant_series(5, 0))
    assert (result.order, result.is_zero) == (0, True)
    for op, cost in ((jackson_op(d) @ jackson_op(d), 2), (jackson_op(d) + jackson_op(d), 1)):
        assert op.order_cost == least_input_order(op) == cost
