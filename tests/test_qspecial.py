import math
from fractions import Fraction as F

import pytest

from qsusy.qcore import Deformation, q_factorial, q_number
from qsusy.series import make_series, monomial, zero_series
from qsusy.qspecial import (
    VacuumSpec,
    beta_q,
    classical_hermite,
    delta_beta_q,
    q_exp,
    q_gauss,
    q_hermite,
    u_transform,
)

D1 = Deformation(F(1))
D2 = Deformation(F(2))
D32 = Deformation(F(3, 2))

X = lambda order: monomial(1, order)


def rodrigues(n, d, order):
    """(-1)**n e_q(x^2) D_q**n e_q(-x^2), as the product of the two series."""
    decay = q_gauss(VacuumSpec(F(-1), d, order))
    for _ in range(n):
        decay = decay.jackson_derivative(d)
    out = q_gauss(VacuumSpec(F(1), d, decay.order)) * decay
    return -out if n % 2 else out


def assert_stored_as(got, want):
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)


def vac(beta, q, order=16):
    return VacuumSpec(beta=F(beta), d=Deformation(F(q)), order=order)


class TestQExp:
    def test_zero_argument(self):
        assert q_exp(zero_series(6), D2) == make_series([1], 6)

    def test_linear_argument_order_two(self):
        # 1 + x + x^2/[2]_2! with [2]_2! = 5/2
        assert q_exp(X(2), D2) == make_series([1, 1, F(2, 5)], 2)

    def test_reciprocal_invariance(self):
        for q in (F(2), F(3, 2), F(5, 4)):
            a = q_exp(X(8), Deformation(q))
            b = q_exp(X(8), Deformation(1 / q))
            assert a == b

    def test_classical_point_matches_exp(self):
        out = q_exp(X(7), D1)
        for n in range(8):
            assert out.coeff(n) == F(1, math.factorial(n))

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            q_exp(make_series([1, 1], 4), D2)

    def test_point_value_against_direct_sum(self):
        # independent oracle: sum (1/2)^n / [n]_q! computed term by term
        order, q = 8, F(3, 2)
        d = Deformation(q)
        expected = sum((F(1, 2) ** n) / q_factorial(n, d) for n in range(order + 1))
        # frozen from the oracle above
        assert expected == F(
            5099862287269976634291270792, 3124120172541687840222737035
        )
        got = q_exp(X(order), d).evaluate(F(1, 2))
        assert got == expected


class TestQGauss:
    def test_low_coefficients_independent_of_q(self):
        for q in (F(2), F(3, 2), F(1)):
            g = q_gauss(vac(F(-1, 2), q))
            assert g.coeff(0) == 1
            assert g.coeff(2) == F(-1, 2)
            assert not g.coeff(1) and not g.coeff(3)

    def test_fourth_coefficient(self):
        assert q_gauss(vac(F(-1, 2), 2)).coeff(4) == F(1, 10)

    def test_classical_gaussian(self):
        g = q_gauss(vac(F(-1, 2), 1, 12))
        for k in range(7):
            assert g.coeff(2 * k) == F(-1, 2) ** k / math.factorial(k)

    def test_even(self):
        g = q_gauss(vac(F(1, 2), F(3, 2)))
        assert all(not g.coeff(n) for n in range(1, g.order + 1, 2))


def closed_form_beta_q(v):
    """beta (q e_q(q beta x^2) + (1/q) e_q(beta x^2 / q)) / e_q(beta x^2), at v's order."""
    q = v.d.q
    grow = q_gauss(VacuumSpec(beta=q * v.beta, d=v.d, order=v.order)) * q
    shrink = q_gauss(VacuumSpec(beta=v.beta / q, d=v.d, order=v.order)) * (1 / q)
    return (grow + shrink) / q_gauss(v) * v.beta


def stored(s):
    return s.order, s.num, s.den


class TestBetaQ:
    @pytest.mark.parametrize("order", [0, 1, 2, 9, 32])
    @pytest.mark.parametrize("q", [F(1), F(3, 2), F(2, 3), F(2), F(5, 4)])
    @pytest.mark.parametrize("beta", [F(3), F(-2, 3), F(1, 2)])
    def test_closed_form(self, beta, q, order):
        # built as (D_q e) / e over x, the series equals the closed form to the
        # stored integers, at q = 1 (the constant 2 beta) and order 0 included
        v = vac(beta, q, order)
        assert stored(beta_q.__wrapped__(v)) == stored(closed_form_beta_q(v))

    def test_constant_term(self):
        # beta * [2]_q at the origin
        assert beta_q(vac(F(-1, 2), 2)).coeff(0) == F(-5, 4)
        for beta in (F(-1, 2), F(1, 2), F(3, 7)):
            for q in (F(2), F(3, 2), F(5, 4)):
                assert beta_q(vac(beta, q)).coeff(0) == beta * q_number(2, Deformation(q))

    def test_classical_constant_series(self):
        b = beta_q(vac(F(-1, 2), 1))
        assert b == make_series([-1], 16)
        assert b.coeff(0) == -1
        assert all(not b.coeff(n) for n in range(1, 17))

    def test_reciprocal_invariance(self):
        for q in (F(2), F(3, 2), F(5, 4)):
            assert beta_q(vac(F(-1, 2), q)) == beta_q(vac(F(-1, 2), 1 / q))

    def test_kernel_prerequisite_identity(self):
        # D_q e_q(beta x^2) = x beta_q(x^2) e_q(beta x^2), the series form of
        # [2n] = [n](q^n + q^-n)
        for beta, q in ((F(-1, 2), F(2)), (F(1, 2), F(3, 2))):
            v = vac(beta, q, 20)
            g = q_gauss(v)
            lhs = g.jackson_derivative(v.d)
            rhs = beta_q(v).mul_poly([0, 1]) * g
            assert lhs == rhs


class TestDeltaBetaQ:
    def test_classical_zero(self):
        assert delta_beta_q(vac(F(-1, 2), 1)).is_zero

    def test_constant_term(self):
        assert delta_beta_q(vac(F(-1, 2), 2)).coeff(0) == F(-5, 8)
        v = vac(F(1, 2), F(3, 2))
        expected = F(1, 2) * q_number(2, v.d) * (1 - 1 / F(3, 2))
        assert delta_beta_q(v).coeff(0) == expected

    def test_not_reciprocal_symmetric(self):
        assert delta_beta_q(vac(F(-1, 2), 2)) != delta_beta_q(vac(F(-1, 2), F(1, 2)))


class TestQHermite:
    def test_constant_case(self):
        h0 = q_hermite(0, D2, 10)
        assert h0.coeff(0) == 1
        # the symmetric pairing does not telescope: e_q(x^2) e_q(-x^2) has a
        # genuine x^4 tail away from q = 1 (2/[2]_q! - 1 = -1/5 at q = 2)
        assert h0.coeff(4) == F(-1, 5)
        assert q_hermite(0, D1, 10).coeff(4) == 0

    def test_first_function_coefficients(self):
        for q in (F(2), F(3, 2)):
            d = Deformation(q)
            h1 = q_hermite(1, d, 9)
            two = q_number(2, d)
            four = q_number(4, d)
            assert h1.coeff(1) == two
            assert h1.coeff(3) == two - four / two
            assert h1.coeff(3) != 0
        assert q_hermite(1, D1, 9).coeff(3) == 0

    def test_classical_collapse_n2(self):
        h2 = q_hermite(2, D1, 10)
        assert h2.coeff(0) == -2 and h2.coeff(1) == 0 and h2.coeff(2) == 4

    def test_classical_collapse_matches_recurrence(self):
        for n in range(7):
            deformed = q_hermite(n, D1, 16)
            assert deformed == classical_hermite(n, deformed.order)
            assert not deformed.coeff(n + 1) and not deformed.coeff(n + 2)

    def test_parity(self):
        h3 = q_hermite(3, D32, 12)
        assert all(not h3.coeff(n) for n in range(0, h3.order + 1, 2))

    def test_order_guard(self):
        with pytest.raises(ValueError):
            q_hermite(3, D2, 4)
        with pytest.raises(ValueError):
            q_hermite(-1, D2, 10)

    @pytest.mark.parametrize("n", range(8))
    @pytest.mark.parametrize("q", [F(1), F(2), F(1, 2), F(3, 2), F(5, 4), F(4, 5), F(7, 3)])
    def test_is_the_rodrigues_product(self, q, n):
        # q_hermite sums q-binomials in the divided powers of x^2; the
        # reference is the product itself, from q_gauss, D_q and *
        for order in (n + 2, n + 3, 33):
            assert_stored_as(q_hermite(n, Deformation(q), order), rodrigues(n, Deformation(q), order))

    def test_is_the_rodrigues_product_at_the_benchmark_order(self):
        d = Deformation(F(4, 5))
        assert_stored_as(q_hermite(3, d, 128), rodrigues(3, d, 128))

    @pytest.mark.parametrize("q", [F(2), F(3, 2), F(5, 4)])
    def test_reciprocal_invariance(self, q):
        # every [k]_q is invariant under q -> 1/q, so the a/b roles in the
        # q-Pascal rule may not show in the result
        d, inv = Deformation(q), Deformation(1 / q)
        for n in range(6):
            assert_stored_as(q_hermite(n, d, 40), q_hermite(n, inv, 40))
        for p in (0, 2, 4):
            assert_stored_as(u_transform(p, d, 40), u_transform(p, inv, 40))


class TestClassicalHermite:
    def test_seeds(self):
        assert classical_hermite(0) == make_series([1], 0)
        assert classical_hermite(1) == make_series([0, 2], 1)

    def test_hand_values(self):
        assert classical_hermite(2) == make_series([-2, 0, 4], 2)
        assert classical_hermite(3) == make_series([0, -12, 0, 8], 3)
        assert classical_hermite(6, 6) == make_series([-120, 0, 720, 0, -480, 0, 64], 6)

    def test_order_padding(self):
        h = classical_hermite(2, 8)
        assert h.order == 8
        assert all(not h.coeff(n) for n in range(3, 9))
        with pytest.raises(ValueError):
            classical_hermite(3, 2)


class TestUTransform:
    def test_p0_classical_is_growing_gaussian(self):
        u = u_transform(0, D1, 12)
        for k in range(6):
            assert u.coeff(2 * k) == F(1, 2) ** k / math.factorial(k)

    def test_p0_deformed_picks_up_rodrigues_tail(self):
        # through degree 3 this is e_q(x^2/2); the first deviation sits at x^4
        u = u_transform(0, D32, 12)
        e = q_exp(make_series([0, 0, F(1, 2)], 12), D32)
        assert u.truncated(3) == e.truncated(3)
        assert u.coeff(4) != e.coeff(4)

    def test_p2_classical_low_degrees(self):
        # (4x^2 + 2) * exp(x^2/2): degree <= 2 part is 2 + 0x + 5x^2
        u = u_transform(2, D1, 12)
        assert u.coeff(0) == 2 and u.coeff(1) == 0 and u.coeff(2) == 5

    def test_constant_term_is_two_number(self):
        for q in (F(1), F(3, 2), F(2)):
            u = u_transform(2, Deformation(q), 12)
            assert u.coeff(0) == q_number(2, Deformation(q))

    def test_real_and_nonvanishing(self):
        for p in (0, 2, 4):
            for q in (F(1), F(3, 2)):
                u = u_transform(p, Deformation(q), 12)
                assert all(c.im == 0 for c in u.coeffs)
                assert u.coeff(0)

    @pytest.mark.parametrize("p", [0, 2, 4, 6])
    @pytest.mark.parametrize("q", [F(1), F(2), F(3, 2), F(5, 4)])
    def test_is_the_rodrigues_product_at_imaginary_argument(self, q, p):
        # u_p = i^-p H_p(ix) e_q(x^2/2) = e_q(-x^2) D_q^p e_q(x^2) e_q(x^2/2),
        # built here from q_gauss and the q-derivative alone, with no sign rule
        d, order = Deformation(q), 20
        grow = q_gauss(VacuumSpec(F(1), d, order))
        for _ in range(p):
            grow = grow.jackson_derivative(d)
        want = q_gauss(VacuumSpec(F(-1), d, order)) * grow * q_gauss(VacuumSpec(F(1, 2), d, order))
        got = u_transform(p, d, order)
        assert got.order == want.order == order - p
        assert got == want

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            u_transform(1, D2, 12)
        with pytest.raises(ValueError):
            u_transform(-2, D2, 12)


def test_only_beta_q_is_memoised():
    # beta_q's cache serves every operator built on one vacuum; q_gauss and
    # q_hermite are cheap to rebuild and their caches were rarely hit
    from qsusy import qspecial

    cached = [name for name, value in vars(qspecial).items() if hasattr(value, "cache_info")]
    assert cached == ["beta_q"]


def test_beta_q_cache_is_bounded_and_still_hits():
    bound = beta_q.cache_info().maxsize
    assert bound is not None and bound < 100
    beta_q.cache_clear()
    try:
        for k in range(100):
            beta_q(vac(F(-1, 2), F(k + 2, k + 1), order=2))
        assert beta_q.cache_info().currsize <= bound
        again = vac(F(-1, 2), F(101, 100), order=2)  # the last spec of the sweep
        first = beta_q(again)
        info = beta_q.cache_info()
        assert beta_q(again) is first
        assert beta_q.cache_info().hits == info.hits + 1
    finally:
        beta_q.cache_clear()
