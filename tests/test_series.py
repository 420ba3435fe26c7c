import struct
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsusy.qcore import GAUSS_I, Deformation, GaussRational
from qsusy.series import (
    NonInvertibleSeriesError,
    PowerSeries,
    constant_series,
    div,
    make_series,
    monomial,
    zero_series,
)

D2 = Deformation(F(2))
D32 = Deformation(F(3, 2))
D1 = Deformation(F(1))

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)
coefficients = small_fractions
q_values = st.sampled_from([F(2), F(3, 2), F(5, 4), F(1), F(2, 3)])


@st.composite
def series_triples(draw, order_max=7):
    order = draw(st.integers(min_value=2, max_value=order_max))
    def one():
        return make_series(
            draw(st.lists(coefficients, min_size=0, max_size=order + 1)), order
        )
    return one(), one(), one()


class TestConstruction:
    def test_constant_padding(self):
        s = make_series([1], 4)
        assert s.order == 4
        assert s.coeff(0) == 1
        assert all(not s.coeff(n) for n in range(1, 5))

    def test_identity_function(self):
        x = make_series([0, 1], 4)
        assert x.coeff(1) == 1
        assert x.first_nonzero_index() == 1

    def test_explicit(self):
        s = make_series([1, 0, F(-1, 2)], 2)
        assert s.coeff(2) == F(-1, 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            make_series([1], -1)

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            make_series([1, 2, 3], 1)

    def test_zero_equals_zero_of_same_order(self):
        assert zero_series(5) == make_series([0, 0], 5)

    def test_coeff_bounds(self):
        s = make_series([1], 2)
        with pytest.raises(IndexError):
            s.coeff(3)


class TestRingOps:
    def test_difference_of_squares(self):
        one_plus = make_series([1, 1], 4)
        one_minus = make_series([1, -1], 4)
        assert one_plus * one_minus == make_series([1, 0, -1], 4)

    def test_additive_identity(self):
        a = make_series([3, F(1, 3), 7], 6)
        assert a + zero_series(6) == a

    def test_truncated_exponential_product(self):
        # (1 + x + x^2/2)(1 - x + x^2/2) = 1 + 0x + 0x^2 + higher
        a = make_series([1, 1, F(1, 2)], 2)
        b = make_series([1, -1, F(1, 2)], 2)
        assert a * b == constant_series(1, 2)

    def test_mul_truncates_to_min_order(self):
        a = make_series([1, 1], 6)
        b = make_series([1, 1], 3)
        assert (a * b).order == 3
        assert (a + b).order == 3

    @given(series_triples())
    @settings(max_examples=60)
    def test_ring_axioms(self, triple):
        a, b, c = triple
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestDivision:
    def test_unit_divisor(self):
        a = make_series([2, 3, F(5, 7)], 4)
        assert div(a, constant_series(1, 4)) == a

    def test_geometric_series(self):
        one = constant_series(1, 3)
        denom = make_series([1, -1], 3)
        assert div(one, denom) == make_series([1, 1, 1, 1], 3)

    def test_factor_cancellation(self):
        num = make_series([1, 0, -1], 3)
        denom = make_series([1, -1], 3)
        quotient = div(num, denom)
        assert quotient == make_series([1, 1], 3)
        assert quotient * denom == num

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleSeriesError):
            div(constant_series(1, 3), make_series([0, 1], 3))

    @given(series_triples())
    @settings(max_examples=60)
    def test_round_trip(self, triple):
        a, b, _ = triple
        if b.order >= 0 and b.coeff(0):
            assert b * div(a, b) == a


class TestSubstitutions:
    def test_scale_identity(self):
        a = make_series([1, 2, 3], 5)
        assert a.scale_arg(1) == a

    def test_scale_square(self):
        xx = monomial(2, 4)
        assert xx.scale_arg(F(3, 2)) == monomial(2, 4, F(9, 4))

    def test_scale_inverse_composition(self):
        a = make_series([1, F(2, 3), -4, F(7, 5)], 5)
        assert a.scale_arg(F(3, 2)).scale_arg(F(2, 3)) == a

    @given(triple=series_triples(), lam=small_fractions)
    @settings(max_examples=40)
    def test_scale_matches_evaluation(self, triple, lam):
        a, _, _ = triple
        x0 = F(1, 3)
        assert a.scale_arg(lam).evaluate(x0) == a.evaluate(lam * x0)


class TestJacksonDerivative:
    def test_cube_rule(self):
        # x^3 -> [3]_q x^2 with [3]_2 = 21/4
        out = monomial(3, 5).jackson_derivative(D2)
        assert out == monomial(2, 4, F(21, 4))
        assert out.order == 4

    def test_constant_drops(self):
        assert constant_series(7, 3).jackson_derivative(D2) == zero_series(2)

    def test_bare_constant_leaves_nothing(self):
        out = constant_series(7, 0).jackson_derivative(D2)
        assert out.order == -1
        assert out.is_zero

    def test_classical_point(self):
        out = make_series([1, 1, 1], 2).jackson_derivative(D1)
        assert out == make_series([1, 2], 1)

    @given(triple=series_triples(), q=q_values)
    @settings(max_examples=60)
    def test_product_rule(self, triple, q):
        # D_q(FG) = (D_q F) G(qx) + F(x/q) (D_q G)
        f, g, _ = triple
        d = Deformation(q)
        lhs = (f * g).jackson_derivative(d)
        rhs = f.jackson_derivative(d) * g.scale_arg(q) + f.scale_arg(1 / q) * g.jackson_derivative(d)
        assert lhs == rhs

    def test_linearity(self):
        f = make_series([1, 2, 3, 4], 5)
        g = make_series([5, -1, 0, 2], 5)
        lhs = (f * 3 + g * F(-2, 7)).jackson_derivative(D32)
        rhs = f.jackson_derivative(D32) * 3 + g.jackson_derivative(D32) * F(-2, 7)
        assert lhs == rhs


class TestMulPoly:
    def test_times_x_extends_order(self):
        a = make_series([1, 2, 3], 2)
        out = a.mul_poly([0, 1])
        assert out.order == 3
        assert out == make_series([0, 1, 2, 3], 3)

    def test_matches_series_mul_on_common_order(self):
        a = make_series([1, 2, 3, 4], 3)
        poly = [F(1, 2), 0, -2]
        assert a.mul_poly(poly) == a * make_series(poly, 3)

    def test_zero_polynomial(self):
        assert make_series([1, 2], 3).mul_poly([0, 0]).is_zero


class TestEvaluation:
    def test_at_origin(self):
        assert make_series([F(7, 3), 1, 1], 2).evaluate(0) == F(7, 3)

    def test_half_value(self):
        assert make_series([1, 0, F(-1, 2)], 2).evaluate(1) == F(1, 2)

    def test_gauss_point(self):
        # (ix)^2 at the series level: evaluate x^2 at i
        assert monomial(2, 2).evaluate(GAUSS_I) == GaussRational(-1, 0)

    def test_float_matches_exact(self):
        a = make_series([1, F(1, 2), F(1, 3), F(1, 4)], 3)
        exact = a.evaluate(F(1, 2)).as_rational()
        assert a.evaluate_float(0.5) == pytest.approx(float(exact), rel=1e-15)


class TestRealOnly:
    """Series are real: a complex coefficient or scalar is refused, a real GaussRational is not."""

    def test_real_gauss_rationals_are_accepted(self):
        assert make_series([GaussRational(F(1, 2)), 3], 2) == make_series([F(1, 2), 3], 2)
        assert monomial(1, 2, GaussRational(2)) * GaussRational(F(1, 2)) == monomial(1, 2)

    def test_complex_coefficients_and_scalars_are_refused(self):
        a = make_series([1, 2], 3)
        refused = (
            lambda: make_series([GAUSS_I], 1),
            lambda: PowerSeries([1, GaussRational(0, 1)], 1),
            lambda: monomial(1, 2, GAUSS_I),
            lambda: a * GAUSS_I,
            lambda: a / GAUSS_I,
            lambda: a.mul_poly([0, GAUSS_I]),
            lambda: a.scale_arg(GAUSS_I),
        )
        for build in refused:
            with pytest.raises(ValueError, match="series and operators are real"):
                build()


class TestEquality:
    def test_common_order_comparison(self):
        assert make_series([1, 2], 5) == make_series([1, 2], 2)
        assert make_series([1, 2], 5) != make_series([1, 2, 9], 2)
        assert make_series([1, 2], 5) != make_series([1, 3], 5)

    def test_not_comparable_to_scalars(self):
        assert (constant_series(1, 2) == 1) is False

    def test_truncated(self):
        a = make_series([1, 2, 3], 2)
        assert a.truncated(1) == make_series([1, 2], 1)
        with pytest.raises(ValueError):
            a.truncated(3)


def divided_each_time(a: PowerSeries, x0: float) -> float:
    """The float Horner evaluation that divides every numerator at every call."""
    if a.order < 0:
        raise ValueError("series has no retained coefficients; no value")
    acc = 0.0
    for c in reversed(a.num):
        acc = acc * x0 + c / a.den
    return acc


def outcome(evaluate, *args):
    """The float's bits, or the error's type and message."""
    try:
        return struct.pack("<d", evaluate(*args))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


big_ints = st.integers(min_value=-(2**5000), max_value=2**5000)
points = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, 2.0**600, -(2.0**-600)]),
    st.floats(allow_nan=False),
)


class TestFloatTable:
    """evaluate_float divides once per series, to the bits of dividing at every call."""

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=64))
    def test_same_bits_and_errors_as_dividing_each_time(self, data, order):
        nums = data.draw(st.lists(big_ints, min_size=order + 1, max_size=order + 1))
        den = data.draw(st.integers(min_value=1, max_value=2**5000))
        a = make_series([F(x, den) for x in nums], order)
        for x0 in data.draw(st.lists(points, min_size=1, max_size=4)):
            assert outcome(a.evaluate_float, x0) == outcome(divided_each_time, a, x0)

    def test_errors(self):
        empty = PowerSeries([], -1)
        first, again = outcome(empty.evaluate_float, 0.5), outcome(empty.evaluate_float, 0.5)
        assert first == again == outcome(divided_each_time, empty, 0.5)
        assert first[0] is ValueError

    def test_overflow_on_first_use_keeps_no_table(self):
        a = make_series([1, 10**400], 1)
        for _ in range(2):
            assert outcome(a.evaluate_float, 0.5) == outcome(divided_each_time, a, 0.5)
            assert a._floats is None

    def test_one_division_per_series(self, monkeypatch):
        a = make_series([1, F(1, 3), F(-2, 7)], 2)
        calls = []
        table = PowerSeries._float_table
        monkeypatch.setattr(PowerSeries, "_float_table", lambda s: calls.append(s) or table(s))
        values = [a.evaluate_float(x) for x in (0.5, -0.25, 3.0)]
        assert values == [divided_each_time(a, x) for x in (0.5, -0.25, 3.0)]
        assert len(calls) == 1 and calls[0] is a
