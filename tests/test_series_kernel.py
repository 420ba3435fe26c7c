"""The integer-numerator series kernel against a naive per-coefficient reference.

Every operation of ``PowerSeries`` is recomputed here coefficient by
coefficient on GaussRationals, the way the arithmetic is written on paper,
and the results must agree exactly, order included. Each result must also be
in the canonical form: a positive common denominator, no factor shared by it
and every numerator, and no imaginary vector when every imaginary part is 0.
"""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsusy.qcore import GAUSS_I, GAUSS_ZERO, Deformation, GaussRational, q_number_numerators
from qsusy.qspecial import _q_exp_by_powers, q_exp
from qsusy.series import NonInvertibleSeriesError, PowerSeries, div, make_series, monomial

fractions = st.fractions(min_value=-7, max_value=7, max_denominator=12)
real_coeffs = st.builds(GaussRational, fractions, st.just(F(0)))
gauss_coeffs = st.builds(GaussRational, fractions, fractions)
# zeros are frequent in the program's series (even/odd ones, monomial probes)
coeffs = st.one_of(st.just(GAUSS_ZERO), real_coeffs, gauss_coeffs)
scalars = st.one_of(fractions.map(GaussRational), gauss_coeffs)
# every scalar type a constructor takes, bool included (an int to Python)
mixed_scalars = st.one_of(st.integers(min_value=-20, max_value=20), st.booleans(), fractions, gauss_coeffs)
nonzero_scalars = scalars.filter(bool)
QS = [F(1), F(2), F(2, 3), F(5, 4)]


@st.composite
def coeff_lists(draw, min_order=0, max_order=8, elements=coeffs):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    return draw(st.lists(elements, min_size=order + 1, max_size=order + 1))


@st.composite
def series(draw, min_order=0, max_order=8):
    cs = draw(coeff_lists(min_order, max_order, draw(st.sampled_from([real_coeffs, coeffs]))))
    return PowerSeries(cs, len(cs) - 1)


def exact(s: PowerSeries):
    assert_canonical(s)
    return s.order, s.coeffs


def expect(values, order):
    return order, tuple(values)


def assert_canonical(s: PowerSeries) -> None:
    assert isinstance(s.den, int) and s.den > 0
    assert len(s.num_re) == s.order + 1
    assert all(type(x) is int for x in s.num_re)
    parts = list(s.num_re)
    if s.num_im is not None:
        assert len(s.num_im) == s.order + 1
        assert any(s.num_im), "an all-zero imaginary part must be stored as None"
        parts += s.num_im
    assert gcd(s.den, *parts) == 1


def layout(s: PowerSeries):
    return s.order, s.num_re, s.num_im, s.den


def reference_layout(values, order):
    """The stored form as the per-coefficient path built it: every value made
    a GaussRational, the reduced parts put over the lcm of their denominators."""
    gs = [v if isinstance(v, GaussRational) else GaussRational(F(v)) for v in values]
    den = lcm(*(x.denominator for g in gs for x in (g.re, g.im)))
    im = tuple(int(g.im * den) for g in gs)
    return order, tuple(int(g.re * den) for g in gs), im if any(im) else None, den


def q_number(n: int, q: F) -> F:
    # written out from the definition, independently of qcore.q_number
    if q == 1:
        return F(n)
    return (q**n - q**-n) / (q - 1 / q)


def ref_div(a, b):
    n = min(a.order, b.order)
    pa, pb = a.coeffs, b.coeffs
    out = []
    for k in range(n + 1):
        acc = pa[k]
        for j in range(1, k + 1):
            acc = acc - pb[j] * out[k - j]
        out.append(acc / pb[0])
    return expect(out, n)


def ref_product(a, b, n):
    out = []
    for k in range(n + 1):
        acc = GAUSS_ZERO
        for i in range(k + 1):
            if i < len(a) and k - i < len(b):
                acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


class TestConstruction:
    @given(coeff_lists(min_order=0))
    def test_round_trip(self, cs):
        s = PowerSeries(cs, len(cs) - 1)
        assert exact(s) == expect(cs, len(cs) - 1)

    def test_canonical_examples(self):
        s = make_series([F(1, 2), F(1, 3), F(-1, 6)], 2)
        assert (s.num_re, s.num_im, s.den) == ((3, 2, -1), None, 6)
        z = make_series([0, 0], 3)
        assert (z.num_re, z.num_im, z.den) == ((0, 0, 0, 0), None, 1)
        g = make_series([GaussRational(F(1, 2), F(3, 4))], 0)
        assert (g.num_re, g.num_im, g.den) == ((2,), (3,), 4)

    def test_accepts_fractions_and_ints(self):
        assert exact(PowerSeries([1, F(1, 2)], 1)) == expect([1, F(1, 2)], 1)

    @given(st.lists(mixed_scalars, min_size=1, max_size=9), st.integers(min_value=0, max_value=3))
    def test_constructors_agree_with_per_coefficient_path(self, values, pad):
        n = len(values) - 1
        assert layout(PowerSeries(values, n)) == reference_layout(values, n)
        padded = values + [0] * pad
        assert layout(make_series(values, n + pad)) == reference_layout(padded, n + pad)
        assert layout(monomial(n, n + pad, values[-1])) == reference_layout([0] * n + [values[-1]] + [0] * pad, n + pad)
        a = make_series([1, F(-1, 2), GaussRational(0, 3)], 4)
        gauss = [GaussRational(v) if not isinstance(v, GaussRational) else v for v in values]
        assert layout(a.mul_poly(values)) == layout(a.mul_poly(gauss))

    @pytest.mark.parametrize("build", [
        lambda: PowerSeries([1, 0.5], 1),
        lambda: make_series([1, 0.5], 3),
        lambda: monomial(1, 3, 0.5),
        lambda: make_series([1], 3).mul_poly([0, 0.5]),
    ])
    def test_floats_rejected(self, build):
        with pytest.raises(TypeError, match="cannot use 0.5 as a series coefficient"):
            build()

    def test_other_types_rejected(self):
        with pytest.raises(TypeError, match="cannot use '1/2' as a series coefficient"):
            PowerSeries(["1/2"], 0)

    def test_length_must_match_order(self):
        with pytest.raises(ValueError):
            PowerSeries([1, 2], 2)
        with pytest.raises(ValueError):
            PowerSeries([], -2)

    def test_immutable(self):
        s = make_series([1], 1)
        with pytest.raises(AttributeError):
            s.den = 2
        with pytest.raises(AttributeError):
            del s.num_re


class TestRing:
    @given(series(), series())
    @settings(max_examples=80)
    def test_add_sub(self, a, b):
        n = min(a.order, b.order)
        pa, pb = a.coeffs, b.coeffs
        assert exact(a + b) == expect([pa[k] + pb[k] for k in range(n + 1)], n)
        assert exact(a - b) == expect([pa[k] - pb[k] for k in range(n + 1)], n)
        assert exact(-a) == expect([-c for c in pa], a.order)

    @given(series(), series())
    @settings(max_examples=80)
    def test_mul(self, a, b):
        n = min(a.order, b.order)
        assert exact(a * b) == expect(ref_product(a.coeffs, b.coeffs, n), n)

    @given(series(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=40)
    def test_mul_by_monomial_either_side(self, a, k):
        # the sparse operand is moved to the left; both sides must agree
        probe = make_series([0] * min(k, a.order) + [F(-3, 2)], a.order)
        want = expect(ref_product(a.coeffs, probe.coeffs, a.order), a.order)
        assert exact(a * probe) == want
        assert exact(probe * a) == want

    @given(series(min_order=20, max_order=28), series(min_order=20, max_order=28))
    @settings(max_examples=15)
    def test_mul_dense_long(self, a, b):
        n = min(a.order, b.order)
        assert exact(a * b) == expect(ref_product(a.coeffs, b.coeffs, n), n)

    @given(series(), scalars)
    @settings(max_examples=60)
    def test_scalar_mul(self, a, c):
        want = expect([x * c for x in a.coeffs], a.order)
        assert exact(a * c) == want
        assert exact(c * a) == want

    @given(series(), nonzero_scalars)
    @settings(max_examples=60)
    def test_scalar_div(self, a, c):
        assert exact(a / c) == expect([x / c for x in a.coeffs], a.order)

    def test_scalar_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            make_series([1], 2) / 0


class TestDivision:
    @given(series(), series(), st.sampled_from([F(1), F(-2, 3)]))
    @settings(max_examples=80)
    def test_div(self, a, b, b0):
        b = b - make_series([b.coeff(0) - b0], b.order)  # an invertible divisor
        assert exact(div(a, b)) == ref_div(a, b)
        assert exact(a / b) == ref_div(a, b)

    @given(series(), series(), nonzero_scalars)
    @settings(max_examples=80)
    def test_div_any_constant_term(self, a, b, b0):
        # real and complex constant terms other than 1, complex operands
        b = b - make_series([b.coeff(0) - b0], b.order)
        assert exact(div(a, b)) == ref_div(a, b)

    @given(series(max_order=14), coeff_lists(max_order=7, elements=st.one_of(real_coeffs, coeffs)),
           st.sampled_from([F(3), F(-5, 7), GaussRational(F(2, 3), F(-1, 2))]))
    @settings(max_examples=60)
    def test_div_even_divisor(self, a, half, b0):
        # even divisors, like e_q(beta x^2), have every odd coefficient zero
        cs = [b0]
        for c in half[1:]:
            cs += [GAUSS_ZERO, c]
        b = make_series(cs, 2 * len(half) - 2)
        assert exact(div(a, b)) == ref_div(a, b)

    def test_div_long_growing_denominator(self):
        # an order-24 quotient whose denominator grows at most steps
        a = make_series([F(1, k + 2) for k in range(25)], 24)
        b = make_series([F(-3, 2)] + [F((-1) ** k, 3 * k + 1) for k in range(1, 25)], 24)
        assert exact(div(a, b)) == ref_div(a, b)
        c = div(a, b)
        assert c * b == a

    @given(series())
    @settings(max_examples=20)
    def test_zero_constant_term_rejected(self, b):
        b = b - make_series([b.coeff(0)], b.order)
        with pytest.raises(NonInvertibleSeriesError):
            div(make_series([1], b.order), b)

    def test_complex_constant_is_invertible(self):
        b = make_series([GAUSS_I, 1], 3)
        assert exact(div(b, b)) == expect([1, 0, 0, 0], 3)


class TestSubstitutions:
    @given(series(), st.lists(coeffs, min_size=0, max_size=4))
    @settings(max_examples=80)
    def test_mul_poly(self, a, poly):
        val = next((k for k, c in enumerate(poly) if c), None)
        got = a.mul_poly(poly)
        if val is None:
            assert exact(got) == expect([GAUSS_ZERO] * (max(a.order, 0) + 1), max(a.order, 0))
            return
        n = a.order + val
        want = [GAUSS_ZERO] * (n + 1)
        for k, c in enumerate(poly):
            for j, x in enumerate(a.coeffs):
                if k + j <= n:
                    want[k + j] = want[k + j] + c * x
        assert exact(got) == expect(want, n)

    @given(series(), st.one_of(fractions, gauss_coeffs))
    @settings(max_examples=80)
    def test_scale_arg(self, a, lam):
        lam_g = GaussRational(lam) if isinstance(lam, F) else lam
        want = [c * lam_g**n for n, c in enumerate(a.coeffs)]
        assert exact(a.scale_arg(lam)) == expect(want, a.order)

    @given(series())
    @settings(max_examples=40)
    def test_i_rotate(self, a):
        want = [c * GAUSS_I**n for n, c in enumerate(a.coeffs)]
        assert exact(a.i_rotate()) == expect(want, a.order)

    @given(series(), st.sampled_from(QS))
    @settings(max_examples=80)
    def test_jackson_derivative(self, a, q):
        want = [c * q_number(n, q) for n, c in enumerate(a.coeffs) if n >= 1]
        assert exact(a.jackson_derivative(Deformation(q))) == expect(want, a.order - 1)


class TestEquality:
    @given(coeff_lists(min_order=0, max_order=6), coeff_lists(max_order=5), coeff_lists(max_order=5))
    @settings(max_examples=80)
    def test_order_relative_with_different_denominators(self, prefix, tail_a, tail_b):
        a = PowerSeries(prefix + tail_a, len(prefix) + len(tail_a) - 1)
        b = PowerSeries(prefix + tail_b, len(prefix) + len(tail_b) - 1)
        m = min(a.order, b.order) + 1
        assert (a == b) == (a.coeffs[:m] == b.coeffs[:m])
        assert (a == b) == (b == a)
        assert a.truncated(len(prefix) - 1) == b

    @given(series(), series())
    @settings(max_examples=60)
    def test_matches_reference(self, a, b):
        m = min(a.order, b.order) + 1
        assert (a == b) == (a.coeffs[:m] == b.coeffs[:m])

    def test_one_changed_coefficient(self):
        a = make_series([F(1, 3), F(1, 2), GaussRational(0, F(1, 5))], 2)
        b = make_series([F(1, 3), F(1, 2), GaussRational(0, F(1, 5)), F(1, 7)], 4)
        assert a == b and a.den != b.den
        assert a != make_series([F(1, 3), F(1, 2), GaussRational(0, F(1, 7))], 2)
        assert a != make_series([F(1, 3), F(1, 2)], 2)

    def test_truncation_renormalises(self):
        s = make_series([2, F(1, 6)], 1).truncated(0)
        assert (s.num_re, s.den) == ((2,), 1)


EMPTY = PowerSeries((), -1)


class TestEmptySeries:
    def test_shape(self):
        assert exact(EMPTY) == (-1, ())
        assert EMPTY.is_zero
        assert EMPTY.first_nonzero_index() is None
        assert EMPTY.max_abs_coeff() == 0
        assert EMPTY.evaluate_float(0.5) == 0.0
        assert str(EMPTY) == "<empty series>"

    @given(series())
    @settings(max_examples=20)
    def test_operations(self, a):
        for got in (a + EMPTY, EMPTY - a, a * EMPTY, EMPTY * a, EMPTY * F(3, 2),
                    EMPTY.scale_arg(F(1, 2)), EMPTY.i_rotate(), div(EMPTY, make_series([1], a.order))):
            assert exact(got) == (-1, ())
        assert EMPTY == a and a == EMPTY

    def test_derivative_of_constant(self):
        assert exact(make_series([7], 0).jackson_derivative(Deformation(F(2)))) == (-1, ())

    def test_mul_poly(self):
        assert exact(EMPTY.mul_poly([0, 1])) == expect([0], 0)
        assert exact(EMPTY.mul_poly([1])) == (-1, ())

    def test_not_a_divisor(self):
        with pytest.raises(NonInvertibleSeriesError):
            div(make_series([1], 2), EMPTY)


class TestQNumberTable:
    @pytest.mark.parametrize("q", QS + [F(7, 3), F(1, 5), F(9, 4)])
    def test_against_definition(self, q):
        d = Deformation(q)
        a, b = q.numerator, q.denominator
        table = q_number_numerators(12, d)
        assert len(table) == 12
        for n, s in enumerate(table, 1):
            assert F(s, (a * b) ** (n - 1)) == q_number(n, q)
            assert gcd(s, a * b) == 1  # so (ab)**(n-1) is the reduced denominator

    def test_classical_table_is_the_integers(self):
        assert q_number_numerators(6, Deformation(1)) == [1, 2, 3, 4, 5, 6]
        assert q_number_numerators(0, Deformation(F(2))) == []


def ref_q_exp(c, m, order, q):
    """c**n x**(mn) / [n]_q! summed from the definition."""
    out = [F(0)] * (order + 1)
    fact = F(1)
    for n in range(order // m + 1):
        if n:
            fact *= q_number(n, q)
        out[m * n] = c**n / fact
    return make_series(out, order)


class TestQExp:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("c", ["3", "-1/2", "2q/3"])
    def test_closed_form_matches_power_sum(self, m, q, c):
        d = Deformation(q)
        c = 2 * q / 3 if c == "2q/3" else F(c)
        for order in (m, 2 * m + 1, 13):
            u = monomial(m, order, c)
            got = q_exp(u, d)
            assert exact(got) == exact(_q_exp_by_powers(u, d))
            assert exact(got) == exact(ref_q_exp(c, m, order, q))

    @pytest.mark.parametrize("order", [-1, 0, 5])
    def test_zero_argument(self, order):
        u = PowerSeries([0] * (order + 1), order)
        want = make_series([1], max(order, 0))
        assert exact(q_exp(u, Deformation(F(2)))) == exact(want)
        assert exact(_q_exp_by_powers(u, Deformation(F(2)))) == exact(want)

    @given(coeff_lists(min_order=1, max_order=7), st.sampled_from(QS))
    @settings(max_examples=30)
    def test_other_arguments_take_the_power_sum(self, cs, q):
        # any u with u(0) = 0, complex or with several terms
        u = PowerSeries([GAUSS_ZERO] + cs[1:], len(cs) - 1)
        d = Deformation(q)
        want = [GAUSS_ZERO] * (u.order + 1)
        power = make_series([1], u.order)
        fact = F(1)
        for n in range(u.order + 1):
            if n:
                power, fact = power * u, fact * q_number(n, q)
            want = [w + c / fact for w, c in zip(want, power.coeffs)]
        assert exact(q_exp(u, d)) == expect(want, u.order)
