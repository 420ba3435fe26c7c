"""The integer-numerator series kernel against a naive per-coefficient reference.

Every operation of ``PowerSeries`` is recomputed here coefficient by
coefficient on GaussRationals, the way the arithmetic is written on paper,
and the results must agree exactly, order included. Each result must also be
in the canonical form: a positive common denominator, and no factor shared
by it and every numerator.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F
from math import gcd, lcm
from operator import add as _add, sub as _sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsusy import series as kernel, verify
from qsusy.qcore import GAUSS_ZERO, Deformation, GaussRational, format_rational, q_number_numerators
from qsusy.qspecial import VacuumSpec, _q_exp_by_powers, beta_q, q_exp, q_gauss
from qsusy.series import NonInvertibleSeriesError, PowerSeries, div, make_series, monomial

fractions = st.fractions(min_value=-7, max_value=7, max_denominator=12)
real_coeffs = st.builds(GaussRational, fractions, st.just(F(0)))
# zeros are frequent in the program's series (even/odd ones, monomial probes)
coeffs = st.one_of(st.just(GAUSS_ZERO), real_coeffs)
# the kernel bodies take an int or a Fraction as their scalar
scalars = fractions
# every scalar type a constructor takes, bool included (an int to Python)
mixed_scalars = st.one_of(st.integers(min_value=-20, max_value=20), st.booleans(), fractions, real_coeffs)
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


def assert_well_formed(s: PowerSeries) -> None:
    """The stored form as a kernel body leaves it: canonical but for the gcd."""
    assert isinstance(s.den, int) and s.den > 0
    assert len(s.num) == s.order + 1
    assert all(type(x) is int for x in s.num)


def assert_canonical(s: PowerSeries) -> None:
    assert_well_formed(s)
    assert gcd(s.den, *s.num) == 1


def layout(s: PowerSeries):
    return s.order, s.num, s.den


def reference_layout(values, order):
    """The stored form as the per-coefficient path built it: every value made
    a Fraction, the reduced values put over the lcm of their denominators."""
    fs = [v.re if isinstance(v, GaussRational) else F(v) for v in values]
    den = lcm(*(x.denominator for x in fs))
    return order, tuple(int(x * den) for x in fs), den


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
        assert (s.num, s.den) == ((3, 2, -1), 6)
        z = make_series([0, 0], 3)
        assert (z.num, z.den) == ((0, 0, 0, 0), 1)
        g = make_series([GaussRational(F(3, 4))], 0)
        assert (g.num, g.den) == ((3,), 4)

    def test_accepts_fractions_and_ints(self):
        assert exact(PowerSeries([1, F(1, 2)], 1)) == expect([1, F(1, 2)], 1)

    @given(st.lists(mixed_scalars, min_size=1, max_size=9), st.integers(min_value=0, max_value=3))
    def test_constructors_agree_with_per_coefficient_path(self, values, pad):
        n = len(values) - 1
        assert layout(PowerSeries(values, n)) == reference_layout(values, n)
        padded = values + [0] * pad
        assert layout(make_series(values, n + pad)) == reference_layout(padded, n + pad)
        assert layout(monomial(n, n + pad, values[-1])) == reference_layout([0] * n + [values[-1]] + [0] * pad, n + pad)
        a = make_series([1, F(-1, 2), GaussRational(3)], 4)
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
            del s.num


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

    # Drawing these operands takes 0.33-0.49 s over the first 10 examples, the
    # test body 4-13 ms (CPython 3.11, 2-CPU x86-64). With a deadline set,
    # hypothesis fails the test as too slow once the drawing passes
    # max(1 s, 5 x deadline), which a slowed host reaches; without one, 30 s.
    @given(series(min_order=20, max_order=28), series(min_order=20, max_order=28))
    @settings(max_examples=15, deadline=None)
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
    @given(series(), series(), st.sampled_from([F(1), F(-2, 3), GaussRational(F(-3, 4))]))
    @settings(max_examples=80)
    def test_div(self, a, b, b0):
        b = b - make_series([b.coeff(0) - b0], b.order)  # an invertible divisor
        assert exact(div(a, b)) == ref_div(a, b)
        assert exact(a / b) == ref_div(a, b)

    @given(series(), series(), nonzero_scalars)
    @settings(max_examples=80)
    def test_div_any_constant_term(self, a, b, b0):
        # constant terms other than 1, of either sign
        b = b - make_series([b.coeff(0) - b0], b.order)
        assert exact(div(a, b)) == ref_div(a, b)

    @given(series(max_order=14), coeff_lists(max_order=7, elements=st.one_of(real_coeffs, coeffs)),
           st.sampled_from([F(3), F(-5, 7), GaussRational(F(2, 3))]))
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
        b = make_series([F(-3, 2)] + [F((-1) ** k, 3 * k + 1) for k in range(1, 25)], 24)
        for a in (make_series([F(1, k + 2) for k in range(25)], 24),
                  make_series([F(k - 3, 2 * k + 5) for k in range(25)], 24)):
            assert exact(div(a, b)) == ref_div(a, b)
            c = div(a, b)
            assert c * b == a

    @given(series())
    @settings(max_examples=20)
    def test_zero_constant_term_rejected(self, b):
        b = b - make_series([b.coeff(0)], b.order)
        with pytest.raises(NonInvertibleSeriesError):
            div(make_series([1], b.order), b)


HALVES = kernel._DIV_HALVES_MIN_ORDER


@contextmanager
def kernel_constant(name, value):
    """The kernel's module constant ``name`` set to ``value`` inside the block.

    Hypothesis runs every example in one test call, so a function-scoped
    monkeypatch would hold one value for all of them.
    """
    saved = getattr(kernel, name)
    setattr(kernel, name, value)
    try:
        yield
    finally:
        setattr(kernel, name, saved)


def seeded_series(rng, order, b0=None):
    """A series of small random rationals; ``b0`` fixes the constant term."""
    cs = [F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(order + 1)]
    if b0 is not None:
        cs[0] = b0
    return make_series(cs, order)


class TestDivisionByHalves:
    """``div`` from order _DIV_HALVES_MIN_ORDER on, against the loop it keeps
    below that order as its reference."""

    @given(st.randoms(use_true_random=False), st.integers(HALVES - 3, 2 * HALVES + 3),
           st.integers(0, 4), st.sampled_from([F(1), F(-3, 2), F(-7), F(5, 3)]))
    @settings(max_examples=25, deadline=None)
    def test_halves_match_the_loop(self, rng, n, extra, b0):
        # unequal orders: the dividend runs past the divisor, or the other way
        a = seeded_series(rng, n + extra)
        b = seeded_series(rng, n + (extra if rng.random() < 0.5 else 0), b0)
        m = min(a.order, b.order)
        got = div(a, b)
        assert layout(got) == layout(kernel._div_loop(a, b, m))
        assert_canonical(got)

    @given(series(max_order=12), series(max_order=12), nonzero_scalars, st.integers(1, 3))
    @settings(max_examples=80)
    def test_every_level_of_halves(self, a, b, b0, threshold):
        # a threshold of 1 halves down to single coefficients
        b = b - make_series([b.coeff(0) - b0], b.order)
        with kernel_constant("_DIV_HALVES_MIN_ORDER", threshold):
            got = div(a, b)
        assert exact(got) == ref_div(a, b)

    @given(st.randoms(use_true_random=False), st.integers(1, 2 * HALVES),
           st.sampled_from([kernel._KARATSUBA_MIN_WORK, 0]))
    @settings(max_examples=25, deadline=None)
    def test_remainder_vanishes_below_the_high_half(self, rng, n, gate):
        # a gate of 0 runs the Karatsuba middle product on these small
        # numerators; the low half goes by halves too, from order 8 on
        a = seeded_series(rng, n)
        b = seeded_series(rng, n, F(-2, 3))
        h = (n + 2) // 2
        with kernel_constant("_KARATSUBA_MIN_WORK", gate), kernel_constant("_DIV_HALVES_MIN_ORDER", 8):
            lo = kernel._quotient(a, b, h - 1)
            r = kernel._remainder(a, b, lo, n)
        # the reference: a - b lo in full, through the kernel's product
        full = a - b * make_series(lo.coeffs, n)
        assert full.order == n and not any(full.coeffs[:h])
        assert r.order == n - h and r.den > 0
        assert r.coeffs == full.coeffs[h:]
        r = kernel._reduced(r)
        # the high half is a / b's coefficients h..n, times b
        assert div(r, b).coeffs == ref_div(a, b)[1][h:]

    def test_empty_dividend_and_a_long_divisor(self):
        b = seeded_series(random.Random(1), 2 * HALVES, F(3))
        assert layout(div(PowerSeries([], -1), b)) == (-1, (), 1)

    def test_one_traced_call_per_division(self, monkeypatch):
        # the recursion calls the private helper, so a wrapper around div
        # sees only the outer call
        calls = []
        original = kernel.div
        monkeypatch.setattr(kernel, "div", lambda a, b: calls.append(1) or original(a, b))
        rng = random.Random(2)
        a, b = seeded_series(rng, 3 * HALVES), seeded_series(rng, 3 * HALVES, F(2))
        got = kernel.div(a, b)
        assert calls == [1]
        assert_canonical(got)
        assert got.order == 3 * HALVES and b * got == a

    def test_each_loop_reads_operands_truncated_to_its_order(self, monkeypatch):
        # beta_q(3/2, -1/2, 128) divides at order 129, by two levels of halves
        # over four loops; each loop reads a and b cut to its order and
        # reduced, so its divisor's numerators stay far below the vacuum's
        # denominator (394 against 6,649 bits)
        seen = []
        original = kernel._div_loop
        monkeypatch.setattr(kernel, "_div_loop", lambda a, b, n: seen.append((a, b, n)) or original(a, b, n))
        v = VacuumSpec(F(-1, 2), Deformation(F(3, 2)), 128)
        beta_q.__wrapped__(v)  # past the cache, so the division runs here
        assert len(seen) == 4
        for a, b, n in seen:
            assert a.order == b.order == n
            assert_canonical(a)
            assert_canonical(b)
        vacuum_bits = q_gauss(VacuumSpec(v.beta, v.d, v.order + 2)).den.bit_length()
        top = max(x.bit_length() for _, b, _ in seen for x in b.num)
        assert 8 * top < vacuum_bits

    def test_halves_drop_a_tail_denominator(self, monkeypatch):
        # b's last coefficient alone has the prime p in its denominator: every
        # inner quotient reads b truncated below it, so no divisor there has p
        n, p = 2 * HALVES + 1, 2**127 - 1
        rng = random.Random(22)
        a = seeded_series(rng, n)
        b = seeded_series(rng, n, F(3)) + monomial(n, n, F(1, p))
        assert b.den % p == 0
        divisors = []
        original = kernel._quotient
        monkeypatch.setattr(kernel, "_quotient", lambda x, y, m: divisors.append(y) or original(x, y, m))
        got = div(a, b)
        assert len(divisors) > 1 and all(y.den % p for y in divisors[1:])
        assert exact(got) == ref_div(a, b)
        assert layout(got) == layout(kernel._div_loop(a, b, n))


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

    @given(series(), st.one_of(fractions, real_coeffs))
    @settings(max_examples=80)
    def test_scale_arg(self, a, lam):
        want = [c * lam**n for n, c in enumerate(a.coeffs)]
        assert exact(a.scale_arg(lam)) == expect(want, a.order)

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
        a = make_series([F(1, 3), F(1, 2), F(1, 5)], 2)
        b = make_series([F(1, 3), F(1, 2), F(1, 5), F(1, 7)], 4)
        assert a == b and a.den != b.den
        assert a != make_series([F(1, 3), F(1, 2), F(1, 7)], 2)
        assert a != make_series([F(1, 3), F(1, 2)], 2)

    def test_truncation_renormalises(self):
        s = make_series([2, F(1, 6)], 1).truncated(0)
        assert (s.num, s.den) == ((2,), 1)


EMPTY = PowerSeries((), -1)


class TestEmptySeries:
    def test_shape(self):
        assert exact(EMPTY) == (-1, ())
        assert EMPTY.is_zero
        assert EMPTY.first_nonzero_index() is None
        assert EMPTY.max_abs_coeff() == 0
        assert str(EMPTY) == "<empty series>"

    def test_has_no_value(self):
        # no retained coefficient, so nothing to evaluate, exactly or in floats
        with pytest.raises(ValueError, match="no retained coefficients"):
            EMPTY.evaluate(F(1, 2))
        with pytest.raises(ValueError, match="no retained coefficients"):
            EMPTY.evaluate_float(0.5)
        with pytest.raises(ValueError, match="no retained coefficients"):
            make_series([7], 0).jackson_derivative(Deformation(F(2))).evaluate(0)

    @given(series())
    @settings(max_examples=20)
    def test_operations(self, a):
        for got in (a + EMPTY, EMPTY - a, a * EMPTY, EMPTY * a, EMPTY * F(3, 2),
                    EMPTY.scale_arg(F(1, 2)), div(EMPTY, make_series([1], a.order))):
            assert exact(got) == (-1, ())
        assert EMPTY == a and a == EMPTY

    def test_derivative_of_constant(self):
        assert exact(make_series([7], 0).jackson_derivative(Deformation(F(2)))) == (-1, ())

    @pytest.mark.parametrize("q", [F(1), F(2, 3)])
    def test_derivative_stays_empty(self, q):
        # the constructor refuses order -2, so D_q must not make one either
        d = Deformation(q)
        got = EMPTY.jackson_derivative(d)
        assert exact(got) == (-1, ())
        assert exact(got.jackson_derivative(d)) == (-1, ())

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
        # any u with u(0) = 0 and several terms
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


# -- the Karatsuba short product ------------------------------------------------


def big_vector(rng, length, bits, parity=None):
    """Integers of exactly `bits` bits and random sign; zero off `parity` if given."""
    out = []
    for i in range(length):
        x = rng.getrandbits(bits) | 1 << (bits - 1)
        out.append(0 if parity is not None and i % 2 != parity else x if rng.random() < 0.5 else -x)
    return out


def dot_path(a, b, n):
    """Coefficients 0..n by the dense dot products, the reference path."""
    a, b = a[: n + 1], b[: n + 1]
    return kernel._dense(a, b, n)


def reference(a, b, n):
    got = ref_product(PowerSeries(a, len(a) - 1).coeffs, PowerSeries(b, len(b) - 1).coeffs, n)
    assert all(c.im == 0 and c.re.denominator == 1 for c in got)
    return [c.re.numerator for c in got]


def outer_short_products(run):
    """The length of each outermost _short_product call made while run() runs."""
    original, lengths, depth = kernel._short_product, [], [0]

    def spy(a, b):
        if not depth[0]:
            lengths.append(len(a))
        depth[0] += 1
        try:
            return original(a, b)
        finally:
            depth[0] -= 1

    kernel._short_product = spy
    try:
        run()
    finally:
        kernel._short_product = original
    return lengths


def takes_karatsuba(a, b, n):
    """Whether _convolve(a, b, n) runs the Karatsuba path."""
    return bool(outer_short_products(lambda: kernel._convolve(a, b, n)))


def verify_vectors(order):
    """The numerators of beta_q and q_gauss at q = 5/4, beta = -1/2: the
    operands of verify's products at that order."""
    v = VacuumSpec(beta=F(-1, 2), d=Deformation(F(5, 4)), order=order)
    return list(beta_q(v).num), list(q_gauss(v).num)


class TestKaratsuba:
    @pytest.mark.parametrize("parities", [(0, 0), (0, 1), (1, 0), (1, 1), (None, 0), (1, None), (None, None)])
    @pytest.mark.parametrize("length, n, bits", [(41, 40, 12000), (47, 46, 2200), (66, 65, 2200), (70, 47, 5000)])
    def test_matches_dot_path_and_reference(self, parities, length, n, bits):
        rng = random.Random(f"{parities}{length}{n}{bits}")
        pa, pb = parities
        a = big_vector(rng, length, bits, pa)
        b = big_vector(rng, length, bits - 7, pb)
        assert takes_karatsuba(a, b, n)
        want = dot_path(a, b, n)
        assert kernel._convolve(a, b, n) == want
        assert kernel._convolve(b, a, n) == want
        assert want == reference(a, b, n)

    @pytest.mark.parametrize("pa, pb, n", [(0, 0, 30), (0, 1, 31), (1, 1, 32), (None, 0, 15), (None, None, 15)])
    def test_folded_length_gate(self, pa, pb, n):
        # n is the smallest order whose folded product has 16 entries, and at
        # 1,449 bits a side 16 entries pass the 2^25 bit-pair gate, 15 do not
        rng = random.Random(n)
        a, b = big_vector(rng, n + 1, 1449, pa), big_vector(rng, n + 1, 1449, pb)
        assert takes_karatsuba(a, b, n) and not takes_karatsuba(a, b, n - 1)
        for m in (n - 1, n):
            assert kernel._convolve(a, b, m) == dot_path(a, b, m) == reference(a, b, m)

    @pytest.mark.parametrize("order, taken", [(32, False), (64, True)])
    def test_verify_products_at_orders_32_and_64(self, order, taken):
        # folded to 17 and 33 entries: below the gate at order 32, past it at 64
        b, g = verify_vectors(order)
        assert takes_karatsuba(b, b, order) is taken
        assert takes_karatsuba(b, g, order) is taken
        assert kernel._convolve(b, g, order) == dot_path(b, g, order)

    @pytest.mark.parametrize("gate, taken", [(0, True), (1 << 64, False)], ids=["zero", "above-every-product"])
    def test_one_constant_moves_both_products(self, gate, taken):
        # the product and division's middle product read the one work gate
        for order in (32, 64):
            b, g = verify_vectors(order)
            k = order // 2 + 1
            with kernel_constant("_KARATSUBA_MIN_WORK", gate):
                assert takes_karatsuba(b, g, order) is taken
                assert takes_middle_karatsuba_in(lambda: kernel._middle(b, g[:k], k)) is taken
                assert kernel._middle(b, g[:k], k) == middle_reference(b, g[:k], k)

    def test_work_gate_reads_both_operands(self):
        # folded to 16 entries: the gate sits at 16 * 2^13 * 2^8 = 2^25 bit pairs
        rng = random.Random(7)
        big = big_vector(rng, 33, 1 << 13, 0)
        for bits, taken in ((255, False), (256, True)):
            small = big_vector(rng, 33, bits, 1)
            small[5] = 1  # the gate reads the largest entry, not every entry
            assert takes_karatsuba(small, big, 32) is taken
            assert takes_karatsuba(big, small, 32) is taken
            assert kernel._convolve(small, big, 32) == dot_path(small, big, 32) == reference(small, big, 32)

    @pytest.mark.parametrize("m", list(range(1, 20)) + [31, 32, 33, 64, 65])
    def test_short_and_full_products(self, m):
        rng = random.Random(m)
        a, b = big_vector(rng, m, 300), big_vector(rng, m, 280)
        a[m // 2] = 0  # zeros inside the operands too
        assert kernel._short_product(a, b) == dot_path(a, b, m - 1)
        assert kernel._full_product(a, b) == dot_path(a + [0] * (m - 1), b + [0] * (m - 1), 2 * m - 2)

    def test_operands_longer_than_n_and_short_operands(self):
        rng = random.Random(11)
        a, b = big_vector(rng, 90, 4000, 1), big_vector(rng, 60, 4000, 1)
        for n in (40, 59, 70):
            # b is shorter than n + 1 at n = 70: its missing entries are zeros
            assert kernel._convolve(a, b, n) == dot_path(a, b + [0] * 40, n) == reference(a, b + [0] * 40, n)
            assert takes_karatsuba(a, b, n)

    def test_dense_path_below_the_gate(self, monkeypatch):
        # the products of the small default cells never reach the new path
        monkeypatch.setattr(kernel, "_short_product", None)
        assert all(c.passed for c in verify.run_suite("kernel", order=40))
        assert verify.leibniz_suite(F(2))[0].passed


def middle_reference(x, y, m):
    """Coefficients len(y) - 1..len(y) - 2 + m of x * y, from the kernel's product."""
    k = len(y)
    return kernel._convolve(y, x, k - 2 + m)[k - 1 :]


def takes_middle_karatsuba_in(run):
    """Whether run() runs the Karatsuba middle product."""
    original, calls = kernel._middle_product, []
    kernel._middle_product = lambda x, y: calls.append(1) or original(x, y)
    try:
        run()
    finally:
        kernel._middle_product = original
    return bool(calls)


class TestMiddleProduct:
    """``_middle`` computes only the coefficients of x * y that see every entry
    of y: division's remainder needs those alone."""

    # (bits of x, bits of y): small, lopsided both ways, and some on each side
    # of the gate once the length is counted in; a gate of 0 runs the
    # Karatsuba middle product on every operand
    @given(st.randoms(use_true_random=False), st.integers(1, 70), st.integers(1, 70),
           st.sampled_from([None, 0, 1]), st.sampled_from([None, 0, 1]),
           st.sampled_from([(1, 1), (9, 60), (16000, 100), (100, 16000), (6000, 1000), (1000, 6000)]),
           st.sampled_from([kernel._KARATSUBA_MIN_WORK, 0]), st.sampled_from(["", "", "", "x", "y"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_product(self, rng, k, m, px, py, bits, gate, zero):
        x = big_vector(rng, k - 1 + m, bits[0], px)
        y = big_vector(rng, k, bits[1], py)
        if zero:
            x, y = ([0] * len(x), y) if zero == "x" else (x, [0] * k)
        with kernel_constant("_KARATSUBA_MIN_WORK", gate):
            got = kernel._middle(x, y, m)
        assert got == middle_reference(x, y, m)

    @pytest.mark.parametrize("k", range(1, 14))
    def test_every_shape_of_the_karatsuba_middle_product(self, k):
        # more, as many or fewer outputs than y has entries, at every k
        rng = random.Random(k)
        for m in range(1, 14):
            x, y = big_vector(rng, k - 1 + m, 40), big_vector(rng, k, 30)
            assert kernel._middle_product(x, y) == middle_reference(x, y, m), m

    @pytest.mark.parametrize("bits, taken", [((1 << 15, 31), False), ((1 << 15, 32), True),
                                             ((31, 1 << 15), False), ((32, 1 << 15), True)])
    def test_gate_reads_the_work_per_output(self, bits, taken):
        # 32 entries of y: the gate sits at 32 * 2^15 * 2^5 = 2^25 bit pairs per output
        rng = random.Random(str(bits))
        x, y = big_vector(rng, 63, bits[0]), big_vector(rng, 32, bits[1])
        y[3] = 1  # the gate reads the largest entry, not every entry
        assert takes_middle_karatsuba_in(lambda: kernel._middle(x, y, 32)) is taken
        assert kernel._middle(x, y, 32) == middle_reference(x, y, 32)

    def test_division_by_halves_takes_it_past_the_gate(self):
        # beta_q's quotient at order 128: an even divisor and an odd low half,
        # folded before the gate
        d = Deformation(F(5, 4))
        e = q_gauss(VacuumSpec(beta=F(-1, 2), d=d, order=130))
        num = e.jackson_derivative(d)
        assert takes_middle_karatsuba_in(lambda: div(num, e))
        assert layout(div(num, e)) == layout(kernel._div_loop(num, e, 129))


def schoolbook(a, b, n):
    """Coefficients 0..n of a * b over plain integers; missing entries are zeros."""
    return [sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
            for k in range(n + 1)]


class TestProductRule:
    """Even and odd operands are folded before the sparser one picks a path."""

    @pytest.mark.parametrize("poly", [[0, 1], [0, 0, 1]])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_monomial_times_an_even_or_odd_series_is_one_row(self, poly, parity, monkeypatch):
        v = VacuumSpec(beta=F(-1, 2), d=Deformation(F(3, 2)), order=48)
        s = beta_q(v) if parity == 0 else beta_q(v).mul_poly([0, 1])
        want = expect(ref_product([GaussRational(F(c)) for c in poly], s.coeffs, s.order + len(poly) - 1),
                      s.order + len(poly) - 1)

        def no_dense(*args):
            raise AssertionError("a monomial times an even or odd series took the dense products")

        monkeypatch.setattr(kernel, "_dense", no_dense)
        assert exact(s.mul_poly(poly)) == want

    @pytest.mark.parametrize("n", [30, 31])
    def test_even_times_even_below_the_gate_is_dense_on_folded_vectors(self, n, monkeypatch):
        rng = random.Random(n)
        a, b = big_vector(rng, n + 1, 64, 0), big_vector(rng, n + 1, 60, 0)
        seen, dense = [], kernel._dense
        monkeypatch.setattr(kernel, "_dense",
                            lambda a, b, m: seen.append((len(a), len(b), m)) or dense(a, b, m))
        assert kernel._convolve(a, b, n) == reference(a, b, n)
        assert seen == [(n // 2 + 1, n // 2 + 1, n // 2)]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_zero_and_single_entry_operands(self, n):
        operands = [[0], [0] * (n + 1), [3], [-5], [0, 7], [4, 0, -2], [0, 0, 6]]
        for a in operands:
            for b in operands:
                assert kernel._convolve(a, b, n) == schoolbook(a, b, n), (a, b)

    @pytest.mark.parametrize("n", [5, 17, 40])
    @pytest.mark.parametrize("bits", [8, 3000])
    def test_operands_shorter_than_n_plus_one(self, n, bits):
        rng = random.Random(f"{n} {bits}")
        for parities in ((0, 0), (0, 1), (1, 1), (None, 0), (None, None)):
            for la, lb in ((1, n), (n // 2, n + 1), (n, n // 3 + 1), (2, 3)):
                a, b = big_vector(rng, la, bits, parities[0]), big_vector(rng, lb, bits, parities[1])
                assert kernel._convolve(a, b, n) == schoolbook(a, b, n)
                assert kernel._convolve(b, a, n) == schoolbook(a, b, n)


def full_product_without_cross_term(a, b):
    """Karatsuba's full product of a = a0 + x^h a1 and b with its cross term
    x^h (a0 b1 + a1 b0) dropped: a0 b0 + x^(2h) a1 b1."""
    m = len(a)
    if m == 1:
        return [a[0] * b[0]]
    h = m // 2
    low = dot_path(a[:h] + [0] * (h - 1), b[:h] + [0] * (h - 1), 2 * h - 2)
    k = m - h
    high = dot_path(a[h:] + [0] * (k - 1), b[h:] + [0] * (k - 1), 2 * k - 2)
    return low + [0] + high


class TestKaratsubaFaults:
    """A product that drops a cross term must fail the suites that read it."""

    def test_kernel(self, monkeypatch):
        # at order 96 the kernel's one dense product, w g, is past the gate
        q, beta, order = F(3, 2), F(-1, 2), 96
        v = VacuumSpec(beta=beta, d=Deformation(q), order=order)
        w, g = beta_q(v).mul_poly([0, 1]), q_gauss(v)
        assert takes_karatsuba(list(w.num), list(g.num), order)
        [check] = verify.kernel_suite(q, beta, order)
        assert check.passed
        good = w * g
        monkeypatch.setattr(kernel, "_full_product", full_product_without_cross_term)
        [check] = verify.kernel_suite(q, beta, order)
        # the closed form is exact, so the residual is the product's error
        error = (w * g - good).truncated(order - 1)
        assert not error.is_zero
        assert check.status == "fail"
        assert check.first_failure_index == error.first_nonzero_index()
        assert check.worst_deviation == format_rational(error.max_abs_coeff())

    def test_leibniz(self, monkeypatch):
        # the suite's polynomials are small, so the gate is opened for them
        monkeypatch.setattr(kernel, "_KARATSUBA_MIN_WORK", 0)
        q = F(3, 2)
        d = Deformation(q)
        assert verify.leibniz_suite(q)[0].passed

        rng = random.Random(verify.LEIBNIZ_SEED)
        pairs = [(verify._random_polynomial(rng, 10, 22), verify._random_polynomial(rng, 10, 22))
                 for _ in range(200)]

        def products(f, g):
            return (f * g, f.jackson_derivative(d) * g.scale_arg(q),
                    f.scale_arg(1 / q) * g.jackson_derivative(d))

        good = [products(f, g) for f, g in pairs]
        monkeypatch.setattr(kernel, "_full_product", full_product_without_cross_term)
        [check] = verify.leibniz_suite(q)
        assert check.status == "fail"
        # the suite stops at the first pair whose residual is not zero
        for (f, g), (g1, g2, g3) in zip(pairs, good):
            b1, b2, b3 = products(f, g)
            residual = (b1 - g1).jackson_derivative(d) - (b2 - g2) - (b3 - g3)
            if not residual.is_zero:
                break
        assert not residual.is_zero
        assert check.first_failure_index == residual.first_nonzero_index()
        assert check.worst_deviation == format_rational(residual.max_abs_coeff())


def scaled_up(s: PowerSeries, k: int) -> PowerSeries:
    """s with k times each numerator over k times its denominator: the same
    series, unreduced."""
    return kernel._make(s.order, [x * k for x in s.num], s.den * k)


class TestOneResultType:
    """Every kernel body returns a series, unreduced; its public method is
    ``_reduced`` of that series, the one reduction."""

    BODIES = {
        "_combine(+)": lambda a, b, c, poly, d: (a._combine(b, _add), a + b),
        "_combine(-)": lambda a, b, c, poly, d: (a._combine(b, _sub), a - b),
        "_scaled": lambda a, b, c, poly, d: (a._scaled(c), a * c),
        "_times": lambda a, b, c, poly, d: (a._times(b), a * b),
        "_mul_poly": lambda a, b, c, poly, d: (a._mul_poly(poly), a.mul_poly(poly)),
        "_scale_arg": lambda a, b, c, poly, d: (a._scale_arg(c), a.scale_arg(c)),
        "_jackson": lambda a, b, c, poly, d: (a._jackson(d), a.jackson_derivative(d)),
    }

    @pytest.mark.parametrize("body", sorted(BODIES))
    @given(st.one_of(series(), st.just(PowerSeries([], -1))), series(), scalars,
           st.lists(coeffs, max_size=4), st.sampled_from(QS))
    @settings(max_examples=60)
    def test_the_public_method_is_the_reduced_body(self, body, a, b, c, poly, q):
        got, public = self.BODIES[body](a, b, c, poly, Deformation(q))
        assert_well_formed(got)
        assert got.order == public.order and got == public
        assert layout(kernel._reduced(got)) == layout(public)
        assert_canonical(public)

    @given(series(), st.integers(1, 60))
    def test_reduced_takes_out_a_common_factor(self, a, k):
        assert kernel._reduced(a) is a
        got = kernel._reduced(scaled_up(a, k))
        assert layout(got) == layout(a)


class TestAddRow:
    """``_add_row`` adds w * row into acc from index start, clipped at len(acc)."""

    def test_row_inside(self):
        acc = [1, 1, 1, 1, 1]
        kernel._add_row(acc, 1, 3, [1, -2])
        assert acc == [1, 4, -5, 1, 1]

    def test_row_past_the_end_is_clipped(self):
        acc = [0, 0, 0, 0]
        kernel._add_row(acc, 2, 5, (1, 2, 3, 4))
        assert acc == [0, 0, 5, 10]

    def test_start_at_the_last_index(self):
        acc = [7, 7, 7]
        kernel._add_row(acc, 2, -1, [3, 9, 9])
        assert acc == [7, 7, 4]
