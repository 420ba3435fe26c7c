import math
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsusy.qcore import (
    GAUSS_I,
    GAUSS_ONE,
    Deformation,
    GaussRational,
    format_rational,
    parse_rational,
    q_factorial,
    q_number,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
positive_qs = st.fractions(min_value=F(1, 10), max_value=10, max_denominator=16)


class TestQNumber:
    def test_zero_and_one(self):
        for q in (F(2), F(3, 2), F(1), F(7, 5)):
            d = Deformation(q)
            assert q_number(0, d) == 0
            assert q_number(1, d) == 1

    def test_hand_values(self):
        d = Deformation(F(2))
        assert q_number(2, d) == F(5, 2)
        assert q_number(3, d) == F(21, 4)
        assert q_number(2, Deformation(F(1, 2))) == F(5, 2)

    def test_classical_point(self):
        d = Deformation(F(1))
        for n in range(-6, 7):
            assert q_number(n, d) == n

    def test_odd_in_n(self):
        d = Deformation(F(3, 2))
        for n in range(1, 8):
            assert q_number(-n, d) == -q_number(n, d)

    @given(n=st.integers(min_value=-20, max_value=20), q=positive_qs)
    def test_reciprocal_symmetry(self, n, q):
        assert q_number(n, Deformation(q)) == q_number(n, Deformation(1 / q))

    @given(n=st.integers(min_value=1, max_value=15), q=positive_qs)
    def test_doubling_identity(self, n, q):
        # [2n] = [n] (q^n + q^-n): the scalar identity behind the kernel property
        d = Deformation(q)
        assert q_number(2 * n, d) == q_number(n, d) * (q**n + q**-n)

    def test_monotone_growth(self):
        d = Deformation(F(3, 2))
        for n in range(1, 12):
            assert q_number(n + 1, d) > q_number(n, d)


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0, Deformation(F(2))) == 1

    def test_hand_value(self):
        assert q_factorial(3, Deformation(F(2))) == F(105, 8)

    def test_classical(self):
        assert q_factorial(3, Deformation(F(1))) == 6
        assert q_factorial(5, Deformation(F(1))) == 120

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_factorial(-1, Deformation(F(2)))

    def test_past_the_recursion_limit(self):
        # a cold call once recursed once per factor
        n = sys.getrecursionlimit() + 500
        assert q_factorial(n, Deformation(F(1))) == math.factorial(n)

    def test_not_memoised(self):
        # memo tables keyed on user q would grow with every q ever passed
        assert not hasattr(q_number, "cache_info")
        assert not hasattr(q_factorial, "cache_info")


class TestDeformation:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Deformation(F(0))
        with pytest.raises(ValueError):
            Deformation(F(-2))

    def test_classical_flag(self):
        assert Deformation(F(1)).is_classical
        assert not Deformation(F(2)).is_classical

    def test_reciprocal(self):
        assert Deformation(F(2)).reciprocal().q == F(1, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Deformation(1.5)


class TestGaussRational:
    def test_i_squared(self):
        assert GAUSS_I * GAUSS_I == GaussRational(-1, 0)

    def test_real_interchangeability(self):
        two = GaussRational(2, 0)
        assert two == F(2)
        assert two == 2
        assert hash(two) == hash(F(2))
        assert two.as_rational() == 2
        assert (two + F(1, 2)).re == F(5, 2)

    def test_imaginary_not_rational(self):
        with pytest.raises(ValueError):
            GAUSS_I.as_rational()

    @given(a=rationals, b=rationals, c=rationals, d=rationals)
    def test_division_inverts_multiplication(self, a, b, c, d):
        x = GaussRational(a, b)
        y = GaussRational(c, d)
        if not y:
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert (x / y) * y == x

    @given(a=rationals, b=rationals, c=rationals, d=rationals)
    def test_field_axioms_sample(self, a, b, c, d):
        x = GaussRational(a, b)
        y = GaussRational(c, d)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + GAUSS_ONE) == x * y + x

    def test_pow(self):
        assert GAUSS_I**2 == GaussRational(-1, 0)
        assert GAUSS_I**-2 == GaussRational(-1, 0)
        assert GaussRational(2, 1) ** 0 == GAUSS_ONE

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            GaussRational(0.5, 0)


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,value",
        [("3/2", F(3, 2)), ("-7", F(-7)), ("1.5", F(3, 2)), ("0.125", F(1, 8)), ("2", F(2))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "x", "1/0", "3//2", "1.5.2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_format(self):
        assert format_rational(F(3, 2)) == "3/2"
        assert format_rational(F(-4, 2)) == "-2"
        assert format_rational(F(0)) == "0"

    @given(value=rationals)
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value

    def test_past_the_digit_limit(self):
        # 10**5000 // 7 is 5000 digits of 142857..., beyond int/str's 4300
        num = 10**5000 // 7
        digits = ("142857" * 834)[:5000]
        value = F(-num, 3**11)
        text = format_rational(value)
        assert text == f"-{digits}/177147"
        assert parse_rational(text) == value
        assert parse_rational(f"{3**11}/{digits}") == F(3**11, num)
        assert format_rational(F(num)) == digits

    def test_long_decimal(self):
        # 0.11...1 with 5000 ones is (10**5000 - 1) / 9 over 10**5000
        value = F((10**5000 - 1) // 9, 10**5000)
        assert parse_rational("0." + "1" * 5000) == value
        assert parse_rational(" -." + "1" * 5000 + "0 ") == -value
        assert parse_rational("1" * 5000 + ".") == value * 10**5000
        assert parse_rational(format_rational(value)) == value
        assert parse_rational(format_rational(-value)) == -value

    @pytest.mark.parametrize("text,value", [
        ("1e400", F(10**400)), ("1E4300", F(10**4300)), ("-1.5e-4300", F(-15, 10**4301)),
        ("2_5e+4_300", F(25 * 10**4300)), ("1e0004300", F(10**4300)),
    ])
    def test_exponent_up_to_the_limit(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1e4301", "1e-4301", " -2.5E+10000 ", "1e999999999", "1e1_000_000", "1e" + "9" * 5000,
    ])
    def test_exponent_past_the_limit_rejected_at_once(self, text):
        # a larger exponent names a number of millions of digits in a few characters
        with pytest.raises(ValueError, match="past 4300, the int/str digit limit"):
            parse_rational(text)

    def test_exponent_search_is_linear_in_the_length(self):
        # the exponent pattern must not backtrack over a long run of digits:
        # a quadratic scan of these 40,000 characters takes over 20 s
        start = time.perf_counter()
        assert parse_rational("7" * 40_000) == F((10**40_000 - 1) // 9 * 7)
        assert parse_rational("0." + "5" * 40_000) == F((10**40_000 - 1) // 9 * 5, 10**40_000)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("text, message", [
        ("x/y", "not a rational: 'x/y'"),
        ("1e4301", "exponent of '1e4301' is past 4300, the int/str digit limit"),
        ("x" * 64, f"not a rational: {'x' * 64!r}"),
        ("x" * 65, f"not a rational: {'x' * 64!r}... (65 characters)"),
        ("1" * 70 + "e9999", f"exponent of {'1' * 64!r}... (75 characters) is past 4300, "
         "the int/str digit limit"),
    ])
    def test_message_quotes_at_most_64_characters(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", [
        "1" * 5000 + "/0", "1" * 5000 + "x", "1" * 5000 + "/-3",
        "1" * 5000 + ".5.5", "1" * 5000 + "./3", "1" * 5000 + ".5/3", "." * 5000,
    ])
    def test_long_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)
