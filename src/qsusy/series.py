"""Truncated formal power series over the rationals.

A series stores exact coefficients c_0..c_N together with the highest retained
power N (its order). Coefficients beyond N are unknown, never assumed zero.
Binary operations keep only the part both operands can vouch for, so ``order``
always names the highest coefficient that is exact:

* add/sub and mul truncate to min(N_a, N_b),
* the q-derivative drops the order by one,
* multiplying by an exactly known polynomial raises the order by the
  polynomial's lowest nonzero degree,
* equality compares coefficients up to the common valid order, exactly.

Storage follows FLINT's ``fmpq_poly`` layout: c_n = num[n] / den with
integer numerators and one positive common denominator. Every result of a
public operation is brought back to this canonical form (gcd of den and all
numerators equal to 1) by a single multi-argument gcd, so the kernels run on
plain integers. Each kernel operation has one body that returns its result
as a series left unreduced, over a valid denominator that need not be the
least; the public method is ``_reduced`` of that body, one gcd. ``_make``
builds every series with no gcd. The operator walk
(``operators.QOperator.apply``) chains the bodies and reduces its result
alone. Coefficients and scalars are real: a ``GaussRational`` is accepted
when its imaginary part is zero, and ``coeffs`` and ``coeff`` build the
GaussRational view on demand.

A product of two series convolves integer vectors (``_convolve``) by one
rule. When each operand is even or odd, only every second entry is convolved
(the vectors are folded): a = x^pa A(x^2) and b = x^pb B(x^2) give
a * b = x^(pa + pb) (A B)(x^2), so no path multiplies the zeros in between.
Then the operand with fewer nonzero entries goes on the left, and one of
three paths runs, chosen from the operands alone:

* Sparse rows: when at most a quarter of its entries are nonzero (a monomial
  probe, a short polynomial), one row of the schoolbook product is added
  per nonzero entry.
* Karatsuba short product: when the vectors have at least 16 entries and
  the smaller operand's largest numerator has at least 2,100 bits. The
  short product computes coefficients 0..n only: it splits into one full
  product and two short products of half the length, and a full product
  splits into three (Karatsuba & Ofman, 1963), down to single entries.
* Dense dot products otherwise: one per output coefficient.

Karatsuba trades one product of two numerators for a few additions. CPython
multiplies integers of fewer than 70 digits of 30 bits (2,100 bits) by
schoolbook and longer ones by its own Karatsuba, so below that size a
product costs little more than the additions it would replace. Measured
with CPython 3.11 on a 2-CPU x86-64 host, on 16 entries of random integers
the Karatsuba path takes 1.4x the time of the dot products at 1,000 bits
and 0.9x at 2,100 bits; on 65 entries, 0.9x and 0.55x. All three paths give
the same integers.

Division (``div``): below order 64 (``_DIV_HALVES_MIN_ORDER``) one exact
loop runs, with one gcd per output.
From order 64 on, the quotient c to order n is taken by halves: with h =
ceil((n + 1) / 2), c_lo = a / b to order h - 1, then a - b c_lo = x^h r
exactly, and c_hi = r / b to order n - h, so that c = c_lo + x^h c_hi. Each
half reads a and b truncated to its own order (``truncated``, one gcd), over
a far smaller denominator (beta_q at q = 3/2, n = 129: 394 bits, not 6,649),
and recurses down to the loop. b c_lo's low h coefficients cancel, so r
takes only its h..n: a middle product (``_middle``; Hanrot, Quercia &
Zimmermann, AAECC 14, 2004), folded like ``_convolve``. Its Karatsuba form,
three half-size middle products in place of four, runs when each output's
dot product would multiply at least 2^25 bit pairs (the length of y times
the bit lengths of the largest entries of x and y); at every length from 2
to 48 it took 0.9-1.2x the dot products' time at 2^24 and 0.7-1.0x at 2^25.
``_join`` puts the two canonical halves over one denominator with no gcd.

Measured with CPython 3.11 on a 2-CPU x86-64 host, on the beta_q quotients
at q = 2, 3/2 and 5/4: the remainder takes 0.16-0.52x the time it took by
the short product at n = 129 and 257 (q = 3/2, 5/4); the whole recursion
takes 7, 14 and 27 ms at n = 129 where the loop takes 29, 69 and 134 ms, and
0.14, 0.42 and 0.71 s at n = 257 where it takes 0.80, 1.68 and 3.05 s.
Halves from order 32 ran up to 1.65x slower at n = 33, from 48 within noise,
and from 96 up to 1.6x slower at n = 65, so the threshold stays at 64.

There is no epsilon anywhere in this module; the float entry point is the
single evaluator ``evaluate_float`` used at the grid/plotting boundary. It
divides the numerators into floats once per series and keeps them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm
from operator import add as _add, eq as _eq, mul as _mul, sub as _sub
from typing import Iterable, Optional, Sequence, Union

from .qcore import GAUSS_ZERO, Deformation, GaussRational, Rational, _Sealed, q_number_numerators, to_gauss

__all__ = [
    "PowerSeries",
    "NonInvertibleSeriesError",
    "make_series",
    "zero_series",
    "constant_series",
    "monomial",
    "div",
]

CoeffLike = Union[GaussRational, Fraction, int]
# The stored numerators are tuples, but the kernels read them through islice
# and slice only lists: CPython 3.11 never reuses a freed 20-item tuple, so
# each one would sit on the tuple free list (up to 2000 of them) until a full
# garbage collection.
IntVector = Sequence[int]

_FRACTION_ZERO = Fraction(0)


class NonInvertibleSeriesError(ValueError):
    """Raised when dividing by a series whose constant term is zero."""


def _real(c: object) -> Rational:
    """An int or Fraction as it is, a real GaussRational's real part, else NotImplemented.

    A GaussRational with a nonzero imaginary part raises ValueError: series
    and operators are real.
    """
    if isinstance(c, GaussRational):
        if c.im:
            raise ValueError(f"series and operators are real; cannot use {c}")
        return c.re
    return c if isinstance(c, (int, Fraction)) else NotImplemented


def _ratios(values: Iterable[CoeffLike]) -> tuple[list[int], list[int]]:
    """Numerators and denominators of exact real scalars."""
    nums: list[int] = []
    dens: list[int] = []
    for c in values:
        r = _real(c)
        if r is NotImplemented:
            raise TypeError(f"cannot use {c!r} as a series coefficient")
        nums.append(r.numerator)
        dens.append(r.denominator)
    return nums, dens


def _over_lcm(nums: Sequence[int], dens: Sequence[int]) -> tuple[list[int], int]:
    """The ratios nums[k] / dens[k], dens[k] > 0, as numerators over the lcm of dens."""
    den = lcm(*dens)
    return [x * (den // d) if x else 0 for x, d in zip(nums, dens)], den


def _from_ratios(order: int, nums: Sequence[int], dens: Sequence[int]) -> "PowerSeries":
    """The series with c_n = nums[n] / dens[n].

    The denominators must be positive and need not be reduced: the numerators
    go over the lcm of all denominators, and ``_reduced``'s one gcd takes out
    any factor that unreduced input leaves.
    """
    scaled, den = _over_lcm(nums, dens)
    return _reduced(_make(order, scaled, den))


def _reduced(s: "PowerSeries") -> "PowerSeries":
    """s in canonical form, by one gcd over den and every numerator; s itself when that is 1."""
    g = gcd(s.den, *s.num)
    if g == 1:
        return s
    return _make(s.order, [x // g for x in s.num], s.den // g)


def _make(order: int, num: IntVector, den: int) -> "PowerSeries":
    """The series num / den, den > 0, as given: no gcd, so den need not be the least."""
    out = object.__new__(PowerSeries)
    _set(out, "order", order)
    _set(out, "num", tuple(num))
    _set(out, "den", den)
    _set(out, "_floats", None)
    return out


_set = object.__setattr__


def _convolve(a: IntVector, b: IntVector, n: int) -> list[int]:
    """Coefficients 0..n of the product of integer vectors a and b.

    Even or odd operands are folded first; then the sparser operand goes on
    the left, and one of three paths runs (see the module docstring): the
    sparse rows, the Karatsuba short product when both operands are long and
    hold big integers, or the dense dot products.
    """
    a, b = list(islice(a, n + 1)), list(islice(b, n + 1))
    # at n = 0 every vector is even and the fold keeps n = 0, so it would never end
    pa, pb = (_parity(a), _parity(b)) if n >= 1 else (None, None)
    if pa is not None and pb is not None:
        out = [0] * (n + 1)
        if pa + pb <= n:
            out[pa + pb :: 2] = _convolve(a[pa::2], b[pb::2], (n - pa - pb) // 2)
        return out
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a
    if 4 * (len(a) - a.count(0)) <= n + 1:
        out = [0] * (n + 1)
        for i, x in enumerate(a):
            if x:
                _add_row(out, i, x, b)
        return out
    if n + 1 >= _KARATSUBA_MIN_LEN and min(max(map(int.bit_length, v)) for v in (a, b)) >= _KARATSUBA_MIN_BITS:
        a += [0] * (n + 1 - len(a))  # an operand may end before index n
        b += [0] * (n + 1 - len(b))
        return _short_product(a, b)
    return _dense(a, b, n)


def _add_row(acc: list[int], start: int, w: int, row: IntVector) -> None:
    """acc[start + j] += w * row[j] for each j with start + j < len(acc)."""
    end = min(len(acc), start + len(row))
    acc[start:end] = map(_add, acc[start:end], map(_mul, repeat(w), row))


def _dense(a: list[int], b: list[int], n: int) -> list[int]:
    """Coefficients 0..n of a * b, one dot product each.

    Each output integer is built once, where adding rows would rebuild every
    output per row and hold two copies of the longest numerators at once.
    """
    rb = b[::-1]
    rb[:0] = repeat(0, n + 1 - len(b))
    return [sum(map(_mul, a, rb[n - k :])) for k in range(n + 1)]


# The gate of the Karatsuba path; the module docstring says why it sits here.
_KARATSUBA_MIN_BITS = 70 * 30
_KARATSUBA_MIN_LEN = 16


def _parity(v: list[int]) -> Optional[int]:
    """0 or 1 when every nonzero entry of v has an even or odd index, else None."""
    if not any(islice(v, 1, None, 2)):
        return 0
    if not any(islice(v, 0, None, 2)):
        return 1
    return None


def _short_product(a: list[int], b: list[int]) -> list[int]:
    """The first len(a) coefficients of a * b, for len(a) == len(b).

    With a = a0 + x^h a1 (and b alike), they are a0 b0 in full plus x^h times
    the low parts of a0 b1 and a1 b0, which are short products themselves.
    """
    m = len(a)
    if m == 1:
        return [a[0] * b[0]]
    h = (m + 1) // 2
    k = m - h
    out = _full_product(a[:h], b[:h])  # 2h - 1 entries: m, or m - 1 for even m
    out += [0] * (m - len(out))
    cross = _short_product(a[:k], b[h:])
    out[h:] = map(_add, out[h:], cross)
    del cross
    cross = _short_product(a[h:], b[:k])
    out[h:] = map(_add, out[h:], cross)
    return out


def _full_product(a: list[int], b: list[int]) -> list[int]:
    """All 2 len(a) - 1 coefficients of a * b, for len(a) == len(b): three
    half-length products, (a0 + a1)(b0 + b1) - a0 b0 - a1 b1 giving the middle."""
    m = len(a)
    if m == 1:
        return [a[0] * b[0]]
    h = m // 2
    low = _full_product(a[:h], b[:h])
    high = _full_product(a[h:], b[h:])
    sa, sb = a[h:], b[h:]
    sa[:h] = map(_add, sa[:h], a[:h])
    sb[:h] = map(_add, sb[:h], b[:h])
    mid = _full_product(sa, sb)
    del sa, sb
    mid[: len(low)] = map(_sub, mid[: len(low)], low)
    mid[:] = map(_sub, mid, high)
    low.append(0)
    low += high
    del high
    end = h + len(mid)
    low[h:end] = map(_add, low[h:end], mid)
    return low


def _same(a: IntVector, b: IntVector, m: int, da: int, db: int) -> bool:
    """a / da == b / db in the first m terms."""
    a, b = islice(a, m), islice(b, m)
    if da == db:
        return all(map(_eq, a, b))
    return all(map(_eq, map(_mul, a, repeat(db)), map(_mul, b, repeat(da))))


class PowerSeries(_Sealed):
    """Sum of c_n x**n for n = 0..order, with exact rational c_n.

    The coefficients are stored as integer numerators over one common
    denominator (see the module docstring); ``PowerSeries(coeffs, order)``
    builds that form from Fraction, int or real GaussRational coefficients,
    and ``coeffs`` gives them back. Instances are immutable; the only state
    added later is ``evaluate_float``'s float table, a function of the rest.

    ``order`` may be -1 for the degenerate series with no retained
    coefficients (the result of differentiating a bare constant); such a
    series compares equal to anything, vacuously, so tests always pin the
    order they expect alongside coefficient assertions.
    """

    __slots__ = ("order", "num", "den", "_floats")

    order: int
    num: tuple[int, ...]
    den: int
    _floats: Optional[list[float]]  # evaluate_float's quotients, once taken

    def __init__(self, coeffs: Iterable[CoeffLike], order: int) -> None:
        if order < -1:
            raise ValueError(f"series order must be >= -1, got {order}")
        nums, dens = _ratios(coeffs)
        if len(nums) != order + 1:
            raise ValueError(
                f"series of order {order} needs {order + 1} coefficients, "
                f"got {len(nums)}"
            )
        built = _from_ratios(order, nums, dens)
        for name in self.__slots__:
            _set(self, name, getattr(built, name))

    # -- accessors ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[GaussRational, ...]:
        """The coefficients as GaussRationals, built on each access."""
        den = self.den
        return tuple(GaussRational._raw(Fraction(x, den), _FRACTION_ZERO) for x in self.num)

    def coeff(self, n: int) -> GaussRational:
        """Coefficient of x**n; only retained indices are addressable."""
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient {n} is beyond the retained order {self.order}")
        return GaussRational._raw(Fraction(self.num[n], self.den), _FRACTION_ZERO)

    @property
    def is_zero(self) -> bool:
        """True when every retained coefficient is zero."""
        return not any(self.num)

    def first_nonzero_index(self) -> Optional[int]:
        return next((n for n, x in enumerate(self.num) if x), None)

    def max_abs_coeff(self) -> Rational:
        """Largest coefficient magnitude, exactly."""
        return Fraction(max(map(abs, self.num), default=0), self.den)

    def truncated(self, order: int) -> "PowerSeries":
        """Forget coefficients above ``order`` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError(
                f"cannot extend a truncated series from order {self.order} to {order}"
            )
        return _reduced(_make(order, list(islice(self.num, order + 1)), self.den))

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Exact coefficient equality up to the common valid order."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        m = min(self.order, other.order) + 1
        return _same(self.num, other.num, m, self.den, other.den)

    __hash__ = None  # equality is order-relative, so hashing would mislead

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "PowerSeries":
        return _make(self.order, [-x for x in self.num], self.den)

    def _combine(self, other: "PowerSeries", op) -> "PowerSeries":
        """self op other (op is + or -) over the lcm of the two denominators."""
        m = min(self.order, other.order) + 1
        da, db = self.den, other.den
        den = lcm(da, db)
        sa, sb = den // da, den // db
        a = islice(self.num, m) if sa == 1 else map(_mul, islice(self.num, m), repeat(sa))
        b = islice(other.num, m) if sb == 1 else map(_mul, islice(other.num, m), repeat(sb))
        return _make(m - 1, list(map(op, a, b)), den)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return _reduced(self._combine(other, _add))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return _reduced(self._combine(other, _sub))

    def _scaled(self, c: Rational) -> "PowerSeries":
        """Every coefficient times the real scalar c (an int or Fraction): one integer product each."""
        return _make(self.order, list(map(_mul, self.num, repeat(c.numerator))), self.den * c.denominator)

    def _times(self, other: "PowerSeries") -> "PowerSeries":
        """The product of two series, to the lower of their orders."""
        n = min(self.order, other.order)
        if n < 0:
            return _make(-1, [], 1)
        return _make(n, _convolve(self.num, other.num, n), self.den * other.den)

    def __mul__(self, other: object) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            return _reduced(self._times(other))
        scalar = _real(other)
        if scalar is NotImplemented:
            return NotImplemented
        return _reduced(self._scaled(scalar))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            return div(self, other)
        scalar = _real(other)
        if scalar is NotImplemented:
            return NotImplemented
        return _reduced(self._scaled(1 / Fraction(scalar)))

    # -- calculus and substitutions -----------------------------------------

    def mul_poly(self, poly: Sequence[CoeffLike]) -> "PowerSeries":
        """Multiply by an exactly known polynomial (not a truncation).

        Because every polynomial coefficient is known at all degrees, the
        product is exact up to self.order + v, where v is the polynomial's
        lowest nonzero degree. Multiplying by x (poly [0, 1]) therefore
        raises the order by one instead of truncating.
        """
        return _reduced(self._mul_poly(poly))

    def _mul_poly(self, poly: Sequence[CoeffLike]) -> "PowerSeries":
        scaled, pden = _over_lcm(*_ratios(poly))
        val = next((k for k, x in enumerate(scaled) if x), None)
        if val is None:
            # the zero polynomial: the product is identically zero
            n = max(self.order, 0)
            return _make(n, [0] * (n + 1), 1)
        n = self.order + val
        if n < 0:
            return _make(-1, [], 1)
        return _make(n, _convolve(scaled, self.num, n), self.den * pden)

    def scale_arg(self, lam: CoeffLike) -> "PowerSeries":
        """Substitute x -> lam*x, i.e. c_n -> lam**n c_n, exactly.

        With lam = a / r over integers, term n is multiplied by
        a**n r**(N - n) and the denominator by r**N.
        """
        scalar = _real(lam)
        if scalar is NotImplemented:
            raise TypeError("scale factor must be an exact scalar")
        return _reduced(self._scale_arg(scalar))

    def _scale_arg(self, lam: Rational) -> "PowerSeries":
        """The body of ``scale_arg``, for an int or Fraction lam."""
        a, r = lam.numerator, lam.denominator
        top = self.order
        weights, a_pow = [], 1
        for _ in range(top + 1):
            weights.append(a_pow)
            a_pow *= a
        r_pow = 1
        for n in range(top - 1, -1, -1):
            r_pow *= r
            weights[n] *= r_pow
        return _make(top, list(map(_mul, self.num, weights)), self.den * r_pow)

    def jackson_derivative(self, d: Deformation) -> "PowerSeries":
        """Symmetric q-derivative: c_n x**n -> [n]_q c_n x**(n-1).

        At q = 1 this is the classical derivative. The output order drops by
        one; differentiating a bare constant, or a series with no retained
        coefficients, leaves none.
        With q = a/b and [n]_q = s_n / (ab)**(n-1), term n is weighted by
        s_n (ab)**(N-n) over the common (ab)**(N-1).
        """
        return _reduced(self._jackson(d))

    def _jackson(self, d: Deformation) -> "PowerSeries":
        top = self.order
        ab = d.q.numerator * d.q.denominator
        weights = q_number_numerators(top, d)
        ab_pow = 1
        for n in range(top - 2, -1, -1):
            ab_pow *= ab
            weights[n] *= ab_pow
        num = list(map(_mul, islice(self.num, 1, None), weights))
        return _make(max(top - 1, -1), num, self.den * (ab_pow if top >= 1 else 1))

    def _require_value(self) -> None:
        if self.order < 0:
            raise ValueError("series has no retained coefficients; no value")

    def evaluate(self, x0: CoeffLike) -> GaussRational:
        """Horner evaluation of the retained polynomial part at an exact point."""
        self._require_value()
        x0 = to_gauss(x0)
        if x0 is NotImplemented:
            raise TypeError("evaluation point must be an exact scalar")
        acc = GAUSS_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def evaluate_float(self, x0: float) -> float:
        """Float Horner evaluation.

        Each coefficient is the correctly rounded quotient num / den, the
        same float its reduced Fraction gives. The quotients are taken on the
        first evaluation that gets that far and kept with the series, so later
        ones run Horner on floats alone, in the same order, to the same bits.
        """
        self._require_value()
        acc = 0.0
        x0 = float(x0)
        for c in self._floats or self._float_table():
            acc = acc * x0 + c
        return acc

    def _float_table(self) -> list[float]:
        """The coefficients as floats, highest first; an OverflowError keeps none."""
        den = self.den
        table = [c / den for c in reversed(self.num)]
        _set(self, "_floats", table)
        return table

    def __str__(self) -> str:
        if self.order < 0:
            return "<empty series>"
        terms = [f"{c}*x^{n}" for n, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(x^{self.order + 1})"

    def __repr__(self) -> str:
        return f"PowerSeries(order={self.order}, coeffs={[str(c) for c in self.coeffs]})"


# -- constructors ------------------------------------------------------------


def make_series(coeffs: Sequence[CoeffLike], order: int) -> PowerSeries:
    """Build a series from low-to-high coefficients, zero-padded to ``order``."""
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    nums, dens = _ratios(coeffs)
    pad = order + 1 - len(nums)
    if pad < 0:
        raise ValueError(
            f"{len(nums)} coefficients do not fit in a series of order {order}"
        )
    return _from_ratios(order, nums + [0] * pad, dens + [1] * pad)


def zero_series(order: int) -> PowerSeries:
    return make_series([], order)


def constant_series(value: CoeffLike, order: int) -> PowerSeries:
    return make_series([value], order)


def monomial(n: int, order: int, coeff: CoeffLike = 1) -> PowerSeries:
    """The series coeff * x**n retained through ``order``."""
    if n < 0 or n > order:
        raise ValueError(f"monomial degree {n} must lie in 0..{order}")
    # a reduced ratio is canonical as it stands
    (num,), (den,) = _ratios([coeff])
    return _make(order, [0] * n + [num] + [0] * (order - n), den)


# -- division -----------------------------------------------------------------


def div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Series division: the unique c with b*c = a up to the truncation order.

    The divisor's constant term must be invertible; a zero constant term
    (a function vanishing at the origin) raises NonInvertibleSeriesError.
    The quotient comes from ``_quotient`` (see the module docstring).
    """
    if b.order < 0 or not b.num[0]:
        raise NonInvertibleSeriesError(
            "non-invertible divisor: constant term is zero"
        )
    n = min(a.order, b.order)
    if n < 0:
        return _make(-1, (), 1)
    return _quotient(a, b, n)


# The order from which division goes by halves; the module docstring says why.
_DIV_HALVES_MIN_ORDER = 64


def _quotient(a: PowerSeries, b: PowerSeries, n: int) -> PowerSeries:
    """a / b to order n, canonical, for b(0) != 0 and 0 <= n <= a.order, b.order."""
    if n < _DIV_HALVES_MIN_ORDER:
        return _div_loop(a, b, n)
    return _div_halves(a, b, n)


def _join(s: PowerSeries, t: PowerSeries) -> tuple[list[int], list[int], int]:
    """The numerators of two canonical series over the lcm L of their
    denominators, and L: canonical together, with no gcd. A prime dividing L
    and every numerator would have its full power in L in one series'
    denominator D, not divide L / D, and so divide D and that series' numerators.
    """
    den = lcm(s.den, t.den)
    ms, mt = den // s.den, den // t.den
    return [x * ms for x in s.num], [x * mt for x in t.num], den


def _div_halves(a: PowerSeries, b: PowerSeries, n: int) -> PowerSeries:
    """a / b to order n >= 1 as c_lo + x^h c_hi (see the module docstring)."""
    h = (n + 2) // 2
    lo = _quotient(a.truncated(h - 1), b.truncated(h - 1), h - 1)
    hi = _quotient(_reduced(_remainder(a, b, lo, n)), b.truncated(n - h), n - h)
    num_lo, num_hi, den = _join(lo, hi)
    return _make(n, num_lo + num_hi, den)


def _remainder(a: PowerSeries, b: PowerSeries, lo: PowerSeries, n: int) -> PowerSeries:
    """r = (a - b lo) / x^h to order n - h, unreduced, for h = lo.order + 1 <= n.

    When lo = a / b to order h - 1, the coefficients 0..h - 1 of a - b lo
    vanish, so only b lo's coefficients h..n are computed, by ``_middle``.
    """
    h = lo.order + 1
    blo = _middle(list(islice(b.num, 1, n + 1)), list(lo.num), n + 1 - h)
    top = _make(n - h, list(islice(a.num, h, n + 1)), a.den)
    return top._combine(_make(n - h, blo, b.den * lo.den), _sub)


def _middle(x: list[int], y: list[int], m: int) -> list[int]:
    """z_i = sum_j y_j x_(i + k - 1 - j) for i < m, with k = len(y) and
    len(x) = k - 1 + m: coefficients k - 1..k - 2 + m of x * y.

    Even or odd operands are folded first, as in ``_convolve``; then the
    Karatsuba middle product runs when each output's dot product would
    multiply at least _MIDDLE_MIN_WORK bit pairs, and the dot products
    otherwise (see the module docstring).
    """
    k = len(y)
    # a single x entry is its own fold, so folding it would never end
    px, py = (_parity(x), _parity(y)) if len(x) > 1 else (None, None)
    if px is not None and py is not None:
        # output i is coefficient i + k - 1 of x * y, zero unless that index
        # has the parity of px + py; every second output from s on is then a
        # middle product of the folded vectors, from x[px::2][start] on
        out = [0] * m
        s = (px + py + k + 1) % 2
        fm = (m - s + 1) // 2
        if fm:
            y = y[py::2]
            start = (s + k - 1 - px - py) // 2 - (len(y) - 1)
            out[s::2] = _middle(x[px::2][start : start + len(y) - 1 + fm], y, fm)
        return out
    if k * max(map(int.bit_length, x)) * max(map(int.bit_length, y)) >= _MIDDLE_MIN_WORK:
        return _middle_product(x, y)
    return _middle_dots(x, y, m)


# The gate of the Karatsuba middle product; the module docstring says why it sits here.
_MIDDLE_MIN_WORK = 1 << 25


def _middle_dots(x: list[int], y: list[int], m: int) -> list[int]:
    """The m entries of the middle product of x and y, one dot product each."""
    k = len(y)
    ry = y[::-1]
    return [sum(map(_mul, ry, x[i : i + k])) for i in range(m)]


def _middle_product(x: list[int], y: list[int]) -> list[int]:
    """The len(x) - len(y) + 1 entries of the middle product of x and y.

    For k = len(y) = 2h outputs, with y = y0 + x^h y1 and x in windows of
    2h - 1 entries, alpha = MP(x[:2h-1] + x[h:3h-1], y1),
    beta = MP(x[h:3h-1], y0 - y1) and gamma = MP(x[h:3h-1] + x[2h:4h-1], y0)
    give the low half alpha + beta and the high half gamma - beta (Hanrot,
    Quercia & Zimmermann, 2004). Any other shape peels one entry without
    padding: an extra output is one dot product, and an extra or odd y
    entry one row, y_0 x_(i + k - 1).
    """
    k = len(y)
    m = len(x) - k + 1
    if k == 1 or m == 1:
        return _middle_dots(x, y, m)
    if m > k:
        return _middle_product(x[:-1], y) + _middle_dots(x[m - 1 :], y, 1)
    if m < k or k % 2:
        out = _middle_product(x[:-1], y[1:])
        _add_row(out, 0, y[0], x[k - 1 :])
        return out
    h = k // 2
    mid = x[h : 3 * h - 1]
    alpha = _middle_product(list(map(_add, x[: 2 * h - 1], mid)), y[h:])
    beta = _middle_product(mid, list(map(_sub, y[:h], y[h:])))
    gamma = _middle_product(list(map(_add, mid, x[2 * h :])), y[:h])
    return [*map(_add, alpha, beta), *map(_sub, gamma, beta)]


def _div_loop(a: PowerSeries, b: PowerSeries, n: int) -> PowerSeries:
    """a / b to order n by one exact loop, for b(0) != 0.

    The quotient's numerators N_k are kept over a running denominator L,
    the lcm of the reduced denominators of c_0..c_(k-1). With a = A / Da and
    b = B / Db, c_k = (A_k Db L - Da sum_j B_j N_(k-j)) / (Da B_0 L),
    so c_k = T / (K L) with K = Da |B_0| and T an integer.
    The smallest multiple of L that clears c_k is L * K / g with
    g = gcd(T, K): that is one gcd per output, and when K / g > 1 the
    earlier numerators are scaled up by it. L then ends as the canonical
    denominator, with no final pass.
    """
    bnum = list(islice(b.num, n + 1))
    big_k = a.den * abs(bnum[0])
    # the sign of B_0 goes into the two factors of T
    sa, sb = (a.den, b.den) if bnum[0] > 0 else (-a.den, -b.den)
    # B_n..B_1, read from the right for output k
    rb = bnum[:0:-1]
    anum = list(islice(a.num, n + 1))
    cnum, big_l = [], 1
    for k in range(n + 1):
        t = anum[k] * sb * big_l - sa * sum(map(_mul, rb[n - k :], cnum))
        g = gcd(t, big_k)
        m = big_k // g
        if m != 1:
            big_l *= m
            for j, x in enumerate(cnum):
                cnum[j] = x * m
        cnum.append(t // g)
    return _make(n, cnum, big_l)
