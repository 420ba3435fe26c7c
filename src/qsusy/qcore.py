"""Exact scalar layer: rationals, Gaussian rationals, and symmetric q-numbers.

Every computation in this package bottoms out here. The base field is the
rationals (arbitrary precision, always in lowest terms, positive denominator),
and every series and operator is real: the substitution x -> ix of the
negative-energy sector is built into a real form (``qspecial.u_transform``).
Gaussian rationals ``re + im*i`` stay as the scalar type at the boundary:
``PowerSeries.coeffs`` hands coefficients out as GaussRationals, the wire
formats carry [re, im] pairs, and ``evaluate`` takes an exact complex point.
The deformation parameter q is itself an exact positive rational, so every
identity downstream can be checked coefficient by coefficient with no epsilon.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union

__all__ = [
    "Rational",
    "GaussRational",
    "Deformation",
    "q_number",
    "q_number_numerators",
    "q_factorial",
    "parse_rational",
    "format_rational",
    "to_gauss",
    "GAUSS_ZERO",
    "GAUSS_ONE",
    "GAUSS_I",
]

#: The base field. Backed by the standard library's exact rational type,
#: which already guarantees lowest terms and a positive denominator.
Rational = Fraction

RationalLike = Union[Fraction, int]

_FRACTION_ZERO = Fraction(0)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: floats are not exact, pass a Fraction or a string"
        )
    return Fraction(value)


class _Record:
    """A value class whose fields are the names in its ``__slots__``, in order.

    Equality, repr and copying read the fields as a dataclass's methods
    would: records are equal when their classes and their fields are, and
    repr reads ``Name(field=value, ...)``. A record can change, so it has no
    hash; a ``_Frozen`` one cannot, and hashes by its fields.
    """

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        # a subclass's __init__ checks its arguments, then passes every field
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        fields = (f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self) -> tuple:
        # every record's constructor takes its fields in __slots__ order
        return type(self), self._fields()


class _Sealed:
    """An object whose attributes are set once, through ``object.__setattr__``,
    when it is made; setting or deleting one later raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    __delattr__ = __setattr__


class _Frozen(_Sealed, _Record):
    """A record whose fields are set once, by ``_Record.__init__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())


# "p", "p/q" or a plain decimal "p.f", in digits. Left for re to compile on
# first use: only text past the int/str digit limit needs it.
_PLAIN_RATIONAL = r"\s*([+-]?)(?=\d|\.\d)(\d*)(?:\s*/\s*(\d+)|\.(\d*))?\s*\Z"
# the exponent k of decimal text "m e k", which Fraction would expand to 10**|k|;
# searched for from its "e", so a long run of digits is scanned once
_EXPONENT = r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z"
# the largest |k| read in "m e k": the int/str digit limit, so that a few
# characters cannot name a number longer than a digit string may be
_MAX_EXPONENT = 4300


def _int_str(n: int) -> str:
    """str(n) for an integer of any length.

    Past the interpreter's int/str digit limit (4300 digits by default) the
    number is split on a power of ten into halves that are each converted
    the same way, so the process-wide limit is left as it is.
    """
    try:
        return str(n)
    except ValueError:
        k = abs(n).bit_length() * 3 // 20  # about half of its decimal digits
        high, low = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + _int_str(high) + _int_str(low).zfill(k)


def _str_int(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length."""
    try:
        return int(digits)
    except ValueError:
        k = len(digits) // 2
        return _str_int(digits[:-k]) * 10**k + _str_int(digits[-k:])


#: How much of a refused value an error message shows.
_QUOTE_LIMIT = 64


def _quoted(text: str) -> str:
    """repr(text) for an error message; past 64 characters, its start and its length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _clipped(text: str) -> str:
    """text for an error message; past 64 characters, its start and its length."""
    return text if len(text) <= _QUOTE_LIMIT else f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"


def _shown(value: object) -> str:
    """repr(value) for an error message, cut by _clipped."""
    return _clipped(repr(value))


def parse_rational(text: str) -> Rational:
    """Parse "p/q", integer, or decimal strings to an exact rational.

    Decimal strings stay exact: "1.5" parses to 3/2, never through a float.
    "p", "p/q" and plain decimals "p.f" are read at any length, past the
    int/str digit limit. An exponent ("1e400") is read up to 4300 in
    magnitude; a larger one raises ValueError before any work.
    """
    text = str(text)
    exponent = re.search(_EXPONENT, text)
    if exponent is not None:
        digits = exponent[1].replace("_", "").lstrip("+-").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(
                f"exponent of {_quoted(text)} is past {_MAX_EXPONENT}, the int/str digit limit"
            )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        plain = re.match(_PLAIN_RATIONAL, text)
        if plain is None or plain[3] is not None and not plain[3].strip("0"):
            raise ValueError(f"not a rational: {_quoted(text)}") from exc
        sign, num, den, frac = plain.groups()
        if frac is not None:
            num, den = num + frac, 10 ** len(frac)
        elif den is not None:
            den = _str_int(den)
        value = Fraction(_str_int(num), den or 1)
        return -value if sign == "-" else value


def format_rational(value: RationalLike) -> str:
    """Render a rational as "p/q", or plain "p" when the denominator is 1.

    Numerators and denominators of any length are written in full.
    """
    value = _as_fraction(value)
    return _ratio_text(value.numerator, value.denominator)


def _ratio_text(x: int, den: int) -> str:
    """The rational x / den, den > 0, as "p/q" in lowest terms, or "p" when q is 1."""
    g = gcd(x, den)
    if g == den:
        return _int_str(x // g)
    return f"{_int_str(x // g)}/{_int_str(den // g)}"


class GaussRational(_Frozen):
    """A Gaussian rational re + im*i with exact rational parts.

    Field arithmetic is exact and multiplication satisfies i*i = -1. A value
    with im = 0 compares equal to (and hashes like) the plain rational re, so
    real results can be used interchangeably with Rational.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = Fraction(0), im: RationalLike = Fraction(0)) -> None:
        super().__init__(_as_fraction(re), _as_fraction(im))

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussRational":
        # arithmetic-internal constructor: operands are already Fractions,
        # so the coercion in __init__ would only burn time
        out = object.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    def as_rational(self) -> Rational:
        """Demote to a plain rational; rejects values with a nonzero im part."""
        if self.im != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self.re

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self) -> "GaussRational":
        return GaussRational._raw(-self.re, -self.im)

    def __add__(self, other: object) -> "GaussRational":
        other = to_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GaussRational":
        other = to_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: object) -> "GaussRational":
        other = to_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "GaussRational":
        other = to_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            # the case of every real coefficient
            return GaussRational._raw(self.re * other.re, _FRACTION_ZERO)
        return GaussRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "GaussRational":
        other = to_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero GaussRational")
            return GaussRational._raw(self.re / other.re, _FRACTION_ZERO)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        num = self * other.conjugate()
        return GaussRational._raw(num.re / norm, num.im / norm)

    def __rtruediv__(self, other: object) -> "GaussRational":
        other = to_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "GaussRational":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return GAUSS_ONE / self ** (-exponent)
        out = GAUSS_ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        return f"({format_rational(self.re)}{'+' if self.im >= 0 else '-'}{format_rational(abs(self.im))}i)"

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"


GAUSS_ZERO = GaussRational(0, 0)
GAUSS_ONE = GaussRational(1, 0)
GAUSS_I = GaussRational(0, 1)

def to_gauss(value: object) -> GaussRational:
    """Promote ints and rationals to GaussRational; pass GaussRational through."""
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational._raw(Fraction(value), _FRACTION_ZERO)
    return NotImplemented


class Deformation(_Frozen):
    """The deformation parameter: an exact positive rational q.

    q = 1 is the undeformed (classical) point. Because every construction in
    this package uses the symmetric convention, q and 1/q describe the same
    deformation; ``reciprocal`` returns the mirror value for symmetry tests.
    """

    __slots__ = ("q",)

    def __init__(self, q: RationalLike = Fraction(1)) -> None:
        q = _as_fraction(q)
        if q <= 0:
            raise ValueError(f"deformation parameter must be positive, got {q}")
        super().__init__(q)

    @property
    def is_classical(self) -> bool:
        return self.q == 1

    def reciprocal(self) -> "Deformation":
        return Deformation(1 / self.q)

    def __str__(self) -> str:
        return f"q={format_rational(self.q)}"


def q_number_numerators(n: int, d: Deformation) -> list[int]:
    """The integers s_1..s_n with [k]_q = s_k / (ab)**(k-1) for q = a/b.

    s_1 = 1 and s_(k+1) = a**2 s_k + b**(2k), because (ab)**(k-1) [k]_q is
    the sum of a**(2(k-1-j)) b**(2j) over j = 0..k-1. Each s_k is coprime to
    ab (it is b**(2(k-1)) mod a and a**(2(k-1)) mod b), so (ab)**(k-1) is the
    reduced denominator of [k]_q. At q = 1 the table is 1, 2, ..., n. This
    is the one source of q-numbers in the package; nothing about it is
    cached, so nothing grows with the values of q a process has seen.
    """
    a2, b2 = d.q.numerator ** 2, d.q.denominator ** 2
    out = []
    s, b_pow = 0, 1  # s_0 = 0 and b**0
    for _ in range(n):
        s = a2 * s + b_pow
        b_pow *= b2
        out.append(s)
    return out


def q_number(n: int, d: Deformation) -> Rational:
    """Symmetric q-analog of the integer n: (q**n - q**-n) / (q - 1/q).

    Returns n itself at q = 1 (the limit value). Odd in n, invariant under
    q -> 1/q, and equal to n when q = 1.
    """
    if n < 0:
        return -q_number(-n, d)
    if n == 0:
        return Fraction(0)
    ab = d.q.numerator * d.q.denominator
    return Fraction(q_number_numerators(n, d)[-1], ab ** (n - 1))


def q_factorial(n: int, d: Deformation) -> Rational:
    """Product [1][2]...[n] of symmetric q-numbers; the empty product is 1.

    With [k]_q = s_k / (ab)**(k-1) the product is s_1 ... s_n over
    (ab)**(n(n-1)/2), already in lowest terms.
    """
    if n < 0:
        raise ValueError(f"q-factorial needs n >= 0, got {n}")
    num = 1
    for s in q_number_numerators(n, d):
        num *= s
    ab = d.q.numerator * d.q.denominator
    return Fraction(num, ab ** (n * (n - 1) // 2))
