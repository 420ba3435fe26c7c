"""Linear operators on truncated series: intertwiners and partner operators.

A QOperator is a frozen tree: ``Sum``, ``Scale`` and ``Compose`` join leaves
that multiply by a truncated series (``Mult``) or an exact polynomial
(``MultPoly``), take the symmetric q-derivative (``Jackson``) or map f to
f(q^k x) (``Shift``). Three interpreters read a tree:

* series apply (``apply``), exact on rational coefficients. The
  nodes call the series kernel's bodies and pass the series they return on
  unreduced (a valid denominator, not always the least); one gcd
  (``_reduced``) reduces the result, so a walk of any size costs one
  reduction;
* pointwise apply (``apply_at``) on float evaluators, in a fixed float order,
  walked on demand: nothing float is built with a node. A ``Mult`` leaf reads
  its coefficient through ``evaluate_float``, which divides each series into
  floats once and keeps the table, so repeated points run Horner on floats.
  The form exists only for q != 1 (the classical derivative has no finite
  q-quotient) and degenerates at x = 0; both answer through the series path;
* the term normal form (``normal_form``), op f = sum of a(x) (D_q^m f)(lam x),
  by D(FG) = (DF) G(qx) + F(x/q) DG and D[h(lam x)] = lam (Dh)(lam x) on the
  same leaf bodies, reducing only the terms kept; ``rows`` sums a monomial's
  integer rows unreduced.

Scales and polynomial coefficients are real: a complex one is refused with
ValueError when the node is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add as _add, sub as _sub
from typing import Callable, Optional, Sequence

from .qcore import Deformation, Rational, _Frozen, _Sealed, q_number
from .series import PowerSeries, _add_row, _make, _real, _reduced, make_series
from .qspecial import VacuumSpec, _increment, _log_derivative, beta_q

__all__ = [
    "QOperator", "Sum", "Scale", "Compose", "Mult", "MultPoly", "Jackson", "Shift", "NormalForm",
    "normal_form", "FactorizationPair", "SweepRow", "identity_op", "scalar_op", "multiplication_op",
    "poly_multiplication_op", "jackson_op", "classical_darboux", "darboux_potential_difference",
    "t_plus_q", "t_minus_q", "second_order_composed", "five_term_table", "second_order_direct",
    "classical_hermite_op", "classical_schrodinger_op", "susy_pair_limit", "t_generalized",
    "vacuum_pair", "generalized_pair", "limit_sweep", "convergence_ratios",
]

Evaluator = Callable[[float], float]
# (m, lam) -> a(x): the operator sum of a(x) (D_q^m f)(lam x)
Terms = dict[tuple[int, Fraction], PowerSeries]
_set = object.__setattr__


class QOperator(_Sealed):
    """A node of an immutable operator tree; a subclass's ``__slots__`` name its fields."""

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            _set(self, name, value)

    @property
    def name(self) -> str:
        fields = (getattr(self, s) for s in self.__slots__)
        return f"{type(self).__name__}({', '.join(str(getattr(v, 'name', v)) for v in fields)})"

    def apply(self, f: PowerSeries) -> PowerSeries:
        """op f, in canonical form; the nodes between pass their results on unreduced."""
        return _reduced(_run(self, f, _leaf, lambda a, b: a._combine(b, _add), PowerSeries._scaled))

    __call__ = apply

    @property
    def has_point_form(self) -> bool:
        # any evaluator serves: whether a form exists depends on the nodes alone
        return _point(self, float) is not None

    def apply_at(self, f: Evaluator, x: float) -> float:
        """Pointwise action on a float evaluator; x = 0 raises ZeroDivisionError."""
        form = _point(self, f)
        if form is None:
            raise ValueError(f"{self.name} has no pointwise form; use the series path")
        return form(float(x))

    @property
    def order_cost(self) -> int:
        """The least input order n >= 0 for which op f has order >= 0."""
        return max(0, -_run(self, 0, _order_leaf, min, lambda n, c: n))

    def __add__(self, other: "QOperator") -> "QOperator":
        return Sum(self, other) if isinstance(other, QOperator) else NotImplemented

    def __sub__(self, other: "QOperator") -> "QOperator":
        return self + (-other) if isinstance(other, QOperator) else NotImplemented

    def __neg__(self) -> "QOperator":
        return self * -1

    def __mul__(self, scalar: object) -> "QOperator":
        c = _real(scalar)
        return NotImplemented if c is NotImplemented else Scale(c, self)

    __rmul__ = __mul__

    def compose(self, inner: "QOperator") -> "QOperator":
        """self after inner: (self @ inner)(f) = self(inner(f))."""
        if not isinstance(inner, QOperator):
            raise TypeError("can only compose QOperators")
        return Compose(self, inner)

    __matmul__ = compose


def _node(name: str, *fields: str) -> type:
    """A QOperator subclass whose fields, in this order, are ``fields``."""
    return type(name, (QOperator,), {"__slots__": fields})


Sum = _node("Sum", "left", "right")  # left + right
Scale = _node("Scale", "c", "op")  # c op, for an int or Fraction c
Compose = _node("Compose", "outer", "inner")  # outer after inner
Mult = _node("Mult", "g", "name")  # g f, valid to min(order of g, order of f)
MultPoly = _node("MultPoly", "coeffs", "name")  # p f, order-exact (see mul_poly)
Jackson = _node("Jackson", "d")  # the symmetric q-derivative; d/dx at q = 1
Shift = _node("Shift", "d", "k")  # f -> f(q^k x)


def _run(op: QOperator, x, leaf: Callable, add: Callable, scale: Callable):
    """op applied to the input x: the walk behind series apply, the normal form and orders.

    Only the leaves differ between these: a Sum is add(left(x), right(x)),
    a Scale is scale(op(x), c), a Compose is outer(inner(x)), a leaf is leaf(node, x).
    """
    kind = type(op)
    if kind is Sum:
        return add(_run(op.left, x, leaf, add, scale), _run(op.right, x, leaf, add, scale))
    if kind is Scale:
        return scale(_run(op.op, x, leaf, add, scale), op.c)
    if kind is Compose:
        return _run(op.outer, _run(op.inner, x, leaf, add, scale), leaf, add, scale)
    return leaf(op, x)


def _leaf(op: QOperator, f: PowerSeries) -> PowerSeries:
    """A leaf applied to f by the series kernel's bodies, unreduced."""
    kind = type(op)
    if kind is Mult:
        return op.g._times(f)
    if kind is MultPoly:
        return f._mul_poly(op.coeffs)
    if kind is Jackson:
        return f._jackson(op.d)
    return f._scale_arg(op.d.q**op.k) if op.k else f


def _point(op: QOperator, f: Evaluator) -> Optional[Evaluator]:
    """op f as a float evaluator, or None if op has no pointwise form.

    A sum adds left to right, a scale multiplies after its operand, and a
    composition reads the inner form wherever the outer one reads f.
    """
    return _run(op, f, _point_leaf, _point_sum, _point_scale)


def _point_sum(a: Optional[Evaluator], b: Optional[Evaluator]) -> Optional[Evaluator]:
    return None if a is None or b is None else lambda x: a(x) + b(x)


def _float(x: Rational) -> Optional[float]:
    """x as a float, or None if x is past the float range or a nonzero below it."""
    try:
        xf = float(x)
    except OverflowError:
        return None
    return xf if xf or not x else None


def _point_scale(a: Optional[Evaluator], c: Rational) -> Optional[Evaluator]:
    cf = None if a is None else _float(c)
    return None if cf is None else lambda x: cf * a(x)


def _point_leaf(op: QOperator, f: Optional[Evaluator]) -> Optional[Evaluator]:
    # a q or shift factor with no float value leaves no point form
    kind = type(op)
    if f is None or kind is Jackson and (op.d.is_classical or _float(op.d.q) is None):
        return None
    if kind is Jackson:
        qf = float(op.d.q)
        iqf = 1.0 / qf
        span = qf - iqf
        return lambda x: (f(qf * x) - f(iqf * x)) / (x * span)
    if kind is Shift:
        lam = _float(op.d.q**op.k)
        return None if lam is None else lambda x: f(lam * x)
    g = op.g if kind is Mult else make_series(op.coeffs, max(len(op.coeffs) - 1, 0))
    return lambda x: g.evaluate_float(x) * f(x)


def _order_leaf(op: QOperator, n: int) -> int:
    kind = type(op)
    if kind is Mult:
        return min(op.g.order, n)
    if kind is MultPoly:
        low = next((i for i, c in enumerate(op.coeffs) if c), None)
        return max(n, 0) if low is None else n + low
    return n - 1 if kind is Jackson else n


def _terms_leaf(op: QOperator, terms: Terms) -> Terms:
    if type(op) is Jackson:
        # D[a(x) h(lam x)] = (D a)(x) h(q lam x) + lam a(x/q) (D h)(lam x)
        q, back, out = op.d.q, Shift(op.d, -1), {}
        for (m, lam), a in terms.items():
            _put(out, (m, lam * q), _leaf(op, a))
            _put(out, (m + 1, lam), _leaf(back, a)._scaled(lam))
        return out
    # a multiplication acts on the coefficient a alone; a shift also moves the key
    step = op.d.q**op.k if type(op) is Shift else 1
    return {(m, lam * step): _leaf(op, a) for (m, lam), a in terms.items()}


def _put(terms: Terms, key: tuple[int, Fraction], a: PowerSeries) -> None:
    terms[key] = terms[key]._combine(a, _add) if key in terms else a


def _terms_sum(a: Terms, b: Terms) -> Terms:
    for key, c in b.items():
        _put(a, key, c)
    return a


class NormalForm:
    """op f = sum over (m, lam) of terms[m, lam](x) (D_q^m f)(lam x), f of one order.

    ``order`` is that of op f by series apply; every term is valid that far.
    """

    __slots__ = ("d", "order", "terms")

    def __init__(self, d: Deformation, order: int, terms: Terms) -> None:
        self.d, self.order, self.terms = d, order, terms

    def rows(self, j: int) -> PowerSeries:
        """op x^j as an unreduced series: once reduced, it equals op.apply(monomial(j, n)),
        order included.

        The term (m, lam) sends x^j to a(x) [j]_q ... [j-m+1]_q lam^(j-m) x^(j-m):
        a's numerators, times one integer, added from index j - m. No gcd.
        """
        n, parts = self.order, []
        for (m, lam), a in self.terms.items():
            if 0 <= j - m <= n:
                s = lam ** (j - m)
                for i in range(m):
                    s *= q_number(j - i, self.d)
                parts.append((j - m, a, s))
        den = lcm(1, *(a.den * s.denominator for _, a, s in parts))
        num = [0] * (n + 1)
        for p, a, s in parts:
            _add_row(num, p, s.numerator * (den // (a.den * s.denominator)), a.num)
        return _make(n, num, den)


def normal_form(op: QOperator, n: int) -> NormalForm:
    """The term normal form of op on series of order n; its derivatives share one q."""
    leaf = lambda node, ds: ds | {node.d} if type(node) is Jackson else ds
    ds = _run(op, set(), leaf, set.union, lambda ds, c: ds) or {_CLASSICAL}
    if len(ds) > 1:
        raise ValueError("the term normal form needs one deformation parameter")
    scale = lambda terms, c: {key: a._scaled(c) for key, a in terms.items()}
    one = {(0, Fraction(1)): _make(n, [1] + [0] * n, 1)}
    terms = _run(op, one, _terms_leaf, _terms_sum, scale)
    # a passing identity check keeps no term, so it reduces none
    terms = {key: _reduced(a) for key, a in terms.items() if not a.is_zero}
    return NormalForm(ds.pop(), _run(op, n, _order_leaf, min, lambda n, c: n), terms)


# -- builders -------------------------------------------------------------------

_CLASSICAL = Deformation(Fraction(1))


def identity_op() -> QOperator:
    return Shift(_CLASSICAL, 0)


def scalar_op(c: object) -> QOperator:
    return identity_op() * c


def multiplication_op(g: PowerSeries, name: str = "mult") -> QOperator:
    """Multiplication by a truncated series; build g as long as its inputs."""
    return Mult(g, name)


def poly_multiplication_op(poly: Sequence[object], name: str = "poly") -> QOperator:
    """Multiplication by an exactly known polynomial (order-exact, see mul_poly)."""
    coeffs = tuple(map(_real, poly))
    if any(c is NotImplemented for c in coeffs):
        raise TypeError("polynomial coefficients must be exact scalars")
    return MultPoly(coeffs, name)


def jackson_op(d: Deformation) -> QOperator:
    """The symmetric q-derivative as an operator; classical derivative at q = 1."""
    return Jackson(d)


def _intertwiner(d: Deformation, sign: int, w: PowerSeries) -> QOperator:
    """sign * D_q - w(x): every first-order intertwiner here has this form."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    base = jackson_op(d)
    return (base if sign == 1 else -base) - multiplication_op(w)


def classical_darboux(u: PowerSeries, sign: int = 1) -> QOperator:
    """Intertwiner sign*D - u'/u from u, u(0) != 0; sign=+1 annihilates u."""
    return t_generalized(u, _CLASSICAL, sign)


def darboux_potential_difference(u: PowerSeries) -> PowerSeries:
    """Partner potential shift -2 (ln u)'' computed as -2 D(u'/u)."""
    ratio = _log_derivative(u, _CLASSICAL)
    return ratio.jackson_derivative(_CLASSICAL) * -2


def t_plus_q(v: VacuumSpec) -> QOperator:
    """Forward deformed intertwiner D_q - beta_q(x^2) x, annihilating the vacuum."""
    return _vacuum_intertwiners(v)[0]


def t_minus_q(v: VacuumSpec) -> QOperator:
    """Backward deformed intertwiner -D_q - beta_q(x^2) x."""
    return _vacuum_intertwiners(v)[1]


def _vacuum_intertwiners(v: VacuumSpec) -> tuple[QOperator, QOperator]:
    """(D_q - w, -D_q - w) with w = beta_q(x^2) x, built once for both.

    x times a canonical series is its numerators one place up over the same
    denominator, which is canonical too, so w is that index shift: no product
    and no gcd.
    """
    b = beta_q(v)
    w = _make(b.order + 1, (0, *b.num), b.den)
    return _intertwiner(v.d, 1, w), _intertwiner(v.d, -1, w)


def _partner_sign(which: str) -> int:
    if which not in ("b", "f"):
        raise ValueError("which must be 'b' or 'f'")
    return 1 if which == "b" else -1


def second_order_composed(v: VacuumSpec, which: str) -> QOperator:
    """Tminus after Tplus (which="b", annihilates the vacuum) or Tplus after Tminus."""
    plus, minus = _vacuum_intertwiners(v)
    return minus @ plus if _partner_sign(which) == 1 else plus @ minus


def five_term_table(d: Deformation, b: PowerSeries, which: str) -> list[tuple[PowerSeries, int, int]]:
    """Rows (a, m, k) of the partners of D_q - w and -D_q - w, where w = x B(x) and B = b.

    A partner acts on f as the sum of a(x) (D_q^m f)(q^k x) over its rows; each
    a is returned unreduced, as ``NormalForm.rows`` is. With
    dB = B(x) - (1/q) B(x/q):

        which="b":  -D_q^2 f - dB x (D_q f) + B^2 x^2 f          (-D_q - w after D_q - w)
                    + q (D_q B) x f(qx) + B(x/q) f(qx)
        which="f":  each row of "b" times (-1)^(m+k): D_q - w is -D_q - w with D_q -> -D_q,
                    and each D_q raises m or, by the q-Leibniz rule, k.

    The vacuum's pair has B = beta_q(x^2); the pair of an even transformation
    function u (``t_generalized``) has B = (D_q u) / (x u).
    """
    sign, q, n = _partner_sign(which), d.q, b.order
    rows = [
        (_make(n, [-1] + [0] * n, 1), 2, 0),
        (_increment(b, d)._mul_poly([0, -1]), 1, 0),
        (b._times(b)._mul_poly([0, 0, 1]), 0, 0),
        (b._jackson(d)._mul_poly([0, q]), 0, 1),
        (b._scale_arg(1 / q), 0, 1),
    ]
    return rows if sign == 1 else _mirrored(rows)


def _mirrored(rows: list[tuple[PowerSeries, int, int]]) -> list[tuple[PowerSeries, int, int]]:
    """Of's rows from Ob's (see five_term_table): row (a, m, k) times (-1)^(m+k), with no gcd."""
    return [(a._scaled(-1) if (m + k) % 2 else a, m, k) for a, m, k in rows]


def _expanded(d: Deformation, rows: list[tuple[PowerSeries, int, int]]) -> QOperator:
    """The sum of a(x) (D_q^m f)(q^k x) over the rows (a, m, k)."""
    terms = []
    for a, m, k in rows:
        op = multiplication_op(a)
        for _ in range(m):
            op = op @ jackson_op(d)
        terms.append(op @ Shift(d, k) if k else op)
    return reduce(_add, terms)


def second_order_direct(v: VacuumSpec, which: str) -> QOperator:
    """The partner operator as the sum of its five-term table; see second_order_composed."""
    return _expanded(v.d, five_term_table(v.d, beta_q(v), which))


def classical_hermite_op(n: int) -> QOperator:
    """Hermite differential operator D^2 - 2x D + 2n (annihilates H_n)."""
    if n < 0:
        raise ValueError(f"needs n >= 0, got {n}")
    dd = jackson_op(_CLASSICAL)
    return (dd @ dd) - (poly_multiplication_op([0, 2], "2x") @ dd) + scalar_op(2 * n)


def classical_schrodinger_op(n: int) -> QOperator:
    """Oscillator operator -D^2 + x^2 - (2n + 1) (annihilates exp(-x^2/2) H_n)."""
    if n < 0:
        raise ValueError(f"needs n >= 0, got {n}")
    dd = jackson_op(_CLASSICAL)
    return -(dd @ dd) + poly_multiplication_op([-(2 * n + 1), 0, 1], "x^2-(2n+1)")


def susy_pair_limit(v: VacuumSpec) -> tuple[QOperator, QOperator]:
    """Undeformed partner pair (h0, h1) = -D^2 + b1^2 x^2 +- b1 with b1 = 2 beta."""
    b1 = 2 * Fraction(v.beta)
    dd = jackson_op(_CLASSICAL)
    kinetic = -(dd @ dd)
    h0 = kinetic + poly_multiplication_op([b1, 0, b1 * b1], "b1^2x^2+b1")
    h1 = kinetic + poly_multiplication_op([-b1, 0, b1 * b1], "b1^2x^2-b1")
    return h0, h1


def t_generalized(u: PowerSeries, d: Deformation, sign: int = 1) -> QOperator:
    """Intertwiner sign*D_q - (D_q u)/u, u(0) != 0; scale invariant in u, kills u at sign=+1."""
    return _intertwiner(d, sign, _log_derivative(u, d))


class FactorizationPair(_Frozen):
    """An intertwiner pair; ``epsilon`` is the exact eigenvalue of the
    transformation function under h0 (0 for the vacuum, negative otherwise)."""

    __slots__ = ("t_plus", "t_minus", "epsilon", "source")

    def __init__(
        self, t_plus: QOperator, t_minus: QOperator, epsilon: Rational, source: str
    ) -> None:
        eps = Fraction(epsilon)
        if eps > 0:
            raise ValueError(f"factorization energy must be <= 0, got {eps}")
        super().__init__(t_plus, t_minus, eps, source)


def vacuum_pair(v: VacuumSpec) -> FactorizationPair:
    """Zero-energy pair built on the deformed Gaussian vacuum."""
    source = f"deformed Gaussian vacuum, beta={v.beta}, {v.d}"
    return FactorizationPair(*_vacuum_intertwiners(v), Fraction(0), source)


def generalized_pair(
    u: PowerSeries, d: Deformation, epsilon: Rational, source: str = ""
) -> FactorizationPair:
    """Pair built on an arbitrary nodeless transformation function."""
    source = source or f"user transformation function, {d}"
    return FactorizationPair(t_generalized(u, d, 1), t_generalized(u, d, -1), epsilon, source)


class SweepRow(_Frozen):
    """One row of a limit sweep: deviation from the undeformed target at q."""

    __slots__ = ("q", "deviation")

    def __init__(self, q: Rational, deviation: Rational) -> None:
        super().__init__(q, deviation)


def limit_sweep(
    builder: Callable[[Deformation], QOperator], qs: Sequence[Rational], probe: PowerSeries
) -> list[SweepRow]:
    """Largest coefficient of builder(q)(probe) - builder(1)(probe) for each q, exactly."""
    target = builder(_CLASSICAL).apply(probe)
    return [
        SweepRow(q, builder(Deformation(q)).apply(probe)._combine(target, _sub).max_abs_coeff())
        for q in map(Fraction, qs)
    ]


def convergence_ratios(values: Sequence[Rational]) -> list[Rational]:
    """Successive ratios values[k+1]/values[k]; the sweep's own rate oracle."""
    out = []
    for prev, cur in zip(values, values[1:]):
        if prev == 0:
            raise ValueError("cannot form a ratio after an exactly-zero deviation")
        out.append(Fraction(cur) / Fraction(prev))
    return out
