"""Independent exact reference computations used to check the program's outputs.

Everything here works on plain lists of ``Fraction`` coefficients (index k is
the coefficient of x**k) and never imports ``qsusy``. Each function rests on
a closed form or on the defining property of the object, not on the
program's own construction:

* the deformed vacuum e_q(beta x^2) from its closed form beta**n / [n]_q!;
* the drift series beta_q from D_q g = x * beta_q * g, solved by division;
* the deformed Hermite functions from the Rodrigues product of closed forms;
* the named operators from their defining differential expressions.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def q_number(n: int, q: Fraction) -> Fraction:
    """Symmetric q-number [n]_q = (q**n - q**-n) / (q - 1/q); n at q = 1."""
    if q == 1:
        return Fraction(n)
    return (q**n - q**-n) / (q - 1 / q)


def gauss(beta: Fraction, q: Fraction, order: int) -> list[Fraction]:
    """e_q(beta x^2) through x**order: coefficient of x**(2n) is beta**n / [n]_q!."""
    out = [ZERO] * (order + 1)
    term = Fraction(1)
    for n in range(order // 2 + 1):
        if n:
            term = term * beta / q_number(n, q)
        out[2 * n] = term
    return out


def d_q(c: list[Fraction], q: Fraction) -> list[Fraction]:
    """Symmetric q-derivative: c_k x**k -> [k]_q c_k x**(k-1); one order shorter."""
    return [q_number(k, q) * c[k] for k in range(1, len(c))]


def mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Truncated product, kept through the shorter operand's order."""
    n = min(len(a), len(b))
    out = [ZERO] * n
    for i in range(n):
        ai = a[i]
        if not ai:
            continue
        for j in range(n - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def div(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The series c with b * c = a through the shorter order; b[0] must be nonzero."""
    n = min(len(a), len(b))
    out: list[Fraction] = []
    for k in range(n):
        acc = a[k]
        for j in range(1, k + 1):
            if b[j]:
                acc -= b[j] * out[k - j]
        out.append(acc / b[0])
    return out


def times_x(c: list[Fraction]) -> list[Fraction]:
    """x * c, which is exact one order higher."""
    return [ZERO] + list(c)


def drift(beta: Fraction, q: Fraction, order: int) -> list[Fraction]:
    """beta_q(x^2) through x**order, solved from D_q g = x * beta_q * g."""
    g = gauss(beta, q, order + 2)
    dg_over_x = d_q(g, q)[1:]  # D_q g is odd, so dividing by x is a shift
    return div(dg_over_x, g)


def add(*terms: list[Fraction]) -> list[Fraction]:
    """Coefficientwise sum, kept through the shortest operand's order."""
    n = min(len(t) for t in terms)
    return [sum((t[k] for t in terms), ZERO) for k in range(n)]


def scale(c: list[Fraction], s: Fraction) -> list[Fraction]:
    return [s * v for v in c]


def t_plus(f: list[Fraction], q: Fraction, b: list[Fraction]) -> list[Fraction]:
    """D_q f - x beta_q f."""
    return add(d_q(f, q), scale(times_x(mul(b, f)), Fraction(-1)))


def t_minus(f: list[Fraction], q: Fraction, b: list[Fraction]) -> list[Fraction]:
    """-D_q f - x beta_q f."""
    return add(scale(d_q(f, q), Fraction(-1)), scale(times_x(mul(b, f)), Fraction(-1)))


def poly_times(poly: list[Fraction], f: list[Fraction]) -> list[Fraction]:
    """An exactly known polynomial times f, kept through f's order."""
    out = [ZERO] * len(f)
    for i, p in enumerate(poly):
        for j in range(len(f) - i):
            out[i + j] += p * f[j]
    return out


def second_derivative(f: list[Fraction]) -> list[Fraction]:
    """Classical f'' (two orders shorter)."""
    return [k * (k - 1) * f[k] for k in range(2, len(f))]


def first_derivative(f: list[Fraction]) -> list[Fraction]:
    return [k * f[k] for k in range(1, len(f))]


def schrodinger(f: list[Fraction], potential: list[Fraction]) -> list[Fraction]:
    """-f'' + p(x) f for a polynomial potential p."""
    return add(scale(second_derivative(f), Fraction(-1)), poly_times(potential, f))


def apply_named(op: str, f: list[Fraction], q: Fraction, beta: Fraction, n: int) -> list[Fraction]:
    """The named CLI operators, each from its defining expression."""
    if op in ("Tplus", "Tminus", "Ob", "Of"):
        b = drift(beta, q, len(f) - 1)
        if op == "Tplus":
            return t_plus(f, q, b)
        if op == "Tminus":
            return t_minus(f, q, b)
        if op == "Ob":
            return t_minus(t_plus(f, q, b), q, b)
        return t_plus(t_minus(f, q, b), q, b)
    if op in ("h0", "h1"):
        b1 = 2 * beta
        shift = b1 if op == "h0" else -b1
        return schrodinger(f, [shift, ZERO, b1 * b1])
    if op == "OH":
        # f'' - 2x f' + 2n f
        return add(
            second_derivative(f),
            scale(times_x(first_derivative(f)), Fraction(-2)),
            scale(f, Fraction(2 * n)),
        )
    if op == "Ophi":
        return schrodinger(f, [Fraction(-(2 * n + 1)), ZERO, Fraction(1)])
    raise ValueError(f"unknown operator {op!r}")


def hermite(n: int, q: Fraction, order: int) -> list[Fraction]:
    """(-1)**n e_q(x^2) D_q**n e_q(-x^2) through x**(order - n)."""
    decay = gauss(Fraction(-1), q, order)
    for _ in range(n):
        decay = d_q(decay, q)
    out = mul(gauss(Fraction(1), q, order), decay)
    return scale(out, Fraction(-1)) if n % 2 else out


def ufunc(p: int, q: Fraction, order: int) -> list[Fraction]:
    """i**(-p) H_p(ix) e_q(x^2 / 2): H_p has parity p, so every term is real."""
    h = hermite(p, q, order)
    rotated = [(c if (k - p) % 4 == 0 else -c) if (k - p) % 2 == 0 else ZERO for k, c in enumerate(h)]
    return mul(rotated, gauss(Fraction(1, 2), q, order))


def evaluate(c: list[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for v in reversed(c):
        acc = acc * x + v
    return acc
