"""Named series of the deformed oscillator construction.

The symmetric q-exponential e_q(u) = sum u**n / [n]_q!, the deformed Gaussian
vacua e_q(beta x^2), the drift coefficient series beta_q(x^2) and its
q-increment, deformed Hermite functions (the Rodrigues-style product, summed
as q-binomials in the divided powers of x^2), the real transformation
functions of the negative-energy sector, and the classical (q = 1) Hermite
oracles used to cross-check all of it.

A note on terminology: for q != 1 the Rodrigues product does not terminate,
because e_q(x^2) * e_q(-x^2) != 1 in the symmetric convention. ``q_hermite``
therefore returns a truncated series, not a polynomial; only the q = 1 limit
collapses to the classical Hermite polynomial of degree n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import sub as _sub

from .qcore import Deformation, Rational, _Frozen, q_factorial, q_number_numerators
from .series import (PowerSeries, _from_ratios, _make, _reduced, constant_series, div, make_series, monomial,
                     zero_series)

__all__ = [
    "VacuumSpec",
    "q_exp",
    "q_gauss",
    "beta_q",
    "delta_beta_q",
    "drift_deviations",
    "q_hermite",
    "classical_hermite",
    "u_transform",
]


class VacuumSpec(_Frozen):
    """Parameters of a deformed Gaussian vacuum e_q(beta x^2).

    beta = -1/2 is the regular (normalizable) vacuum, beta = +1/2 the
    irregular one; any nonzero rational is accepted. ``order`` is the
    truncation order used for every series derived from this vacuum.
    """

    __slots__ = ("beta", "d", "order")

    def __init__(self, beta: Rational, d: Deformation, order: int) -> None:
        beta = Fraction(beta)
        if beta == 0:
            raise ValueError("vacuum coefficient beta must be nonzero")
        if order < 0:
            raise ValueError(f"vacuum order must be >= 0, got {order}")
        super().__init__(beta, d, order)


def q_exp(u: PowerSeries, d: Deformation) -> PowerSeries:
    """Deformed exponential sum u**n / [n]_q! of a series with u(0) = 0.

    The zero constant term makes the composition well defined on truncations:
    u**n only feeds degrees >= n, so the sum terminates at n = order. At q = 1
    the result is the truncated classical exponential, and the output is
    invariant under q -> 1/q because every [n]_q! is.

    A monomial u = c x**m, the only form the package itself passes, has
    the closed form of ``_q_exp_monomial``; any other u takes the power sum.
    """
    if u.order >= 0 and u.num[0]:
        raise ValueError("q_exp needs a series with zero constant term")
    support = [k for k, x in enumerate(u.num) if x]
    if len(support) <= 1:
        return _q_exp_monomial(u, support[0] if support else 0, d)
    return _q_exp_by_powers(u, d)


def _q_exp_monomial(u: PowerSeries, m: int, d: Deformation) -> PowerSeries:
    """e_q(c x**m), written out term by term; m = 0 stands for u = 0.

    With c = r/t, q = a/b, [n]_q! = S_n / (ab)**(n(n-1)/2) and
    S_n = s_1 ... s_n (see ``q_number_numerators``), the coefficient
    c**n / [n]_q! of x**(mn) is r**n t**(M-n) (ab)**(n(n-1)/2) S_M / S_n over
    the common denominator t**M S_M, for n = 0..M with M = N // m. One gcd
    then brings the series to its canonical form.
    """
    order = max(u.order, 0)
    if m == 0:
        return constant_series(1, order)
    r, t = u.num[m], u.den
    top = order // m
    s = q_number_numerators(top, d)
    ab = d.q.numerator * d.q.denominator
    # S_M / S_n times t**(M-n), from n = M down to 0
    tail = [1] * (top + 1)
    for n in range(top - 1, -1, -1):
        tail[n] = tail[n + 1] * s[n] * t
    num = [0] * (order + 1)
    r_pow, ab_pow = 1, 1  # r**n and (ab)**(n(n-1)/2)
    for n in range(top + 1):
        num[m * n] = r_pow * ab_pow * tail[n]
        r_pow *= r
        ab_pow *= ab**n
    return _reduced(_make(order, num, tail[0]))


def _q_exp_by_powers(u: PowerSeries, d: Deformation) -> PowerSeries:
    """sum u**n / [n]_q! by repeated products, for any u with u(0) = 0."""
    power = total = constant_series(1, max(u.order, 0))
    for n in range(1, u.order + 1):
        power = power * u
        total = total + power * (1 / q_factorial(n, d))
    return total


def q_gauss(v: VacuumSpec) -> PowerSeries:
    """Deformed Gaussian vacuum e_q(beta x^2): an even series with constant 1."""
    return q_exp(monomial(2, v.order, v.beta) if v.order >= 2 else zero_series(v.order), v.d)


# bounded, so a sweep over many q, beta or orders keeps at most 64 series alive
@lru_cache(maxsize=64)
def beta_q(v: VacuumSpec) -> PowerSeries:
    """Drift coefficient series of the vacuum's logarithmic q-derivative.

    beta_q(x^2) is the even series with D_q e_q(beta x^2) = x * beta_q(x^2) * e_q(beta x^2),
    computed as that quotient (D_q e) / (x e) with the vacuum e built at
    order N + 2: D_q e and the quotient keep order N + 1, and beta_q order N.
    In closed form,
    beta_q(x^2) = beta * (q e_q(q beta x^2) + (1/q) e_q(beta x^2 / q)) / e_q(beta x^2),
    so its constant term is beta * [2]_q, and at q = 1 it collapses to the
    constant 2 beta.
    """
    w = _log_derivative(q_gauss(VacuumSpec(v.beta, v.d, v.order + 2)), v.d)
    # w = x * beta_q(x^2) is odd and canonical: dividing by x drops its zero
    # constant term, and leaves it canonical
    return _make(v.order, w.num[1:], w.den)


def _log_derivative(u: PowerSeries, d: Deformation) -> PowerSeries:
    """(D_q u) / u, for u(0) != 0; one order shorter than u."""
    return div(u.jackson_derivative(d), u)


def delta_beta_q(v: VacuumSpec) -> PowerSeries:
    """q-increment of the drift series: beta_q(x^2) - (1/q) beta_q(x^2/q^2).

    This is the coefficient of the first-derivative term in the second-order
    partner operators. It vanishes identically at q = 1; its constant term
    beta [2]_q (1 - 1/q) is first order in (q - 1), so it is not invariant
    under q -> 1/q even though beta_q itself is.
    """
    # one gcd, on the difference: the unreduced steps before it leave a
    # denominator at most 3 bits longer (orders 64-256, q = 2, 3/2, 5/4)
    return _reduced(_increment(beta_q(v), v.d))


def _increment(b: PowerSeries, d: Deformation) -> PowerSeries:
    """B(x) - (1/q) B(x/q), unreduced: with w = x B, x times it is w(x) - w(x/q)."""
    inv = 1 / d.q
    return b._combine(b._scale_arg(inv)._scaled(inv), _sub)


def drift_deviations(v: VacuumSpec) -> tuple[Rational, Rational]:
    """How far the drift data sit from their q = 1 values, exactly.

    The pair is |beta_q(0) - 2 beta| and the largest coefficient magnitude of
    ``delta_beta_q``; both vanish at q = 1.
    """
    beta0 = abs(beta_q(v).coeff(0).as_rational() - 2 * v.beta)
    return beta0, delta_beta_q(v).max_abs_coeff()


def q_hermite(n: int, d: Deformation, order: int) -> PowerSeries:
    """Deformed Hermite function (-1)**n e_q(x^2) D_q**n e_q(-x^2), truncated.

    Needs order >= n + 2 so the n q-derivatives leave usable coefficients.
    The result has order order - n, parity (-1)**n and, for q != 1, nonzero
    coefficients above degree n (the product does not terminate); at q = 1
    its coefficients through degree n are exactly the classical Hermite
    polynomial's and the next retained coefficients vanish.

    Built in the divided powers u**j / [j]_q! of u = x^2, where both factors
    have small entries. With p = n mod 2 and s = (n + p) / 2, [2k]/[k] =
    q**k + q**-k turns D_q**n e_q(-u) into x**p sum_j d_j u**j / [j]!, with
    d_j = (-1)**(j+s) prod_(k=j+1..j+s) (q**k + q**-k) prod [o]_q over odd o
    in (2j+p, 2j+2s]; e_q(u) has every entry 1. As (u**i/[i]!)(u**j/[j]!) =
    [i+j choose j]_q u**(i+j)/[i+j]!, the coefficient of x**(2K+p) is
    (-1)**n c_K / [K]! with c_K = sum_j [K choose j]_q d_j. Over
    (ab)**(j(K-j)), q = a/b, the q-Pascal rule [K,j] = q**-j [K-1,j] +
    q**(K-j) [K-1,j-1] is N_Kj = b**2j N_(K-1)j + a**2(K-j) N_(K-1)(j-1);
    each c_K is one integer over one power of ab, and one gcd ends it.
    Measured with CPython 3.11 on a 2-CPU x86-64 host (best of 3-7 runs),
    n = 3 at q = 4/5 and order 128 takes 12 ms, where the product of the two
    series took 46 ms; n = 3 at q = 5/4 and order 256, 0.25 s, not 1.3 s.
    """
    if n < 0:
        raise ValueError(f"q_hermite needs n >= 0, got {n}")
    if order < n + 2:
        raise ValueError(
            f"q_hermite(n={n}) needs order >= {n + 2} to keep exact coefficients, got {order}"
        )
    a, b = d.q.numerator, d.q.denominator
    ab, a2, b2 = a * b, a * a, b * b
    p = n % 2
    s = (n + p) // 2
    top = (order - n - p) // 2
    qn = q_number_numerators(2 * (top + s), d)  # [k]_q = qn[k - 1] / (ab)**(k - 1)
    # d_j = dn[j] / (ab)**de[j], signed (-1)**(n + j + s) for the whole product
    dn, de = [], []
    for j in range(top + 1):
        c, e = (-1) ** (n + j + s), 0
        for k in range(j + 1, j + s + 1):
            c *= a2**k + b2**k
            e += k
        for o in range(2 * j + 1 + 2 * p, 2 * j + 2 * s, 2):
            c *= qn[o - 1]
            e += o - 1
        dn.append(c)
        de.append(e)
    pa, pb = [a2**k for k in range(top + 1)], [b2**k for k in range(top + 1)]
    nums, dens = [0] * (order - n + 1), [1] * (order - n + 1)
    row, fact = [1], 1  # row[j] = N_Kj, fact = (ab)**(K(K-1)/2) [K]_q!
    for K in range(top + 1):
        if K:
            fact *= qn[K - 1]
            row = [pb[j] * x + pa[K - j] * y for j, (x, y) in enumerate(zip(row + [0], [0] + row))]
        # c_K = sum_j t[j] / (ab)**ex[j]; ex rises, then falls, so Horner
        # from each end to the peak multiplies only by small powers of ab
        t = [x * y for x, y in zip(row, dn)]
        ex = [j * (K - j) + e for j, e in enumerate(de[: K + 1])]
        peak = max(ex)
        k = ex.index(peak)
        c = 0
        for run in (range(k + 1), range(K, k, -1)):
            acc, prev = 0, ex[run[0]] if run else peak
            for j in run:
                acc = acc * ab ** (ex[j] - prev) + t[j]
                prev = ex[j]
            c += acc * ab ** (peak - prev)
        h = K * (K - 1) // 2 - peak
        nums[2 * K + p] = c * ab ** max(h, 0)
        dens[2 * K + p] = fact * ab ** max(-h, 0)
    return _from_ratios(order - n, nums, dens)


def classical_hermite(n: int, order: int | None = None) -> PowerSeries:
    """Classical Hermite polynomial H_n by the three-term recurrence.

    H_0 = 1, H_1 = 2x, H_{n+1} = 2x H_n - 2n H_{n-1}. This is an independent
    oracle: it never touches the Rodrigues product. Because a polynomial's
    tail is exactly zero, the result may be retained to any requested order.
    """
    if n < 0:
        raise ValueError(f"classical_hermite needs n >= 0, got {n}")
    prev = [Fraction(1)]
    if n == 0:
        coeffs = prev
    else:
        cur = [Fraction(0), Fraction(2)]
        for k in range(1, n):
            nxt = [Fraction(0)] + [2 * c for c in cur]
            for i, c in enumerate(prev):
                nxt[i] -= 2 * k * c
            prev, cur = cur, nxt
        coeffs = cur
    if order is None:
        order = n
    if order < n:
        raise ValueError(f"order {order} cannot hold H_{n}")
    return make_series(coeffs, order)


def u_transform(p: int, d: Deformation, order: int) -> PowerSeries:
    """Nodeless transformation function for the negative-energy sector.

    The p-th deformed Hermite function at imaginary argument, times the
    growing Gaussian factor:

        u_p = i**(-p) * q_hermite(p)(ix) * e_q(x^2 / 2)

    Only even p is accepted: for odd p the function vanishes at the origin
    and cannot serve as a division-safe transformation function. For even p,
    q_hermite(p) is even, and x -> ix with the i**(-p) prefactor sends its
    coefficient h_n x**n to (-1)**((n - p) / 2) h_n x**n, so u_p is real and
    is built as that parity sign on h_n. Equivalently,
    u_p = e_q(-x^2) * D_q**p e_q(x^2) * e_q(x^2 / 2).
    """
    if p < 0 or p % 2:
        raise ValueError(f"u_transform needs even p >= 0, got {p}")
    h = q_hermite(p, d, order)
    # a negated canonical numerator leaves the series canonical; odd n holds 0
    signed = _make(h.order, [-x if (n - p) % 4 else x for n, x in enumerate(h.num)], h.den)
    grow = q_gauss(VacuumSpec(Fraction(1, 2), d, signed.order))
    return signed * grow
