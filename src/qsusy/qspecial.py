"""Named series of the deformed oscillator construction.

The symmetric q-exponential e_q(u) = sum u**n / [n]_q!, the deformed Gaussian
vacua e_q(beta x^2), the drift coefficient series beta_q(x^2) and its
q-increment, deformed Hermite functions (the Rodrigues-style product), the
real transformation functions of the negative-energy sector, and the
classical (q = 1) Hermite oracles used to cross-check all of it.

e_q of a monomial, the Hermite functions and the transformation functions
are all written in the divided powers u**K / [K]_q! of a monomial u, where
each factor has small entries. There a product with e_q(r u) is a sum of
q-binomials (``_times_q_exp``), and one converter (``_from_divided_powers``)
turns the entries into the canonical series, so no named series multiplies
two series.

A note on terminology: for q != 1 the Rodrigues product does not terminate,
because e_q(x^2) * e_q(-x^2) != 1 in the symmetric convention. ``q_hermite``
therefore returns a truncated series, not a polynomial; only the q = 1 limit
collapses to the classical Hermite polynomial of degree n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import prod
from operator import add as _add, mul as _mul, sub as _sub

from .qcore import Deformation, Rational, _Frozen, q_factorial, q_number_numerators
from .series import (IntVector, PowerSeries, _make, _reduced, constant_series, div, make_series, monomial,
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
    if not support:
        return constant_series(1, max(u.order, 0))
    return _q_exp_monomial(u, support[0], d) if len(support) == 1 else _q_exp_by_powers(u, d)


def _q_exp_monomial(u: PowerSeries, m: int, d: Deformation) -> PowerSeries:
    """e_q(c x**m), m >= 1: its entries in the divided powers of x**m are c**K."""
    powers = list(accumulate(repeat(u.num[m], u.order // m), _mul, initial=1))  # r**K, for c = r/t
    return _from_divided_powers(u.order, m, 0, powers, [0] * len(powers), u.den, d)


def _q_exp_by_powers(u: PowerSeries, d: Deformation) -> PowerSeries:
    """sum u**n / [n]_q! by repeated products, for any u with u(0) = 0."""
    power = total = constant_series(1, max(u.order, 0))
    for n in range(1, u.order + 1):
        power = power * u
        total = total + power * (1 / q_factorial(n, d))
    return total


def _from_divided_powers(order: int, m: int, p: int, nums: IntVector, exps: IntVector, t: int,
                         d: Deformation) -> PowerSeries:
    """x**p sum_K f_K u**K / [K]_q! with u = x**m and f_K = nums[K] / ((ab)**exps[K] t**K), canonical.

    With q = a/b, [K]_q! = S_K / (ab)**(K(K-1)/2) and S_K = s_1 ... s_K (see
    ``q_number_numerators``), the coefficient of x**(p + mK) is
    nums[K] (ab)**h_K / (t**K S_K) with h_K = K(K-1)/2 - exps[K]. Over the
    common denominator t**M S_M (ab)**-low, M the last K and low = min(0, h),
    its numerator is nums[K] t**(M-K) (S_M / S_K) (ab)**(h_K - low): suffix
    products and one running power of ab, taken in the order of h, so no lcm
    and no division; one gcd then brings the series to its canonical form.
    """
    s = q_number_numerators(len(nums) - 1, d)
    ab = d.q.numerator * d.q.denominator
    # tail[K] = S_M / S_K times t**(M-K), as products from K = M down to 0
    tail = list(accumulate((x * t for x in reversed(s)), _mul, initial=1))[::-1]
    h = [K * (K - 1) // 2 - e for K, e in enumerate(exps)]
    low = prev = min(0, *h)
    num, power = [0] * (order + 1), 1  # power = (ab)**(prev - low)
    for K in sorted(range(len(nums)), key=h.__getitem__):
        power *= ab ** (h[K] - prev)
        prev = h[K]
        num[p + m * K] = nums[K] * tail[K] * power
    return _reduced(_make(order, num, tail[0] * ab**-low))


def _times_q_exp(nums: IntVector, exps: IntVector, r: Fraction, d: Deformation) -> tuple[list, list]:
    """The divided-power entries of e_q(r u) F(u), for F's entries nums[j] / (ab)**exps[j].

    As (u**i/[i]!)(u**j/[j]!) = [i+j choose j]_q u**(i+j)/[i+j]!, entry K is
    sum_j [K choose j]_q r**(K-j) F_j, for K up to F's last index. Over
    (ab)**(j(K-j)), q = a/b, the q-Pascal rule [K,j] = q**-j [K-1,j] +
    q**(K-j) [K-1,j-1] is N_Kj = b**2j N_(K-1)j + a**2(K-j) N_(K-1)(j-1).
    With r = r1/t, entry K is one integer over (ab)**peak_K t**K; the
    integers and the peaks are returned, and t**K is left to the reader, so
    F's own entries must carry no power of t.

    Term j of entry K sits over (ab)**(j(K-j) + exps[j]). These exponents
    are concave in j, as j(K-j) has second difference -2 and exps at most 1
    for both callers: exps is linear for D_q**n e_q(u) (``_jackson_entries``),
    and with exps_j = c + l j a pass's peaks are c + max_j j(K + l - j), whose
    second difference in K is 0 or 1. So the exponents rise to one peak and
    then fall, and Horner from each end toward the peak multiplies only by
    nonnegative powers of ab, each one step of the exponents: it is exact.
    """
    a, b = d.q.numerator, d.q.denominator
    ab, a2, b2 = a * b, a * a, b * b
    top = len(nums) - 1
    pa, pb = [a2**k for k in range(top + 1)], [b2**k for k in range(top + 1)]
    # each Horner exponent is one step of ex, under top plus the largest step of exps
    steps = [ab**k for k in range(top + 1 + max(map(abs, map(_sub, exps[1:], exps)), default=0))]
    rs = list(accumulate(repeat(r.numerator, top), _mul, initial=1))  # r1**k
    scaled = list(map(_mul, nums, accumulate(repeat(r.denominator, top), _mul, initial=1)))  # F_j t**j
    out, peaks = [], []
    row = [1]  # row[j] = N_Kj
    for K in range(top + 1):
        if K:
            row = list(map(_add, map(_mul, pb, row + [0]), map(_mul, pa[K::-1], [0] + row)))
        # entry K = sum_j terms[j] / (ab)**ex[j], by Horner from each end to the peak
        terms = list(map(_mul, map(_mul, row, scaled), rs[K::-1]))
        ex = [j * (K - j) + e for j, e in enumerate(exps[: K + 1])]
        peak = max(ex)
        k = ex.index(peak)
        c = 0
        for run in (range(k + 1), range(K, k, -1)):
            acc, prev = 0, ex[run[0]] if run else peak
            for j in run:
                acc = acc * steps[ex[j] - prev] + terms[j]
                prev = ex[j]
            c += acc * steps[peak - prev]
        out.append(c)
        peaks.append(peak)
    return out, peaks


def _jackson_entries(n: int, order: int, d: Deformation) -> tuple[list, list]:
    """D_q**n e_q(u) over x**(n mod 2), u = x^2, to order ``order``: its divided-power entries.

    With p = n mod 2 and s = (n + p) / 2, [2k]/[k] = q**k + q**-k gives the
    entry d_j = prod_(k=j+1..j+s) (q**k + q**-k) prod [o]_q over odd o in
    (2j+p, 2j+2s], returned as an integer over (ab)**e_j; e_j is linear in j.
    Needs order >= n + 2 so the n q-derivatives leave usable coefficients.
    """
    if order < n + 2:
        raise ValueError(f"{n} q-derivatives need order >= {n + 2} to keep exact coefficients, got {order}")
    a2, b2 = d.q.numerator ** 2, d.q.denominator ** 2
    p, s = n % 2, (n + 1) // 2
    top = (order - n - p) // 2
    qn = q_number_numerators(2 * (top + s), d)  # [k]_q = qn[k - 1] / (ab)**(k - 1)
    nums, exps = [], []
    for j in range(top + 1):
        even, odd = range(j + 1, j + s + 1), range(2 * j + 1 + 2 * p, 2 * j + 2 * s, 2)
        nums.append(prod(a2**k + b2**k for k in even) * prod(qn[o - 1] for o in odd))
        exps.append(sum(even) + sum(odd) - len(odd))
    return nums, exps


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
    """(D_q u) / u, for u(0) != 0; one order shorter than u.

    D_q u is divided unreduced: the quotient's loop clears each coefficient
    by the least factor whatever the dividend's denominator, and division by
    halves reduces its own truncations.
    """
    return div(u._jackson(d), u)


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
    b = beta_q(v)
    return abs(Fraction(b.num[0], b.den) - 2 * v.beta), delta_beta_q(v).max_abs_coeff()


def q_hermite(n: int, d: Deformation, order: int) -> PowerSeries:
    """Deformed Hermite function (-1)**n e_q(x^2) D_q**n e_q(-x^2), truncated.

    Needs order >= n + 2 so the n q-derivatives leave usable coefficients.
    The result has order order - n, parity (-1)**n and, for q != 1, nonzero
    coefficients above degree n (the product does not terminate); at q = 1
    its coefficients through degree n are exactly the classical Hermite
    polynomial's and the next retained coefficients vanish.

    Built in the divided powers u**K / [K]_q! of u = x^2. With p = n mod 2
    and s = (n + p) / 2, D_q**n e_q(-u) has the entries (-1)**(j+s) d_j of
    x**-p D_q**n e_q(u) (``_jackson_entries``), so entry K of the product is
    (-1)**n sum_j [K choose j]_q (-1)**(j+s) d_j: the entry of
    e_q(-u) D_q**n e_q(u) (one ``_times_q_exp`` pass), signed
    (-1)**(n + s + K). ``_from_divided_powers`` ends it. Measured with
    CPython 3.11 on a 2-CPU x86-64 host (best of 3-20 runs), n = 3 at q = 4/5
    and order 128 takes 7 ms, and at q = 5/4 and order 256, 0.16 s.
    """
    if n < 0:
        raise ValueError(f"q_hermite needs n >= 0, got {n}")
    nums, exps = _times_q_exp(*_jackson_entries(n, order, d), Fraction(-1), d)
    # entry K of (-1)**n e_q(u) D_q**n e_q(-u) is this one times (-1)**(n + s + K)
    signed = [-x if (n + (n + 1) // 2 + K) % 2 else x for K, x in enumerate(nums)]
    return _from_divided_powers(order - n, 2, n % 2, signed, exps, 1, d)


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
            = e_q(x^2 / 2) * e_q(-x^2) * D_q**p e_q(x^2)

    Only even p is accepted: for odd p the function vanishes at the origin
    and cannot serve as a division-safe transformation function. For even p
    it is real, and is built from the second form in the divided powers of
    u = x^2: the entries of D_q**p e_q(u) (``_jackson_entries``), one
    ``_times_q_exp`` pass for e_q(-u) and one for e_q(u/2), then
    ``_from_divided_powers``; no series is multiplied. Measured as for
    ``q_hermite``, p = 4 at q = 2 and order 128 takes 5 ms, and p = 6 at
    q = 5/4 and order 256, 0.35 s.
    """
    if p < 0 or p % 2:
        raise ValueError(f"u_transform needs even p >= 0, got {p}")
    nums, exps = _times_q_exp(*_jackson_entries(p, order, d), Fraction(-1), d)
    return _from_divided_powers(order - p, 2, 0, *_times_q_exp(nums, exps, Fraction(1, 2), d), 2, d)
