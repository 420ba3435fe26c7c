"""An independent oracle: sympy's own rationals and series division.

The q-exponential and the drift series are written out here from their
definitions, over sympy's ``QQ`` and its ring series (``rs_mul``,
``rs_series_inversion``), and compared coefficient by coefficient with the
package's results. Nothing of the package is used to build the oracle: not
its q-number table, its kernels or its closed form of ``q_exp``. The module
is skipped where sympy is not installed.
"""

from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.ring_series import rs_mul, rs_series_inversion  # noqa: E402

from qsusy.qcore import Deformation  # noqa: E402
from qsusy.qspecial import VacuumSpec, beta_q, q_exp  # noqa: E402
from qsusy.series import monomial  # noqa: E402

ORDER = 24
RING, X = sympy.ring("x", QQ)


def sym_q_number(n, q):
    """(q^n - q^-n) / (q - q^-1), or n at q = 1."""
    return QQ(n) if q == 1 else (q**n - q**-n) / (q - 1 / q)


def sym_q_exp(c, m, q, order):
    """e_q(c x^m) = sum of (c x^m)^n / [n]_q!, through degree order."""
    total, term = RING(0), QQ(1)
    for n in range(order // m + 1):
        if n:
            term = term * c / sym_q_number(n, q)
        total += term * X ** (m * n)
    return total


def sym_beta_q(beta, q, order):
    """beta (q e_q(q beta x^2) + e_q(beta x^2 / q) / q) / e_q(beta x^2), as a series in x."""
    top = beta * (q * sym_q_exp(q * beta, 2, q, order) + sym_q_exp(beta / q, 2, q, order) / q)
    return rs_mul(top, rs_series_inversion(sym_q_exp(beta, 2, q, order), X, order + 1), X, order + 1)


def mismatches(series, oracle):
    """The indexes 0..order at which the series and the sympy polynomial differ."""
    out = []
    for n in range(series.order + 1):
        c = series.coeff(n)
        want = oracle.coeff(X**n) if n else oracle.coeff(1)
        if (QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator)) != (want, 0):
            out.append(n)
    return out


def to_qq(value):
    value = F(value)
    return QQ(value.numerator, value.denominator)


@pytest.mark.parametrize("q", [F(1), F(3, 2), F(2, 3)])
@pytest.mark.parametrize("c", [F(-1, 2), F(1, 2), F(3)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_q_exp_of_a_monomial(m, c, q):
    got = q_exp(monomial(m, ORDER, c), Deformation(q))
    assert got.order == ORDER
    assert mismatches(got, sym_q_exp(to_qq(c), m, to_qq(q), ORDER)) == []


@pytest.mark.parametrize("q", [F(3, 2), F(2)])
@pytest.mark.parametrize("beta", [F(-1, 2), F(1, 2), F(3)])
def test_beta_q_against_its_closed_form(beta, q):
    # beta_q(x^2) is a series in x: its order counts powers of x
    got = beta_q(VacuumSpec(beta, Deformation(q), ORDER))
    assert got.order == ORDER
    assert mismatches(got, sym_beta_q(to_qq(beta), to_qq(q), ORDER)) == []


@pytest.mark.parametrize("k", [0, 7, ORDER])
def test_a_perturbed_coefficient_fails(k):
    d = Deformation(F(3, 2))
    exact = q_exp(monomial(1, ORDER, F(1, 2)), d)
    oracle = sym_q_exp(QQ(1, 2), 1, QQ(3, 2), ORDER)
    assert mismatches(exact, oracle) == []
    assert mismatches(exact + monomial(k, ORDER, F(1, 10**12)), oracle) == [k]
    drift = beta_q(VacuumSpec(F(-1, 2), d, ORDER))
    assert mismatches(drift + monomial(k, ORDER, F(-1, 10**12)), sym_beta_q(QQ(-1, 2), QQ(3, 2), ORDER)) == [k]
