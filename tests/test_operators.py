import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsusy import operators, series
from qsusy.cli import _OPERATORS, RunConfig
from qsusy.qcore import Deformation, GaussRational, q_number
from qsusy.series import constant_series, make_series, monomial
from qsusy.qspecial import VacuumSpec, beta_q, classical_hermite, q_exp, q_gauss, u_transform
from qsusy.operators import (
    Compose,
    FactorizationPair,
    Jackson,
    Mult,
    MultPoly,
    QOperator,
    Scale,
    Shift,
    Sum,
    classical_darboux,
    classical_hermite_op,
    classical_schrodinger_op,
    convergence_ratios,
    darboux_potential_difference,
    generalized_pair,
    jackson_op,
    limit_sweep,
    multiplication_op,
    poly_multiplication_op,
    second_order_composed,
    second_order_direct,
    susy_pair_limit,
    t_generalized,
    t_minus_q,
    t_plus_q,
    vacuum_pair,
)

def mults(op):
    """The Mult leaves of an operator tree."""
    if type(op) is Mult:
        return [op]
    children = (getattr(op, name) for name in op.__slots__)
    return [m for child in children if isinstance(child, QOperator) for m in mults(child)]


D1 = Deformation(F(1))
D32 = Deformation(F(3, 2))


def vac(beta, q, order=16):
    return VacuumSpec(beta=F(beta), d=Deformation(F(q)), order=order)


def classical_gaussian(order, sign=-1):
    """Truncation of exp(sign * x^2 / 2), via the deformed exponential at q = 1."""
    return q_exp(make_series([0, 0, F(sign, 2)], order), D1)


class TestOperatorAlgebra:
    def test_linearity(self):
        f = make_series([1, F(2, 3), 0, -4, F(1, 7)], 14)
        g = make_series([0, 5, -1, F(3, 2)], 14)
        for op in (
            t_plus_q(vac(F(-1, 2), 2)),
            second_order_direct(vac(F(1, 2), F(3, 2)), "f"),
            classical_hermite_op(3),
        ):
            lhs = op.apply(f * 3 + g * F(-2, 5))
            rhs = op.apply(f) * 3 + op.apply(g) * F(-2, 5)
            assert lhs == rhs

    def test_composition_cost_adds(self):
        d = jackson_op(D32)
        assert (d @ d).order_cost == 2
        assert (d + d).order_cost == 1
        assert (d @ d @ d).order_cost == 3

    def test_application_order_drop(self):
        v = vac(F(-1, 2), 2, order=20)
        f = make_series([1, 1, 1], 20)
        assert t_plus_q(v).apply(f).order == 19
        assert second_order_composed(v, "b").apply(f).order == 18


class TestClassicalDarboux:
    def test_gaussian_gives_creation_form(self):
        # u = exp(-x^2/2): u'/u = -x, so T = D + x
        u = classical_gaussian(16)
        t = classical_darboux(u)
        explicit = jackson_op(D1) + poly_multiplication_op([0, 1], "x")
        probe = make_series([2, F(1, 3), 0, 5, -1], 16)
        assert t.apply(probe) == explicit.apply(probe)

    def test_annihilates_its_function(self):
        u = classical_gaussian(16)
        out = classical_darboux(u).apply(u)
        assert out.order == 15 and out.is_zero

    def test_constant_function_gives_bare_derivative(self):
        t = classical_darboux(constant_series(3, 10))
        probe = monomial(4, 10)
        assert t.apply(probe) == monomial(3, 9, 4)

    def test_conjugate_sign(self):
        u = classical_gaussian(16)
        tc = classical_darboux(u, sign=-1)
        explicit = -jackson_op(D1) + poly_multiplication_op([0, 1], "x")
        probe = make_series([1, 1, 1, 1], 16)
        assert tc.apply(probe) == explicit.apply(probe)

    def test_vanishing_origin_rejected(self):
        from qsusy.series import NonInvertibleSeriesError

        with pytest.raises(NonInvertibleSeriesError):
            classical_darboux(monomial(1, 8))


class TestPotentialDifference:
    def test_decaying_gaussian(self):
        out = darboux_potential_difference(classical_gaussian(16))
        assert out == constant_series(2, out.order)
        assert out.order == 14

    def test_constant(self):
        assert darboux_potential_difference(constant_series(5, 10)).is_zero

    def test_growing_gaussian(self):
        out = darboux_potential_difference(classical_gaussian(16, sign=+1))
        assert out == constant_series(-2, out.order)


class TestDeformedIntertwiners:
    @pytest.mark.parametrize("q", [F(2), F(3, 2), F(5, 4)])
    @pytest.mark.parametrize("beta", [F(-1, 2), F(1, 2)])
    def test_kernel_annihilation(self, q, beta):
        v = vac(beta, q, order=24)
        out = t_plus_q(v).apply(q_gauss(v))
        assert out.order == 23
        assert out.is_zero

    def test_classical_reduction_matches_darboux(self):
        # at q = 1, beta = -1/2 the forward intertwiner is D + x
        v = vac(F(-1, 2), 1)
        explicit = jackson_op(D1) + poly_multiplication_op([0, 1], "x")
        for j in range(8):
            probe = monomial(j, 16)
            assert t_plus_q(v).apply(probe) == explicit.apply(probe)

    def test_action_on_unit(self):
        # Tplus 1 = -x beta_q(x^2): odd series with leading term -beta [2]_q x
        v = vac(F(1, 2), 2)
        out = t_plus_q(v).apply(constant_series(1, 16))
        assert out.coeff(1) == -F(1, 2) * q_number(2, v.d)
        assert all(not out.coeff(n) for n in range(0, out.order + 1, 2))
        assert out == -beta_q(v).mul_poly([0, 1])

    def test_minus_is_conjugate(self):
        # Tplus - Tminus = 2 D_q, Tplus + Tminus = -2 beta_q x
        v = vac(F(-1, 2), F(3, 2))
        probe = make_series([1, -2, F(1, 5), 0, 3], 16)
        plus = t_plus_q(v).apply(probe)
        minus = t_minus_q(v).apply(probe)
        assert plus - minus == probe.jackson_derivative(v.d) * 2
        assert plus + minus == beta_q(v).mul_poly([0, 1]) * probe * -2


class TestSecondOrderPartners:
    def test_composed_annihilates_vacuum(self):
        v = vac(F(-1, 2), 2, order=20)
        out = second_order_composed(v, "b").apply(q_gauss(v))
        assert out.order == 18 and out.is_zero

    def test_classical_bosonic_form(self):
        # q=1, beta=-1/2: O_b f = -f'' + (x^2 - 1) f
        v = vac(F(-1, 2), 1)
        explicit = -(jackson_op(D1) @ jackson_op(D1)) + poly_multiplication_op(
            [-1, 0, 1], "x^2-1"
        )
        probe = make_series([1, F(1, 2), -3, 0, F(2, 7), 1], 16)
        assert second_order_composed(v, "b").apply(probe) == explicit.apply(probe)

    def test_classical_partner_gap(self):
        # (O_f - O_b) 1 = 2 at q=1, beta=-1/2
        v = vac(F(-1, 2), 1)
        one = constant_series(1, 12)
        diff = second_order_composed(v, "f").apply(one) - second_order_composed(
            v, "b"
        ).apply(one)
        assert diff == constant_series(2, 10)

    @pytest.mark.parametrize("q", [F(2), F(3, 2), F(5, 4)])
    @pytest.mark.parametrize("beta", [F(-1, 2), F(1, 2)])
    @pytest.mark.parametrize("which", ["b", "f"])
    def test_direct_equals_composed(self, q, beta, which):
        v = vac(beta, q, order=16)
        direct = second_order_direct(v, which)
        composed = second_order_composed(v, which)
        dense = make_series([F(1, k + 1) for k in range(17)], 16)
        assert direct.apply(dense) == composed.apply(dense)
        for j in range(17):
            probe = monomial(j, 16)
            assert direct.apply(probe) == composed.apply(probe)

    @pytest.mark.parametrize("which", ["b", "f"])
    def test_one_drift_series_for_both_factors(self, which):
        # w = beta_q(x^2) x is built once and shared; names are as before
        v = vac(F(-1, 2), F(3, 2))
        composed = second_order_composed(v, which)
        pair = vacuum_pair(v)
        for ops in ((composed,), (pair.t_plus, pair.t_minus)):
            [w] = {id(m.g): m.g for op in ops for m in mults(op)}.values()
            # canonical as built, with no gcd: the stored form is mul_poly's
            assert stored(w) == stored(beta_q(v).mul_poly([0, 1]))
        plus, minus = t_plus_q(v), t_minus_q(v)
        assert composed.name == (minus @ plus if which == "b" else plus @ minus).name

    def test_classical_drift_term_vanishes(self):
        from qsusy.qspecial import delta_beta_q

        assert delta_beta_q(vac(F(-1, 2), 1)).is_zero
        assert delta_beta_q(vac(F(1, 2), 1)).is_zero

    def test_direct_annihilates_vacuum(self):
        v = vac(F(-1, 2), F(3, 2), order=20)
        out = second_order_direct(v, "b").apply(q_gauss(v))
        assert out.order == 18 and out.is_zero


class TestClassicalOperators:
    @pytest.mark.parametrize("n", range(7))
    def test_hermite_annihilation(self, n):
        out = classical_hermite_op(n).apply(classical_hermite(n, 16))
        assert out.order == 14 and out.is_zero

    @pytest.mark.parametrize("n", range(7))
    def test_oscillator_annihilation(self, n):
        phi = classical_gaussian(20) * classical_hermite(n, 20)
        out = classical_schrodinger_op(n).apply(phi)
        assert out.order == 18 and out.is_zero

    def test_unit_for_ground_state(self):
        assert classical_hermite_op(0).apply(constant_series(1, 10)).is_zero

    def test_ladder_lowers_index(self):
        # (D + x) phi_n = 2n phi_{n-1}
        ladder = jackson_op(D1) + poly_multiplication_op([0, 1], "x")
        gauss = classical_gaussian(20)
        for n in range(1, 7):
            phi_n = gauss * classical_hermite(n, 20)
            phi_prev = gauss * classical_hermite(n - 1, 20)
            assert ladder.apply(phi_n) == phi_prev * (2 * n)


class TestSusyPairLimit:
    def test_explicit_forms(self):
        v = vac(F(-1, 2), 1)
        h0, h1 = susy_pair_limit(v)
        dd = jackson_op(D1) @ jackson_op(D1)
        want0 = -dd + poly_multiplication_op([-1, 0, 1], "x^2-1")
        want1 = -dd + poly_multiplication_op([1, 0, 1], "x^2+1")
        probe = make_series([3, 1, F(1, 4), -2, 0, 1], 16)
        assert h0.apply(probe) == want0.apply(probe)
        assert h1.apply(probe) == want1.apply(probe)

    def test_ground_state(self):
        h0, _ = susy_pair_limit(vac(F(-1, 2), 1))
        out = h0.apply(classical_gaussian(18))
        assert out.order == 16 and out.is_zero

    def test_pair_gap(self):
        v = vac(F(-1, 2), 1)
        h0, h1 = susy_pair_limit(v)
        probe = make_series([1, 2, 3, 4, 5], 12)
        assert h1.apply(probe) - h0.apply(probe) == probe * 2


class TestGeneralizedIntertwiners:
    def test_vacuum_case_reproduces_deformed_intertwiner(self):
        v = vac(F(1, 2), F(3, 2), order=18)
        u = q_gauss(v)
        gen = t_generalized(u, v.d)
        ref = t_plus_q(v)
        for j in range(10):
            probe = monomial(j, 18)
            assert gen.apply(probe) == ref.apply(probe)

    @pytest.mark.parametrize("q", [F(1), F(3, 2)])
    @pytest.mark.parametrize("p", [0, 2])
    def test_annihilates_own_function(self, q, p):
        d = Deformation(q)
        u = u_transform(p, d, 18)
        out = t_generalized(u, d).apply(u)
        assert out.order >= 14 and out.is_zero

    def test_negative_energy_eigenrelation(self):
        # h0 u_p = -2 (p + 1) u_p for the rotated classical functions
        h0, _ = susy_pair_limit(vac(F(-1, 2), 1, 20))
        for p in (0, 2, 4):
            u = u_transform(p, D1, 20)
            out = h0.apply(u) + u.truncated(u.order - 2) * (2 * (p + 1))
            assert out.is_zero

    def test_product_shifts_by_factorization_energy(self):
        # for u = u_2 at q=1: Tminus Tplus = h0 + 6 and the product kills u
        u = u_transform(2, D1, 20)
        plus = t_generalized(u, D1, 1)
        minus = t_generalized(u, D1, -1)
        product = minus @ plus
        assert product.apply(u).is_zero
        h0, _ = susy_pair_limit(vac(F(-1, 2), 1, 20))
        probe = make_series([1, -1, F(2, 3), 0, 1], 18)
        assert product.apply(probe) - h0.apply(probe) == probe * 6

    @pytest.mark.parametrize("c", [F(2), F(-3, 7)])
    def test_scale_invariance(self, c):
        u = u_transform(2, D32, 18)
        base = t_generalized(u, D32)
        scaled = t_generalized(u * c, D32)
        for j in range(12):
            probe = monomial(j, 18)
            assert scaled.apply(probe) == base.apply(probe)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            t_generalized(constant_series(1, 8), D32, 0)


class TestFactorizationPair:
    def test_vacuum_pair_is_zero_energy(self):
        pair = vacuum_pair(vac(F(-1, 2), 2))
        assert pair.epsilon == 0
        assert "beta" in pair.source

    def test_generalized_pair_records_energy(self):
        u = u_transform(2, D1, 16)
        pair = generalized_pair(u, D1, F(-6), source="rotated p=2 function")
        assert pair.epsilon == -6
        assert pair.t_plus.apply(u).is_zero

    def test_positive_energy_rejected(self):
        u = u_transform(0, D1, 16)
        with pytest.raises(ValueError):
            generalized_pair(u, D1, F(1, 2))


class TestLimitSweep:
    def build_bosonic(self, beta=F(-1, 2), order=24):
        return lambda d: second_order_composed(
            VacuumSpec(beta=beta, d=d, order=order), "b"
        )

    def test_classical_row_is_exactly_zero(self):
        probe = classical_gaussian(24)
        rows = limit_sweep(self.build_bosonic(), [F(3, 2), F(1)], probe)
        assert rows[1].deviation == 0
        assert rows[0].deviation > 0

    def test_monotone_second_order_shrink(self):
        probe = classical_gaussian(24)
        qs = [1 + F(1, 2**k) for k in range(1, 7)]
        rows = limit_sweep(self.build_bosonic(), qs, probe)
        devs = [r.deviation for r in rows]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        ratios = convergence_ratios(devs)
        # quadratic shrink: late ratios settle near 1/4
        assert abs(ratios[-1] - F(1, 4)) < F(1, 20)

    def test_ratio_oracle_rejects_zero(self):
        with pytest.raises(ValueError):
            convergence_ratios([F(1), F(0), F(1)])


class TestPointwiseConsistency:
    def test_deformed_operators_match_series(self):
        v = vac(F(-1, 2), F(3, 2), order=32)
        probe = q_gauss(VacuumSpec(beta=F(1, 2), d=v.d, order=32))
        for op in (t_plus_q(v), second_order_composed(v, "b"), second_order_direct(v, "b")):
            result = op.apply(probe)
            for x0 in (0.25, -0.25, 0.5, -0.5):
                pointwise = op.apply_at(probe.evaluate_float, x0)
                series_value = result.evaluate_float(x0)
                assert series_value != 0
                assert math.isclose(pointwise, series_value, rel_tol=1e-10)

    def test_origin_degenerates(self):
        v = vac(F(-1, 2), F(3, 2))
        probe = q_gauss(v)
        with pytest.raises(ZeroDivisionError):
            t_plus_q(v).apply_at(probe.evaluate_float, 0.0)

    def test_classical_operators_have_no_point_form(self):
        h0, _ = susy_pair_limit(vac(F(-1, 2), 1))
        assert not h0.has_point_form
        with pytest.raises(ValueError):
            h0.apply_at(lambda x: x, 0.5)


def node_by_node(op, f):
    """op f through the public series operations, each of which reduces its result."""
    kind = type(op)
    if kind is Sum:
        return node_by_node(op.left, f) + node_by_node(op.right, f)
    if kind is Scale:
        return node_by_node(op.op, f) * op.c
    if kind is Compose:
        return node_by_node(op.outer, node_by_node(op.inner, f))
    if kind is Mult:
        return op.g * f
    if kind is MultPoly:
        return f.mul_poly(op.coeffs)
    if kind is Jackson:
        return f.jackson_derivative(op.d)
    return f.scale_arg(op.d.q**op.k) if op.k else f


def stored(a):
    return a.order, a.num, a.den


small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
# a real GaussRational is accepted wherever a Fraction is
real_or_gauss = st.one_of(small.map(GaussRational), small)


@st.composite
def series_of(draw, max_order=10):
    order = draw(st.integers(0, max_order))
    return make_series(draw(st.lists(real_or_gauss, max_size=order + 1)), order)


deformations = st.sampled_from([D1, D32, Deformation(F(4, 5)), Deformation(F(5, 3))])
leaves = st.one_of(
    st.builds(multiplication_op, series_of()),
    st.builds(poly_multiplication_op, st.lists(real_or_gauss, max_size=4)),
    st.builds(jackson_op, deformations),
    st.builds(Shift, deformations, st.integers(-2, 2)),
)
trees = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(lambda a, b: a + b, inner, inner),
        st.builds(lambda a, c: a * c, inner, real_or_gauss),
        st.builds(lambda a, b: a @ b, inner, inner),
    ),
    max_leaves=6,
)


class TestOneReductionPerApplication:
    """apply walks on unreduced series; its result is the node-by-node one, stored form included."""

    @pytest.mark.parametrize("name", sorted(_OPERATORS))
    @pytest.mark.parametrize("q, beta", [(F(3, 2), F(-1, 2)), (F(4, 5), F(1, 2)), (F(1), F(-1, 2))])
    def test_every_op_operator(self, name, q, beta):
        config = RunConfig("apply", q=q, beta=beta, n_or_p=3)
        op = _OPERATORS[name](config, 14)
        for f in (q_gauss(vac(F(-1, 2), F(5, 4), 14)), make_series([1, F(1, 3), 0, F(-2, 7), 5], 12),
                  make_series([GaussRational(1), 0, F(-1, 3), 2], 9)):
            assert stored(op.apply(f)) == stored(node_by_node(op, f))

    @settings(max_examples=150, deadline=None)
    @given(trees, series_of(max_order=12))
    def test_random_trees(self, op, f):
        assert stored(op.apply(f)) == stored(node_by_node(op, f))

    def test_a_composed_partner_reduces_once(self, monkeypatch):
        op = second_order_composed(vac(F(-1, 2), F(3, 2), 24), "f")
        f = q_gauss(vac(F(1, 2), F(5, 4), 24))
        want = stored(node_by_node(op, f))
        calls = []
        real = series._reduced

        def counted(s):
            calls.append(s.order)
            return real(s)

        monkeypatch.setattr(series, "_reduced", counted)
        monkeypatch.setattr(operators, "_reduced", counted)
        assert stored(op.apply(f)) == want
        assert calls == [22]
