"""Diffusion operator tests.

The eigenvalue relation and the integration-by-parts property are the two
structural facts everything downstream depends on; both are checked on
the plain and the regularized operator.  Drift anchors are exact rational
evaluations of the coefficient formula; the drift's eps-deformation is
checked against 30-digit mpmath and, as the log-derivative of the weight,
against sympy.
"""
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import sympy as sp

from ultraflow import (
    UltraParams,
    apply_L,
    build_quadrature,
    drift,
    drift_prime,
    eigenvalue,
    get_basis,
    refined_quadrature,
    regularity_coeffs,
    spectral_derivative,
)
from ultraflow.operators import _deformation


class TestEigenRelation:
    @pytest.mark.parametrize("n", [0.5, 1.7, 3.0, 4.2])
    def test_basis_elements_are_eigenfunctions(self, n):
        N = 64
        basis = get_basis(n, N)
        q = basis.quad
        for k in range(21):
            Pk = basis.V[:, k]
            got = apply_L(Pk, UltraParams(n=n))
            want = -eigenvalue(n, k) * Pk
            scale = max(1.0, eigenvalue(n, k))
            assert np.max(np.abs(got - want)) < 1e-10 * scale

    def test_constants_are_annihilated(self):
        q = build_quadrature(UltraParams(n=3.0), 32)
        out = apply_L(np.full(32, 2.5), UltraParams(n=3.0))
        assert np.max(np.abs(out)) < 1e-10

    def test_linear_mode(self):
        # L z = -n z
        n = 2.5
        q = build_quadrature(UltraParams(n=n), 32)
        np.testing.assert_allclose(apply_L(q.nodes, UltraParams(n=n)), -n * q.nodes, atol=1e-12)


class TestFundamentalProperty:
    @pytest.mark.parametrize("n", [0.5, 1.7, 3.0, 4.2])
    def test_integration_by_parts(self, n):
        # <f, L g> = -int f' g' (1-z^2) dnu on random polynomials
        rng = np.random.default_rng(11)
        q = build_quadrature(UltraParams(n=n), 64)
        z = q.nodes
        for _ in range(5):
            cf = rng.uniform(-1.0, 1.0, size=9)
            cg = rng.uniform(-1.0, 1.0, size=9)
            f = np.polynomial.polynomial.polyval(z, cf)
            g = np.polynomial.polynomial.polyval(z, cg)
            fp = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(cf))
            gp = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(cg))
            lhs = q.integrate(f * apply_L(g, UltraParams(n=n)))
            rhs = -q.integrate(fp * gp * (1.0 - z**2))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_self_adjointness(self):
        q = build_quadrature(UltraParams(n=2.2), 48)
        z = q.nodes
        f = np.exp(0.4 * z)
        g = 1.0 + z**3
        assert q.integrate(f * apply_L(g, UltraParams(n=2.2))) == pytest.approx(
            q.integrate(g * apply_L(f, UltraParams(n=2.2))), abs=1e-10
        )


class TestRegularizedOperator:
    # (1 - z^2) g'' - ell g' on the refined rule, from exact derivatives of g
    @staticmethod
    def L_eps_on(fine, params, gp, gpp):
        return fine.rho2 * gpp - drift(fine, params) * gp

    def test_integration_by_parts_eps(self):
        # same property, eps-measure and eps-drift together, on the graded rule
        # that integrates the measure (measured: 3.3e-16)
        params = UltraParams(n=2.5, eps=0.05)
        fine = refined_quadrature(params, 64)
        z = fine.nodes
        P = np.polynomial.polynomial
        rng = np.random.default_rng(5)
        for _ in range(5):
            cf = rng.uniform(-1.0, 1.0, size=8)
            cg = rng.uniform(-1.0, 1.0, size=8)
            f, fp = P.polyval(z, cf), P.polyval(z, P.polyder(cf))
            gp, gpp = P.polyval(z, P.polyder(cg)), P.polyval(z, P.polyder(cg, 2))
            lhs = fine.integrate(f * self.L_eps_on(fine, params, gp, gpp))
            rhs = -fine.integrate(fp * gp * fine.rho2)
            assert lhs == pytest.approx(rhs, abs=2e-15)

    def test_self_adjointness_eps(self):
        # symmetry of L_eps in L^2 of the eps measure, on its graded rule
        # (measured: 2.6e-17)
        params = UltraParams(n=1.5, eps=0.02)
        fine = refined_quadrature(params, 64)
        z = fine.nodes
        f, g = np.exp(0.3 * z), np.cos(z)
        Lf = self.L_eps_on(fine, params, 0.3 * f, 0.09 * f)
        Lg = self.L_eps_on(fine, params, -np.sin(z), -g)
        assert fine.integrate(f * Lg) == pytest.approx(fine.integrate(g * Lf), abs=1e-15)

    @pytest.mark.parametrize("n, eps", [(2.5, 0.05), (1.5, 0.02), (0.3, 1e-6), (3.3, 1e-2)])
    def test_pointwise_at_the_sample_nodes(self, n, eps):
        # apply_L against (1 - z^2) g'' - ell(z) g' with exact polynomial
        # derivatives; measured up to 8.4e-12 of max |L_eps g| (the nodal
        # derivatives' rounding near +-1)
        params = UltraParams(n=n, eps=eps)
        q = build_quadrature(params, 64)
        z = q.nodes
        P = np.polynomial.polynomial
        rng = np.random.default_rng(7)
        for _ in range(5):
            cg = rng.uniform(-1.0, 1.0, size=8)
            gp, gpp = P.polyval(z, P.polyder(cg)), P.polyval(z, P.polyder(cg, 2))
            want = (1.0 - z**2) * gpp - drift(z, params) * gp
            got = apply_L(P.polyval(z, cg), params)
            assert np.max(np.abs(got - want)) < 5e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [64, 32])
    def test_rule_is_read_from_the_sample_count(self, N):
        # L_eps z = -ell(z): the drift on the nodes of the samples' rule, up to the
        # rounding that the nodal derivative of z picks up near z = +-1; 32
        # samples used to meet a 64-node default rule and raise ShapeError
        params = UltraParams(n=2.5, eps=0.05)
        q = build_quadrature(params, N)
        np.testing.assert_allclose(apply_L(q.nodes, params), -drift(q.nodes, params), rtol=1e-10, atol=0)

    def test_eps_zero_noninteger_is_the_plain_operator(self):
        # eps = 0 is the plain case at every n: (1 - z^2) f'' - n z f' from the
        # spectral derivatives on the plain rule, bit for bit
        params, q = UltraParams(n=2.5), build_quadrature(UltraParams(n=2.5), 64)
        f = np.exp(q.nodes)
        want = q.rho2 * spectral_derivative(f, q, 2) - 2.5 * q.nodes * spectral_derivative(f, q, 1)
        np.testing.assert_array_equal(apply_L(f, params), want)

    def test_integer_n_coincides_with_plain(self):
        # at n = d the drift reduces to n z and the samples live on the rule of
        # n: the eps key applies the plain operator, bit for bit
        f = np.exp(build_quadrature(UltraParams(n=3.0), 32).nodes)
        np.testing.assert_array_equal(apply_L(f, UltraParams(n=3.0, eps=0.05)), apply_L(f, UltraParams(n=3.0)))


class TestDrift:
    def test_plain_reduction(self):
        p = UltraParams(n=3.3)
        z = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(drift(z, p), 3.3 * z, atol=1e-15)
        np.testing.assert_allclose(drift_prime(z, p), 3.3, atol=1e-15)

    def test_integer_n_reduction(self):
        p = UltraParams(n=3.0, eps=0.1)
        z = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(drift(z, p), 3.0 * z, atol=1e-15)

    def test_anchor_value(self):
        # n = 2.5, d = 3, eps = 0.05, z = 1/2:
        # ell = z (n - eps (n-d)/(1+eps-z^2)) = 0.5 (2.5 + 0.025/0.8)
        p = UltraParams(n=2.5, eps=0.05)
        assert drift(np.array(0.5), p) == pytest.approx(1.265625, abs=1e-15)

    def test_anchor_slope(self):
        # ell' = n - eps (n-d)(1+eps+z^2)/(1+eps-z^2)^2
        #      = 2.5 + 0.05*0.5*1.3/0.64 at z = 1/2
        p = UltraParams(n=2.5, eps=0.05)
        assert drift_prime(np.array(0.5), p) == pytest.approx(2.55078125, abs=1e-14)

    def test_slope_exceeds_n_for_fractional_n(self):
        p = UltraParams(n=2.5, eps=0.05)
        z = np.linspace(-1.0, 1.0, 101)
        assert np.all(drift_prime(z, p) >= p.n)

    def test_slope_matches_derivative(self):
        p = UltraParams(n=1.5, eps=0.03)
        z = np.linspace(-0.99, 0.99, 41)
        h = 1e-6
        fd = (drift(z + h, p) - drift(z - h, p)) / (2 * h)
        np.testing.assert_allclose(drift_prime(z, p), fd, atol=1e-8)

    def test_eps_to_zero_is_first_order_in_the_interior(self):
        # at the endpoints the deviation is |n-d|/2 for every eps (boundary
        # layer of width sqrt(eps)); away from them it scales linearly
        n = 2.5
        z = np.linspace(-0.9, 0.9, 101)
        devs = []
        for eps in (1e-2, 1e-3, 1e-4):
            p = UltraParams(n=n, eps=eps)
            devs.append(np.max(np.abs(drift(z, p) - n * z)))
        assert devs[0] / devs[1] == pytest.approx(10.0, rel=0.2)
        assert devs[1] / devs[2] == pytest.approx(10.0, rel=0.2)

    def test_endpoint_deviation_is_eps_independent(self):
        n = 2.5
        z = np.array([1.0])
        for eps in (1e-2, 1e-4):
            p = UltraParams(n=n, eps=eps)
            dev = abs(float(drift(z, p)[0]) - n)
            assert dev == pytest.approx(0.5, rel=1e-10)


# 1 - |z| from 0.2 down to 1e-12 on both sides, where 1 + eps - z^2 cancels
_ORACLE_Z = np.array([s * (1.0 - 10.0**-k) for k in range(1, 13) for s in (-1.0, 1.0)] + [-0.3, 0.45])


def _mp_drift(n, eps, z):
    """(ell, ell', rho^2) at the float z, in mpmath from the written formulas."""
    n, eps, z, d = mpmath.mpf(n), mpmath.mpf(eps), mpmath.mpf(z), mpmath.ceil(n)
    zeta = 1 + eps - z**2
    return z * (n - eps * (n - d) / zeta), n - eps * (n - d) * (1 + eps + z**2) / zeta**2, 1 - z**2


def _assert_rel(got, ref, tol=1e-14):
    err = max(abs(mpmath.mpf(g) - r) / abs(r) for g, r in zip(got, ref))
    assert err <= tol, f"relative miss {mpmath.nstr(err, 3)}"


class TestPointwiseOracle:
    """Pointwise drift, slope and gradient-bound coefficients against 30-digit mpmath."""

    @pytest.fixture(autouse=True)
    def _digits(self):
        with mpmath.workdps(30):
            yield

    @pytest.mark.parametrize("n", [0.3, 1.7, 2.5])
    @pytest.mark.parametrize("eps", [1e-8, 1e-5, 1e-3, 1e-1])
    def test_drift_and_slope(self, n, eps):
        p = UltraParams(n=n, eps=eps)
        ref = [_mp_drift(n, eps, z) for z in _ORACLE_Z]
        _assert_rel(drift(_ORACLE_Z, p), [ell for ell, _, _ in ref])
        _assert_rel(drift_prime(_ORACLE_Z, p), [slope for _, slope, _ in ref])

    @pytest.mark.parametrize("n", [0.3, 1.7, 2.5])
    @pytest.mark.parametrize("eps", [1e-8, 1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize("p_, beta", [(5.0, 4.0), (4.0, 0.5)])
    def test_regularity_coeffs(self, n, eps, p_, beta):
        p = UltraParams(n=n, eps=eps, p=p_, beta=beta)
        one_m = 1 - mpmath.mpf(p.m)
        den = (n + 2) * mpmath.mpf(p.m) - n
        a_ref, b_ref, c_ref = [], [], []
        for z in _ORACLE_Z:
            ell, slope, rho2 = _mp_drift(n, eps, z)
            a_ref.append(-n * one_m * (2 - n * one_m) * rho2 / den**2)
            b_ref.append(2 * one_m * (ell - n * mpmath.mpf(z)) / den)
            c_ref.append(-slope)
        a, b_eps, c_eps, _ = regularity_coeffs(_ORACLE_Z, p)
        _assert_rel(a, a_ref)
        _assert_rel(b_eps, b_ref)
        _assert_rel(c_eps, c_ref)


    @pytest.mark.parametrize("n, eps", [(0.3, 1e-8), (1.7, 1e-5), (2.5, 1e-3)])
    def test_drift_on_a_rule_reads_its_rho2(self, n, eps):
        # zeta = rho^2 + eps from the rule; formed from its nodes it would
        # miss by up to 6e-9 relative within sqrt(eps) of +-1 at eps = 1e-8
        p = UltraParams(n=n, eps=eps)
        q = refined_quadrature(p, 32)
        d = mpmath.ceil(n)
        ref = [mpmath.mpf(z) * (n - eps * (n - d) / (mpmath.mpf(rho2) + eps)) for z, rho2 in zip(q.nodes, q.rho2)]
        _assert_rel(drift(q, p), ref)


class TestDeformationAlgebra:
    """The owner's (ell - n z, ell' - n) is the log-derivative of the measure's weight."""

    @pytest.mark.parametrize("n, eps", [("3/10", "1/100"), ("17/10", "1/1000"), ("5/2", "1/20"), ("3", "1/10")])
    def test_drift_is_minus_rho2_weight_derivative_over_weight(self, n, eps):
        z = sp.Symbol("z")
        n, eps = sp.Rational(n), sp.Rational(eps)
        d = sp.ceiling(n)
        rho2, zeta = 1 - z**2, 1 + eps - z**2
        w = zeta ** ((n - d) / 2) * rho2 ** ((d - 2) / 2)  # the weight the measure folds into its rules
        ell = sp.simplify(-sp.diff(rho2 * w, z) / w)
        params = SimpleNamespace(n=n, d=d, eps=eps)
        for z0 in (sp.Rational(-9, 10), sp.Rational(1, 3), sp.Rational(999, 1000)):
            dz = _deformation(z0, rho2.subs(z, z0), params)
            assert (dz is None) == (n == d)  # the plain signal; ell is then n z exactly
            ell_n, ell_n_prime = dz or (0, 0)
            assert sp.simplify(ell.subs(z, z0) - n * z0 - ell_n) == 0
            assert sp.simplify(sp.diff(ell, z).subs(z, z0) - n - ell_n_prime) == 0
