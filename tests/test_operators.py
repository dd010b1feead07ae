"""Diffusion operator tests.

The eigenvalue relation and the integration-by-parts property are the two
structural facts everything downstream depends on; both are checked on
the plain and the regularized operator.  Drift anchors are exact rational
evaluations of the coefficient formula.
"""
import numpy as np
import pytest

from ultraflow import (
    DomainError,
    UltraParams,
    apply_L,
    apply_L_eps,
    build_quadrature,
    drift,
    drift_prime,
    eigenvalue,
    get_basis,
)


class TestEigenRelation:
    @pytest.mark.parametrize("n", [0.5, 1.7, 3.0, 4.2])
    def test_basis_elements_are_eigenfunctions(self, n):
        N = 64
        basis = get_basis(n, N)
        q = basis.quad
        for k in range(21):
            Pk = basis.V[:, k]
            got = apply_L(Pk, q)
            want = -eigenvalue(n, k) * Pk
            scale = max(1.0, eigenvalue(n, k))
            assert np.max(np.abs(got - want)) < 1e-10 * scale

    def test_constants_are_annihilated(self):
        q = build_quadrature(UltraParams(n=3.0), 32)
        out = apply_L(np.full(32, 2.5), q)
        assert np.max(np.abs(out)) < 1e-10

    def test_linear_mode(self):
        # L z = -n z
        n = 2.5
        q = build_quadrature(UltraParams(n=n), 32)
        np.testing.assert_allclose(apply_L(q.nodes, q), -n * q.nodes, atol=1e-12)


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
            lhs = q.integrate(f * apply_L(g, q))
            rhs = -q.integrate(fp * gp * (1.0 - z**2))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_self_adjointness(self):
        q = build_quadrature(UltraParams(n=2.2), 48)
        z = q.nodes
        f = np.exp(0.4 * z)
        g = 1.0 + z**3
        assert q.integrate(f * apply_L(g, q)) == pytest.approx(
            q.integrate(g * apply_L(f, q)), abs=1e-10
        )


class TestRegularizedOperator:
    def test_integration_by_parts_eps(self):
        # same property, eps-measure and eps-drift together
        params = UltraParams(n=2.5, eps=0.05)
        q = build_quadrature(params, 64, kind="regularized")
        z = q.nodes
        rng = np.random.default_rng(5)
        for _ in range(5):
            cf = rng.uniform(-1.0, 1.0, size=8)
            cg = rng.uniform(-1.0, 1.0, size=8)
            f = np.polynomial.polynomial.polyval(z, cf)
            g = np.polynomial.polynomial.polyval(z, cg)
            fp = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(cf))
            gp = np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(cg))
            lhs = q.integrate(f * apply_L_eps(g, params, q))
            rhs = -q.integrate(fp * gp * (1.0 - z**2))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_self_adjointness_eps(self):
        # the base rule is not eps-refined, so symmetry holds only to the
        # rule's own resolution of the folded weight
        params = UltraParams(n=1.5, eps=0.02)
        q = build_quadrature(params, 64, kind="regularized")
        f = np.exp(0.3 * q.nodes)
        g = np.cos(q.nodes)
        assert q.integrate(f * apply_L_eps(g, params, q)) == pytest.approx(
            q.integrate(g * apply_L_eps(f, params, q)), abs=1e-8
        )

    def test_eps_zero_noninteger_rejected(self):
        params = UltraParams(n=2.5)
        with pytest.raises(DomainError):
            apply_L_eps(np.ones(64), params)

    def test_integer_n_coincides_with_plain(self):
        params = UltraParams(n=3.0, eps=0.05)
        q = build_quadrature(params, 32, kind="regularized")
        f = np.exp(q.nodes)
        # at n = d the drift reduces to n z, so only the measure differs;
        # pointwise the two applications agree on shared nodes
        got = apply_L_eps(f, params, q)
        z = q.nodes
        basis_vals = apply_L(f, q)
        np.testing.assert_allclose(got, basis_vals, atol=1e-10)
        # on the plain rule apply_L is the eps = 0 case, bit for bit
        q = build_quadrature(UltraParams(n=3.0), 32, kind="plain")
        f = np.exp(q.nodes)
        np.testing.assert_array_equal(apply_L_eps(f, UltraParams(n=3.0), q), apply_L(f, q))


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
