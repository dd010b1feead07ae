"""Spectral basis tests.

The recurrence-coefficient oracle is the classical closed form for the
weight (1-z^2)^((n-2)/2): the squared off-diagonal entries must equal
k (k + n - 2) / ((2k + n - 3)(2k + n - 1)); the Stieltjes construction
is tested against it.  Derivative oracles are analytic.
"""
import warnings

import numpy as np
import pytest

from ultraflow import (
    AccuracyWarning,
    AliasingError,
    DomainError,
    FlowConfig,
    ShapeError,
    UltraParams,
    build_quadrature,
    check_gamma2,
    check_gamma2_eps,
    dF_dt_closed_form,
    eigenvalue,
    get_basis,
    get_regularized_basis,
    interpolation_basis,
    lyapunov_F,
    refined_quadrature,
    resample,
    run_heat_flow,
    run_regularized_flow,
    spectral_derivative,
)
from ultraflow.spectral import _discretization


def recurrence_oracle(n: float, kmax: int) -> np.ndarray:
    k = np.arange(1, kmax + 1, dtype=float)
    with np.errstate(invalid="ignore"):
        out = k * (k + n - 2.0) / ((2.0 * k + n - 3.0) * (2.0 * k + n - 1.0))
    out[0] = 1.0 / (n + 1.0)  # k = 1 is 0/0 at n = 1; its limit is 1/(n+1)
    return out


class TestBasisConstruction:
    @pytest.mark.parametrize("n", [0.5, 1.0, 1.5, 2.5, 3.0, 4.0, 6.7])
    def test_offdiag_closed_form(self, n):
        basis = get_basis(n, 48)
        got = basis.offdiag[1:] ** 2
        want = recurrence_oracle(n, len(got))
        np.testing.assert_allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("n", [0.5, 2.5, 4.0])
    def test_alpha_vanishes_by_symmetry(self, n):
        basis = get_basis(n, 48)
        assert np.max(np.abs(basis.alpha)) < 1e-14

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.5, 3.0, 5.2])
    def test_orthonormality(self, n):
        basis = get_basis(n, 32)
        G = basis.V.T @ (basis.quad.weights[:, None] * basis.V)
        np.testing.assert_allclose(G, np.eye(G.shape[1]), atol=1e-12)

    def test_first_element_is_constant(self):
        basis = get_basis(3.0, 16)
        np.testing.assert_allclose(basis.V[:, 0], 1.0, atol=1e-13)

    def test_second_element_proportional_to_z(self):
        n = 3.0
        basis = get_basis(n, 16)
        scale = np.sqrt(n + 1.0)  # normalizes z against <z^2> = 1/(n+1)
        np.testing.assert_allclose(basis.V[:, 1], scale * basis.quad.nodes, atol=1e-12)

    def test_regularized_basis_orthonormal(self):
        basis = get_regularized_basis(2.5, 0.05, 24)
        G = basis.V.T @ (basis.quad.weights[:, None] * basis.V)
        np.testing.assert_allclose(G, np.eye(G.shape[1]), atol=1e-11)

    def test_regularized_basis_at_eps_0_is_the_plain_basis(self):
        # eps = 0 at non-integer n: the plain measure's basis on its 2N-node rule
        basis = get_regularized_basis(2.5, 0.0, 32)
        fine = refined_quadrature(UltraParams(n=2.5), 32)
        assert basis.quad is fine
        want = get_basis(2.5, 32).evaluate(fine.nodes)
        assert np.max(np.abs(basis.V - want)) <= 1e-12 * np.max(np.abs(want))


class TestTransforms:
    def test_round_trip_polynomial(self):
        basis = get_basis(2.5, 32)
        z = basis.quad.nodes
        f = 1.0 + z - 0.5 * z**3 + 0.2 * z**5
        c = basis.analyze(f)
        np.testing.assert_allclose(basis.synthesize(c), f, atol=1e-13)

    def test_parseval(self):
        basis = get_basis(3.0, 32)
        z = basis.quad.nodes
        f = np.exp(0.7 * z)
        c = basis.analyze(f)
        assert basis.quad.integrate(f**2) == pytest.approx(float(c @ c), abs=1e-13)

    def test_analyze_shape_check(self):
        basis = get_basis(3.0, 16)
        with pytest.raises(ShapeError):
            basis.analyze(np.ones(17))

    def test_synthesize_at_arbitrary_nodes(self):
        basis = get_basis(2.0, 32)
        z = basis.quad.nodes
        c = basis.analyze(z**4)
        pts = np.linspace(-0.9, 0.9, 11)
        np.testing.assert_allclose(basis.synthesize(c, pts), pts**4, atol=1e-12)

    def test_interpolation_basis_on_regularized_rule(self):
        # regularized rules share nodes with the plain ceiling-dimension
        # rule, so interpolation there must reproduce sampled values
        q = build_quadrature(UltraParams(n=2.5, eps=0.1), 24, kind="regularized")
        basis = interpolation_basis(q)
        f = np.exp(q.nodes)
        c = basis.analyze(f)
        np.testing.assert_allclose(basis.synthesize(c, q.nodes), f, atol=1e-12)
        assert basis.quad.n == 3.0  # ceiling dimension

    def test_caching_returns_same_object(self):
        assert get_basis(3.0, 32) is get_basis(3.0, 32)

    @pytest.mark.parametrize("n", [1.7, 3.0])
    def test_end_slopes_are_built_once_and_match_evaluate(self, n):
        basis = get_basis(n, 48)
        rows = basis.end_slopes
        assert basis.end_slopes is rows
        np.testing.assert_array_equal(rows, basis.evaluate(np.array([-1.0, 1.0]), order=1))


class TestDerivatives:
    def test_polynomial_derivatives_exact(self):
        basis = get_basis(2.5, 32)
        z = basis.quad.nodes
        f = z**5 - 2.0 * z**2 + 3.0
        c = basis.analyze(f)
        np.testing.assert_allclose(
            basis.derivative_values(c), 5.0 * z**4 - 4.0 * z, atol=1e-11
        )
        np.testing.assert_allclose(
            basis.second_derivative_values(c), 20.0 * z**3 - 4.0, atol=1e-10
        )

    def test_smooth_derivative_accuracy(self):
        p = UltraParams(n=3.0)
        q = build_quadrature(p, 48)
        f = np.exp(np.sin(2.0 * q.nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d1 = spectral_derivative(f, q, order=1)
            d2 = spectral_derivative(f, q, order=2)
        z = q.nodes
        true1 = 2.0 * np.cos(2.0 * z) * f
        true2 = (4.0 * np.cos(2.0 * z) ** 2 - 4.0 * np.sin(2.0 * z)) * f
        np.testing.assert_allclose(d1, true1, atol=1e-9)
        np.testing.assert_allclose(d2, true2, atol=1e-6)

    def test_unresolved_function_warns(self):
        p = UltraParams(n=3.0)
        q = build_quadrature(p, 8)
        f = np.exp(5.0 * q.nodes)  # nowhere near resolved with 6 modes
        with pytest.warns(AccuracyWarning):
            spectral_derivative(f, q)

    def test_order_validation(self):
        q = build_quadrature(UltraParams(n=3.0), 16)
        with pytest.raises(DomainError):
            spectral_derivative(np.ones(16), q, order=3)


class TestResample:
    # a plain key, an eps key, and an n = d key (regularized rule equal to the plain one)
    KEYS = [(1.7, 0.0), (2.5, 1e-2), (3.0, 1e-2)]

    @pytest.mark.parametrize("n, eps", KEYS)
    def test_matches_basis_methods_bit_for_bit(self, n, eps):
        params = UltraParams(n=n, eps=eps)
        q = build_quadrature(params, 48)
        for f in (np.exp(np.sin(2.0 * q.nodes)), 1.0 + q.nodes**3):  # a miss, then a hit
            fine, basis, c, uu, up, upp = resample(f, params, 48)
            assert fine is refined_quadrature(params, 48)
            assert basis is interpolation_basis(q)
            np.testing.assert_array_equal(c, basis.analyze(f))
            np.testing.assert_array_equal(uu, basis.synthesize(c, fine.nodes))
            np.testing.assert_array_equal(up, basis.derivative_values(c, fine.nodes))
            np.testing.assert_array_equal(upp, basis.second_derivative_values(c, fine.nodes))

    def test_cached_tables_are_read_only(self):
        resample(np.ones(32), UltraParams(n=2.5, eps=1e-2), 32)
        fine, basis, V, V1 = _discretization(2.5, 1e-2, 32)
        for table in (V, V1, basis.V, basis.V1, basis.D, basis.end_slopes, fine.nodes, fine.weights):
            with pytest.raises(ValueError):
                table[0] = 0.0


class TestPositivityGuard:
    # u = 1e-3 + exp(-400 (z - 0.5)^2) is positive on 16 nodes, but its
    # resample dips to -0.19 at n = 3 and to -0.28 at (n, eps) = (2.5, 1e-2)
    PLAIN = UltraParams(n=3.0, p=3.0, beta=1.0)
    EPS = UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-2)
    ENTRY_POINTS = {
        "dF_dt_closed_form": (PLAIN, lambda u, prm: dF_dt_closed_form(u, FlowConfig("heat", prm))),
        "heat flow": (PLAIN, lambda u, prm: run_heat_flow(u, FlowConfig("heat", prm))),
        "regularized flow": (EPS, lambda u, prm: run_regularized_flow(u, FlowConfig("regularized", prm))),
        "check_gamma2": (PLAIN, lambda u, prm: check_gamma2(u, prm, enforce_neumann=False)),
        "check_gamma2_eps": (EPS, check_gamma2_eps),
        "lyapunov_F": (PLAIN, lambda u, prm: lyapunov_F(u, prm, N=16)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_loss_of_positivity_under_resampling_is_rejected(self, entry):
        params, call = self.ENTRY_POINTS[entry]
        z = build_quadrature(params, 16).nodes
        u = 1e-3 + np.exp(-400.0 * (z - 0.5) ** 2)
        assert np.min(resample(u, params, 16)[3]) < -0.1
        with pytest.raises(DomainError, match="positivity"):
            call(u, params)


class TestEigenvalue:
    @pytest.mark.parametrize("n", [0.5, 1.0, 3.0, 4.2])
    def test_closed_form(self, n):
        for k in range(6):
            assert eigenvalue(n, k) == pytest.approx(k * (k + n - 1.0), abs=1e-15)

    def test_zero_mode(self):
        assert eigenvalue(7.7, 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            eigenvalue(3.0, -1)


class TestAliasing:
    def test_truncation_needs_enough_nodes(self):
        from ultraflow import OrthoBasis

        q = build_quadrature(UltraParams(n=3.0), 16)
        with pytest.raises(AliasingError):
            OrthoBasis(q, K=15)

    def test_analyze_truncation_limit(self):
        basis = get_basis(3.0, 16)
        f = np.ones(16)
        with pytest.raises(AliasingError):
            basis.analyze(f, K=basis.K + 1)

    def test_synthesize_oversized_coefficients(self):
        basis = get_basis(3.0, 16)
        with pytest.raises(AliasingError):
            basis.synthesize(np.zeros(basis.K + 2))
