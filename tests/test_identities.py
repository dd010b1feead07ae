"""Integration-by-parts identity tests.

The four checks must sit at quadrature precision for smooth positive
functions.  The plain pair holds for any smooth positive u (the boundary
terms carry a factor (1-z^2)^{n/2} which vanishes for n > 0), so the
no-boundary-condition runs are asserted small as well; the Neumann
enforcement is a validation contract, not a mathematical requirement.
"""
import numpy as np
import pytest
from numpy.polynomial import Polynomial

from ultraflow import (
    EPS_MIN,
    DomainError,
    UltraParams,
    build_quadrature,
    check_gamma2,
    check_gamma2_eps,
    check_lgamma,
    check_lgamma_eps,
    make_test_function,
)
from ultraflow.identities import _gamma2_correction, _lgamma_correction, _prepare, _prepared
from ultraflow.spectral import _discretization


class TestTestFunctions:
    def test_deterministic(self):
        p = UltraParams(n=2.5)
        u1 = make_test_function(42, p)
        u2 = make_test_function(42, p)
        np.testing.assert_array_equal(u1, u2)

    def test_seed_changes_function(self):
        p = UltraParams(n=2.5)
        assert not np.allclose(make_test_function(1, p), make_test_function(2, p))

    def test_amplitude_bounds(self):
        p = UltraParams(n=3.0)
        for seed in range(20):
            u = make_test_function(seed, p)
            assert np.all(u >= np.exp(-2.0) - 1e-12)
            assert np.all(u <= np.exp(2.0) + 1e-12)

    def test_neumann_endpoint_derivative(self):
        from ultraflow import interpolation_basis, build_quadrature

        p = UltraParams(n=2.5)
        q = build_quadrature(p, 64)
        basis = interpolation_basis(q)
        for seed in range(10):
            u = make_test_function(seed, p, neumann=True)
            c = basis.analyze(u)
            ends = basis.derivative_values(c, np.array([-1.0, 1.0]))
            assert np.max(np.abs(ends)) < 1e-8

    def test_non_neumann_generic_slope(self):
        from ultraflow import interpolation_basis, build_quadrature

        p = UltraParams(n=2.5)
        q = build_quadrature(p, 64)
        basis = interpolation_basis(q)
        slopes = []
        for seed in range(10):
            u = make_test_function(seed, p, neumann=False)
            c = basis.analyze(u)
            ends = basis.derivative_values(c, np.array([-1.0, 1.0]))
            slopes.append(np.max(np.abs(ends)))
        assert max(slopes) > 1e-2

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            make_test_function(-1, UltraParams(n=3.0))

    @pytest.mark.parametrize("neumann", [True, False])
    @pytest.mark.parametrize("N", [16, 64])
    def test_matches_the_polynomial_class_construction(self, neumann, N):
        # reference: the exponent built from numpy Polynomial objects
        def reference(seed, params, degree):
            rng = np.random.default_rng(seed)
            c0 = rng.uniform(-1.0, 1.0)
            if neumann:
                Q = Polynomial(rng.uniform(-1.0, 1.0, size=max(0, degree - 3) + 1))
                P1 = (Q - Polynomial([0.0, 0.0, 1.0]) * Q).integ()
            else:
                P1 = Polynomial(np.concatenate([[0.0], rng.uniform(-1.0, 1.0, size=degree)]))
            scale = np.max(np.abs(P1(np.linspace(-1.0, 1.0, 2001))))
            if scale > 0:
                P1 = P1 / scale
            return np.exp(c0 + P1(build_quadrature(params, N).nodes))

        for params in (UltraParams(n=0.5), UltraParams(n=3.0), UltraParams(n=2.5, eps=1e-2)):
            for seed in range(12):
                for degree in range(10):
                    u = make_test_function(seed, params, neumann=neumann, degree=degree, N=N)
                    np.testing.assert_array_equal(u, reference(seed, params, degree))

    def test_regularized_rule_selected(self):
        p = UltraParams(n=2.5, eps=0.01)
        u = make_test_function(0, p, N=32)
        assert u.shape == (32,)


class TestPlainIdentities:
    @pytest.mark.parametrize("n", [0.5, 1.0, 1.5, 2.5, 3.5])
    def test_gamma2_small_residual(self, n):
        p = UltraParams(n=n)
        for seed in range(10):
            u = make_test_function(seed, p)
            rep = check_gamma2(u, p, seed=seed)
            assert rep.residual < 1e-10

    @pytest.mark.parametrize("n", [0.5, 1.0, 1.5, 2.5, 3.5])
    def test_lgamma_small_residual(self, n):
        p = UltraParams(n=n)
        for seed in range(10):
            u = make_test_function(seed, p)
            rep = check_lgamma(u, p, seed=seed)
            assert rep.residual < 1e-10

    def test_without_neumann_still_small(self):
        # measured fact: the plain identities hold without the boundary
        # condition because the weight kills the boundary terms for n > 0;
        # the validation exists to catch accidental misuse, not a failure
        p = UltraParams(n=2.5)
        for seed in range(10):
            u = make_test_function(seed, p, neumann=False)
            r1 = check_gamma2(u, p, enforce_neumann=False, seed=seed)
            r2 = check_lgamma(u, p, enforce_neumann=False, seed=seed)
            assert r1.residual < 1e-10
            assert r2.residual < 1e-10

    def test_neumann_enforcement_raises(self):
        p = UltraParams(n=2.5)
        u = make_test_function(3, p, neumann=False)
        with pytest.raises(DomainError):
            check_gamma2(u, p)
        with pytest.raises(DomainError):
            check_lgamma(u, p)

    def test_near_integer_dimension(self):
        for n in (3.0 - 1e-6, 3.0, 3.0 + 1e-6):
            p = UltraParams(n=n)
            u = make_test_function(5, p)
            assert check_gamma2(u, p, seed=5).residual < 1e-10

    def test_eps_params_rejected(self):
        p = UltraParams(n=2.5, eps=0.01)
        u = make_test_function(0, p)
        with pytest.raises(DomainError):
            check_gamma2(u, p)
        with pytest.raises(DomainError):
            check_lgamma(u, p)

    def test_report_fields(self):
        p = UltraParams(n=3.0)
        u = make_test_function(9, p)
        rep = check_gamma2(u, p, seed=9)
        assert rep.identity_tag == "Gamma2"
        assert rep.seed == 9
        assert rep.residual == pytest.approx(
            abs(rep.lhs - rep.rhs) / (1.0 + abs(rep.lhs) + abs(rep.rhs)), abs=1e-18
        )


def _eps_gate(n, eps):
    # n = 0.3 (d = 1) and eps = EPS_MIN put ell' - n at its largest, about
    # 1/eps at z = +-1; Lu and the corrections read the same zeta there
    return 1e-13 if n == 0.3 or eps == EPS_MIN else 1e-10


class TestRegularizedIdentities:
    @pytest.mark.parametrize("n", [0.3, 0.5, 1.5, 2.5, 3.5])
    @pytest.mark.parametrize("eps", [EPS_MIN, 0.01, 0.1])
    def test_gamma2_eps_small_residual(self, n, eps):
        p = UltraParams(n=n, eps=eps)
        for seed in range(5):
            u = make_test_function(seed, p, neumann=False)
            rep = check_gamma2_eps(u, p, seed=seed)
            assert rep.residual < _eps_gate(n, eps)

    @pytest.mark.parametrize("n", [0.3, 0.5, 1.5, 2.5, 3.5])
    @pytest.mark.parametrize("eps", [EPS_MIN, 0.01, 0.1])
    def test_lgamma_eps_small_residual(self, n, eps):
        p = UltraParams(n=n, eps=eps)
        for seed in range(5):
            u = make_test_function(seed, p, neumann=False)
            rep = check_lgamma_eps(u, p, seed=seed)
            assert rep.residual < _eps_gate(n, eps)

    def test_integer_n_eps_zero_allowed(self):
        # at n = d the regularized identity is the plain one
        p = UltraParams(n=3.0)
        u = make_test_function(1, p, neumann=False)
        assert check_gamma2_eps(u, p).residual < 1e-10
        # and the plain check is its eps = 0 case, bit for bit
        for eps_check, plain_check in ((check_gamma2_eps, check_gamma2), (check_lgamma_eps, check_lgamma)):
            rep, plain = eps_check(u, p), plain_check(u, p, enforce_neumann=False)
            assert (rep.lhs, rep.rhs) == (plain.lhs, plain.rhs)

    def test_noninteger_n_eps_zero_rejected(self):
        p = UltraParams(n=2.5)
        u = make_test_function(1, p, neumann=False)
        with pytest.raises(DomainError):
            check_gamma2_eps(u, p)
        with pytest.raises(DomainError):
            check_lgamma_eps(u, p)

    def test_tags(self):
        p = UltraParams(n=2.5, eps=0.05)
        u = make_test_function(2, p, neumann=False)
        assert check_gamma2_eps(u, p).identity_tag == "Gamma2-eps"
        assert check_lgamma_eps(u, p).identity_tag == "L-Gamma-eps"

    def test_correction_matters(self):
        # dropping the eps-correction (by comparing with the plain rhs
        # computed on the same data) leaves a visible gap
        p = UltraParams(n=2.5, eps=0.1)
        u = make_test_function(4, p, neumann=False)
        rep = check_gamma2_eps(u, p)
        # the eps-correction term equals lhs - (plain rhs); reconstruct it
        plain_sum = rep.rhs  # includes the correction
        assert rep.residual < 1e-10
        # removing a genuine correction of relative size >> residual would
        # break the identity; verify the correction is nonzero
        from ultraflow import build_quadrature, refined_quadrature, interpolation_basis

        q = build_quadrature(p, 64)
        fine = refined_quadrature(p, 64)
        basis = interpolation_basis(q)
        c = basis.analyze(u)
        uu = basis.synthesize(c, fine.nodes)
        up = basis.derivative_values(c, fine.nodes)
        upp = basis.second_derivative_values(c, fine.nodes)
        z = fine.nodes
        rho2 = 1.0 - z**2
        plain_rhs = fine.integrate(upp**2 * rho2**2) + p.n * fine.integrate(rho2 * up**2)
        assert abs(plain_sum - plain_rhs) > 1e-6


class TestPreparedState:
    """Both checks of a family share one prepared state of the tested function."""

    @staticmethod
    def cold():
        _prepared.cache_clear()
        _discretization.cache_clear()

    def test_both_checks_resample_once(self):
        for params, checks in ((UltraParams(n=2.5), (check_gamma2, check_lgamma)),
                               (UltraParams(n=2.5, eps=0.01), (check_gamma2_eps, check_lgamma_eps))):
            u = make_test_function(3, params, neumann=params.eps == 0)
            self.cold()
            for check in checks:
                check(u, params)
            info = _discretization.cache_info()
            assert (info.misses, info.hits) == (1, 0)
            assert _prepared.cache_info().hits == 1

    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_hit_equals_cold_call_bit_for_bit(self, eps):
        params = UltraParams(n=2.5, eps=eps)
        checks = (check_gamma2, check_lgamma) if eps == 0 else (check_gamma2_eps, check_lgamma_eps)
        u = make_test_function(4, params, neumann=eps == 0)
        for first, second in (checks, checks[::-1]):
            self.cold()
            first(u, params)
            hit = second(u, params)
            self.cold()
            assert hit == second(u, params)
            assert _prepared.cache_info().hits == 0

    def test_in_place_mutation_is_a_new_function(self):
        params = UltraParams(n=3.0)
        u = make_test_function(5, params)
        check_gamma2(u, params)
        u[:] = make_test_function(6, params)
        warm = check_lgamma(u, params)
        self.cold()
        assert warm == check_lgamma(u, params)

    def test_neumann_is_checked_on_a_hit(self):
        params = UltraParams(n=2.5)
        u = make_test_function(3, params, neumann=False)
        check_gamma2(u, params, enforce_neumann=False)
        with pytest.raises(DomainError, match="Neumann"):
            check_gamma2(u, params, enforce_neumann=True)
        with pytest.raises(DomainError, match="Neumann"):
            check_lgamma(u, params)
        assert _prepared.cache_info().hits >= 2

    def test_positivity_errors_are_not_cached(self):
        params = UltraParams(n=2.5)
        u = make_test_function(3, params)
        u[7] = -1.0
        for _ in range(2):
            with pytest.raises(DomainError, match="the tested function must be finite and strictly positive"):
                check_gamma2(u, params)

    def test_state_is_read_only_and_plain_has_no_deformation(self):
        for params, dz_size in ((UltraParams(n=2.5), 0), (UltraParams(n=2.5, eps=0.01), 2)):
            state = _prepare(make_test_function(1, params, neumann=False), params, False)
            fine, basis, arrays, dz = state[0], state[1], state[2:7], state[7]
            assert len(dz or ()) == dz_size
            for a in (*arrays, *(dz or ())):
                assert not a.flags.writeable
            if dz is None:
                assert _gamma2_correction(fine, arrays[2], dz) == 0.0
                assert _lgamma_correction(fine, arrays[1], arrays[2], params.n, dz) == 0.0
