"""Quadrature and measure tests.

Oracle values were computed independently of the package: normalization
constants with adaptive quadrature of the density (scipy.integrate.quad),
regularized-measure integrals the same way at tight tolerance.
"""
import math
import warnings

import numpy as np
import pytest
from scipy.special import roots_jacobi

import ultraflow.measure as measure
from ultraflow import (
    AccuracyWarning,
    DomainError,
    Quadrature,
    ShapeError,
    UltraParams,
    build_quadrature,
    lyapunov_F,
    normalization_constant,
    refined_node_count,
    refined_quadrature,
)

# adaptive-quadrature oracles for int_{-1}^{1} (1-z^2)^{(n-2)/2} dz
Z_ORACLE = {
    0.5: 5.2441151085842383,
    1.0: math.pi,
    1.5: 2.3962804694711841,
    2.0: 2.0,
    2.5: 1.7480383695280799,
    3.0: math.pi / 2.0,
    4.0: 4.0 / 3.0,
}

# adaptive-quadrature oracles against the normalized regularized density
# (1 + eps - z^2)^((n-d)/2) (1-z^2)^((d-2)/2) at n = 2.5, eps = 0.1
EPS_Z2_ORACLE = 0.27653735914158756
EPS_EXP_ORACLE = 1.1445254639865854
EPS_COS3_ORACLE = 0.16492951808528897


class TestParams:
    def test_defaults(self):
        p = UltraParams(n=3.0)
        assert p.eps == 0.0
        assert p.p == 2.0
        assert p.beta == 1.0

    def test_d_is_ceiling(self):
        assert UltraParams(n=2.5).d == 3
        assert UltraParams(n=3.0).d == 3
        assert UltraParams(n=0.5).d == 1

    def test_kappa_and_m(self):
        p = UltraParams(n=4.0, p=4.0, beta=2.0)
        assert p.kappa == pytest.approx(5.0, abs=1e-15)
        assert p.m == pytest.approx(0.75, abs=1e-15)

    def test_heat_exponent(self):
        # beta = 1 gives m = 1 regardless of p
        assert UltraParams(n=3.0, p=5.0, beta=1.0).m == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            UltraParams(n=0.0)
        with pytest.raises(DomainError):
            UltraParams(n=-1.0)
        with pytest.raises(DomainError):
            UltraParams(n=3.0, eps=-0.1)
        with pytest.raises(DomainError):
            UltraParams(n=3.0, p=0.5)
        with pytest.raises(DomainError):
            UltraParams(n=3.0, beta=0.0)


class TestNormalization:
    @pytest.mark.parametrize("n", sorted(Z_ORACLE))
    def test_against_oracle(self, n):
        assert normalization_constant(n) == pytest.approx(Z_ORACLE[n], rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            normalization_constant(0.0)


class TestPlainQuadrature:
    @pytest.mark.parametrize("n", [0.5, 1.0, 1.5, 2.5, 3.0, 4.0])
    def test_weights_positive_and_normalized(self, n):
        q = build_quadrature(UltraParams(n=n), 32)
        assert np.all(q.weights > 0)
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.5, 3.0, 4.0, 7.3])
    def test_second_moment(self, n):
        q = build_quadrature(UltraParams(n=n), 16)
        assert q.integrate(q.nodes**2) == pytest.approx(1.0 / (n + 1.0), abs=1e-14)

    @pytest.mark.parametrize("n", [0.5, 2.5, 3.0, 4.0])
    def test_fourth_moment(self, n):
        q = build_quadrature(UltraParams(n=n), 16)
        expect = 3.0 / ((n + 1.0) * (n + 3.0))
        assert q.integrate(q.nodes**4) == pytest.approx(expect, abs=1e-14)

    def test_odd_moments_vanish(self):
        q = build_quadrature(UltraParams(n=2.5), 24)
        assert abs(q.integrate(q.nodes)) < 1e-15
        assert abs(q.integrate(q.nodes**3)) < 1e-15

    def test_nodes_inside_interval(self):
        q = build_quadrature(UltraParams(n=0.7), 40)
        assert np.all(np.abs(q.nodes) < 1.0)

    def test_smooth_integrand_converges(self):
        # doubling N leaves an already-converged value unchanged
        p = UltraParams(n=3.0)
        vals = []
        for N in (24, 48, 96):
            q = build_quadrature(p, N)
            vals.append(q.integrate(np.exp(q.nodes)))
        assert vals[1] == pytest.approx(vals[0], abs=1e-13)
        assert vals[2] == pytest.approx(vals[1], abs=1e-13)

    def test_shape_mismatch(self):
        q = build_quadrature(UltraParams(n=3.0), 16)
        with pytest.raises(ShapeError):
            q.integrate(np.ones(17))

    def test_too_few_nodes(self):
        with pytest.raises(DomainError):
            build_quadrature(UltraParams(n=3.0), 1)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            build_quadrature(UltraParams(n=3.0), 16, kind="fancy")

    def test_weights_read_only(self):
        q = build_quadrature(UltraParams(n=3.0), 16)
        with pytest.raises(ValueError):
            q.weights[0] = 0.5


class TestRuleCache:
    @pytest.mark.parametrize("n, eps, kind", [(2.5, 0.0, "plain"), (2.5, 0.01, "regularized"),
                                              (3.0, 0.0, "regularized")])
    def test_repeat_equals_fresh_build(self, n, eps, kind):
        first = build_quadrature(UltraParams(n=n, eps=eps), 24, kind=kind)
        again = build_quadrature(UltraParams(n=n, eps=eps, p=4.0, beta=0.5), 24, kind=kind)
        assert again is first  # p and beta are not part of the key
        d = math.ceil(n) if kind == "regularized" else n
        nodes, w = roots_jacobi(24, (d - 2.0) / 2.0, (d - 2.0) / 2.0)
        w = w * (1.0 + eps - nodes**2) ** ((n - d) / 2.0)
        np.testing.assert_array_equal(again.nodes, nodes)
        np.testing.assert_array_equal(again.weights, w / w.sum())
        assert not again.nodes.flags.writeable and not again.weights.flags.writeable

    def test_eps_zero_noninteger_rejected_after_plain_is_cached(self):
        build_quadrature(UltraParams(n=2.7), 20, kind="plain")
        with pytest.raises(DomainError):
            build_quadrature(UltraParams(n=2.7), 20, kind="regularized")

    def test_base_rule_built_once_per_exponent(self, monkeypatch):
        calls = []

        def counting(N, a, b):
            calls.append((N, a, b))
            return roots_jacobi(N, a, b)

        measure._rule.cache_clear()
        measure._base_rule.cache_clear()
        monkeypatch.setattr(measure, "roots_jacobi", counting)
        # both keys have d = 3 and are clipped to the 4096-node cap
        with pytest.warns(AccuracyWarning):
            first = refined_quadrature(UltraParams(n=2.5, eps=1e-6), 64)
        with pytest.warns(AccuracyWarning):
            second = refined_quadrature(UltraParams(n=2.2, eps=4e-6), 64)
        assert first.order == second.order == 4096
        assert calls == [(4096, 0.5, 0.5)]
        assert second.nodes is first.nodes
        assert not np.array_equal(second.weights, first.weights)

    def test_regularized_rule_shares_nodes_with_plain_rule_of_d(self):
        reg = build_quadrature(UltraParams(n=2.5, eps=1e-2), 64, kind="regularized")
        plain = build_quadrature(UltraParams(n=3.0), 64, kind="plain")
        assert reg.nodes is plain.nodes

    def test_cap_bound_rule_equals_fresh_build_and_fold(self):
        n, eps = 2.5, 1e-6
        with pytest.warns(AccuracyWarning):
            q = refined_quadrature(UltraParams(n=n, eps=eps), 64)
        nodes, w = roots_jacobi(4096, 0.5, 0.5)
        w = w * (1.0 + eps - nodes**2) ** ((n - 3) / 2.0)
        np.testing.assert_array_equal(q.nodes, nodes)
        np.testing.assert_array_equal(q.weights, w / w.sum())
        assert not q.nodes.flags.writeable and not q.weights.flags.writeable
        assert not any(a.flags.writeable for a in measure._base_rule(4096, 0.5))


class TestRegularizedQuadrature:
    def test_against_dense_oracles(self):
        p = UltraParams(n=2.5, eps=0.1)
        q = build_quadrature(p, 32, kind="regularized")
        assert q.integrate(q.nodes**2) == pytest.approx(EPS_Z2_ORACLE, abs=1e-9)
        assert q.integrate(np.exp(q.nodes)) == pytest.approx(EPS_EXP_ORACLE, abs=1e-9)
        assert q.integrate(np.cos(3.0 * q.nodes)) == pytest.approx(EPS_COS3_ORACLE, abs=1e-9)

    def test_doubling_plateau(self):
        p = UltraParams(n=2.5, eps=0.05)
        vals = [
            build_quadrature(p, N, kind="regularized").integrate(
                np.sin(build_quadrature(p, N, kind="regularized").nodes) ** 2
            )
            for N in (32, 64, 128)
        ]
        # the folded weight needs ~24/sqrt(eps) nodes for full precision,
        # so the first doubling still moves the 9th digit
        assert vals[1] == pytest.approx(vals[0], abs=1e-8)
        assert vals[2] == pytest.approx(vals[1], abs=1e-13)

    def test_defaults_to_regularized_when_eps_positive(self):
        q = build_quadrature(UltraParams(n=2.5, eps=0.01), 16)
        assert q.kind == "regularized"

    def test_integer_n_matches_plain(self):
        # at n = d the bounded factor tends to one with eps; eps = 0 is the
        # plain rule exactly
        plain = build_quadrature(UltraParams(n=3.0), 16, kind="plain")
        reg = build_quadrature(UltraParams(n=3.0), 16, kind="regularized")
        np.testing.assert_allclose(reg.nodes, plain.nodes, atol=1e-15)
        np.testing.assert_allclose(reg.weights, plain.weights, atol=1e-15)

    def test_eps_zero_noninteger_rejected(self):
        with pytest.raises(DomainError):
            build_quadrature(UltraParams(n=2.5), 16, kind="regularized")

    def test_eps_to_zero_limit(self):
        # regularized integral of a smooth function approaches the plain one
        n = 2.5
        plain = build_quadrature(UltraParams(n=n), 48, kind="plain")
        target = plain.integrate(np.exp(plain.nodes))
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            q = build_quadrature(UltraParams(n=n, eps=eps), 48, kind="regularized")
            errs.append(abs(q.integrate(np.exp(q.nodes)) - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4


class TestRefinedQuadrature:
    def test_plain_doubles(self):
        p = UltraParams(n=3.0)
        assert refined_node_count(p, 64) == 128
        q = refined_quadrature(p, 64, kind="plain")
        assert q.order == 128

    def test_regularized_scales_with_eps(self):
        p = UltraParams(n=2.5, eps=1e-3)
        count = refined_node_count(p, 64)
        assert count >= 24 / math.sqrt(1e-3)
        q = refined_quadrature(p, 64, kind="regularized")
        assert q.order == count

    def test_refined_agrees_with_oracle(self):
        p = UltraParams(n=2.5, eps=0.1)
        q = refined_quadrature(p, 32, kind="regularized")
        assert q.integrate(np.exp(q.nodes)) == pytest.approx(EPS_EXP_ORACLE, abs=1e-10)


class TestCapWarning:
    """Rules clipped to the 4096-node cap miss the advertised 1e-12 accuracy."""

    def test_refined_quadrature_warns_on_every_call(self):
        p = UltraParams(n=2.5, eps=1e-6)
        for _ in range(2):  # the second call is a cache hit
            with pytest.warns(AccuracyWarning, match="1e-12 accuracy is not guaranteed"):
                refined_quadrature(p, 64)

    def test_lyapunov_F_warns_on_every_call(self):
        p = UltraParams(n=2.5, eps=1e-6, p=3.0, beta=1.0 / 3.0)
        u = 1.0 + build_quadrature(p, 64).nodes ** 2
        for _ in range(2):  # the second call reuses the cached discretization
            with pytest.warns(AccuracyWarning, match="capped at 4096"):
                lyapunov_F(u, p)

    @pytest.mark.parametrize("n, eps", [(2.5, 1e-3), (3.0, 1e-6), (3.0, 0.0)])
    def test_uncapped_rules_are_silent(self, n, eps):
        p = UltraParams(n=n, eps=eps, p=3.0, beta=1.0 / 3.0)
        u = 1.0 + build_quadrature(p, 64).nodes ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refined_quadrature(p, 64)
            lyapunov_F(u, p)
