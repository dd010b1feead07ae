"""Functional (norm, Fisher, deficit, Lyapunov) tests.

Closed-form oracles: Fisher information of f(z) = z is n/(n+1); the
profile family a|1 - b z|^{-(n-2)/2} saturates the inequality at the
critical pair; constants are equality cases for every p.
"""
import numpy as np
import pytest

from ultraflow import (
    DomainError,
    UltraParams,
    build_quadrature,
    deficit,
    extremal_profile,
    fisher,
    logsob_deficit,
    lp_norm,
    lyapunov_F,
    refined_quadrature,
)


def rule(n, N=64):
    return build_quadrature(UltraParams(n=n), N)


class TestNorms:
    def test_constant_norm(self):
        assert lp_norm(np.full(64, 2.0), UltraParams(n=3.0, p=3.0)) == pytest.approx(2.0, abs=1e-13)

    def test_l2_of_z(self):
        n = 3.0
        want = (1.0 / (n + 1.0)) ** 0.5
        assert lp_norm(rule(n).nodes, UltraParams(n=n)) == pytest.approx(want, abs=1e-13)

    def test_p4_of_z(self):
        n = 2.5
        want = (3.0 / ((n + 1.0) * (n + 3.0))) ** 0.25
        assert lp_norm(rule(n).nodes, UltraParams(n=n, p=4.0)) == pytest.approx(want, abs=1e-13)

    def test_absolute_value_used(self):
        assert lp_norm(-np.ones(64), UltraParams(n=3.0, p=3.0)) == pytest.approx(1.0, abs=1e-13)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(DomainError, match="p >= 1"):
            lp_norm(np.ones(64), UltraParams(n=3.0, p=0.5))

    def test_regularized_key_integrates_on_the_graded_rule(self):
        # 1 + z sampled on the rule of d = 3: ||1 + z||_2^2 = 1 + E[z^2] under the
        # eps measure, about 1.134^2 (the samples read on the graded rule gave 1.240)
        params = UltraParams(n=2.5, eps=1e-3)
        fine = refined_quadrature(params, 16)
        want = (1.0 + fine.integrate(fine.nodes**2)) ** 0.5
        got = lp_norm(1.0 + build_quadrature(params, 16).nodes, params)
        assert abs(got - want) < 1e-14 and abs(got - 1.134) < 1e-3


class TestFisher:
    @pytest.mark.parametrize("n", [0.5, 1.0, 2.5, 3.0, 4.0])
    def test_linear_profile(self, n):
        want = n / (n + 1.0)  # int (1-z^2) dnu
        assert fisher(rule(n).nodes, UltraParams(n=n)) == pytest.approx(want, abs=1e-12)

    def test_constant_has_no_information(self):
        assert abs(fisher(np.ones(64), UltraParams(n=3.0))) < 1e-20

    def test_quadratic_profile(self):
        # f = z^2: f' = 2z, int 4 z^2 (1-z^2) dnu = 4(1/(n+1) - 3/((n+1)(n+3)))
        n = 3.0
        want = 4.0 * (1.0 / (n + 1.0) - 3.0 / ((n + 1.0) * (n + 3.0)))
        assert fisher(rule(n).nodes ** 2, UltraParams(n=n)) == pytest.approx(want, abs=1e-12)


class TestDeficit:
    def test_constants_all_p(self):
        for p in (1.0, 1.5, 3.0, 4.0, 5.5):
            rep = deficit(np.full(64, 1.7), UltraParams(n=3.0, p=p))
            assert abs(rep.deficit) < 1e-12

    def test_spectral_gap_equality_at_p1(self):
        # f = z is the first eigenfunction; p = 1 is the variance form
        for n in (1.5, 3.0, 4.0):
            q = rule(n)
            rep = deficit(q.nodes, UltraParams(n=n, p=1.0))
            assert abs(rep.deficit) < 1e-10

    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
    def test_critical_profile_equality(self, b):
        n, p = 4.0, 4.0
        q = rule(n)
        f = extremal_profile(n, b, q.nodes)
        rep = deficit(f, UltraParams(n=n, p=p))
        assert abs(rep.deficit) < 1e-8

    def test_generic_function_positive(self):
        q = rule(2.5)
        f = np.exp(0.5 * np.sin(2.0 * q.nodes))
        rep = deficit(f, UltraParams(n=2.5, p=3.0))
        assert rep.deficit > 0

    def test_scale_invariance(self):
        q = rule(3.0)
        f = 1.0 + 0.3 * q.nodes + 0.1 * q.nodes**2
        r1 = deficit(f, UltraParams(n=3.0, p=4.0))
        r2 = deficit(7.0 * f, UltraParams(n=3.0, p=4.0))
        assert r2.deficit == pytest.approx(49.0 * r1.deficit, rel=1e-10)

    def test_default_lambda_is_n(self):
        rep = deficit(np.ones(64) + 0.1 * rule(3.0).nodes, UltraParams(n=3.0, p=3.0))
        assert rep.lambda_used == 3.0

    def test_p2_routed_to_logsob(self):
        with pytest.raises(DomainError):
            deficit(np.ones(64), UltraParams(n=3.0, p=2.0))

    def test_supercritical_rejected(self):
        # p > 2n/(n-2) for n > 2 is outside the inequality's range
        with pytest.raises(DomainError):
            deficit(np.ones(64), UltraParams(n=4.0, p=4.5))

    @pytest.mark.parametrize("params", [
        UltraParams(n=2.5, p=3.0, eps=1e-2),
        UltraParams(n=2.5, p=3.0, beta=4.0),
    ])
    def test_regularized_or_beta_key_rejected(self, params):
        # the deficit lives on the plain measure at beta = 1; such a key used
        # to return the plain value 0.001598811014566881 for f = 1 + 0.3z
        with pytest.raises(DomainError, match="plain measure at beta = 1"):
            deficit(1.0 + 0.3 * rule(2.5).nodes, params)

    def test_subcritical_p_below_one_rejected(self):
        with pytest.raises(DomainError):
            UltraParams(n=3.0, p=0.8)

    def test_n_at_most_two_allows_large_p(self):
        rep = deficit(np.ones(64) + 0.05 * rule(2.0).nodes, UltraParams(n=2.0, p=9.0))
        assert rep.deficit > -1e-12

    def test_report_fields(self):
        q = rule(3.0)
        rep = deficit(1.0 + 0.1 * q.nodes, UltraParams(n=3.0, p=3.0), lam=2.5)
        assert rep.n == 3.0
        assert rep.p == 3.0
        assert rep.lambda_used == 2.5
        assert rep.deficit == pytest.approx(
            rep.fisher - 2.5 * rep.entropy_term, abs=1e-15
        )


class TestLogSobolev:
    def test_constant_equality(self):
        rep = logsob_deficit(np.full(64, 3.0), UltraParams(n=3.0))
        assert abs(rep.deficit) < 1e-12

    def test_default_lambda_is_half_n(self):
        q = rule(3.0)
        rep = logsob_deficit(1.0 + 0.1 * q.nodes, UltraParams(n=3.0))
        assert rep.lambda_used == 1.5

    def test_positive_on_generic_function(self):
        q = rule(2.0)
        rep = logsob_deficit(np.exp(0.4 * q.nodes), UltraParams(n=2.0))
        assert rep.deficit > 0

    def test_zero_values_handled(self):
        # 0 log 0 = 0 convention; profile touching zero stays finite
        q = rule(3.0)
        f = (1.0 + q.nodes) / 2.0

        rep = logsob_deficit(f, UltraParams(n=3.0))
        assert np.isfinite(rep.deficit)
        assert rep.deficit > 0

    def test_zero_function_rejected(self):
        with pytest.raises(DomainError, match="nonzero"):
            logsob_deficit(np.zeros(64), UltraParams(n=3.0))

    @pytest.mark.parametrize("params, match", [
        (UltraParams(n=2.5, p=7.0), "p = 2 endpoint"),
        (UltraParams(n=2.5, eps=1e-2), "plain measure"),
        (UltraParams(n=2.5, beta=4.0), "plain measure"),
    ])
    def test_key_off_the_log_endpoint_rejected(self, params, match):
        # p = 7 used to be reported as p = 2.0 with the log-Sobolev value
        with pytest.raises(DomainError, match=match):
            logsob_deficit(1.0 + 0.3 * rule(2.5).nodes, params)


class TestExtremalProfile:
    def test_shape(self):
        z = np.linspace(-1, 1, 9)
        f = extremal_profile(4.0, 0.5, z)
        np.testing.assert_allclose(f, np.abs(1.0 - 0.5 * z) ** (-1.0), atol=1e-14)

    def test_amplitude(self):
        z = np.zeros(3)
        np.testing.assert_allclose(extremal_profile(4.0, 0.5, z, a=2.0), 2.0, atol=1e-14)

    def test_b_range_validated(self):
        with pytest.raises(DomainError):
            extremal_profile(4.0, 1.0, np.zeros(3))

    def test_n2_is_constant(self):
        # exponent -(n-2)/2 vanishes at n = 2
        z = np.linspace(-1, 1, 5)
        np.testing.assert_allclose(extremal_profile(2.0, 0.5, z), 1.0, atol=1e-14)


class TestLyapunov:
    def test_heat_scaling_reduces_to_deficit(self):
        # beta = 1: F(u) = fisher(u) - lam * entropy term, the deficit itself
        n, p = 3.0, 3.0
        q = rule(n)
        u = 1.0 + 0.2 * q.nodes
        F = lyapunov_F(u, UltraParams(n=n, p=p, beta=1.0))
        rep = deficit(u, UltraParams(n=n, p=p))
        assert F.value == pytest.approx(rep.deficit, rel=1e-10)

    @pytest.mark.parametrize("n", [1.5, 2.5, 3.0, 4.2])
    def test_deficit_is_F_at_unit_beta_bit_for_bit(self, n):
        # one body: the deficit of a positive u is F at beta = 1, exactly
        z = rule(n).nodes
        crit = 2.0 * n / (n - 2.0) if n > 2 else np.inf
        for u in (1.0 + 0.2 * z, np.exp(0.3 * np.sin(2.0 * z)), 1.5 + 0.1 * z**3):
            for p in (1.0, 1.3, 2.7, 3.7, 5.1):
                if p <= crit:
                    rep = deficit(u, UltraParams(n=n, p=p))
                    assert rep.deficit == lyapunov_F(u, UltraParams(n=n, p=p, beta=1.0)).value

    def test_constant_state_is_zero(self):
        F = lyapunov_F(np.full(64, 1.3), UltraParams(n=3.0, p=4.0, beta=2.0))
        assert abs(F.value) < 1e-12

    def test_nonnegative_at_lambda_n(self):
        q = rule(2.5)
        u = np.exp(0.3 * q.nodes)
        F = lyapunov_F(u, UltraParams(n=2.5, p=5.0, beta=4.0))
        assert F.value > 0

    def test_mass_recorded(self):
        p = UltraParams(n=3.0, p=4.0, beta=2.0)
        q = rule(3.0)
        u = 1.0 + 0.1 * q.nodes
        F = lyapunov_F(u, p)
        want = q.integrate(np.abs(u ** (p.beta)) ** p.p)
        assert F.mass == pytest.approx(want, rel=1e-10)

    def test_positivity_required(self):
        p = UltraParams(n=3.0, p=4.0, beta=2.0)
        with pytest.raises(DomainError):
            lyapunov_F(np.linspace(-1, 1, 64), p)

    def test_quadratic_exponent_rejected(self):
        # lam/(p-2) has no limit form here; the entropy form is logsob_deficit
        with pytest.raises(DomainError, match="p != 2"):
            lyapunov_F(1.0 + 0.1 * rule(3.0).nodes, UltraParams(n=3.0, p=2.0, beta=1.0))
