"""Functional (norm, Fisher, deficit, Lyapunov) tests.

Closed-form oracles: Fisher information of f(z) = z is n/(n+1); the
profile family a|1 - b z|^{-(n-2)/2} saturates the inequality at the
critical pair; constants are equality cases for every p.  ``TestOracleLayer``
checks lp_norm, fisher and deficit of a cubic at 1e-12 against the closed-form
Beta moments of dnu_n, and against mpmath in theta = arccos z at non-integer p
and for the log entropy of the p = 2 endpoint.
"""
import warnings

import mpmath
import numpy as np
import pytest

from ultraflow import (
    AccuracyWarning,
    DomainError,
    ShapeError,
    UltraParams,
    build_quadrature,
    deficit,
    extremal_profile,
    fisher,
    logsob_deficit,
    lp_norm,
    lyapunov_F,
    refined_quadrature,
    spectral_derivative,
    thresholds,
)
from ultraflow.functionals import lyapunov_terms


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

    @pytest.mark.parametrize("n", [1.5, 3.0, 4.2])
    def test_p2_is_logsob_on_half_the_entropy(self, n):
        # the p -> 2 limit of the bracket is half the log entropy, so lam = n on it
        # is logsob_deficit's n/2 on the whole
        z = rule(n).nodes
        for f in (1.0 + 0.3 * z, np.exp(0.4 * z), (1.0 + z) / 2.0):
            rep = deficit(f, UltraParams(n=n, p=2.0))
            log = logsob_deficit(f, UltraParams(n=n))
            assert rep.deficit == log.deficit
            assert rep.entropy_term == 0.5 * log.entropy_term
            assert rep.fisher == log.fisher
            assert rep.lambda_used == n == 2.0 * log.lambda_used

    @pytest.mark.parametrize("p", [2.0 - 1e-3, 2.0 + 1e-6, 2.0 + 1e-12])
    def test_entropy_quotient_warns_near_two(self, p):
        # the quotient loses digits like 1e-16/|p - 2| (3.0e-3 relative at 1e-12)
        u = 1.0 + 0.3 * rule(3.0).nodes
        with pytest.warns(AccuracyWarning, match="within 1e-2 of 2"):
            deficit(u, UltraParams(n=3.0, p=p))
        with pytest.warns(AccuracyWarning, match="within 1e-2 of 2"):
            lyapunov_F(u, UltraParams(n=3.0, p=p, beta=2.0))
        for q in (2.0, 2.5):  # silent: pytest turns the warning into an error
            deficit(u, UltraParams(n=3.0, p=q))
            lyapunov_F(u, UltraParams(n=3.0, p=q, beta=2.0))

    @pytest.mark.parametrize("name", ["deficit", "logsob_deficit", "lyapunov_F"])
    def test_sample_count_sets_N(self, name):
        # 32 samples used to raise "expected 64 node values" unless N=32 was passed
        call = {"deficit": lambda f, **kw: deficit(f, UltraParams(n=3.0, p=3.0), **kw).deficit,
                "logsob_deficit": lambda f, **kw: logsob_deficit(f, UltraParams(n=3.0), **kw).deficit,
                "lyapunov_F": lambda f, **kw: lyapunov_F(f, UltraParams(n=3.0, p=3.0), **kw).value}[name]
        f = 1.0 + 0.3 * rule(3.0, 32).nodes
        assert call(f) == call(f, N=32)
        with pytest.raises(ShapeError, match="expected 64 node values"):
            call(f, N=64)

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


class TestUnresolvedInput:
    # 1/z has a pole at 0, so it is not in the weighted Sobolev space; the even
    # rules have no node at 0, so its samples are finite.  Its top two modes
    # carry 3.2e-2 of the coefficient energy on the 64-node rule of n = 3
    @pytest.mark.parametrize("p", [4.0, 2.0])
    def test_pole_warns(self, p):
        f = 1.0 / rule(3.0).nodes
        report = logsob_deficit if p == 2 else deficit
        with pytest.warns(AccuracyWarning, match="deficit accuracy is degraded"):
            report(f, UltraParams(n=3.0, p=p))

    def test_resolved_input_is_silent(self):
        # pytest turns AccuracyWarning into an error, so these would fail loudly
        q = rule(3.0)
        deficit(1.0 + 0.3 * q.nodes, UltraParams(n=3.0, p=4.0))
        logsob_deficit(np.exp(0.4 * q.nodes), UltraParams(n=3.0, p=2.0))

    @pytest.mark.parametrize("name", ["lyapunov_F", "fisher", "lp_norm"])
    def test_functionals_warn_on_the_unresolved_input_with_unchanged_values(self, name):
        # 1/|z| is positive for lyapunov_F; its tail fraction is 3.0e-5 on this rule
        f, params = 1.0 / np.abs(rule(3.0).nodes), UltraParams(n=3.0, p=4.0)
        call = {"lyapunov_F": lambda: lyapunov_F(f, params).value,
                "fisher": lambda: fisher(f, params), "lp_norm": lambda: lp_norm(f, params)}[name]
        with pytest.warns(AccuracyWarning, match=f"{name} accuracy is degraded"):
            got = call()
        # the values the unchecked functions returned: the check only warns
        want = {"lyapunov_F": 25024.462406923052, "fisher": 25486.381638810864,
                "lp_norm": 20.87932361432897}[name]
        assert got == pytest.approx(want, rel=1e-12)
        q = rule(3.0)
        lyapunov_F(1.0 + 0.3 * q.nodes, params)  # resolved inputs stay silent
        fisher(np.exp(0.4 * q.nodes), params)
        lp_norm(1.0 + 0.3 * q.nodes**2, params)

    @pytest.mark.parametrize("name", ["deficit", "logsob_deficit", "lyapunov_F", "fisher", "lp_norm",
                                      "spectral_derivative", "deficit near 2", "lyapunov_F near 2"])
    def test_warnings_name_the_callers_line(self, name):
        # every entry point warns at the line that called it, in this file;
        # logsob_deficit's unresolved-input warning used to name functionals.py
        q = rule(3.0)
        f, u, near = 1.0 / np.abs(q.nodes), 1.0 + 0.3 * q.nodes, 2.0 + 1e-3
        call = {"deficit": lambda: deficit(f, UltraParams(n=3.0, p=4.0)),
                "logsob_deficit": lambda: logsob_deficit(f, UltraParams(n=3.0)),
                "lyapunov_F": lambda: lyapunov_F(f, UltraParams(n=3.0, p=4.0)),
                "fisher": lambda: fisher(f, UltraParams(n=3.0)),
                "lp_norm": lambda: lp_norm(f, UltraParams(n=3.0, p=4.0)),
                "spectral_derivative": lambda: spectral_derivative(f, q),
                "deficit near 2": lambda: deficit(u, UltraParams(n=3.0, p=near)),
                "lyapunov_F near 2": lambda: lyapunov_F(u, UltraParams(n=3.0, p=near, beta=2.0))}[name]
        with pytest.warns(AccuracyWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__] * len(record)


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

    def test_quadratic_exponent_takes_the_log_entropy(self):
        # p = 2: F at beta = 1 is the deficit, and the mass is int u^(2 beta)
        q = rule(3.0)
        u = 1.0 + 0.1 * q.nodes
        F = lyapunov_F(u, UltraParams(n=3.0, p=2.0, beta=1.0))
        assert F.value == deficit(u, UltraParams(n=3.0, p=2.0)).deficit > 0
        G = lyapunov_F(u, UltraParams(n=3.0, p=2.0, beta=2.0))
        assert G.value > 0
        assert G.mass == pytest.approx(q.integrate(u**4), rel=1e-13)


class TestOracleLayer:
    """lp_norm, fisher and deficit of f = 1 + 0.3 z + 0.2 z^2 - 0.1 z^3 (min 1 at z = -1)
    against oracles the package does not compute, at 1e-12 relative.

    Polynomial integrands use the moments E[z^(2j)] = prod_{i<j} (i + 1/2)/(i + (n + 1)/2)
    of dnu_n at 30 digits.  At non-integer p, int f^p dnu_n is mpmath.quad in theta,
    sin^(n-1) theta d theta / Z_n, for n >= 1 only: where the weight is singular at
    the ends tanh-sinh loses digits (int f^3 dnu_0.3 misses its closed form by 8.3e-6
    in z and by 5.5e-11 in theta).  Measured worst error 2.7e-13 (n = 6, N = 256).
    """

    F = (1.0, 0.3, 0.2, -0.1)

    @staticmethod
    def integral(c, n):
        """int sum_k c_k z^k dnu_n from the closed-form even moments."""
        with mpmath.workdps(30):
            total, moment, half = mpmath.mpf(0), mpmath.mpf(1), (mpmath.mpf(n) + 1) / 2
            for j in range(0, len(c), 2):
                total += c[j] * moment
                moment *= (j // 2 + mpmath.mpf(0.5)) / (j // 2 + half)
            return total

    @staticmethod
    def times(a, b):
        out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def lpp(self, p, n):
        """int f^p dnu_n, at 30 digits."""
        with mpmath.workdps(30):
            f = [mpmath.mpf(x) for x in self.F]
            if float(p).is_integer():
                power = [mpmath.mpf(1)]
                for _ in range(int(p)):
                    power = self.times(power, f)
                return self.integral(power, n)
            Z = mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(n) / 2) / mpmath.gamma((mpmath.mpf(n) + 1) / 2)
            density = lambda t: mpmath.polyval(f[::-1], mpmath.cos(t)) ** p * mpmath.sin(t) ** (n - 1)
            return mpmath.quad(density, [0, mpmath.pi / 2, mpmath.pi]) / Z

    def log_entropy(self, n):
        """int f^2 log(f^2 / int f^2) dnu_n, mpmath.quad in theta at 30 digits."""
        with mpmath.workdps(30):
            f = [mpmath.mpf(x) for x in self.F]
            Z = mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(n) / 2) / mpmath.gamma((mpmath.mpf(n) + 1) / 2)
            g = lambda t: mpmath.polyval(f[::-1], mpmath.cos(t)) ** 2
            m2 = self.lpp(2.0, n)
            density = lambda t: g(t) * mpmath.log(g(t) / m2) * mpmath.sin(t) ** (n - 1)
            return mpmath.quad(density, [0, mpmath.pi / 2, mpmath.pi]) / Z

    @pytest.mark.parametrize("n", [1.0, 1.7, 2.5, 4.0, 6.0])
    def test_log_entropy_against_mpmath(self, n):
        # measured worst 5.6e-15 relative (n = 1.7, N = 16)
        want = float(self.log_entropy(n))
        for N in (16, 64, 256):
            f = np.polyval(self.F[::-1], build_quadrature(UltraParams(n=n), N).nodes)
            got = logsob_deficit(f, UltraParams(n=n)).entropy_term
            assert got == pytest.approx(want, rel=1e-14, abs=0), N

    def fisher_oracle(self, n):
        with mpmath.workdps(30):
            fp = [k * mpmath.mpf(x) for k, x in enumerate(self.F)][1:]
            return self.integral(self.times([1, 0, -1], self.times(fp, fp)), n)

    @pytest.mark.parametrize("n", [0.05, 0.3, 1.0, 1.7, 2.5, 4.0, 6.0])
    def test_against_closed_form_moments_and_mpmath(self, n):
        ps = [1.0, 3.0, 4.0] + ([2.5] if n >= 1 else [])
        with mpmath.workdps(30):
            fisher_want = self.fisher_oracle(n)
            norms = {p: self.lpp(p, n) for p in ps + [2.0]}
            want = {p: float(norms[p] ** (1 / mpmath.mpf(p))) for p in ps}
            bracket = {p: (norms[1.0] ** 2 if p == 1 else norms[p] ** (2 / mpmath.mpf(p))) - norms[2.0]
                       for p in ps}
            deficits = {p: float(fisher_want - n * bracket[p] / (p - 2)) for p in ps}
        p_crit = thresholds(n)[1]
        for N in (16, 64, 256):
            z = build_quadrature(UltraParams(n=n), N).nodes
            f = np.polyval(self.F[::-1], z)
            assert fisher(f, UltraParams(n=n)) == pytest.approx(float(fisher_want), rel=1e-12, abs=0)
            for p in ps:
                params = UltraParams(n=n, p=p)
                assert lp_norm(f, params) == pytest.approx(want[p], rel=1e-12, abs=0), (N, p)
                if p <= p_crit:
                    got = deficit(f, params, N=N).deficit
                    assert got == pytest.approx(deficits[p], rel=1e-12, abs=0), (N, p)


class TestLyapunovTerms:
    """``lyapunov_terms`` on values of u and u' handed in directly.

    Off beta = 1 it forms (u^beta)' = beta u^beta u'/u; the oracle is mpmath.quad
    in theta = arccos z at 30 digits, with dnu_n = sin^(n-1) theta d theta / Z_n and
    1 - z^2 = sin^2 theta.  At beta = 1 it passes u and u' through.
    """

    F = TestOracleLayer.F

    def oracle(self, n, p, beta):
        """(fisher_beta, mass, entropy) of u = 1 + 0.3 z + 0.2 z^2 - 0.1 z^3."""
        with mpmath.workdps(30):
            n, p, beta = mpmath.mpf(n), mpmath.mpf(p), mpmath.mpf(beta)
            f = [mpmath.mpf(x) for x in self.F]
            fp = [k * c for k, c in enumerate(f)][1:]
            Z = mpmath.sqrt(mpmath.pi) * mpmath.gamma(n / 2) / mpmath.gamma((n + 1) / 2)

            def integral(g):
                density = lambda t: g(mpmath.cos(t)) * mpmath.sin(t) ** (n - 1)
                return mpmath.quad(density, [0, mpmath.pi / 2, mpmath.pi]) / Z

            u = lambda z: mpmath.polyval(f[::-1], z)
            up = lambda z: mpmath.polyval(fp[::-1], z)
            fb = integral(lambda z: (1 - z**2) * (beta * u(z) ** (beta - 1) * up(z)) ** 2)
            mass = integral(lambda z: u(z) ** (beta * p))
            l2 = integral(lambda z: u(z) ** (2 * beta))
            return fb, mass, (mass ** (2 / p) - l2) / (p - 2)

    @pytest.mark.parametrize("n, p, beta", [
        (2.5, 5.0, 4.0), (4.0, 3.8, 1.9048), (3.0, 1.5, -0.5), (1.7, 3.0, 0.3),
    ])
    def test_off_unit_beta_against_mpmath(self, n, p, beta):
        # measured worst 2.8e-16 relative on fisher_beta and mass, and 6.6e-14 on the
        # entropy, a difference of near-equal norms
        fine = refined_quadrature(UltraParams(n=n), 64)
        z = fine.nodes
        u = np.polyval(self.F[::-1], z)
        up = np.polyval(np.polyder(self.F[::-1]), z)
        F, mass, fb, entropy = lyapunov_terms(u, up, fine, UltraParams(n=n, p=p, beta=beta), 1.3)
        want_fb, want_mass, want_entropy = (float(x) for x in self.oracle(n, p, beta))
        assert fb == pytest.approx(want_fb, rel=1e-14, abs=0)
        assert mass == pytest.approx(want_mass, rel=1e-14, abs=0)
        assert entropy == pytest.approx(want_entropy, rel=1e-12, abs=0)
        assert F == pytest.approx(fb - 1.3 * entropy, rel=1e-13, abs=0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 6.0])
    def test_unit_beta_keeps_the_two_pow_body_bit_for_bit(self, p):
        # at beta = 1 the former body's u^1 and 1 u^0 u' are u and u' exactly,
        # zeros included (deficit hands in |f|), so every output is unchanged
        fine = refined_quadrature(UltraParams(n=3.0), 32)
        z = fine.nodes
        for u, up in ((np.abs(z - 0.3), np.sign(z - 0.3)), (np.abs(z - z[5]), np.sign(z - z[5])),
                      (1.0 + 0.4 * z**2, 0.8 * z)):
            params = UltraParams(n=3.0, p=p)
            ub, ubp = u**1.0, 1.0 * u**0.0 * up
            fb = float(fine.integrate(fine.rho2 * ubp**2))
            g = ub**2
            l2 = fine.integrate(g)
            if p == 2:
                with np.errstate(divide="ignore", invalid="ignore"):
                    entropy = 0.5 * float(fine.integrate(np.where(g > 0, g * np.log(g / l2), 0.0)))
                want = (float(fb - 3.0 * entropy), float(l2), fb, entropy)
            else:
                lpp = fine.integrate(ub**p)
                lp2 = lpp ** (2.0 / p)
                want = (float(fb + 3.0 / (p - 2.0) * (l2 - lp2)), float(lpp), fb,
                        float((lp2 - l2) / (p - 2.0)))
            assert lyapunov_terms(u, up, fine, params, 3.0) == want

    def test_silent_near_two(self):
        # the shared body never warns: its callers give the near-p = 2 warning,
        # each once, at the line that called them
        fine = refined_quadrature(UltraParams(n=3.0), 32)
        u = 1.0 + 0.3 * fine.nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lyapunov_terms(u, np.full_like(u, 0.3), fine, UltraParams(n=3.0, p=2.005), 3.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_deficit_of_a_function_with_zero_nodes_is_finite(self, p):
        # f = 0 resamples to exact zeros on every refined node; |f| and f' pass
        # through untouched, so no 0/0 and no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = deficit(np.zeros(32), UltraParams(n=3.0, p=p))
            fine = refined_quadrature(UltraParams(n=3.0), 32)
            u = np.abs(fine.nodes - fine.nodes[7])
            F, mass, fb, entropy = lyapunov_terms(u, np.sign(fine.nodes - fine.nodes[7]), fine,
                                                  UltraParams(n=3.0, p=p), 3.0)
        assert rep.deficit == rep.fisher == rep.entropy_term == 0.0
        assert u[7] == 0.0 and np.isfinite([F, mass, fb, entropy]).all()
