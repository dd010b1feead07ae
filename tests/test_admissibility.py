"""Admissibility (exponent-range) tests.

Anchors are exact rational/radical evaluations of the closed forms; the
interval logic is checked against the sign of the quadratic itself, which
is an independent code path (membership never consults the interval
endpoints).
"""
import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ultraflow import (
    DomainError,
    FlowConfig,
    UltraParams,
    abc,
    beta_excluded,
    beta_for_m,
    beta_range,
    beta_window,
    build_quadrature,
    dF_dt_closed_form,
    delta_of_beta,
    dissipation_witness,
    is_admissible,
    lambda_eps,
    m_of_beta,
    m_range,
    qform_coeffs,
    qform_value,
    regularity_coeffs,
    thresholds,
)
from ultraflow import admissibility
from ultraflow.admissibility import _radicand


class TestThresholds:
    def test_n3(self):
        assert thresholds(3.0) == (pytest.approx(19.0 / 4.0, abs=1e-15),
                                   pytest.approx(6.0, abs=1e-15))

    def test_n4(self):
        assert thresholds(4.0) == (pytest.approx(33.0 / 9.0, abs=1e-14),
                                   pytest.approx(4.0, abs=1e-15))

    def test_n1_both_infinite(self):
        a, b = thresholds(1.0)
        assert math.isinf(a) and math.isinf(b)

    def test_n2_sobolev_endpoint_infinite(self):
        a, b = thresholds(2.0)
        assert a == pytest.approx(9.0, abs=1e-14)
        assert math.isinf(b)

    def test_ordering(self):
        # 2^# < 2* for n > 2
        for n in (2.5, 3.0, 5.0, 10.0):
            a, b = thresholds(n)
            assert a < b

    @pytest.mark.parametrize("n", [0.0, -1.5, math.nan, math.inf])
    def test_nonpositive_dimension_rejected(self, n):
        with pytest.raises(DomainError, match="n > 0"):
            thresholds(n)


class TestQuadratic:
    def test_coefficients_at_4_4(self):
        A, B, C = abc(4.0, 4.0)
        assert A == pytest.approx(0.25, abs=1e-15)
        assert B == pytest.approx(0.5, abs=1e-15)
        assert C == 1.0

    def test_coefficients_at_3_4(self):
        A, B, C = abc(3.0, 4.0)
        assert A == pytest.approx(-14.0 / 25.0, abs=1e-15)
        assert B == pytest.approx(2.0 / 5.0, abs=1e-15)
        assert C == 1.0

    def test_delta_at_zero_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.uniform(0.3, 8.0)
            p = rng.uniform(1.01, 9.0)
            assert delta_of_beta(0.0, n, p) == pytest.approx(1.0, abs=1e-13)

    def test_double_root_at_4_4(self):
        assert abs(delta_of_beta(2.0, 4.0, 4.0)) < 1e-14

    def test_anchor_3_4_1(self):
        assert delta_of_beta(1.0, 3.0, 4.0) == pytest.approx(-9.0 / 25.0, abs=1e-15)

    def test_vectorized(self):
        betas = np.array([0.0, 1.0, 2.0])
        out = delta_of_beta(betas, 4.0, 4.0)
        np.testing.assert_allclose(out, [1.0, 0.25 - 1.0 + 1.0, 0.0], atol=1e-14)

    @given(
        n=st.floats(0.3, 6.0),
        p=st.floats(2.1, 8.0),
        beta=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_qform_discriminant_matches_delta(self, n, p, beta):
        b, c = qform_coeffs(beta, n, p)
        assert b * b - c == pytest.approx(delta_of_beta(beta, n, p), abs=1e-9, rel=1e-9)

    def test_qform_anchor_4_4_2(self):
        b, c = qform_coeffs(2.0, 4.0, 4.0)
        assert b == pytest.approx(3.0, abs=1e-14)
        assert c == pytest.approx(9.0, abs=1e-14)


class TestExponentMaps:
    def test_m_of_beta_heat(self):
        assert m_of_beta(1.0, 5.0) == pytest.approx(1.0, abs=1e-15)

    def test_round_trip(self):
        for beta in (0.7, 1.3, 4.0, -2.5):
            m = m_of_beta(beta, 3.5)
            assert beta_for_m(m, 3.5) == pytest.approx(beta, rel=1e-12)

    def test_m_pole(self):
        with pytest.raises(DomainError):
            m_of_beta(0.0, 4.0)

    def test_beta_for_m_pole(self):
        # m = 1 - 2/p makes beta infinite
        with pytest.raises(DomainError):
            beta_for_m(1.0 - 2.0 / 4.0, 4.0)

    def test_excluded_value(self):
        # beta = (n+2)/(n+2-p) corresponds to (n+2) m = n
        n, p = 3.0, 4.0
        b = beta_excluded(n, p)
        assert b == pytest.approx(5.0, abs=1e-14)
        m = m_of_beta(b, p)
        assert (n + 2.0) * m == pytest.approx(n, abs=1e-12)

    def test_excluded_value_pole(self):
        assert beta_excluded(3.0, 5.0) is None

    def test_window_below_n(self):
        lo, hi = beta_window(3.0, 2.5)
        assert lo == 1.0
        assert hi == pytest.approx(6.0, abs=1e-13)

    def test_window_above_n(self):
        lo, hi = beta_window(3.0, 4.0)
        assert lo == 1.0
        assert math.isinf(hi)


class TestRange:
    def test_anchor_3_4(self):
        r = m_range(3.0, 4.0)
        root = 3.0 * math.sqrt(2.0)
        assert r.m_minus == pytest.approx((14.0 - root) / 20.0, abs=1e-12)
        assert r.m_plus == pytest.approx((14.0 + root) / 20.0, abs=1e-12)

    def test_disc_closed_form_grid(self):
        # disc carries no spurious factor: (n+2)^2 disc = n(p-1)(2n-(n-2)p)
        for n in np.linspace(0.4, 6.0, 50):
            for p in np.linspace(2.05, 8.0, 50):
                r = m_range(float(n), float(p))
                want = n * (p - 1.0) * (2.0 * n - (n - 2.0) * p) / (n + 2.0) ** 2
                assert r.disc == pytest.approx(want, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("n", [2.5, 3.0, 4.0, 6.0])
    def test_collapse_at_critical_p(self, n):
        p_crit = 2.0 * n / (n - 2.0)
        r = m_range(n, p_crit)
        assert r.m_minus == pytest.approx((n - 1.0) / n, abs=1e-10)
        assert r.m_plus == pytest.approx((n - 1.0) / n, abs=1e-10)

    def test_constant_delta_point(self):
        r = m_range(3.0, 6.0)
        assert r.constant_delta
        assert r.beta_interval_data == ()
        assert r.empty
        assert r.m_minus == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert r.m_plus == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_double_root_point(self):
        r = m_range(4.0, 4.0)
        assert r.degenerate
        assert len(r.beta_interval_data) == 1
        lo, hi = r.beta_interval_data[0]
        assert lo == pytest.approx(2.0, abs=1e-7)
        assert hi == pytest.approx(2.0, abs=1e-7)
        assert r.m_minus == pytest.approx(0.75, abs=1e-12)
        assert r.m_plus == pytest.approx(0.75, abs=1e-12)

    def test_supercritical_is_empty(self):
        r = m_range(4.0, 4.5)
        assert r.empty
        assert r.m_minus is None

    def test_half_line_where_A_vanishes(self):
        # A = ((n-1)(p-1)/(n+2))^2 + 2 - p is exactly 0 at (3, 2.25): the root
        # s- = B - |B| is 0, and delta = 1 - 1.5 beta <= 0 on [2/3, inf)
        assert abc(3.0, 2.25)[0] == 0.0
        (lo, hi), = beta_range(3.0, 2.25)
        assert lo == pytest.approx(2.0 / 3.0, rel=1e-15) and hi == math.inf
        for beta in (lo * (1 + 1e-9), 1.0, 1e6):
            assert delta_of_beta(beta, 3.0, 2.25) < 0
        for beta in (lo * (1 - 1e-9), 0.5, -1.0):
            assert delta_of_beta(beta, 3.0, 2.25) > 0

    def test_half_line_where_the_upper_root_vanishes(self, monkeypatch):
        # B < 0 with A = 0 puts s+ = B + |B| at 0: the set is (-inf, 1/s-]
        monkeypatch.setattr(admissibility, "abc", lambda n, p: (0.0, -0.75, 1.0))
        assert admissibility._beta_intervals(3.0, 4.0) == ((-math.inf, -2.0 / 3.0),)

    def test_two_rays_below_critical(self):
        ivs = beta_range(3.0, 4.0)
        assert len(ivs) == 2
        assert math.isinf(ivs[0][0]) and ivs[0][0] < 0
        assert math.isinf(ivs[1][1]) and ivs[1][1] > 0

    def test_validation(self):
        with pytest.raises(DomainError):
            m_range(0.0, 3.0)
        with pytest.raises(DomainError):
            m_range(3.0, 1.0)
        with pytest.raises(DomainError):
            beta_range(3.0, 2.0)

    @pytest.mark.parametrize("n, p", [(3.0, math.nan), (3.0, math.inf), (math.nan, 4.0), (math.inf, 4.0)])
    def test_non_finite_inputs_rejected(self, n, p):
        # NaN passes every ordered comparison as False, so it needs its own check
        with pytest.raises(DomainError, match="finite"):
            m_range(n, p)

    def test_width_matches_disc(self):
        # m_plus - m_minus = 2 sqrt(disc) / p for the reported anchors
        r = m_range(3.0, 3.0)
        assert r.m_plus - r.m_minus == pytest.approx(
            2.0 * math.sqrt(r.disc) / 3.0, abs=1e-13
        )

    def test_beta_image_uses_doubled_radical(self):
        # mapping the exact beta endpoints through m gives the interval
        # with twice the anchor radical; both conventions are reported
        n, p = 1.0, 1e6
        r = m_range(n, p)
        anchor_half_width = math.sqrt(r.disc) / p
        ivs = beta_range(n, p)
        ms = [m_of_beta(b, p) for iv in ivs for b in iv if math.isfinite(b) and b != 0]
        image_lo = min(ms)
        center = (n * p + 2.0) / ((n + 2.0) * p)
        assert center - image_lo == pytest.approx(2.0 * anchor_half_width, rel=1e-6)
        assert center - r.m_minus == pytest.approx(anchor_half_width, rel=1e-6)


class TestMembership:
    @given(
        n=st.floats(0.3, 6.0),
        p=st.floats(2.05, 8.0),
        beta=st.floats(-15.0, 15.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_interval_membership_equals_sign(self, n, p, beta):
        d = delta_of_beta(beta, n, p)
        scale = 1.0 + abs(beta) ** 2
        if abs(d) <= 1e-9 * scale:
            return  # boundary band
        ivs = beta_range(n, p)
        inside = any(lo <= beta <= hi for lo, hi in ivs)
        assert inside == (d < 0)

    def test_interval_ordered_when_both_reciprocal_roots_are_negative(self):
        # p > n + 3 makes B < 0; here both roots in s = 1/beta are negative
        (lo, hi), = beta_range(2.625, 8.0)
        assert lo < -2.0 < hi < 0.0
        assert delta_of_beta(-2.0, 2.625, 8.0) < 0
        assert abs(delta_of_beta(lo, 2.625, 8.0)) < 1e-9 and abs(delta_of_beta(hi, 2.625, 8.0)) < 1e-9

    def test_is_admissible_consistency(self):
        assert is_admissible(1.0, 3.0, 4.0)
        assert is_admissible(2.0, 4.0, 4.0)  # double root counts
        assert not is_admissible(0.5, 3.0, 4.0)

    def test_heat_scaling_iff_below_sharp_threshold(self):
        # beta = 1 is admissible exactly up to p = 2^#
        for n in (2.5, 3.0, 4.0):
            p_sharp = thresholds(n)[0]
            assert is_admissible(1.0, n, p_sharp - 1e-6)
            assert not is_admissible(1.0, n, p_sharp + 1e-6)

    def test_delta_at_one_vanishes_at_sharp_threshold(self):
        for n in (2.5, 3.0, 4.0, 7.0):
            p_sharp = thresholds(n)[0]
            assert abs(delta_of_beta(1.0, n, p_sharp)) < 1e-12


class TestQformValue:
    def test_nonnegative_for_admissible_beta(self):
        n, p, beta = 3.0, 4.0, 1.0
        params = UltraParams(n=n, p=p, beta=beta)
        q = build_quadrature(params, 64)
        u = np.exp(0.4 * np.sin(2.0 * q.nodes))
        vals = qform_value(u, params)
        assert np.min(vals) > -1e-9

    @pytest.mark.parametrize("n, p, beta", [
        (3.0, 5.0, 1.0),  # p > 2^# = 4.75: heat scaling fails, delta > 0
        (3.0, 3.5, 1.0),  # b = 1 exactly: the e^(z/2) witness
        (3.0, 5.0, 0.6),  # g = 25
        (2.5, 5.0, 2.0),
        (4.0, 3.8, 1.9048),
        (1.5, 8.0, -0.5),
    ])
    def test_witness_form_matches_its_closed_form(self, n, p, beta):
        # q[(1 + s z)^g] = -delta (g s)^4 (1 + s z)^(2g - 4) at every node, so q
        # has the sign of -delta everywhere; the spectral derivatives lose
        # digits only at the outermost nodes (measured 1.8e-10 of max|q|
        # there, 1.2e-12 for |z| < 0.9)
        params = UltraParams(n=n, p=p, beta=beta)
        z = build_quadrature(params, 64).nodes
        b, c = qform_coeffs(beta, n, p)
        delta = delta_of_beta(beta, n, p)
        u, _ = dissipation_witness(n, p, beta, N=64)
        if b == 1.0:
            want = -delta * 0.5**4 * np.exp(z)
        else:
            g = 1.0 / (1.0 - b)
            s = 0.5 / max(1.0, abs(g))
            want = -delta * (g * s) ** 4 * (1.0 + s * z) ** (2.0 * g - 4.0)
        got = qform_value(u, params)
        err = np.abs(got - want) / np.abs(want).max()
        assert err.max() < 5e-10
        assert err[np.abs(z) < 0.9].max() < 1e-11
        assert np.all(np.sign(got) == -np.sign(delta))

    def test_positivity_validation(self):
        params = UltraParams(n=3.0, p=4.0, beta=1.0)
        with pytest.raises(DomainError):
            qform_value(np.linspace(-1, 1, 64), params)


def _witness_rate_oracle(n, p, beta):
    """delta (g s)^4 int (1 + s z)^(2g - 4) rho^4 dnu_n by mpmath at 30 digits, over
    the closed-form Z_n; the exponent is (2g - 4) log(1 + s z), or z at b = 1."""
    with mpmath.workdps(30):
        n, p, beta = mpmath.mpf(n), mpmath.mpf(p), mpmath.mpf(beta)
        kappa = beta * (p - 2) + 1
        b = (n - 1) * (kappa + beta - 1) / (n + 2)
        A = ((n - 1) * (p - 1) / (n + 2)) ** 2 + 2 - p
        B = (n + 3 - p) / (n + 2)
        delta = A * beta**2 - 2 * B * beta + 1
        if b == 1:
            gs, expo = mpmath.mpf(0.5), lambda z: z
        else:
            g = 1 / (1 - b)
            s = 1 / (2 * max(1, abs(g)))
            gs, expo = g * s, lambda z: (2 * g - 4) * mpmath.log1p(s * z)
        Z = mpmath.sqrt(mpmath.pi) * mpmath.gamma(n / 2) / mpmath.gamma((n + 1) / 2)
        integral = mpmath.quad(lambda z: mpmath.exp(expo(z)) * (1 - z * z) ** ((n + 2) / 2), [-1, 0, 1])
        return float(delta * gs**4 * integral / Z)


class TestDissipationWitness:
    @pytest.mark.parametrize("n, p, beta", [
        (3.0, 3.5, 1.0), (3.0, 5.0, 1.0), (3.0, 5.0, 0.6), (2.5, 5.0, 2.0),
        (1.5, 8.0, -0.5), (0.5, 3.0, 3.0), (6.0, 2.5, 4.5),
    ])
    def test_rate_against_mpmath(self, n, p, beta):
        _, rate = dissipation_witness(n, p, beta)
        assert rate == pytest.approx(_witness_rate_oracle(n, p, beta), rel=1e-13)

    def test_heat_rate_is_positive_above_the_sharp_exponent(self):
        # (3, 5): p > 2^# = 4.75, where the heat flow can raise F
        u, rate = dissipation_witness(3.0, 5.0)
        assert rate > 0 and u.shape == (64,)
        assert 1.0 / 3.0 < u.min() and u.max() < 3.0 * u.min()

    def test_parameters_are_checked(self):
        for args in ((0.0, 5.0), (3.0, 0.5), (3.0, 5.0, 0.0)):
            with pytest.raises(DomainError):
                dissipation_witness(*args)

    @given(n=st.floats(0.3, 6.0, exclude_min=True), t=st.floats(0.0, 1.0, exclude_min=True),
           beta=st.floats(-3.0, 5.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_sign_of_rate_is_sign_of_delta(self, n, t, beta):
        # and the spectral path of dF/dt agrees with the closed form on the witness
        p = 1.0 + t * (min(thresholds(n)[1], 8.0) - 1.0)
        delta = delta_of_beta(beta, n, p)
        assume(abs(delta) >= 1e-3)
        try:
            cfg = FlowConfig(kind="heat" if beta == 1.0 else "nonlinear",
                             params=UltraParams(n=n, p=p, beta=beta))
        except DomainError:  # beta = 0, m = 0 or beta on its excluded value
            assume(False)
        u, rate = dissipation_witness(n, p, beta)
        assert np.sign(rate) == np.sign(delta)
        assert dF_dt_closed_form(u, cfg) == pytest.approx(rate, rel=1e-12)


class TestRegularityCoeffs:
    def test_eps_zero_anchor(self):
        # n=3, p=4, beta=2: m = 3/4, a(0) = -5/3, b = 0, c = -3, disc = -20
        params = UltraParams(n=3.0, p=4.0, beta=2.0)
        a, b, c, disc = regularity_coeffs(0.0, params)
        assert a == pytest.approx(-5.0 / 3.0, abs=1e-13)
        assert b == 0.0
        assert c == pytest.approx(-3.0, abs=1e-13)
        assert disc == pytest.approx(-20.0, abs=1e-12)

    def test_eps_zero_endpoints(self):
        params = UltraParams(n=3.0, p=4.0, beta=2.0)
        for z in (-1.0, 1.0):
            a, b, c, disc = regularity_coeffs(z, params)
            assert a == pytest.approx(0.0, abs=1e-14)
            assert disc == pytest.approx(0.0, abs=1e-13)

    def test_negative_disc_in_interior_for_range_m(self):
        # with beta inside the admissible set, disc < 0 strictly inside
        params = UltraParams(n=2.5, eps=1e-3, p=5.0, beta=4.0)
        z = np.linspace(-0.999, 0.999, 101)
        a, b, c, disc = regularity_coeffs(z, params)
        assert np.all(disc < 0)
        assert np.all(a <= 1e-15)

    def test_c_is_minus_slope(self):
        from ultraflow import drift_prime

        params = UltraParams(n=2.5, eps=0.01, p=5.0, beta=4.0)
        z = np.linspace(-0.9, 0.9, 11)
        _, _, c, _ = regularity_coeffs(z, params)
        np.testing.assert_allclose(c, -drift_prime(z, params), atol=1e-14)

    def test_degenerate_m_rejected(self):
        # (n+2) m = n has no comparison scaling
        n, p = 3.0, 4.0
        b = beta_excluded(n, p)
        params = UltraParams(n=n, p=p, beta=b)
        with pytest.raises(DomainError):
            regularity_coeffs(0.0, params)


class TestLambdaEps:
    def test_anchor(self):
        params = UltraParams(n=2.5, eps=1e-3, p=5.0, beta=1.2)
        want = 2.5 - 5e-4 * (4.8 / 2.25) ** 2
        assert lambda_eps(params, 0.5, 1.0) == pytest.approx(want, abs=1e-15)

    def test_eps_zero_gives_n(self):
        assert lambda_eps(UltraParams(n=2.5), 0.5, 1.0) == 2.5

    def test_monotone_decreasing_in_eps(self):
        vals = [
            lambda_eps(UltraParams(n=2.5, eps=e, p=5.0, beta=4.0), 0.8, 0.2)
            for e in (1e-4, 1e-3, 1e-2)
        ]
        assert vals[0] > vals[1] > vals[2]
        assert all(v < 2.5 for v in vals)

    def test_integer_n_rejected(self):
        with pytest.raises(DomainError):
            lambda_eps(UltraParams(n=3.0, eps=0.01), 0.5, 1.0)

    def test_h_validation(self):
        params = UltraParams(n=2.5, eps=0.01, p=5.0, beta=4.0)
        with pytest.raises(DomainError):
            lambda_eps(params, 1.5, 1.0)
        with pytest.raises(DomainError):
            lambda_eps(params, 0.5, 0.0)

    @pytest.mark.parametrize("h1", [math.nan, math.inf])
    def test_non_finite_h1_rejected(self, h1):
        # h1 = nan passed the old h1 <= 0 test and gave lambda = nan (inf gave -inf)
        with pytest.raises(DomainError, match="h1 must be finite"):
            lambda_eps(UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3), 0.8, h1)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("h0, h1, match", [(0.8, math.nan, "h1"), (1.5, 1.0, "h0")])
    def test_bounds_are_checked_at_every_eps(self, eps, h0, h1, match):
        # the eps = 0 shortcut used to return n before the bounds were read:
        # lambda_eps(UltraParams(n=2.5), 5.0, nan) gave 2.5
        with pytest.raises(DomainError, match=match):
            lambda_eps(UltraParams(n=2.5, eps=eps), h0, h1)


class TestSympyAlgebra:
    """The closed forms, evaluated on sympy symbols, against each other and the paper."""

    n, p, beta = sp.symbols("n p beta", positive=True)

    @staticmethod
    def exact(expr):
        # the code's float literals (1.0, 2.0, ...) are exact binary values
        return sp.cancel(sp.nsimplify(expr, rational=True))

    def test_qform_discriminant_is_delta(self):
        n, p, beta = self.n, self.p, self.beta
        b, c = qform_coeffs(beta, n, p)
        A, B, C = abc(n, p)
        assert self.exact(b**2 - c - (A * beta**2 - 2 * B * beta + C)) == 0
        # delta_of_beta evaluates that same quadratic
        for b0, n0, p0 in [(-2.0, 2.625, 8.0), (0.7, 3.0, 4.0), (5.0, 1.5, 2.5)]:
            exact = (A * beta**2 - 2 * B * beta + C).subs({beta: b0, n: n0, p: p0})
            assert delta_of_beta(b0, n0, p0) == pytest.approx(float(exact), rel=1e-13, abs=1e-14)

    def test_discriminant_closed_form_and_radicand(self):
        n, p = self.n, self.p
        A, B, C = abc(n, p)
        paper = n * (p - 1) * (2 * n - (n - 2) * p) / (n + 2) ** 2
        assert self.exact(B**2 - A * C - paper) == 0
        assert self.exact((n + 2) ** 2 * (B**2 - A * C) - _radicand(n, p)) == 0
