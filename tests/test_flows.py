"""Flow drivers: configuration, conservation, monotonicity, diagnostics.

Oracle notes
------------
* Heat flow with p = 1, beta = 1 evolves v = u, so a single spectral mode
  stays a single mode and its Dirichlet energy decays exactly like
  e^(-2 k(k+n-1) t); the log-linear fit of the recorded energy recovers
  the eigenvalue to quadrature precision.
* Initial Dirichlet energies for 1 + a z and 1 + a (z^2 - <z^2>) follow
  from the moments <z^2> = 1/(n+1), <z^4> = 3/((n+1)(n+3)):
      a^2 n/(n+1)   and   4 a^2 n/((n+1)(n+3)).
* The t = 0 positivity failure is forced by beta = -3 at (n, p) = (3, 4)
  with u0 = 1 + 0.9 z: v = u^(-12) spikes at z = -1 and its truncated
  projection dips negative before the first step.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from ultraflow.admissibility import lambda_eps
from ultraflow.errors import DomainError, PositivityError
from ultraflow.flows import (
    FlowConfig,
    FlowTrace,
    _attach_partial,
    _Recorder,
    dF_dt_closed_form,
    find_heat_counterexample,
    run_heat_flow,
    run_nonlinear_flow,
    run_regularized_flow,
)
from ultraflow.measure import UltraParams, build_quadrature, refined_quadrature


def plain_nodes(n: float, N: int) -> np.ndarray:
    return build_quadrature(UltraParams(n=n), N, kind="plain").nodes


class TestFlowConfig:
    def params(self, **kw):
        base = dict(n=3.0, p=4.0, beta=2.0)
        base.update(kw)
        return UltraParams(**base)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="kind"):
            FlowConfig(kind="parabolic", params=self.params())

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(DomainError, match="dt"):
            FlowConfig(kind="nonlinear", params=self.params(), dt=dt)

    @pytest.mark.parametrize("t_end", [0.0, -2.0, math.inf])
    def test_bad_t_end_rejected(self, t_end):
        with pytest.raises(DomainError, match="t_end"):
            FlowConfig(kind="nonlinear", params=self.params(), t_end=t_end)

    def test_record_every_must_be_positive(self):
        with pytest.raises(DomainError, match="record_every"):
            FlowConfig(kind="nonlinear", params=self.params(), record_every=0)

    def test_heat_requires_unit_beta(self):
        with pytest.raises(DomainError, match="beta = 1"):
            FlowConfig(kind="heat", params=self.params(beta=2.0))
        FlowConfig(kind="heat", params=self.params(beta=1.0))  # fine

    def test_degenerate_diffusion_exponent_rejected(self):
        # beta = 2/(2-p) makes m = 1 + (2/p)(1/beta - 1) vanish
        with pytest.raises(DomainError, match="m = 0"):
            FlowConfig(kind="nonlinear", params=self.params(beta=-1.0))

    def test_excluded_exponent_relation_rejected(self):
        # beta = (n+2)/(n+2-p) puts m exactly on (n+2)m = n
        with pytest.raises(DomainError, match="excluded"):
            FlowConfig(kind="nonlinear", params=self.params(beta=5.0))

    def test_regularized_needs_positive_eps(self):
        with pytest.raises(DomainError, match="eps"):
            FlowConfig(kind="regularized", params=UltraParams(n=2.5, p=5.0, beta=4.0))

    def test_regularized_needs_fractional_dimension(self):
        with pytest.raises(DomainError, match="non-integer"):
            FlowConfig(kind="regularized", params=self.params(eps=1e-3))

    def test_bound_parameters_validated(self):
        with pytest.raises(DomainError, match="h0"):
            FlowConfig(kind="nonlinear", params=self.params(), h0=1.5)
        with pytest.raises(DomainError, match="h1"):
            FlowConfig(kind="nonlinear", params=self.params(), h1=0.0)

    def test_alpha_scaling_constant(self):
        # m(2.5, 5, 4) = 0.7, so (n+2)m - n = 0.65
        cfg = FlowConfig(
            kind="nonlinear", params=UltraParams(n=2.5, p=5.0, beta=4.0)
        )
        assert cfg.alpha == pytest.approx(2.0 / 0.65, rel=1e-15)


class TestHeatFlow:
    def test_wrong_kind_rejected(self):
        cfg = FlowConfig(kind="nonlinear", params=UltraParams(n=3, p=4, beta=2))
        with pytest.raises(DomainError, match="heat"):
            run_heat_flow(np.ones(32), cfg)

    def test_constant_state_is_stationary(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=1e-2, t_end=1.0)
        u0 = 1.4 * np.ones(48)
        tr = run_heat_flow(u0, cfg)
        assert np.all(np.abs(tr.F_values) < 1e-12)
        assert np.all(np.abs(tr.dF_closed) < 1e-12)
        assert tr.mass == pytest.approx(1.4**3, rel=1e-13)
        # the t = 0 row carries ~1e-12 of interpolation rounding
        assert np.all(np.abs(tr.u_min - 1.4) < 1e-10)
        assert np.all(np.abs(tr.u_max - 1.4) < 1e-10)
        assert tr.terminal_gap < 1e-12

    @pytest.mark.parametrize(
        "n,mode,rate",
        [(3.0, 1, 3.0), (3.0, 2, 8.0), (2.0, 1, 2.0), (4.5, 2, 11.0)],
    )
    def test_single_mode_decays_at_its_eigenvalue(self, n, mode, rate):
        # p = 1 makes v = u, so the perturbation is a pure spectral mode
        # and log(fisher_beta) is exactly linear in t with slope -2 rate.
        params = UltraParams(n=n, p=1.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=1e-2, t_end=1.0,
                         record_every=5)
        z = plain_nodes(n, 48)
        a = 0.05
        u0 = 1.0 + a * (z if mode == 1 else z**2 - 1.0 / (n + 1.0))
        tr = run_heat_flow(u0, cfg)
        slope = np.polyfit(tr.times, np.log(tr.fisher_beta), 1)[0]
        assert -slope / 2.0 == pytest.approx(rate, abs=1e-6)

    def test_initial_energy_of_linear_mode(self):
        n, a = 3.0, 0.05
        params = UltraParams(n=n, p=1.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, t_end=0.1)
        z = plain_nodes(n, 48)
        tr = run_heat_flow(1.0 + a * z, cfg)
        assert tr.fisher_beta[0] == pytest.approx(a**2 * n / (n + 1.0), rel=1e-12)

    def test_initial_energy_of_quadratic_mode(self):
        n, a = 3.0, 0.05
        params = UltraParams(n=n, p=1.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, t_end=0.1)
        z = plain_nodes(n, 48)
        tr = run_heat_flow(1.0 + a * (z**2 - 1.0 / (n + 1.0)), cfg)
        expected = 4.0 * a**2 * n / ((n + 1.0) * (n + 3.0))
        assert tr.fisher_beta[0] == pytest.approx(expected, rel=1e-12)

    def test_mass_is_conserved(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=1e-2, t_end=2.0)
        z = plain_nodes(3.0, 48)
        tr = run_heat_flow(1.0 + 0.3 * z + 0.1 * z**2, cfg)
        assert np.max(np.abs(tr.mass - tr.mass[0])) < 1e-13

    def test_F_decreases_below_the_sharp_exponent(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)  # p < (2n^2+1)/(n-1)^2
        cfg = FlowConfig(kind="heat", params=params, dt=1e-2, t_end=2.0)
        z = plain_nodes(3.0, 48)
        tr = run_heat_flow(1.0 + 0.3 * z, cfg)
        assert np.all(np.diff(tr.F_values) <= 1e-12)
        assert tr.F_values[-1] < tr.F_values[0]

    def test_closed_form_matches_finite_differences(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=1e-3, t_end=0.05,
                         record_every=1)
        z = plain_nodes(3.0, 48)
        tr = run_heat_flow(1.0 + 0.2 * z, cfg)
        fd = np.gradient(tr.F_values, tr.times)
        closed = 2.0 * params.beta**2 * tr.dF_closed
        err = np.abs(fd[1:-1] - closed[1:-1]) / np.abs(closed[1:-1])
        assert np.max(err) < 1e-4

    def test_long_run_reaches_the_constant_state(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=1e-2, t_end=5.0)
        z = plain_nodes(3.0, 48)
        tr = run_heat_flow(1.0 + 0.3 * z, cfg)
        assert 0.0 < tr.terminal_gap < 1e-6

    def test_record_grid_covers_both_endpoints(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=3e-3, t_end=0.1,
                         record_every=7)
        tr = run_heat_flow(np.ones(32) + 0.1 * plain_nodes(3.0, 32), cfg)
        assert tr.times[0] == 0.0
        assert tr.times[-1] == 0.1

    def test_quadratic_entropy_is_not_supported(self):
        params = UltraParams(n=3.0, p=2.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, t_end=0.1)
        with pytest.raises(DomainError, match="p != 2"):
            run_heat_flow(np.ones(32), cfg)

    def test_bound_monitor_reports_violations(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=1e-2, t_end=0.2,
                         h0=0.9, h1=0.1)
        z = plain_nodes(3.0, 48)
        tr = run_heat_flow(1.0 + 0.3 * z, cfg)
        messages = " | ".join(msg for _, msg in tr.bound_events)
        assert "fell below h0" in messages
        assert "exceeded 1/h0" in messages
        assert "exceeded h1" in messages
        assert tr.bound_events[0][0] == 0.0

    def test_bound_monitor_stays_quiet_inside_the_bounds(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=1e-2, t_end=0.2,
                         h0=0.1, h1=10.0)
        z = plain_nodes(3.0, 48)
        tr = run_heat_flow(1.0 + 0.3 * z, cfg)
        assert tr.bound_events == ()

    def test_nonpositive_initial_datum_rejected(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, t_end=0.1)
        z = plain_nodes(3.0, 32)
        with pytest.raises(DomainError, match="positive"):
            run_heat_flow(z, cfg)  # changes sign

    def test_trace_arrays_are_read_only(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, t_end=0.1)
        tr = run_heat_flow(np.ones(32) + 0.1 * plain_nodes(3.0, 32), cfg)
        assert not tr.times.flags.writeable
        with pytest.raises(ValueError):
            tr.F_values[0] = 0.0


class TestNonlinearFlow:
    def test_wrong_kind_rejected(self):
        cfg = FlowConfig(kind="heat", params=UltraParams(n=3, p=4, beta=1))
        with pytest.raises(DomainError, match="nonlinear"):
            run_nonlinear_flow(np.ones(32), cfg)

    def test_constant_state_is_stationary(self):
        params = UltraParams(n=3.0, p=4.0, beta=2.0)
        cfg = FlowConfig(kind="nonlinear", params=params, dt=1e-3, t_end=0.2)
        tr = run_nonlinear_flow(1.3 * np.ones(48), cfg)
        assert np.all(np.abs(tr.F_values) < 1e-11)
        assert np.max(np.abs(tr.mass - tr.mass[0])) < 1e-13
        assert tr.terminal_gap < 1e-11

    def test_F_decreases_and_mass_holds_at_an_interior_beta(self):
        # delta(1.9048; 4, 3.8) < 0, well inside the admissible window
        params = UltraParams(n=4.0, p=3.8, beta=1.9048)
        cfg = FlowConfig(kind="nonlinear", params=params, dt=1e-3, t_end=0.5,
                         record_every=10, h0=0.5, h1=1.0)
        z = plain_nodes(4.0, 48)
        tr = run_nonlinear_flow(1.0 + 0.2 * z, cfg)
        gate = 1e-9 * max(1.0, abs(tr.F_values[0]))
        assert np.all(np.diff(tr.F_values) <= gate)
        assert tr.F_values[-1] < tr.F_values[0]
        assert np.max(np.abs(tr.mass - tr.mass[0])) < 1e-12
        assert tr.bound_events == ()

    def test_closed_form_matches_finite_differences(self):
        params = UltraParams(n=3.0, p=4.0, beta=2.0)
        cfg = FlowConfig(kind="nonlinear", params=params, dt=1e-3, t_end=0.01,
                         record_every=1)
        z = plain_nodes(3.0, 64)
        tr = run_nonlinear_flow(1.0 + 0.1 * z, cfg)
        fd = np.gradient(tr.F_values, tr.times)
        closed = 2.0 * params.beta**2 * tr.dF_closed
        err = np.abs(fd[1:-1] - closed[1:-1]) / np.abs(closed[1:-1])
        assert np.max(err) < 1e-4

    def test_immediate_positivity_loss_reports_time_zero(self):
        # v = u^(beta p) = u^(-12) spikes; its truncation starts negative
        params = UltraParams(n=3.0, p=4.0, beta=-3.0)
        cfg = FlowConfig(kind="nonlinear", params=params, t_end=0.5)
        z = plain_nodes(3.0, 64)
        with pytest.raises(PositivityError) as excinfo:
            run_nonlinear_flow(1.0 + 0.9 * z, cfg)
        assert excinfo.value.t == 0.0
        assert excinfo.value.partial is None


class TestRegularizedFlow:
    PARAMS = UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)

    def datum(self, N=64):
        q = build_quadrature(self.PARAMS, N, kind="regularized")
        return 1.0 + 0.1 * q.nodes

    def test_wrong_kind_rejected(self):
        cfg = FlowConfig(kind="nonlinear", params=UltraParams(n=3, p=4, beta=2))
        with pytest.raises(DomainError, match="regularized"):
            run_regularized_flow(np.ones(32), cfg)

    def test_defaults_are_resolved_from_the_initial_datum(self):
        cfg = FlowConfig(kind="regularized", params=self.PARAMS, dt=1e-3,
                         t_end=0.005)
        tr = run_regularized_flow(self.datum(), cfg)
        echo = tr.params_echo
        # h0 = 0.98 min(u_min, 1/u_max), h1 = 1.05 max|u'|, lam = lambda_eps
        assert echo.h0 == pytest.approx(0.8820008372747419, rel=1e-9)
        assert echo.h1 == pytest.approx(0.10500000006201281, rel=1e-9)
        assert echo.lam == pytest.approx(2.4999104170116087, rel=1e-12)
        assert echo.lam == pytest.approx(
            lambda_eps(self.PARAMS, echo.h0, echo.h1), rel=1e-15
        )

    def test_explicit_lambda_is_honoured(self):
        cfg = FlowConfig(kind="regularized", params=self.PARAMS, dt=1e-3,
                         t_end=0.005, lam=2.5)
        tr = run_regularized_flow(self.datum(), cfg)
        assert tr.params_echo.lam == 2.5

    def test_monotone_run_inside_the_bounds(self):
        cfg = FlowConfig(kind="regularized", params=self.PARAMS, dt=1e-3,
                         t_end=0.05, record_every=10)
        tr = run_regularized_flow(self.datum(), cfg)
        assert tr.bound_events == ()
        gate = 1e-10 * max(1.0, abs(tr.F_values[0]))
        assert np.all(np.diff(tr.F_values) <= gate)
        assert np.max(np.abs(tr.mass - tr.mass[0])) < 1e-12
        assert np.all(tr.u_min >= tr.params_echo.h0 - 1e-8)
        assert np.all(tr.u_max <= 1.0 / tr.params_echo.h0 + 1e-8)
        assert np.all(tr.grad_max <= tr.params_echo.h1 + 1e-8)

    def test_tight_entered_bounds_are_flagged(self):
        cfg = FlowConfig(kind="regularized", params=self.PARAMS, dt=1e-3,
                         t_end=0.005, h0=0.95, h1=0.2)
        tr = run_regularized_flow(self.datum(), cfg)
        messages = " | ".join(msg for _, msg in tr.bound_events)
        assert "fell below h0" in messages


class TestCounterexampleSearch:
    def test_finds_a_positive_rate_above_the_sharp_exponent(self):
        u, val = find_heat_counterexample(3.0, 5.0)
        assert val > 1.0
        assert len(u) == 64
        assert np.min(u) > 0
        cfg = FlowConfig(kind="heat", params=UltraParams(n=3.0, p=5.0, beta=1.0))
        assert dF_dt_closed_form(u, cfg) == pytest.approx(val, rel=1e-12)

    def test_fails_cleanly_below_the_sharp_exponent(self):
        # p = 4 < (2 n^2 + 1)/(n-1)^2 = 4.75 at n = 3: dissipation has a sign
        with pytest.raises(DomainError, match="none exists"):
            find_heat_counterexample(3.0, 4.0, N=32)


class TestClosedFormDerivative:
    def test_positive_state_required(self):
        cfg = FlowConfig(kind="heat", params=UltraParams(n=3.0, p=3.0, beta=1.0))
        u = np.ones(32)
        u[3] = 0.0
        with pytest.raises(DomainError, match="positive"):
            dF_dt_closed_form(u, cfg)

    def test_affine_in_lambda(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        z = plain_nodes(3.0, 48)
        u = 1.0 + 0.3 * z + 0.1 * z**2
        vals = []
        for lam in (3.0, 4.0, 5.0):
            cfg = FlowConfig(kind="heat", params=params, lam=lam)
            vals.append(dF_dt_closed_form(u, cfg))
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=1e-10)
        assert vals[2] > vals[0]  # the lambda term has positive coefficient

    def test_heat_dissipation_is_negative_below_the_sharp_exponent(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params)
        z = plain_nodes(3.0, 48)
        assert dF_dt_closed_form(1.0 + 0.3 * z, cfg) < 0


class TestPartialTraceAttachment:
    def make_recorder(self):
        params = UltraParams(n=3.0, p=4.0, beta=2.0)
        cfg = FlowConfig(kind="nonlinear", params=params, lam=3.0)
        fine = refined_quadrature(params, 32, kind="plain")
        return cfg, fine, _Recorder(cfg, fine, lam=3.0)

    def test_attaches_the_recorded_prefix(self):
        cfg, fine, rec = self.make_recorder()
        vv = 1.0 + 0.1 * fine.nodes
        vp = 0.1 * np.ones_like(vv)
        vpp = np.zeros_like(vv)
        rec.record(0.0, vv, vp, vpp)
        err = PositivityError(0.25, "test")
        _attach_partial(err, rec)
        assert isinstance(err.partial, FlowTrace)
        assert err.partial.times.tolist() == [0.0]
        assert err.partial.params_echo is cfg
        assert math.isfinite(err.partial.terminal_gap)

    def test_nothing_attached_without_records(self):
        _, _, rec = self.make_recorder()
        err = PositivityError(0.0, "test")
        _attach_partial(err, rec)
        assert err.partial is None
