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
* The heat flow is linear in v, so its exact solution is the modal decay
  c_k(t) = c_k(0) e^(-k(k+n-1) t), rebuilt in the test from the basis and
  the eigenvalues; the stepper must match it to rounding.
* The Galerkin flows step with ETDRK4; ``rk4_reference`` integrates the
  same weak form with classical RK4 at the step bound of the explicit
  method, 0.5/lam_top, and lands on the trace's record times.
* The ETDRK4 weights are phi-function combinations; 50-digit mpmath gives
  phi_k(z) = 1F1(1; k + 1; z) / k!, free of the cancellation of the
  closed forms near z = 0.
"""
from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest

import ultraflow.flows as flows
from ultraflow.admissibility import lambda_eps
from ultraflow.errors import AccuracyWarning, DomainError, PositivityError
from ultraflow.flows import (
    _BOUND_TOL,
    FlowConfig,
    FlowTrace,
    _dF_value,
    _Recorder,
    dF_dt_closed_form,
    run_heat_flow,
    run_nonlinear_flow,
    run_regularized_flow,
)
from ultraflow.identities import _gamma2_correction, _lgamma_correction
from ultraflow.measure import UltraParams, _stepping_rule, build_quadrature, refined_quadrature
from ultraflow.operators import _deformation
from ultraflow.spectral import OrthoBasis, _resample_positive, eigenvalue, get_regularized_basis


def plain_nodes(n: float, N: int) -> np.ndarray:
    return build_quadrature(UltraParams(n=n), N).nodes


def initial_state(u0: np.ndarray, cfg: FlowConfig):
    """The working basis of a run of ``cfg`` from ``u0`` and the coefficients of v0 = u0^(beta p) in it."""
    params = cfg.params
    u0_fine = _resample_positive(u0, params, "the initial datum")[3]
    basis = get_regularized_basis(params.n, params.eps, len(u0))
    return basis, basis.analyze(u0_fine ** (params.beta * params.p))


def rk4_reference(u0: np.ndarray, tr: FlowTrace) -> FlowTrace:
    """Explicit RK4 on the weak form of ``tr``'s flow, recorded at ``tr.times``.

    Between records it takes equal steps no longer than
    min(dt, 0.5/lam_top, 2/(lam_top max v^(m-1) max(1, |m|))), the
    explicit method's stability bound.
    """
    cfg = tr.params_echo
    basis, c0 = initial_state(u0, cfg)
    fine, V0, V1 = basis.quad, basis.V, basis.V1
    m = cfg.params.m
    rho2w = fine.weights * (1.0 - fine.nodes**2)
    lam_top = np.linalg.eigvalsh(V1.T @ (rho2w[:, None] * V1))[-1]

    def rhs(c):
        return -(V1.T @ (rho2w * (V0 @ c) ** (m - 1.0) * (V1 @ c)))

    rec = _Recorder(cfg, basis, np.eye(c0.size))
    c, t = c0.copy(), 0.0
    for t_next in tr.times:
        vpow = float(np.max((V0 @ c) ** (m - 1.0)))
        h_max = min(cfg.dt, 0.5 / lam_top, 2.0 / (lam_top * vpow * max(1.0, abs(m))))
        k = math.ceil((t_next - t) / h_max)
        for _ in range(k):
            h = (t_next - t) / k
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * h * k1)
            k3 = rhs(c + 0.5 * h * k2)
            k4 = rhs(c + h * k3)
            c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_next
        rec.record(t, c)
    return rec.finish()


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

    def test_record_every_must_be_integral(self):
        # step % 2.5 == 0 would record every fifth step
        with pytest.raises(DomainError, match="record_every"):
            FlowConfig(kind="nonlinear", params=self.params(), record_every=2.5)
        cfg = FlowConfig(kind="nonlinear", params=self.params(), record_every=np.int64(3))
        assert cfg.record_every == 3

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

    @pytest.mark.parametrize("kind", ["heat", "nonlinear"])
    def test_plain_kinds_reject_eps(self, kind):
        with pytest.raises(DomainError, match="plain measure"):
            FlowConfig(kind=kind, params=self.params(beta=1.0, eps=1e-3))

    def test_bound_parameters_validated(self):
        with pytest.raises(DomainError, match="h0"):
            FlowConfig(kind="nonlinear", params=self.params(), h0=1.5)
        with pytest.raises(DomainError, match="h1"):
            FlowConfig(kind="nonlinear", params=self.params(), h1=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_and_h1_rejected(self, bad):
        with pytest.raises(DomainError, match="lambda must be finite"):
            FlowConfig(kind="nonlinear", params=self.params(), lam=bad)
        if bad > 0 or math.isnan(bad):  # -inf already fails h1 > 0
            with pytest.raises(DomainError, match="h1 must be finite"):
                FlowConfig(kind="nonlinear", params=self.params(), h1=bad)


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

    @pytest.mark.parametrize("kind, beta", [("heat", 1.0), ("nonlinear", 2.0)])
    def test_quadratic_entropy_flow_decreases_F(self, kind, beta):
        # p = 2, F of the log entropy; the heat flow at beta = 1 is the log-Sobolev flow.
        # Measured: F 6.33e-4 -> 1.01e-8 (heat) and 6.21e-3 -> 5.11e-7 (nonlinear)
        cfg = FlowConfig(kind=kind, params=UltraParams(n=3.0, p=2.0, beta=beta), t_end=1.0)
        run = run_heat_flow if kind == "heat" else run_nonlinear_flow
        tr = run(1.0 + 0.3 * plain_nodes(3.0, 32), cfg)
        assert np.all(np.diff(tr.F_values) < 0)
        assert tr.F_values[-1] < 1e-3 * tr.F_values[0]
        assert np.max(np.abs(tr.mass - tr.mass[0])) <= 1e-14

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

    def test_bound_events_follow_record_order_across_blocks(self):
        # 96 fine nodes make blocks of 85 records; the h1 violations last
        # to t ~ 1.9, so they span all three blocks of the 201 records
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=1e-2, t_end=2.0,
                         record_every=1, h0=0.9, h1=1e-3)
        z = plain_nodes(3.0, 48)
        tr = run_heat_flow(1.0 + 0.3 * z, cfg)
        assert tr.times.size == 201
        want = []
        for t, lo, hi, g in zip(tr.times.tolist(), tr.u_min, tr.u_max, tr.grad_max):
            if lo < cfg.h0 - _BOUND_TOL:
                want.append((t, f"u_min {lo:.6g} fell below h0 {cfg.h0:g}"))
            if hi > 1.0 / cfg.h0 + _BOUND_TOL:
                want.append((t, f"u_max {hi:.6g} exceeded 1/h0 {1.0 / cfg.h0:.6g}"))
            if g > cfg.h1 + _BOUND_TOL:
                want.append((t, f"max |u'| {g:.6g} exceeded h1 {cfg.h1:g}"))
        assert tr.bound_events == tuple(want)
        assert all(type(t) is float for t, _ in tr.bound_events)
        steep = [t for t, msg in tr.bound_events if "exceeded h1" in msg]
        assert steep[-1] > tr.times[2 * 85]

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

    @pytest.mark.parametrize("n,p", [(3.0, 3.0), (4.5, 1.0)])
    def test_matches_the_exact_modal_solution(self, n, p):
        # the heat flow is linear in v, so c_k(t) = c_k(0) e^(-k(k+n-1) t)
        # solves it exactly; record that solution on the step grid
        params = UltraParams(n=n, p=p, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, dt=1e-2, t_end=2.0)
        z = plain_nodes(n, 48)
        u0 = 1.0 + 0.3 * z + 0.1 * z**2
        tr = run_heat_flow(u0, cfg)
        basis, c0 = initial_state(u0, tr.params_echo)
        lams = np.array([eigenvalue(n, k) for k in range(c0.size)])
        rec = _Recorder(tr.params_echo, basis, np.eye(c0.size))
        for t in [j * cfg.dt for j in range(0, 200, cfg.record_every)] + [cfg.t_end]:
            rec.record(t, c0 * np.exp(-lams * t))
        exact = rec.finish()
        for name in ("times", "mass", "fisher_beta", "F_values", "u_min", "u_max",
                     "grad_max", "dF_closed"):
            got, want = getattr(tr, name), getattr(exact, name)
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), name

    def test_linear_mode_matches_the_closed_form(self):
        # the README heat run: at p = 1, u = 1 + a e^(-n t) z exactly, so the
        # extremes on the refined nodes and max|u'| = a e^(-n t) are known
        n, a = 3.0, 0.1
        params = UltraParams(n=n, p=1.0, beta=1.0)
        tr = run_heat_flow(1.0 + a * plain_nodes(n, 64), FlowConfig(kind="heat", params=params))
        slope = a * np.exp(-n * tr.times)
        z_max = float(np.max(refined_quadrature(params, 64).nodes))
        assert np.max(np.abs(tr.u_max - (1.0 + slope * z_max))) <= 5e-13
        assert np.max(np.abs(tr.u_min - (1.0 - slope * z_max))) <= 5e-13
        assert np.max(np.abs(tr.grad_max - slope) / slope) <= 2e-9

    def test_trace_arrays_are_read_only(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, t_end=0.1)
        tr = run_heat_flow(np.ones(32) + 0.1 * plain_nodes(3.0, 32), cfg)
        assert not tr.times.flags.writeable
        with pytest.raises(ValueError):
            tr.F_values[0] = 0.0

    def test_repr_names_kind_records_and_gap(self):
        params = UltraParams(n=3.0, p=3.0, beta=1.0)
        cfg = FlowConfig(kind="heat", params=params, t_end=0.1, record_every=25)
        tr = run_heat_flow(np.ones(32) + 0.1 * plain_nodes(3.0, 32), cfg)
        assert repr(tr) == (f"FlowTrace(kind='heat', records=5, t=[0, 0.1], "
                            f"terminal_gap={tr.terminal_gap:.3e})")


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


class TestGalerkinStepper:
    NONLINEAR = UltraParams(n=4.0, p=3.8, beta=1.9048)

    def test_nonlinear_flow_matches_rk4(self):
        params = UltraParams(n=3.0, p=4.0, beta=2.0)
        cfg = FlowConfig(kind="nonlinear", params=params, dt=1e-3, t_end=0.5,
                         record_every=25)
        u0 = 1.0 + 0.3 * plain_nodes(3.0, 48)
        tr = run_nonlinear_flow(u0, cfg)
        ref = rk4_reference(u0, tr)
        np.testing.assert_allclose(tr.F_values, ref.F_values, rtol=1e-10, atol=0)

    def test_regularized_flow_matches_rk4(self):
        params = UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)
        cfg = FlowConfig(kind="regularized", params=params, dt=1e-3, t_end=0.05,
                         record_every=5)
        u0 = 1.0 + 0.1 * build_quadrature(params, 64).nodes
        tr = run_regularized_flow(u0, cfg)
        ref = rk4_reference(u0, tr)
        np.testing.assert_allclose(tr.F_values, ref.F_values, rtol=1e-10, atol=0)

    def test_run_ends_on_t_end_without_a_sliver_step(self):
        # 218 additions of 0.01 fall short of 2.18 by more than 1e-15 relative;
        # at N = 6 the step bound exceeds dt, so dt binds on every step
        cfg = FlowConfig(kind="nonlinear", params=self.NONLINEAR, dt=0.01,
                         t_end=2.18, record_every=1)
        with pytest.warns(AccuracyWarning, match="spectral tail fraction"):  # v0 = u0^7.24 on 6 nodes
            tr = run_nonlinear_flow(1.0 + 0.1 * plain_nodes(4.0, 6), cfg)
        assert tr.times.size == 219
        assert tr.times[-1] == 2.18
        np.testing.assert_allclose(np.diff(tr.times), 0.01, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("kind, params", [
        ("heat", UltraParams(n=3.0, p=3.0, beta=1.0)),
        ("nonlinear", UltraParams(n=2.5, p=5.0, beta=4.0)),
        ("regularized", UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)),
    ])
    def test_every_kind_steps_in_the_basis_on_the_refined_rule(self, monkeypatch, kind, params):
        # the plain kinds use the eps = 0 member of the same family
        cfg = FlowConfig(kind=kind, params=params, t_end=1e-3)
        u0 = 1.0 + 0.1 * build_quadrature(params, 32).nodes
        recorders = []

        class Recorder(_Recorder):
            def __init__(self, *args):
                super().__init__(*args)
                recorders.append(self)

        monkeypatch.setattr(flows, "_Recorder", Recorder)
        flows._run_galerkin(u0, cfg, kind)
        basis = recorders[0].basis
        assert basis is get_regularized_basis(params.n, params.eps, 32)
        assert basis.quad is refined_quadrature(params, 32)
        assert recorders[0].U.shape == (31, 31)

    @pytest.mark.parametrize("kind, params", [
        ("heat", UltraParams(n=3.0, p=3.0, beta=1.0)),
        ("nonlinear", UltraParams(n=2.5, p=5.0, beta=4.0)),
        ("regularized", UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)),
        ("regularized", UltraParams(n=0.300001, p=3.0, beta=2.0, eps=1e-8)),
    ])
    def test_every_kind_steps_on_2N_nodes(self, monkeypatch, kind, params):
        # the stage table is (modes x 2 nodes) of the stepping rule, so (N - 1, 4N)
        # for every kind: the regularized flow steps on the 2N-node Gauss rule of
        # its measure, not on the 572- to 746-node graded rule
        make, tables = flows._galerkin_stage, []

        def spy(rule, V, V1, U, a, m):
            tables.append(np.vstack((V @ U, V1 @ U)).T)
            return make(rule, V, V1, U, a, m)

        monkeypatch.setattr(flows, "_galerkin_stage", spy)
        N = 24
        cfg = FlowConfig(kind=kind, params=params, dt=1e-3, t_end=2e-3)
        _run = {"heat": run_heat_flow, "nonlinear": run_nonlinear_flow,
                "regularized": run_regularized_flow}[kind]
        _run(1.0 + 0.1 * build_quadrature(params, N).nodes, cfg)
        (table,) = tables
        assert table.shape == (N - 1, 4 * N)

    def test_recorder_forms_the_deformation_once_per_run(self, monkeypatch):
        # 335 records in blocks of 8 on 976 refined nodes: one pair, bit for bit
        # the dF/dt of the pair formed per block
        calls = []

        def counted(*args):
            calls.append(args)
            return _deformation(*args)

        params = UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)
        cfg = FlowConfig(kind="regularized", params=params, dt=1e-4, t_end=3e-3, record_every=1)
        u0 = 1.0 + 0.1 * build_quadrature(params, 128).nodes
        monkeypatch.setattr(flows, "_deformation", counted)
        tr = run_regularized_flow(u0, cfg)
        assert len(calls) == 1 and tr.times.size == 31
        basis = get_regularized_basis(2.5, 1e-3, 128)
        rec = _Recorder(tr.params_echo, basis, np.eye(basis.K + 1))
        assert rec.block == 8 and len(calls) == 2
        fine = basis.quad
        dz = _deformation(fine.nodes, fine.rho2, params)
        for got, want in zip(rec.dz, dz):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n, p, beta, a1, a2", [
        (4.0, 3.8, 1.9048, 0.01, 0.05),
        (2.5, 5.0, 4.0, 0.01, 0.05),
        (1.5, 8.0, 8.333, 0.005, 0.02),
    ])
    def test_initial_gradient_is_exact_to_1e_9(self, n, p, beta, a1, a2):
        # the acceptance-08 data: u0' = a1 + 2 a2 z, so max|u0'| on the
        # refined nodes is a1 + 2 a2 z_max exactly
        params = UltraParams(n=n, p=p, beta=beta)
        z = plain_nodes(n, 64)
        u0 = 1.0 + a1 * z + a2 * (z**2 - 1.0 / (n + 1.0))
        cfg = FlowConfig(kind="nonlinear", params=params, dt=1e-3, t_end=1e-3)
        tr = run_nonlinear_flow(u0, cfg)
        want = a1 + 2.0 * a2 * float(np.max(refined_quadrature(params, 64).nodes))
        assert abs(tr.grad_max[0] - want) <= 1e-9 * want

    def test_large_perturbation_shortens_the_step(self):
        # max|v^(m-1) - a| is large enough that the remainder bound, not
        # cfg.dt, sets the step
        cfg = FlowConfig(kind="nonlinear", params=self.NONLINEAR, dt=1e-3,
                         t_end=0.2, record_every=1)
        tr = run_nonlinear_flow(1.0 + 0.4 * plain_nodes(4.0, 48), cfg)
        assert np.min(np.diff(tr.times)) < 0.9 * cfg.dt
        assert tr.times[-1] == 0.2
        gate = 1e-9 * abs(tr.F_values[0])
        assert np.all(np.diff(tr.F_values) <= gate)
        assert np.max(np.abs(tr.mass - tr.mass[0])) < 1e-12

    @pytest.mark.parametrize("params, N, nodes", [
        (UltraParams(n=4.0, p=3.8, beta=1.9048), 64, 128),
        (UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3), 128, 976),
    ])
    def test_stage_matches_the_weak_form(self, params, N, nodes):
        # g = v^(m-1) - a and the remainder U^T(-V1^T diag(rho^2 w) g v'), formed
        # on the 2N-node stepping rule from Q_k and Q_k' evaluated there, at
        # c = U y, U the stepper's eigenbasis of S; the basis and the datum's
        # projection stay on the refined rule of ``nodes`` nodes
        basis = get_regularized_basis(params.n, params.eps, N)
        rule = _stepping_rule(params, N)
        assert basis.quad.nodes.size == nodes and rule.nodes.size == 2 * N
        V0, V1, m = basis.evaluate(rule.nodes), basis.evaluate(rule.nodes, 1), params.m
        fine = basis.quad
        c0 = basis.analyze((1.0 + 0.1 * fine.nodes + 0.05 * fine.nodes**2) ** (params.beta * params.p))
        rho2w = rule.weights * rule.rho2
        U = np.eye(c0.size)
        U[1:, 1:] = np.linalg.eigh((V1.T @ (rho2w[:, None] * V1))[1:, 1:])[1]
        a = (c0[0] * V0[0, 0]) ** (m - 1.0)
        y = U.T @ c0
        g, remainder = flows._galerkin_stage(rule, *basis._tables(rule.nodes, 1), U, a, m)(y, 0.0)
        # c is U y, not c0: V1 lifts c0's rounding in the top modes to 1e-11 of v'
        c = U @ y
        want_g = (V0 @ c) ** (m - 1.0) - a
        want = U.T @ -(V1.T @ (rho2w * want_g * (V1 @ c)))
        # measured: 1.9e-14 on g and 6.5e-15 on the remainder
        assert np.max(np.abs(g - want_g)) <= 1e-13 * np.max(np.abs(want_g))
        assert np.max(np.abs(remainder - want)) <= 1e-13 * np.max(np.abs(want))

    @staticmethod
    def _positivity_error(monkeypatch, cfg, spoil):
        # the stage call numbered ``spoil`` gets -y, whose v is negative on every node
        make = flows._galerkin_stage

        def spoiled(*args):
            stage, calls = make(*args), []

            def wrapped(y, t):
                calls.append(t)
                return stage(-y if len(calls) == spoil else y, t)

            return wrapped

        monkeypatch.setattr(flows, "_galerkin_stage", spoiled)
        run = run_heat_flow if cfg.kind == "heat" else run_nonlinear_flow
        with pytest.raises(PositivityError) as excinfo:
            run(1.0 + 0.1 * plain_nodes(4.0, 32), cfg)
        partial = excinfo.value.partial
        assert partial.times.size == 4
        np.testing.assert_allclose(partial.times, [0.0, 1e-3, 2e-3, 3e-3], rtol=1e-12, atol=0)
        return excinfo.value

    @pytest.mark.parametrize("position", [1, 2, 3, 4])
    def test_every_stage_state_is_checked_for_positivity(self, monkeypatch, position):
        # the stage call at ``position`` of the fourth step (1-3 the inner
        # states, 4 the step's end)
        cfg = FlowConfig(kind="nonlinear", params=self.NONLINEAR, dt=1e-3, t_end=0.01,
                         record_every=1)
        err = self._positivity_error(monkeypatch, cfg, 1 + 4 * 3 + position)
        if position < 4:  # an inner stage fails at its step's start
            assert err.t == err.partial.times[-1]
        else:  # the step's last stage at its end
            assert err.t == pytest.approx(4e-3, rel=1e-12)

    def test_heat_step_end_is_checked_for_positivity(self, monkeypatch):
        # m = 1: the exact step has no inner stages, only the check at its end
        cfg = FlowConfig(kind="heat", params=UltraParams(n=4.0, p=3.0), dt=1e-3, t_end=0.01,
                         record_every=1)
        err = self._positivity_error(monkeypatch, cfg, 1 + 3 + 1)
        assert err.t == pytest.approx(4e-3, rel=1e-12)

    def test_heat_stage_returns_exact_zeros(self):
        # at m = 1, g = v^0 - 1 and the remainder vanish; the stage still
        # rejects a v below the floor
        basis = get_regularized_basis(3.0, 0.0, 32)
        U = np.eye(basis.K + 1)
        c = basis.analyze(1.0 + 0.1 * basis.quad.nodes)
        stage = flows._galerkin_stage(basis.quad, basis.V, basis.V1, U, 1.0, 1.0)
        g, remainder = stage(c, 0.0)
        assert not g.any() and not remainder.any()
        assert g.shape == basis.quad.nodes.shape and remainder.shape == c.shape
        with pytest.raises(PositivityError):
            stage(-c, 0.5)

    def test_buffered_records_do_not_alias_the_stepped_state(self):
        # the recorder holds every y of a block until it flushes, so a step that
        # updated y in place would rewrite the buffered records; the same run at
        # record_every 1 and 3 flushes different blocks at different steps
        params = UltraParams(n=2.5, p=5.0, beta=4.0)
        z = plain_nodes(2.5, 48)
        u0 = 1.0 + 0.08 * z + 0.04 * z**2
        traces = [run_nonlinear_flow(u0, FlowConfig(kind="nonlinear", params=params, dt=1e-3,
                                                    t_end=0.3, record_every=every))
                  for every in (1, 3)]
        every1, every3 = traces
        shared = np.flatnonzero(np.isin(every1.times, every3.times))
        # both runs flush more than one block (8192 // 96 = 85 records)
        assert shared.size == every3.times.size > 8192 // refined_quadrature(params, 48).nodes.size
        for name in ("u_min", "u_max", "grad_max"):
            got, want = getattr(every1, name)[shared], getattr(every3, name)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), name
        F1, F3 = every1.F_values[shared], every3.F_values
        # measured: 4e-16 on grad_max, 0 on the extremes and 3.8e-14 of max|F| on F
        assert np.max(np.abs(F1 - F3)) <= 1e-12 * np.max(np.abs(F3))

    @staticmethod
    def _counted_lyapunov_terms(monkeypatch) -> list:
        """A list that gains an entry per ``flows.lyapunov_terms`` call from now on."""
        calls, wrapped = [], flows.lyapunov_terms

        def counted(*args, **kw):
            calls.append(1)
            return wrapped(*args, **kw)

        monkeypatch.setattr(flows, "lyapunov_terms", counted)
        return calls

    def test_recorder_calls_lyapunov_terms_once_per_record(self, monkeypatch):
        # the benchmark's span reader (bench/spans.py) counts a run's records as its
        # lyapunov_terms calls, so one call per block of records must wait until
        # that reader takes the count from FlowTrace.times
        calls = self._counted_lyapunov_terms(monkeypatch)
        runs = {"heat": (run_heat_flow, UltraParams(n=4.0, p=3.0)),
                "nonlinear": (run_nonlinear_flow, self.NONLINEAR),
                "regularized": (run_regularized_flow, TestRegularizedFlow.PARAMS)}
        for kind, (run, params) in runs.items():
            z = build_quadrature(params, 32).nodes
            for every in (1, 50):
                calls.clear()
                cfg = FlowConfig(kind=kind, params=params, dt=1e-3, t_end=0.12, record_every=every)
                tr = run(1.0 + 0.1 * z, cfg)
                assert len(calls) == tr.times.size > 1, (kind, every)

    def test_partial_trace_calls_lyapunov_terms_once_per_record(self, monkeypatch):
        # the four records before a positivity failure at the fourth step's end
        calls = self._counted_lyapunov_terms(monkeypatch)
        cfg = FlowConfig(kind="nonlinear", params=self.NONLINEAR, dt=1e-3, t_end=0.01,
                         record_every=1)
        err = self._positivity_error(monkeypatch, cfg, 1 + 4 * 3 + 4)
        assert len(calls) == err.partial.times.size == 4

    @pytest.mark.parametrize("kind, run, params", [
        ("heat", run_heat_flow, UltraParams(n=3.0, p=2.005)),
        ("nonlinear", run_nonlinear_flow, UltraParams(n=3.0, p=2.005, beta=1.5)),
    ])
    def test_near_two_warns_once_per_run_at_the_caller(self, kind, run, params):
        # lyapunov_terms warns within 1e-2 of p = 2; a run of 21 records gives
        # that warning once, naming this line, not once per record
        cfg = FlowConfig(kind=kind, params=params, dt=1e-3, t_end=0.02, record_every=1)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            tr = run(1.0 + 0.1 * plain_nodes(3.0, 32), cfg)
        assert tr.times.size == 21
        assert [(w.category, w.filename) for w in record] == [(AccuracyWarning, __file__)]
        assert "within 1e-2 of 2" in str(record[0].message)

    def test_small_n_warns_once_per_run_at_the_caller(self):
        # the 256-node rule of n = 1e-9 lies below gauss_jacobi's threshold, the
        # 128-node sample rule does not; the resample of u0, the basis and the
        # stepping rule each build the 256-node rule, and each used to warn
        params = UltraParams(n=1e-9, p=3.0, beta=2.0)
        cfg = FlowConfig(kind="nonlinear", params=params, dt=1e-3, t_end=0.003)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            u0 = 1.0 + 0.05 * plain_nodes(1e-9, 128)
        for _ in range(2):  # a cold run, then a warm one
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                run_nonlinear_flow(u0, cfg)
            assert [(w.category, w.filename) for w in record] == [(AccuracyWarning, __file__)]
            assert "256-node Gauss rule" in str(record[0].message)

    def test_plain_stage_tables_are_the_basis_tables(self, monkeypatch):
        # at eps = 0 the stepping rule is the basis's refined rule, so a run on a
        # warm key takes V and V1 as its stage tables and makes no _tables pass
        calls, tables = [], OrthoBasis._tables

        def counting_tables(self, z, order):
            calls.append(z.size)
            return tables(self, z, order)

        cfg = FlowConfig(kind="nonlinear", params=UltraParams(n=3.0, p=3.0, beta=2.0), dt=1e-3, t_end=0.003)
        u0 = 1.0 + 0.1 * plain_nodes(3.0, 32)
        warm = run_nonlinear_flow(u0, cfg)
        monkeypatch.setattr(OrthoBasis, "_tables", counting_tables)
        tr = run_nonlinear_flow(u0, cfg)
        assert calls == []
        np.testing.assert_array_equal(tr.F_values, warm.F_values)


class TestEtdrk4Weights:
    @staticmethod
    def reference(z: float, h: float) -> list[float]:
        """E, E2, Q, f1, 2 f2 and f3 at 50 digits."""
        with mpmath.workdps(50):
            z = mpmath.mpf(z)
            p1, p2, p3 = (mpmath.hyp1f1(1, k + 1, z) / mpmath.factorial(k) for k in (1, 2, 3))
            q = mpmath.hyp1f1(1, 2, z / 2) / 2
            vals = [mpmath.exp(z), mpmath.exp(z / 2), h * q, h * (p1 - 3 * p2 + 4 * p3),
                    2 * h * (p2 - 2 * p3), h * (4 * p3 - p2)]
            return [float(v) for v in vals]

    def test_weights_match_mpmath_phi_functions(self):
        # the stepper's z = -a h mu lies in (-inf, 0]; the grid takes z = 0,
        # |z| from 1e-12 to 1e4 and one ulp either side of the series switch
        # at |z| = 2.  Measured worst: 9.8e-15 on f1, whose zero at z = -2.688
        # lies 3.5e-3 from the grid point -2.6915 (no double evaluation keeps
        # f1's relative error at its zero), and 3.8e-16 on the others
        h = 0.37
        z = -np.concatenate(([0.0], np.logspace(-12, 4, 161),
                             [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array(flows._etdrk4_weights(z, h))
        for i, zi in enumerate(z):
            for j, want in enumerate(self.reference(zi, h)):
                assert abs(got[j, i] - want) <= 1e-13 * abs(want), (zi, j)


class TestRegularizedFlow:
    PARAMS = UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)

    def datum(self, N=64):
        q = build_quadrature(self.PARAMS, N)
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
        # h0 = 0.98 min(u_min, 1/u_max), h1 = 1.05 max|u'| + 1e-12, lam = lambda_eps,
        # with u = 1 + 0.1 z and u' = 0.1 on the refined nodes (the datum is linear);
        # rounding in the top modes moves the resampled u' by about 6e-11 relative
        u = 1.0 + 0.1 * refined_quadrature(self.PARAMS, 64).nodes
        assert echo.h0 == pytest.approx(0.98 * min(u.min(), 1.0 / u.max()), rel=1e-12)
        assert echo.h1 == pytest.approx(1.05 * 0.1 + 1e-12, rel=1e-9)
        assert echo.lam == pytest.approx(
            lambda_eps(self.PARAMS, echo.h0, echo.h1), rel=1e-15
        )

    def test_non_finite_h1_is_refused_before_the_run(self):
        # h1 = nan used to pass, give lam = nan, and record F = nan with no bound event
        with pytest.raises(DomainError, match="h1 must be finite"):
            run_regularized_flow(self.datum(), FlowConfig(kind="regularized", params=self.PARAMS, h1=math.nan))

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

    def test_unset_lambda_resolves_as_the_regularized_run(self):
        # lam = None is lambda_eps (2.49991 here), not n, as in the run itself
        params = UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)
        u0 = 1.0 + 0.1 * build_quadrature(params, 64).nodes
        cfg = FlowConfig(kind="regularized", params=params, dt=1e-3, t_end=1e-3)
        want = run_regularized_flow(u0, cfg).dF_closed[0]
        assert dF_dt_closed_form(u0, cfg) == pytest.approx(want, rel=1e-12)


class TestBlockDissipation:
    @pytest.mark.parametrize("key", [(3.0, 4.0, 2.0, 0.0), (2.5, 5.0, 4.0, 1e-3)])
    def test_block_matches_row_by_row(self, key):
        n, p, beta, eps = key
        params = UltraParams(n=n, p=p, beta=beta, eps=eps)
        fine = refined_quadrature(params, 32)
        z = fine.nodes
        a = np.linspace(-0.3, 0.3, 7)[:, None]
        uu = 1.0 + a * z + 0.2 * z**2
        up = a + 0.4 * z
        upp = np.full_like(uu, 0.4)
        dz = _deformation(z, fine.rho2, params)
        if eps > 0:  # both corrections enter
            assert abs(_gamma2_correction(fine, up[0], dz)) > 0
            assert abs(_lgamma_correction(fine, uu[0], up[0], n, dz)) > 0
        got = _dF_value(uu, up, upp, fine, params, 3.0, dz)
        want = np.array([_dF_value(*rows, fine, params, 3.0, dz) for rows in zip(uu, up, upp)])
        assert got.shape == (7,)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestPartialTraceAttachment:
    def make_recorder(self):
        params = UltraParams(n=3.0, p=4.0, beta=2.0)
        cfg = FlowConfig(kind="nonlinear", params=params, lam=3.0)
        basis = get_regularized_basis(3.0, 0.0, 32)
        return cfg, basis, _Recorder(cfg, basis, np.eye(basis.K + 1))

    def test_attaches_the_recorded_prefix(self):
        cfg, basis, rec = self.make_recorder()
        rec.record(0.0, basis.analyze(1.0 + 0.1 * basis.quad.nodes))
        partial = rec.finish()
        assert isinstance(partial, FlowTrace)
        assert partial.times.tolist() == [0.0]
        assert partial.params_echo is cfg
        assert math.isfinite(partial.terminal_gap)

    def test_attaches_records_of_every_block(self):
        _, basis, rec = self.make_recorder()
        times = [0.01 * j for j in range(rec.block + 3)]
        for t in times:
            rec.record(t, basis.analyze(1.0 + 0.1 * (1.0 + t) * basis.quad.nodes))
        assert rec.finish().times.tolist() == times

    def test_nothing_attached_without_records(self):
        _, _, rec = self.make_recorder()
        assert rec.finish() is None
