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
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import ultraflow.flows as flows
from ultraflow.admissibility import lambda_eps
from ultraflow.errors import DomainError, PositivityError
from ultraflow.flows import (
    _BOUND_TOL,
    FlowConfig,
    FlowTrace,
    _attach_partial,
    _dF_value,
    _initial_state,
    _Recorder,
    dF_dt_closed_form,
    find_heat_counterexample,
    run_heat_flow,
    run_nonlinear_flow,
    run_regularized_flow,
)
from ultraflow.identities import _gamma2_correction, _lgamma_correction
from ultraflow.measure import UltraParams, build_quadrature, refined_quadrature
from ultraflow.spectral import eigenvalue, get_regularized_basis


def plain_nodes(n: float, N: int) -> np.ndarray:
    return build_quadrature(UltraParams(n=n), N, kind="plain").nodes


def rk4_reference(u0: np.ndarray, tr: FlowTrace) -> FlowTrace:
    """Explicit RK4 on the weak form of ``tr``'s flow, recorded at ``tr.times``.

    Between records it takes equal steps no longer than
    min(dt, 0.5/lam_top, 2/(lam_top max v^(m-1) max(1, |m|))), the
    explicit method's stability bound.
    """
    cfg = tr.params_echo
    basis, c0, _, _ = _initial_state(u0, cfg)
    fine, V0, V1, D = basis.quad, basis.V, basis.V1, basis.D
    m = cfg.params.m
    rho2w = fine.weights * (1.0 - fine.nodes**2)
    lam_top = np.linalg.eigvalsh(V1.T @ (rho2w[:, None] * V1))[-1]

    def rhs(c):
        return -(V1.T @ (rho2w * (V0 @ c) ** (m - 1.0) * (V1 @ c)))

    rec = _Recorder(cfg, fine, cfg.lam)
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
        rec.record(t, V0 @ c, V1 @ c, V1 @ (D @ c))
    return rec.finish(V0 @ c)


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

    @pytest.mark.parametrize("kind", ["heat", "nonlinear"])
    def test_plain_kinds_reject_eps(self, kind):
        with pytest.raises(DomainError, match="plain measure"):
            FlowConfig(kind=kind, params=self.params(beta=1.0, eps=1e-3))

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

    def test_quadratic_entropy_is_rejected_before_the_first_step(self, monkeypatch):
        def stepped(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(flows, "_etdrk4_weights", stepped)
        params = UltraParams(n=3.0, p=2.0, beta=2.0)
        cfg = FlowConfig(kind="nonlinear", params=params, t_end=1e6)
        with pytest.raises(DomainError, match="p != 2"):
            run_nonlinear_flow(1.0 + 0.1 * plain_nodes(3.0, 32), cfg)

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
        basis, c0, _, _ = _initial_state(u0, tr.params_echo)
        fine, V0, V1, D = basis.quad, basis.V, basis.V1, basis.D
        lams = np.array([eigenvalue(n, k) for k in range(c0.size)])
        rec = _Recorder(tr.params_echo, fine, tr.params_echo.lam)
        for t in [j * cfg.dt for j in range(0, 200, cfg.record_every)] + [cfg.t_end]:
            c = c0 * np.exp(-lams * t)
            rec.record(t, V0 @ c, V1 @ c, V1 @ (D @ c))
        exact = rec.finish(V0 @ c)
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
        tr = run_nonlinear_flow(1.0 + 0.1 * plain_nodes(4.0, 6), cfg)
        assert tr.times.size == 219
        assert tr.times[-1] == 2.18
        np.testing.assert_allclose(np.diff(tr.times), 0.01, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("kind, params", [
        ("heat", UltraParams(n=3.0, p=3.0, beta=1.0)),
        ("nonlinear", UltraParams(n=2.5, p=5.0, beta=4.0)),
        ("regularized", UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)),
    ])
    def test_every_kind_steps_in_the_basis_on_the_refined_rule(self, kind, params):
        # the plain kinds use the eps = 0 member of the same family
        cfg = FlowConfig(kind=kind, params=params)
        u0 = 1.0 + 0.1 * build_quadrature(params, 32).nodes
        basis, c0, _, _ = _initial_state(u0, cfg)
        assert basis is get_regularized_basis(params.n, params.eps, 32)
        assert basis.quad is refined_quadrature(params, 32)
        assert c0.shape == (31,)

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
        # h0 = 0.98 min(u_min, 1/u_max), h1 = 1.05 max|u'| + 1e-12, lam = lambda_eps,
        # with u = 1 + 0.1 z and u' = 0.1 on the refined nodes (the datum is linear);
        # rounding in the top modes moves the resampled u' by about 6e-11 relative
        u = 1.0 + 0.1 * refined_quadrature(self.PARAMS, 64).nodes
        assert echo.h0 == pytest.approx(0.98 * min(u.min(), 1.0 / u.max()), rel=1e-12)
        assert echo.h1 == pytest.approx(1.05 * 0.1 + 1e-12, rel=1e-9)
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
        if eps > 0:  # both corrections enter
            assert abs(_gamma2_correction(fine, up[0], params)) > 0
            assert abs(_lgamma_correction(fine, uu[0], up[0], params)) > 0
        got = _dF_value(uu, up, upp, fine, params, 3.0)
        want = np.array([_dF_value(*rows, fine, params, 3.0) for rows in zip(uu, up, upp)])
        assert got.shape == (7,)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestPartialTraceAttachment:
    def make_recorder(self):
        params = UltraParams(n=3.0, p=4.0, beta=2.0)
        cfg = FlowConfig(kind="nonlinear", params=params, lam=3.0)
        fine = refined_quadrature(params, 32)
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

    def test_attaches_records_of_every_block(self):
        cfg, fine, rec = self.make_recorder()
        times = [0.01 * j for j in range(rec.block + 3)]
        for t in times:
            vv = 1.0 + 0.1 * (1.0 + t) * fine.nodes
            rec.record(t, vv, 0.1 * (1.0 + t) * np.ones_like(vv), np.zeros_like(vv))
        err = PositivityError(times[-1], "test")
        _attach_partial(err, rec)
        assert err.partial.times.tolist() == times

    def test_nothing_attached_without_records(self):
        _, _, rec = self.make_recorder()
        err = PositivityError(0.0, "test")
        _attach_partial(err, rec)
        assert err.partial is None
