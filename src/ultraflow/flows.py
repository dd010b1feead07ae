"""Diffusion flows driving the entropy functionals to equilibrium.

Three evolutions share one state representation, the coefficient vector
of v = u^(beta p) in the orthonormal basis of the working measure:

* heat: beta = 1, v = u^p solves dv/dt = L v and is integrated exactly,
  mode by mode, through the eigenvalue decay e^(-k(k+n-1) t);
* nonlinear: v solves dv/dt = (1/m) L v^m with m = 1 + (2/p)(1/beta - 1),
  stepped by an explicit fourth-order method on the weak (Galerkin) form;
* regularized: the same v-equation for the eps-operator and eps-measure,
  for non-integer n with d = ceil(n).

The weak form d/dt c_j = -int Q_j' (v^m)' rho^2 dnu / m has an exactly
zero right-hand side in row 0, so the mass int v dnu = c_0 never moves:
conservation is structural, not a property of the stepper.  All moment
integrals run on the refined companion rule of the measure.

A run records, at every ``record_every``-th step, the mass, the
beta-Dirichlet energy, the Lyapunov functional F, extremal values of u
and u', the closed-form instantaneous dF/dt, and any violation of the
entered h0/h1 bounds; positivity loss aborts with the failure time.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .admissibility import lambda_eps
from .errors import DomainError, PositivityError
from .functionals import lyapunov_terms
from .measure import Quadrature, UltraParams, build_quadrature, refined_quadrature
from .spectral import (
    GridFn,
    eigenvalue,
    get_basis,
    get_regularized_basis,
    interpolation_basis,
    resample,
)

_KINDS = ("heat", "nonlinear", "regularized")
_POSITIVITY_FLOOR = 1e-12
_BOUND_TOL = 1e-8


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of one flow run.

    ``lam`` is the constant in F; None selects n for the heat and
    nonlinear kinds and the adjusted eps-constant for the regularized
    kind.  ``h0``/``h1`` enter the bound monitor (h0 < u < 1/h0,
    |u'| <= h1); for the regularized kind they are required implicitly
    and are derived from the initial datum when not given.
    """

    kind: str
    params: UltraParams
    dt: float = 1e-3
    t_end: float = 1.0
    record_every: int = 8
    lam: float | None = None
    h0: float | None = None
    h1: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise DomainError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        if self.record_every < 1:
            raise DomainError(f"record_every must be >= 1, got {self.record_every}")
        p = self.params
        if self.kind == "heat":
            if p.beta != 1.0:
                raise DomainError("the heat flow runs at beta = 1; use the nonlinear kind otherwise")
        else:
            m = p.m
            if m == 0:
                raise DomainError("diffusion exponent m = 0 is degenerate")
            if abs((p.n + 2.0) * m - p.n) < 1e-12:
                raise DomainError(
                    "beta sits on the excluded value (n+2)m = n of the exponent relation"
                )
        if self.kind == "regularized":
            if p.eps <= 0:
                raise DomainError("the regularized flow needs eps > 0")
            if p.n >= p.d:
                raise DomainError("the regularized flow needs non-integer n (n < ceil(n))")
        if self.h0 is not None and not 0 < self.h0 < 1:
            raise DomainError(f"h0 must lie in (0, 1), got {self.h0}")
        if self.h1 is not None and self.h1 <= 0:
            raise DomainError(f"h1 must be positive, got {self.h1}")

    @property
    def alpha(self) -> float:
        """Scaling constant 2/((n+2)m - n) of the gradient-bound argument."""
        p = self.params
        return 2.0 / ((p.n + 2.0) * p.m - p.n)


@dataclass(frozen=True)
class FlowTrace:
    """Recorded diagnostics of one run; arrays are aligned with ``times``."""

    times: np.ndarray
    mass: np.ndarray
    fisher_beta: np.ndarray
    F_values: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    grad_max: np.ndarray
    dF_closed: np.ndarray
    bound_events: tuple[tuple[float, str], ...]
    terminal_gap: float
    params_echo: FlowConfig

    def __post_init__(self):
        for name in ("times", "mass", "fisher_beta", "F_values", "u_min", "u_max",
                     "grad_max", "dF_closed"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __repr__(self):
        return (
            f"FlowTrace(kind={self.params_echo.kind!r}, records={self.times.size}, "
            f"t=[0, {self.times[-1]:g}], terminal_gap={self.terminal_gap:.3e})"
        )


def _dF_value(
    uu: np.ndarray,
    up: np.ndarray,
    upp: np.ndarray,
    fine: Quadrature,
    params: UltraParams,
    lam: float,
) -> float:
    """Closed form of (dF/dt) / (2 beta^2) as a functional of the state.

    With kappa = beta(p-2)+1 and gamma = (kappa+beta-1)/(n+2):

        (lam - n) int rho^2 u'^2
        - int [u''^2 - 2 (n-1) gamma u'' u'^2/u + c u'^4/u^2] rho^4
        - eps(n-d) (2 gamma int u'^3 rho^2 z / ((1+eps-z^2) u)
                    - int u'^2 (1+eps+z^2) rho^2 / (1+eps-z^2)^2)

    where c = kappa(beta-1) + n(kappa+beta-1)/(n+2); the bracket is the
    admissibility quadratic form, so the middle term has a sign whenever
    delta(beta) <= 0.  Valid as a time derivative along the matching flow.
    """
    n, eps, d = params.n, params.eps, params.d
    beta, kappa = params.beta, params.kappa
    z = fine.nodes
    rho2 = 1.0 - z**2
    s = kappa + beta - 1.0
    gamma = s / (n + 2.0)
    c = kappa * (beta - 1.0) + n * gamma
    val = (lam - n) * fine.integrate(rho2 * up**2)
    val -= fine.integrate((upp**2 - 2.0 * (n - 1.0) * gamma * upp * up**2 / uu + c * up**4 / uu**2) * rho2**2)
    if eps > 0 and n != d:
        zeta = 1.0 + eps - z**2
        val -= eps * (n - d) * (
            2.0 * gamma * fine.integrate(up**3 * rho2 * z / (zeta * uu))
            - fine.integrate(up**2 * (1.0 + eps + z**2) * rho2 / zeta**2)
        )
    return float(val)


def dF_dt_closed_form(u: GridFn, cfg: FlowConfig) -> float:
    """Instantaneous (dF/dt) / (2 beta^2) for the flow of ``cfg`` at state u.

    ``u`` is a GridFn on the rule of cfg.params; lam defaults to n when
    the config leaves it unset.
    """
    params = cfg.params
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise DomainError("dF_dt_closed_form requires a strictly positive state")
    fine, _, _, uu, up, upp = resample(u, params, len(u))
    if np.any(uu <= 0):
        raise DomainError("resampled state loses positivity; refine the grid")
    lam = cfg.lam if cfg.lam is not None else params.n
    return _dF_value(uu, up, upp, fine, params, lam)


class _Recorder:
    """Accumulates per-time diagnostics from the v-state on the fine rule."""

    def __init__(self, cfg: FlowConfig, fine: Quadrature, lam: float):
        self.cfg = cfg
        self.fine = fine
        self.lam = lam
        self.rows: list[tuple] = []
        self.events: list[tuple[float, str]] = []
        self.last_vv: np.ndarray | None = None

    def record(self, t: float, vv: np.ndarray, vp: np.ndarray, vpp: np.ndarray) -> None:
        cfg, params = self.cfg, self.cfg.params
        self.last_vv = vv
        r = 1.0 / (params.beta * params.p)
        uu = vv**r
        up = r * vv ** (r - 1.0) * vp
        upp = r * (r - 1.0) * vv ** (r - 2.0) * vp**2 + r * vv ** (r - 1.0) * vpp
        F, mass, fb = lyapunov_terms(uu, up, self.fine, params, self.lam)
        gmax = float(np.max(np.abs(up)))
        umin, umax = float(np.min(uu)), float(np.max(uu))
        self.rows.append((t, mass, fb, F, umin, umax, gmax,
                          _dF_value(uu, up, upp, self.fine, params, self.lam)))
        if cfg.h0 is not None:
            if umin < cfg.h0 - _BOUND_TOL:
                self.events.append((t, f"u_min {umin:.6g} fell below h0 {cfg.h0:g}"))
            if umax > 1.0 / cfg.h0 + _BOUND_TOL:
                self.events.append((t, f"u_max {umax:.6g} exceeded 1/h0 {1.0 / cfg.h0:.6g}"))
        if cfg.h1 is not None and gmax > cfg.h1 + _BOUND_TOL:
            self.events.append((t, f"max |u'| {gmax:.6g} exceeded h1 {cfg.h1:g}"))

    def finish(self, vv_end: np.ndarray) -> FlowTrace:
        params = self.cfg.params
        cols = list(zip(*self.rows))
        mass_end = self.rows[-1][1]
        const = mass_end ** (1.0 / (params.beta * params.p))
        gap = float(np.max(np.abs(vv_end ** (1.0 / (params.beta * params.p)) - const)))
        return FlowTrace(
            times=np.array(cols[0]),
            mass=np.array(cols[1]),
            fisher_beta=np.array(cols[2]),
            F_values=np.array(cols[3]),
            u_min=np.array(cols[4]),
            u_max=np.array(cols[5]),
            grad_max=np.array(cols[6]),
            dF_closed=np.array(cols[7]),
            bound_events=tuple(self.events),
            terminal_gap=gap,
            params_echo=self.cfg,
        )


def _initial_state(u0: GridFn, cfg: FlowConfig):
    """Project v0 = u0^(beta p) into the working basis; return run plumbing."""
    params = cfg.params
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 <= 0):
        raise DomainError("initial datum must be strictly positive")
    kind = "regularized" if cfg.kind == "regularized" else "plain"
    q = build_quadrature(params, len(u0), kind=kind)
    if cfg.kind == "regularized":
        # the working basis lives directly on the eps-refined rule
        basis = get_regularized_basis(params.n, params.eps, len(u0))
        fine = basis.quad
        V0, V1 = basis.V, basis.V1
    else:
        basis = get_basis(params.n, len(u0))
        fine = refined_quadrature(params, len(u0), kind="plain")
        V0 = basis.evaluate(fine.nodes, order=0)
        V1 = basis.evaluate(fine.nodes, order=1)
    sample_basis = interpolation_basis(q)
    c_u = sample_basis.analyze(u0)
    u0_fine = sample_basis.synthesize(c_u, fine.nodes)
    if np.any(u0_fine <= 0):
        raise DomainError("initial datum loses positivity under resampling")
    v0_fine = u0_fine ** (params.beta * params.p)
    if cfg.kind == "regularized":
        c0 = basis.analyze(v0_fine)
    else:
        c0 = V0.T @ (fine.weights * v0_fine)
    up0 = sample_basis.derivative_values(c_u, fine.nodes)
    return q, fine, basis, V0, V1, c0, u0_fine, up0


def _resolve_bounds_and_lambda(cfg: FlowConfig, u0_fine, up0_fine) -> FlowConfig:
    """Fill in h0/h1/lam defaults from the initial datum where needed."""
    params = cfg.params
    h0, h1, lam = cfg.h0, cfg.h1, cfg.lam
    if cfg.kind == "regularized":
        if h0 is None:
            h0 = 0.98 * min(float(np.min(u0_fine)), 1.0 / float(np.max(u0_fine)))
        if h1 is None:
            h1 = 1.05 * float(np.max(np.abs(up0_fine))) + 1e-12
        if lam is None:
            lam = lambda_eps(params, h0, h1)
    elif lam is None:
        lam = params.n
    return dataclasses.replace(cfg, h0=h0, h1=h1, lam=lam)


def _attach_partial(err: PositivityError, rec: _Recorder) -> None:
    """Hang the trace-so-far on a positivity failure, if anything was recorded."""
    if rec.rows and rec.last_vv is not None:
        err.partial = rec.finish(rec.last_vv)


def run_heat_flow(u0: GridFn, cfg: FlowConfig) -> FlowTrace:
    """Exact spectral integration of the heat flow (v = u^p linear)."""
    if cfg.kind != "heat":
        raise DomainError(f"run_heat_flow needs kind='heat', got {cfg.kind!r}")
    params = cfg.params
    q, fine, basis, V0, V1, c0, u0_fine, up0 = _initial_state(u0, cfg)
    cfg = _resolve_bounds_and_lambda(cfg, u0_fine, up0)
    lams = np.array([eigenvalue(params.n, k) for k in range(c0.size)])
    D = basis.D
    rec = _Recorder(cfg, fine, cfg.lam)

    def state_at(t: float):
        c = c0 * np.exp(-lams * t)
        vv = V0 @ c
        if np.min(vv) <= _POSITIVITY_FLOOR:
            raise PositivityError(t, "v reached the positivity floor")
        vp = V1 @ c
        vpp = V1 @ (D[: c.size, : c.size] @ c)
        return vv, vp, vpp

    n_steps = max(1, math.ceil(cfg.t_end / cfg.dt))
    times = [j * cfg.dt for j in range(0, n_steps + 1, cfg.record_every)]
    if times[-1] < cfg.t_end:
        times.append(cfg.t_end)
    else:
        times[-1] = cfg.t_end
    vv = None
    try:
        for t in times:
            vv, vp, vpp = state_at(t)
            rec.record(t, vv, vp, vpp)
    except PositivityError as err:
        _attach_partial(err, rec)
        raise
    return rec.finish(vv)


def _run_galerkin(u0: GridFn, cfg: FlowConfig) -> FlowTrace:
    params = cfg.params
    q, fine, basis, V0, V1, c0, u0_fine, up0 = _initial_state(u0, cfg)
    cfg = _resolve_bounds_and_lambda(cfg, u0_fine, up0)
    m = params.m
    rho2w = fine.weights * (1.0 - fine.nodes**2)
    D = basis.D[: c0.size, : c0.size]
    # top eigenvalue of the Dirichlet stiffness matrix, for step control
    S = V1.T @ (rho2w[:, None] * V1)
    lam_top = float(np.linalg.eigvalsh(S)[-1])
    rec = _Recorder(cfg, fine, cfg.lam)

    t_now = 0.0

    def rhs(c: np.ndarray) -> np.ndarray:
        # d/dt c_j = -(1/m) int Q_j' (v^m)' rho^2 dnu; the chain rule's
        # factor m cancels the 1/m, and row 0 vanishes identically.
        vv = V0 @ c
        if np.min(vv) <= _POSITIVITY_FLOOR:
            raise PositivityError(t_now, "v reached the positivity floor")
        vp = V1 @ c
        return -(V1.T @ (rho2w * vv ** (m - 1.0) * vp))

    def record_state(t: float, c: np.ndarray) -> np.ndarray:
        vv = V0 @ c
        if np.min(vv) <= _POSITIVITY_FLOOR:
            raise PositivityError(t, "v reached the positivity floor")
        rec.record(t, vv, V1 @ c, V1 @ (D @ c))
        return vv

    c = c0.copy()
    try:
        vv = record_state(0.0, c)
        step = 0
        while t_now < cfg.t_end - 1e-15 * cfg.t_end:
            vpow = float(np.max(vv ** (m - 1.0))) if m != 1.0 else 1.0
            dt = min(
                cfg.dt,
                0.5 / lam_top,
                2.0 / (lam_top * vpow * max(1.0, abs(m))),
                cfg.t_end - t_now,
            )
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * dt * k1)
            k3 = rhs(c + 0.5 * dt * k2)
            k4 = rhs(c + dt * k3)
            c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_now += dt
            step += 1
            vv = V0 @ c
            if np.min(vv) <= _POSITIVITY_FLOOR:
                raise PositivityError(t_now, "v reached the positivity floor")
            if step % cfg.record_every == 0 or t_now >= cfg.t_end - 1e-15 * cfg.t_end:
                vv = record_state(t_now, c)
    except PositivityError as err:
        _attach_partial(err, rec)
        raise
    return rec.finish(vv)


def run_nonlinear_flow(u0: GridFn, cfg: FlowConfig) -> FlowTrace:
    """Weak-form integration of the nonlinear flow on the plain measure."""
    if cfg.kind != "nonlinear":
        raise DomainError(f"run_nonlinear_flow needs kind='nonlinear', got {cfg.kind!r}")
    return _run_galerkin(u0, cfg)


def run_regularized_flow(u0: GridFn, cfg: FlowConfig) -> FlowTrace:
    """Weak-form integration of the eps-flow, with bound monitoring."""
    if cfg.kind != "regularized":
        raise DomainError(
            f"run_regularized_flow needs kind='regularized', got {cfg.kind!r}"
        )
    return _run_galerkin(u0, cfg)


def find_heat_counterexample(
    n: float,
    p: float,
    N: int = 64,
    tol: float = 1e-8,
) -> tuple[GridFn, float]:
    """Search for a positive state with dF/dt > 0 under the heat flow.

    Above the sharp exponent (2n^2+1)/(n-1)^2 the heat-flow dissipation
    loses its sign; this scans low-degree perturbations of the constant
    state and, failing that, profiles (1 + s z)^g whose g is tuned to make
    the dissipation form pointwise negative.  Returns the winning GridFn
    (on the plain N-rule) and its dF/dt value.
    """
    params = UltraParams(n=n, p=p, beta=1.0)
    cfg = FlowConfig(kind="heat", params=params, dt=1e-3, t_end=1.0)
    z = build_quadrature(params, N, kind="plain").nodes
    best: tuple[float, np.ndarray] | None = None

    def consider(u: np.ndarray) -> None:
        nonlocal best
        if np.min(u) <= 1e-9:
            return
        val = dF_dt_closed_form(u, cfg)
        if best is None or val > best[0]:
            best = (val, u)

    for a in np.linspace(-0.8, 0.8, 9):
        for b in np.linspace(-0.6, 0.6, 7):
            consider(1.0 + a * z + b * z**2)
    if best is None or best[0] <= tol:
        bexp = (n - 1.0) * (p - 1.0) / (n + 2.0)
        if bexp != 1.0:
            g = 1.0 / (1.0 - bexp)
            for s in np.linspace(0.05, 0.85, 17):
                consider((1.0 + s * z) ** g)
                consider((1.0 - s * z) ** g)
    if best is None or best[0] <= tol:
        raise DomainError(
            f"no positive-derivative state found at (n, p) = ({n}, {p}); "
            "below the sharp exponent none exists"
        )
    return best[1], best[0]
