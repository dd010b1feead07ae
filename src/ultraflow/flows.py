"""Diffusion flows driving the entropy functionals to equilibrium.

Three evolutions share one state representation, the coefficient vector
of v = u^(beta p) in the orthonormal basis of the working measure:

* heat: beta = 1, v = u^p solves dv/dt = L v; the m = 1 case of the
  same stepper; the remainder vanishes, so each step is the exact
  exponential;
* nonlinear: v solves dv/dt = (1/m) L v^m with m = 1 + (2/p)(1/beta - 1),
  stepped by exponential time differencing on the weak (Galerkin) form;
* regularized: the same v-equation for the eps-operator and eps-measure,
  for non-integer n with d = ceil(n).

The weak form d/dt c_j = -int Q_j' (v^m)' rho^2 dnu / m has an exactly
zero right-hand side in row 0, so the mass int v dnu = c_0 never moves:
conservation is structural, not a property of the stepper.  The basis is
built on the measure's refined rule; the plain measure is the eps = 0 case.

Stepping: the weak form is -a S c + N(c), with S the stiffness matrix
int Q_j' Q_k' rho^2 dnu and a = vbar^(m-1) at the equilibrium vbar.  ETDRK4
(Cox & Matthews 2002) solves the linear part exactly in the eigenbasis of
S.  The step is ``cfg.dt`` unless the remainder's stiffness, lam_top
max|v^(m-1) - a| max(1, |m|) with lam_top the top eigenvalue of S, needs
dt <= 2 / that; the last step lands on t_end.  Where that stiffness is 0
(at m = 1 always) the remainder vanishes and the step is y = e^(-a h S) y.

A run records, at every ``record_every``-th step, the mass, the
beta-Dirichlet energy, the Lyapunov functional F, extremal values of u
and u', the closed-form instantaneous dF/dt, and any violation of the
entered h0/h1 bounds; positivity loss aborts with the failure time.
Recording only buffers the state: the diagnostics are evaluated a block
of records at a time, as (records, nodes) arrays, and bound violations
are reported in record order.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .admissibility import _qform, lambda_eps
from .errors import DomainError, PositivityError
from .functionals import lyapunov_terms
from .identities import _gamma2_correction, _lgamma_correction
from .measure import Quadrature, UltraParams, build_quadrature
from .spectral import GridFn, _resample_positive, get_regularized_basis

_KINDS = ("heat", "nonlinear", "regularized")
_POSITIVITY_FLOOR = 1e-12
_BOUND_TOL = 1e-8
_SNAP = 1e-6  # a remainder to t_end below this fraction of dt joins the last step
_CONTOUR = np.exp(1j * np.pi * (np.arange(1, 33) - 0.5) / 32)


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of one flow run.

    ``dt`` is the largest time step (see the module docstring).  The heat
    and nonlinear kinds run on the plain measure and need eps = 0.  ``lam``
    is the constant in F; None selects n for the heat and nonlinear kinds
    and the adjusted eps-constant for the regularized kind.  ``h0``/``h1``
    enter the bound monitor (h0 < u < 1/h0, |u'| <= h1); for the
    regularized kind they are required implicitly and are derived from the
    initial datum when not given.
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
        if self.kind != "regularized" and p.eps != 0:
            raise DomainError(f"the {self.kind} flow runs on the plain measure; eps must be 0")
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
) -> float | np.ndarray:
    """Closed form of (dF/dt) / (2 beta^2) as a functional of the state.

    With kappa = beta(p-2)+1 it reads

        (lam - n) int rho^2 u'^2 - int q[u] rho^4 - C_Gamma2 - (kappa+beta-1) C_LGamma,

    where q[u] is the admissibility quadratic form at this beta, so the
    middle term has a sign whenever delta(beta) <= 0, and C_Gamma2 and
    C_LGamma are the eps corrections that the Gamma2 and L-Gamma
    identities add to their right-hand sides (0 on the plain measure).
    Valid as a time derivative along the matching flow.  Leading axes of
    (uu, up, upp) are records, with one value per row.
    """
    z = fine.nodes
    rho2 = 1.0 - z**2
    val = (lam - params.n) * fine.integrate(rho2 * up**2)
    val -= fine.integrate(_qform(uu, up, upp, params.beta, params) * rho2**2)
    val -= _gamma2_correction(fine, up, params)
    val -= (params.kappa + params.beta - 1.0) * _lgamma_correction(fine, uu, up, params)
    return val


def dF_dt_closed_form(u: GridFn, cfg: FlowConfig) -> float:
    """Instantaneous (dF/dt) / (2 beta^2) for the flow of ``cfg`` at state u.

    ``u`` is a GridFn on the rule of cfg.params; lam defaults to n when
    the config leaves it unset.
    """
    params = cfg.params
    fine, _, _, uu, up, upp = _resample_positive(u, params, len(u), "the state")
    lam = cfg.lam if cfg.lam is not None else params.n
    return float(_dF_value(uu, up, upp, fine, params, lam))


class _Recorder:
    """Accumulates per-time diagnostics from the v-state on the fine rule.

    ``record`` buffers (t, v, v', v''); ``flush`` evaluates the buffer as one
    (records, nodes) block every ``block`` records and in ``finish``.
    """

    def __init__(self, cfg: FlowConfig, fine: Quadrature, lam: float):
        self.cfg = cfg
        self.fine = fine
        self.lam = lam
        self.block = max(1, 8192 // fine.nodes.size)
        self.pending: list[tuple] = []
        self.columns: list[np.ndarray] = []  # per block, FlowTrace's 8 arrays as rows
        self.events: list[tuple[float, str]] = []
        self.last_vv: np.ndarray | None = None

    def record(self, t: float, vv: np.ndarray, vp: np.ndarray, vpp: np.ndarray) -> None:
        self.last_vv = vv
        self.pending.append((t, vv, vp, vpp))
        if len(self.pending) == self.block:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        cfg, params = self.cfg, self.cfg.params
        t, vv, vp, vpp = (np.array(col) for col in zip(*self.pending))
        self.pending = []
        r = 1.0 / (params.beta * params.p)
        uu = vv**r
        up = r * vv ** (r - 1.0) * vp
        upp = r * (r - 1.0) * vv ** (r - 2.0) * vp**2 + r * vv ** (r - 1.0) * vpp
        F, mass, fb = np.array([lyapunov_terms(u, g, self.fine, params, self.lam)
                                for u, g in zip(uu, up)]).T
        umin, umax, gmax = uu.min(axis=1), uu.max(axis=1), np.abs(up).max(axis=1)
        dF = _dF_value(uu, up, upp, self.fine, params, self.lam)
        self.columns.append(np.array([t, mass, fb, F, umin, umax, gmax, dF]))
        low = high = steep = np.zeros(t.size, dtype=bool)
        if cfg.h0 is not None:
            low, high = umin < cfg.h0 - _BOUND_TOL, umax > 1.0 / cfg.h0 + _BOUND_TOL
        if cfg.h1 is not None:
            steep = gmax > cfg.h1 + _BOUND_TOL
        for i in np.flatnonzero(low | high | steep):
            ti = float(t[i])
            if low[i]:
                self.events.append((ti, f"u_min {umin[i]:.6g} fell below h0 {cfg.h0:g}"))
            if high[i]:
                self.events.append((ti, f"u_max {umax[i]:.6g} exceeded 1/h0 {1.0 / cfg.h0:.6g}"))
            if steep[i]:
                self.events.append((ti, f"max |u'| {gmax[i]:.6g} exceeded h1 {cfg.h1:g}"))

    def finish(self, vv_end: np.ndarray) -> FlowTrace:
        self.flush()
        r = 1.0 / (self.cfg.params.beta * self.cfg.params.p)
        cols = np.concatenate(self.columns, axis=1)
        gap = float(np.max(np.abs(vv_end**r - float(cols[1, -1]) ** r)))
        return FlowTrace(*cols, bound_events=tuple(self.events), terminal_gap=gap,
                         params_echo=self.cfg)


def _initial_state(u0: GridFn, cfg: FlowConfig):
    """Project v0 = u0^(beta p) into the working basis; return run plumbing."""
    params = cfg.params
    _, _, _, u0_fine, up0, _ = _resample_positive(u0, params, len(u0), "the initial datum")
    basis = get_regularized_basis(params.n, params.eps, len(u0))
    v0_fine = u0_fine ** (params.beta * params.p)
    c0 = basis.analyze(v0_fine)
    return basis, c0, u0_fine, up0


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
    if rec.last_vv is not None:
        err.partial = rec.finish(rec.last_vv)


def run_heat_flow(u0: GridFn, cfg: FlowConfig) -> FlowTrace:
    """The heat flow (v = u^p linear): the m = 1 case of the Galerkin stepper."""
    if cfg.kind != "heat":
        raise DomainError(f"run_heat_flow needs kind='heat', got {cfg.kind!r}")
    return _run_galerkin(u0, cfg)


def _etdrk4_weights(hL: np.ndarray, h: float):
    """e^(hL), e^(hL/2) and the ETDRK4 weights Q, f1, f2, f3 for the diagonal hL.

    Each phi-function is its mean on the unit circle about hL (Kassam &
    Trefethen 2005), which avoids the cancellation of the closed forms near
    hL = 0; the points are the upper half circle, real parts the lower.
    """
    r = hL[:, None] + _CONTOUR
    er = np.exp(r)
    Q = h * np.mean((np.exp(r / 2.0) - 1.0) / r, axis=1).real
    f1 = h * np.mean((-4.0 - r + er * (4.0 - 3.0 * r + r**2)) / r**3, axis=1).real
    f2 = h * np.mean((2.0 + r + er * (r - 2.0)) / r**3, axis=1).real
    f3 = h * np.mean((-4.0 - 3.0 * r - r**2 + er * (4.0 - r)) / r**3, axis=1).real
    return np.exp(hL), np.exp(hL / 2.0), Q, f1, f2, f3


def _run_galerkin(u0: GridFn, cfg: FlowConfig) -> FlowTrace:
    params = cfg.params
    if params.p == 2:  # lyapunov_terms would raise it only at the first flush
        raise DomainError("the Lyapunov functional needs p != 2")
    basis, c0, u0_fine, up0 = _initial_state(u0, cfg)
    cfg = _resolve_bounds_and_lambda(cfg, u0_fine, up0)
    fine, V0, V1, m = basis.quad, basis.V, basis.V1, params.m
    rho2w = fine.weights * (1.0 - fine.nodes**2)
    # Q_0' = 0 zeroes row and column 0 of S; keeping mode 0 out of eigh
    # leaves y[0] = c[0], the mass, exactly fixed.
    S = V1.T @ (rho2w[:, None] * V1)
    mu, U = np.zeros(c0.size), np.eye(c0.size)
    mu[1:], U[1:, 1:] = np.linalg.eigh(S[1:, 1:])
    lam_top = float(mu[-1])
    a = (c0[0] * V0[0, 0]) ** (m - 1.0)
    W0, W1, W2 = V0 @ U, V1 @ U, V1 @ (basis.D @ U)
    rec = _Recorder(cfg, fine, cfg.lam)
    t_now, h, step, y = 0.0, None, 0, U.T @ c0

    def state(y: np.ndarray):
        vv = W0 @ y
        if vv.min() <= _POSITIVITY_FLOOR:
            raise PositivityError(t_now, "v reached the positivity floor")
        return vv, vv ** (m - 1.0) - a

    def remainder(y: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
        # the weak form's -V1^T(rho^2 w v^(m-1) v') (the chain rule's m
        # cancels the 1/m) less its linear part -a S c, in the eigenbasis
        g = state(y)[1] if g is None else g
        return -(W1.T @ (rho2w * g * (W1 @ y)))

    try:
        vv, g = state(y)
        rec.record(0.0, vv, W1 @ y, W2 @ y)
        while t_now < cfg.t_end:
            stiff = lam_top * float(np.abs(g).max()) * max(1.0, abs(m))
            dt = min(cfg.dt, 2.0 / stiff) if stiff > 0 else cfg.dt
            last = cfg.t_end - t_now <= dt * (1.0 + _SNAP)
            dt = cfg.t_end - t_now if last else dt
            if dt != h:
                h, (E, E2, Q, f1, f2, f3) = dt, _etdrk4_weights(-a * dt * mu, dt)
            if stiff == 0:  # v^(m-1) = a on the nodes (m = 1: the heat flow)
                y = E * y
            else:
                Nu = remainder(y, g)
                ya = E2 * y + Q * Nu
                Na = remainder(ya)
                yb = E2 * y + Q * Na
                Nb = remainder(yb)
                yc = E2 * ya + Q * (2.0 * Nb - Nu)
                y = E * y + f1 * Nu + 2.0 * f2 * (Na + Nb) + f3 * remainder(yc)
            t_now = cfg.t_end if last else t_now + dt
            step += 1
            vv, g = state(y)
            if step % cfg.record_every == 0 or last:
                rec.record(t_now, vv, W1 @ y, W2 @ y)
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
