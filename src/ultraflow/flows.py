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

Stepping: every kind steps on the 2N-node Gauss rule of its measure,
good to degree 4N-1 (``measure._stepping_rule``): the refined rule itself
for eps = 0, and for the regularized measure its own Gauss rule, built once
per (n, eps, N) from the graded rule.  Where eps = 0 or n = d that rule is
the basis's own, so the stage tables are its V and V1; otherwise
``OrthoBasis._tables_at`` evaluates Q_k and Q_k' at its nodes once per run,
in the pass that builds a cold basis.  So a stage costs the same 2N nodes for
every kind, not the graded rule's 572 to 746 at N = 64; the stiffness
matrix, the stage tables, the positivity floor and the stiffness bound all
live on it.  The projection of v0 and the recorder stay on the refined
rule, which the near-singular eps corrections of dF/dt need.  The weak form
is -a S c + N(c), with S the stiffness matrix int Q_j' Q_k' rho^2 dnu and
a = vbar^(m-1) at the equilibrium vbar.  ETDRK4
(Cox & Matthews 2002) solves the linear part exactly in the eigenbasis of
S.  The step is ``cfg.dt`` unless the remainder's stiffness, lam_top
max|v^(m-1) - a| max(1, |m|) with lam_top the top eigenvalue of S, needs
dt <= 2 / that; the last step lands on t_end.  Where that stiffness is 0
(at m = 1 always) the remainder vanishes and the step is y = e^(-a h S) y;
at m = 1 a step's end then only checks the positivity of v.
Each of a step's four stages is one call of ``_galerkin_stage``: one
product of the eigenbasis state with a (modes x 2 nodes) table, into a
buffer kept for the run, gives v and v' on the stepping rule, and a
(modes x nodes) table, the v' half with the node weight -rho^2 w folded in
once per run, projects the remainder back.  Both products are ``ndarray.dot``,
``np.dot``'s C routine without its Python-level dispatcher: the same bits
for about 0.2 µs less a product at N = 64, where a stage costs numpy's
per-call overhead more than arithmetic.  The step's last stage also
yields the stiffness and the next step's first remainder.  Each new stage
state and step end is a fresh array, so the states the recorder holds never
change.  The phi-function weights are real: closed forms away from hL = 0,
Taylor series near it (``_etdrk4_weights``).

A run records, at every ``record_every``-th step, the mass, the
beta-Dirichlet energy, the Lyapunov functional F, extremal values of u
and u', the closed-form instantaneous dF/dt, and any violation of the
entered h0/h1 bounds; positivity loss aborts with the failure time.
The recorder takes the eigenbasis state y and evaluates everything
itself: the coefficients U y of a block of records in one product, then
v, v' and v'' on the refined rule, u, u' and u'' from the one power
v^(r-1), and every diagnostic, as (records, nodes) arrays, with the eps
deformation of the rule formed once per run; bound violations are
reported in record order.  A run warns once per cause, at the line that
called ``run_<kind>_flow`` (``errors._warn``): within 1e-2 of p = 2 the
run gives the near-p = 2 AccuracyWarning itself, and ``lyapunov_terms``,
called once per record, never warns; below ``gauss_jacobi``'s threshold the
resample of u0 and the basis build the rules quietly, and the stepping
rule, which warns wherever they would, gives the warning; the run judges
the resolution of the v0 that it steps, not the resample of u0.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .admissibility import _check_bounds, _qform, _scaling_denominator, lambda_eps
from .errors import AccuracyWarning, DomainError, PositivityError
from .functionals import _warn_near_two, lyapunov_terms
from .identities import _gamma2_correction, _lgamma_correction
from .measure import Quadrature, UltraParams, _stepping_rule
from .operators import _deformation
from .spectral import GridFn, OrthoBasis, _resample_positive, _sample_contract, _warn_unresolved, get_regularized_basis

_KINDS = ("heat", "nonlinear", "regularized")
_POSITIVITY_FLOOR = 1e-12
_BOUND_TOL = 1e-8
_SNAP = 1e-6  # a remainder to t_end below this fraction of dt joins the last step
_SERIES_RADIUS = 2.0  # the ETDRK4 weights of |z| = |hL| below it come from their Taylor series
# Taylor coefficients of Q/h, f1/h, 2 f2/h and f3/h, a row per power of z = hL
_SERIES = np.array([[(k + 2) * (k + 3) / 2.0 ** (k + 1), (k + 1) ** 2, 2 * (k + 1), 1 - k]
                    for k in range(22)])
_SERIES /= np.array([math.factorial(k + 3) for k in range(22)], dtype=float)[:, None]


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of one flow run.

    ``dt`` is the largest time step (see the module docstring).  The heat
    and nonlinear kinds run on the plain measure and need eps = 0.  ``lam``,
    the constant in F, must be finite; None selects n for the heat and nonlinear
    kinds and the adjusted eps-constant for the regularized kind.  ``h0``/``h1``
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
        if not (self.record_every >= 1 and float(self.record_every).is_integer()):
            raise DomainError(f"record_every must be an integer >= 1, got {self.record_every}")
        _sample_contract(self.params)  # the parameters of the run's samples, checked before any is read
        p = self.params
        if self.kind == "heat" and p.beta != 1.0:
            raise DomainError("the heat flow runs at beta = 1; use the nonlinear kind otherwise")
        if p.m == 0:  # at beta = 1, m = 1 passes this and the next check
            raise DomainError("diffusion exponent m = 0 is degenerate")
        _scaling_denominator(p)  # DomainError on the excluded beta
        if self.kind != "regularized" and p.eps != 0:
            raise DomainError(f"the {self.kind} flow runs on the plain measure; eps must be 0")
        if self.kind == "regularized":
            if p.eps <= 0:
                raise DomainError("the regularized flow needs eps > 0")
            if p.n >= p.d:
                raise DomainError("the regularized flow needs non-integer n (n < ceil(n))")
        _check_bounds(self.h0, self.h1, self.lam)


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
    dz: tuple[np.ndarray, np.ndarray] | None,
) -> float | np.ndarray:
    """Closed form of (dF/dt) / (2 beta^2) as a functional of the state.

    With kappa = beta(p-2)+1 it reads

        (lam - n) int rho^2 u'^2 - int q[u] rho^4 - C_Gamma2 - (kappa+beta-1) C_LGamma,

    where q[u] is the admissibility quadratic form at this beta, so the
    middle term has a sign whenever delta(beta) <= 0, and C_Gamma2 and
    C_LGamma are the eps corrections that the Gamma2 and L-Gamma
    identities add to their right-hand sides (0 on the plain measure).
    ``dz`` is ``_deformation`` of ``fine`` and ``params``.  Valid as a time
    derivative along the matching flow.  Leading axes of (uu, up, upp) are
    records, with one value per row.
    """
    val = (lam - params.n) * fine.integrate(fine.rho2 * up**2)
    val -= fine.integrate(_qform(uu, up, upp, params) * fine.rho2**2)
    val -= _gamma2_correction(fine, up, dz)
    val -= (params.kappa + params.beta - 1.0) * _lgamma_correction(fine, uu, up, params.n, dz)
    return val


def dF_dt_closed_form(u: GridFn, cfg: FlowConfig) -> float:
    """Instantaneous (dF/dt) / (2 beta^2) for the flow of ``cfg`` at state u.

    ``u`` is a GridFn on the rule of cfg.params.  An unset lam resolves as
    in the flow run from u: n for the heat and nonlinear kinds, lambda_eps
    with h0/h1 from the config or derived from u for the regularized kind.
    """
    params = cfg.params
    fine, _, _, uu, up, upp = _resample_positive(u, params, "the state")
    lam = _resolve_bounds_and_lambda(cfg, uu, up).lam
    return float(_dF_value(uu, up, upp, fine, params, lam, _deformation(fine.nodes, fine.rho2, params)))


class _Recorder:
    """Accumulates per-time diagnostics from the stepper's eigenbasis state.

    ``record`` buffers (t, y), y the state in the eigenbasis ``U`` of the
    stiffness matrix, so c = U y are the coefficients of v in ``basis``
    (U = I records coefficients directly).  The buffered y must not change
    afterwards.  ``flush`` converts the buffer with one Y @ U^T and
    evaluates it as one (records, nodes) block on the basis's refined rule,
    every ``block`` records and in ``finish``.
    """

    def __init__(self, cfg: FlowConfig, basis: OrthoBasis, U: np.ndarray):
        self.cfg = cfg
        self.basis = basis
        self.U = U
        self.dz = _deformation(basis.quad.nodes, basis.quad.rho2, cfg.params)
        self.block = max(1, 8192 // basis.quad.nodes.size)
        self.pending: list[tuple[float, np.ndarray]] = []
        self.columns: list[np.ndarray] = []  # per block, FlowTrace's 8 arrays as rows
        self.events: list[tuple[float, str]] = []

    def record(self, t: float, y: np.ndarray) -> None:
        self.pending.append((t, y))
        if len(self.pending) == self.block:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        cfg, params, basis, fine = self.cfg, self.cfg.params, self.basis, self.basis.quad
        t, Y = (np.array(col) for col in zip(*self.pending))
        self.pending = []
        C = Y @ self.U.T
        vv, vp, vpp = C @ basis.V.T, C @ basis.V1.T, (C @ basis.D.T) @ basis.V1.T
        r = 1.0 / (params.beta * params.p)
        # from the one power w = v^(r-1): u = w v, u' = r w v' and
        # u'' = r(r-1) v^(r-2) v'^2 + r w v'' = (r-1) u' v' / v + r w v''
        w = vv ** (r - 1.0)
        uu, rw = w * vv, w * r
        up = vp * rw
        upp = vpp * rw + vp * up / vv * (r - 1.0)
        F, mass, fb, _ = np.array([lyapunov_terms(u, g, fine, params, cfg.lam) for u, g in zip(uu, up)]).T
        umin, umax, gmax = uu.min(axis=1), uu.max(axis=1), np.abs(up).max(axis=1)
        dF = _dF_value(uu, up, upp, fine, params, cfg.lam, self.dz)
        self.columns.append(np.array([t, mass, fb, F, umin, umax, gmax, dF]))
        # terminal gap max|u - mass^r| at the latest record (a run's last step records)
        self.gap = float(np.max(np.abs(uu[-1] - mass[-1] ** r)))
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

    def finish(self) -> FlowTrace | None:
        """The trace of every record so far; None if nothing was recorded."""
        self.flush()
        if not self.columns:
            return None
        return FlowTrace(*np.concatenate(self.columns, axis=1), bound_events=tuple(self.events),
                         terminal_gap=self.gap, params_echo=self.cfg)


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


def run_heat_flow(u0: GridFn, cfg: FlowConfig) -> FlowTrace:
    """The heat flow (v = u^p linear): the m = 1 case of the Galerkin stepper."""
    return _run_galerkin(u0, cfg, "heat")


def _etdrk4_weights(z: np.ndarray, h: float):
    """e^z, e^(z/2) and the ETDRK4 weights Q, f1, 2 f2, f3 for the diagonal z = hL.

    With phi_k(z) = sum_j z^j / (j+k)!, the weights (Cox & Matthews 2002)
    are Q = h phi_1(z/2) / 2, f1 = h(phi_1 - 3 phi_2 + 4 phi_3),
    f2 = h(phi_2 - 2 phi_3) and f3 = h(4 phi_3 - phi_2); f2 comes doubled, as
    the scheme uses it.  For |z| >= 2 they are the closed forms
    Q = h expm1(z/2)/z, f1 = h(-4 - z + e^z(4 - 3z + z^2))/z^3,
    2 f2 = h(4 + 2z + e^z(2z - 4))/z^3, f3 = h(-4 - 3z - z^2 + e^z(4 - z))/z^3.
    Below that, where the closed forms cancel (Kassam & Trefethen 2005), they
    are the first 22 terms of their Taylor series, with coefficients
    1/(2^(k+1) (k+1)!), (k+1)^2/(k+3)!, 2(k+1)/(k+3)! and (1-k)/(k+3)!;
    the first omitted term is below 1.1e-14 of f1 at |z| = 2.
    """
    E = np.exp(z)
    w = np.empty((4, z.size))
    small = np.abs(z) < _SERIES_RADIUS
    w[:, small] = (np.vander(z[small], len(_SERIES), increasing=True) @ _SERIES).T
    big = ~small
    zb, eb = z[big], E[big]
    w[0, big] = np.expm1(zb / 2.0) / zb
    w[1:, big] = np.array([-4.0 - zb + eb * (4.0 - 3.0 * zb + zb**2),
                           4.0 + 2.0 * zb + eb * (2.0 * zb - 4.0),
                           -4.0 - 3.0 * zb - zb**2 + eb * (4.0 - zb)]) / zb**3
    Q, f1, f2, f3 = h * w
    return E, np.exp(z / 2.0), Q, f1, f2, f3


def _galerkin_stage(rule: Quadrature, V: np.ndarray, V1: np.ndarray, U: np.ndarray, a: float, m: float):
    """The stage function of the stepper for the weak form in the eigenbasis U of S.

    ``V`` and ``V1`` hold Q_k and Q_k' at the nodes of ``rule``.
    ``stage(y, t)`` returns g = v^(m-1) - a on those nodes and the
    remainder -U^T V1^T (rho^2 w g v'): the weak form's -V1^T(rho^2 w v^(m-1) v')
    (the chain rule's m cancels the 1/m) less its linear part -a S c, at
    c = U y.  It raises PositivityError at time t where v reaches the floor.
    g lives in a buffer that the next call overwrites; the remainder is a
    fresh array.  At m = 1 (the heat flow) both are exactly 0, so the stage
    only forms v and checks it.
    """
    nodes = rule.nodes.size
    # (V0 U)^T and (V1 U)^T side by side: y @ T is v and v' on the nodes
    T = np.empty((U.shape[1], 2 * nodes))
    np.matmul(U.T, V.T, out=T[:, :nodes])
    np.matmul(U.T, V1.T, out=T[:, nodes:])

    if m == 1:  # g = v^0 - 1 and the remainder are exactly 0: only positivity is left
        W0T, zeros = T[:, :nodes], (np.zeros(nodes), np.zeros(U.shape[1]))

        def stage(y: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
            if np.minimum.reduce(y @ W0T) <= _POSITIVITY_FLOOR:
                raise PositivityError(t, "v reached the positivity floor")
            return zeros

        return stage

    # (V1 U)^T diag(-rho^2 w) projects g v' back, the node weight folded in once
    P = T[:, nodes:] * -(rule.weights * rule.rho2)
    vd = np.empty(2 * nodes)
    v, dv = vd[:nodes], vd[nodes:]

    def stage(y: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        y.dot(T, out=vd)
        if np.minimum.reduce(v) <= _POSITIVITY_FLOOR:
            raise PositivityError(t, "v reached the positivity floor")
        np.power(v, m - 1.0, out=v)  # g = v^(m-1) - a, in place
        np.subtract(v, a, out=v)
        np.multiply(dv, v, out=dv)
        return v, P.dot(dv)

    return stage


def _run_galerkin(u0: GridFn, cfg: FlowConfig, kind: str) -> FlowTrace:
    """The run of every ``run_<kind>_flow``; DomainError unless cfg.kind is ``kind``."""
    if cfg.kind != kind:
        raise DomainError(f"run_{kind}_flow needs kind={kind!r}, got {cfg.kind!r}")
    params, N = cfg.params, len(u0)
    with warnings.catch_warnings():  # its rules warn only where the stepping rule does; v0 is judged below
        warnings.simplefilter("ignore", AccuracyWarning)
        _, _, _, u0_fine, up0, _ = _resample_positive(u0, params, "the initial datum")
        basis = get_regularized_basis(params.n, params.eps, N)
    cfg = _resolve_bounds_and_lambda(cfg, u0_fine, up0)
    _warn_near_two(params.p)  # once a run
    rule = _stepping_rule(params, N)  # the run's one small-n warning
    # where eps = 0 or n = d the stepping rule is the basis's own rule, whose tables it has;
    # otherwise asked before the first analyze, so a cold basis builds with them in one pass
    V0, V1 = basis._tables_at(rule.nodes) if rule.eps else (basis.V, basis.V1)
    c0 = basis.analyze(u0_fine ** (params.beta * params.p))  # v0 in the working basis
    _warn_unresolved(c0)  # the run's one resolution verdict, on what it steps
    m = params.m
    rho2w = rule.weights * rule.rho2
    # Q_0' = 0 zeroes row and column 0 of S; keeping mode 0 out of eigh
    # leaves y[0] = c[0], the mass, exactly fixed.
    S = V1.T @ (rho2w[:, None] * V1)
    mu, U = np.zeros(c0.size), np.eye(c0.size)
    mu[1:], U[1:, 1:] = np.linalg.eigh(S[1:, 1:])
    stiff_scale = float(mu[-1]) * max(1.0, abs(m))  # lam_top max(1, |m|)
    a = (c0[0] * basis.V[0, 0]) ** (m - 1.0)
    stage = _galerkin_stage(rule, V0, V1, U, a, m)
    rec = _Recorder(cfg, basis, U)
    t_now, h, step, y = 0.0, None, 0, U.T @ c0

    try:
        g, Nu = stage(y, t_now)
        rec.record(0.0, y)
        while t_now < cfg.t_end:
            stiff = stiff_scale * float(np.maximum.reduce(np.abs(g)))
            dt = min(cfg.dt, 2.0 / stiff) if stiff > 0 else cfg.dt
            last = cfg.t_end - t_now <= dt * (1.0 + _SNAP)
            dt = cfg.t_end - t_now if last else dt
            if dt != h:
                h, (E, E2, Q, f1, f2, f3) = dt, _etdrk4_weights(-a * dt * mu, dt)
                Q2 = 2.0 * Q
            # every state below is a fresh array: the recorder holds a recorded
            # y until its block is flushed
            if stiff == 0:  # v^(m-1) = a on the nodes (m = 1: the heat flow)
                y = E * y
            else:
                E2y, QNu = E2 * y, Q * Nu
                ya = E2y + QNu
                Na = stage(ya, t_now)[1]
                yb = E2y + Q * Na
                Nb = stage(yb, t_now)[1]
                yc = E2 * ya + Q2 * Nb - QNu  # E2 ya + Q (2 Nb - Nu)
                y = E * y + f1 * Nu + f2 * (Na + Nb) + f3 * stage(yc, t_now)[1]
            t_now = cfg.t_end if last else t_now + dt
            step += 1
            g, Nu = stage(y, t_now)
            if step % cfg.record_every == 0 or last:
                rec.record(t_now, y)
    except PositivityError as err:
        err.partial = rec.finish()
        raise
    return rec.finish()


def run_nonlinear_flow(u0: GridFn, cfg: FlowConfig) -> FlowTrace:
    """Weak-form integration of the nonlinear flow on the plain measure."""
    return _run_galerkin(u0, cfg, "nonlinear")


def run_regularized_flow(u0: GridFn, cfg: FlowConfig) -> FlowTrace:
    """Weak-form integration of the eps-flow, with bound monitoring."""
    return _run_galerkin(u0, cfg, "regularized")
