"""Quadrature verification of the integration-by-parts identities.

Four identities are checked on randomly generated smooth positive
functions.  On the plain measure (Neumann hypothesis u'(+-1) = 0 enforced
by default):

    (Gamma2)   int (Lu)^2 dnu = int |u''|^2 rho^4 dnu + n int rho^2 |u'|^2 dnu
    (L-Gamma)  <|u'|^2 rho^2 / u, Lu> = n/(n+2) int |u'|^4 rho^4/u^2 dnu
                                 - 2(n-1)/(n+2) int |u'|^2 u'' rho^4/u dnu

and on the regularized measure, where no boundary condition is needed,
each acquires one term from the drift's deformation (operators module):

    (Gamma2-eps)  rhs += int (ell' - n) rho^2 |u'|^2
    (L-Gamma-eps) rhs += -2/(n+2) int (ell - n z) (u')^3 rho^2 / u

with rho^2 and zeta = rho^2 + eps read from the rule (``Quadrature.rho2``)
by Lu and both corrections alike, and all integrals against the measure of
the operator in play.  One body computes each identity; the plain check is
its eps = 0 case, where the drift is n z and the corrections are 0.0: it
carries no deformation terms (``operators._deformation`` gives None).
Each check resamples the function spectrally onto the refined companion
rule, evaluates both sides, and reports the residual
|lhs - rhs| / (1 + |lhs| + |rhs|): relative in the large, with an
absolute floor so that zero-valued identities (constant u) do not divide
by zero.

A function is prepared once per key (its samples' bytes, n, eps), and the
state is kept read-only for the most recent key only: callers check both
identities of a family on one u back to back, so the second check reuses
the first one's resample.  The Neumann check runs on every enforced call.

A note on the Neumann hypothesis: the default validation rejects
functions with u'(+-1) != 0 because the plain identities are stated under
that assumption.  Numerically the boundary terms carry vanishing weight
factors for every n > 0, so running the checks anyway (pass
``enforce_neumann=False``) still produces machine-precision residuals;
the enforcement is a contract check, not a numerical necessity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .measure import DEFAULT_NODES, Quadrature, UltraParams, build_quadrature
from .operators import _apply, _deformation
from .spectral import GridFn, _resample_positive

# Degree of the random exponent polynomial; amplitude is at most 1 about
# the constant term, so test functions satisfy e^-2 <= u <= e^2.
DEFAULT_DEGREE = 6
_NEUMANN_TOL = 1e-8
# Where make_test_function measures the amplitude of its exponent.
_SCALE_GRID = np.linspace(-1.0, 1.0, 2001)
_SCALE_GRID.setflags(write=False)


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    residual: float
    identity_tag: str
    seed: int


def _report(lhs: float, rhs: float, tag: str, seed: int) -> IdentityReport:
    residual = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    return IdentityReport(lhs=float(lhs), rhs=float(rhs), residual=float(residual), identity_tag=tag, seed=seed)


def make_test_function(
    seed: int,
    params: UltraParams,
    neumann: bool = True,
    degree: int = DEFAULT_DEGREE,
    N: int = DEFAULT_NODES,
) -> GridFn:
    """Random smooth positive GridFn u = exp(P) on the rule of ``params``.

    With ``neumann`` the exponent is built as P(z) = c0 + int_0^z (1-s^2) Q(s) ds
    for a random polynomial Q, so u'(+-1) = 0 holds exactly by construction;
    otherwise P is a plain random polynomial and u'(+-1) != 0 generically.
    P - c0 is rescaled to amplitude 1 and |c0| <= 1, hence e^-2 <= u <= e^2.
    P - c0 is built and evaluated on its coefficient array, in the operation
    order of ``numpy.polynomial.polynomial``, so u matches it bit for bit.
    """
    if seed < 0:
        raise DomainError(f"the test-function seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(-1.0, 1.0)
    if neumann:
        q = rng.uniform(-1.0, 1.0, size=max(0, degree - 3) + 1)
        r = np.concatenate((q, [0.0, 0.0]))  # (1 - s^2) Q
        r[2:] -= q
        p1 = np.concatenate(([0.0], r / np.arange(1.0, r.size + 1)))
    else:
        p1 = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, size=degree)])
    scale = np.abs(_polyval(_SCALE_GRID, p1)).max()
    if scale > 0:
        p1 = p1 / scale
    return np.exp(c0 + _polyval(build_quadrature(params, N).nodes, p1))


def _polyval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c[0] + c[1] x + ... at ``x`` by Horner's rule, in place."""
    v = np.full(x.shape, c[-1])
    for ck in c[-2::-1].tolist():
        v *= x
        v += ck
    return v


def _require_neumann(basis, c) -> None:
    up_ends = basis.end_slopes[:, : c.shape[0]] @ c
    scale = 1.0 + float(np.abs(basis.derivative_values(c)).max())
    if np.abs(up_ends).max() > _NEUMANN_TOL * scale:
        raise DomainError(
            "u'(+-1) != 0: this check assumes the Neumann property; "
            "pass enforce_neumann=False to run it diagnostically"
        )


# dz below is _deformation at the nodes of fine; None, the plain case, gives 0.0
def _gamma2_correction(fine: Quadrature, up: np.ndarray, dz) -> float | np.ndarray:
    """The Gamma2-eps term int (ell' - n) rho^2 u'^2 on ``fine``, one per row of ``up``."""
    return 0.0 if dz is None else fine.integrate(dz[1] * fine.rho2 * up**2)


def _lgamma_correction(fine: Quadrature, uu: np.ndarray, up: np.ndarray, n: float, dz) -> float | np.ndarray:
    """The L-Gamma-eps term -2/(n+2) int (ell - n z) u'^3 rho^2 / u on ``fine``, one per row of ``up``."""
    if dz is None:
        return 0.0
    # up**3 would go through pow(), ten to a hundred times a multiply in numpy
    return -2.0 / (n + 2.0) * fine.integrate(dz[0] * fine.rho2 * up**2 * up / uu)


@lru_cache(maxsize=1)  # the last tested function; see the module docstring
def _prepared(samples: bytes, shape: tuple, n: float, eps: float) -> tuple:
    """(fine, basis, c, u, u', u'', L_eps u, deformation) of the samples, read-only."""
    params = UltraParams(n=n, eps=eps)
    u = np.frombuffer(samples).reshape(shape)
    fine, basis, c, uu, up, upp = _resample_positive(u, params, len(u), "the tested function")
    dz = _deformation(fine.nodes, fine.rho2, params)
    state = (c, uu, up, upp, _apply(up, upp, fine, params))
    for a in state + (dz or ()):
        a.setflags(write=False)
    return (fine, basis, *state, dz)


def _prepare(u: GridFn, params: UltraParams, enforce_neumann: bool) -> tuple:
    """``_prepared`` of ``u`` on the measure of ``params``, the Neumann check applied on request."""
    u = np.asarray(u, dtype=float)
    state = _prepared(u.tobytes(), u.shape, float(params.n), float(params.eps))
    if enforce_neumann:
        _require_neumann(state[1], state[2])
    return state


def _gamma2(u: GridFn, params: UltraParams, tag: str, seed: int, enforce_neumann: bool) -> IdentityReport:
    fine, _, _, uu, up, upp, Lu, dz = _prepare(u, params, enforce_neumann)
    n, rho2 = params.n, fine.rho2
    lhs = fine.integrate(Lu**2)
    rhs = fine.integrate(upp**2 * rho2**2) + n * fine.integrate(rho2 * up**2)
    return _report(lhs, rhs + _gamma2_correction(fine, up, dz), tag, seed)


def _lgamma(u: GridFn, params: UltraParams, tag: str, seed: int, enforce_neumann: bool) -> IdentityReport:
    fine, _, _, uu, up, upp, Lu, dz = _prepare(u, params, enforce_neumann)
    n, rho2 = params.n, fine.rho2
    lhs = fine.integrate((up**2 * rho2 / uu) * Lu)
    rhs = n / (n + 2.0) * fine.integrate((up**2) ** 2 * rho2**2 / uu**2) - 2.0 * (
        n - 1.0
    ) / (n + 2.0) * fine.integrate(up**2 * upp * rho2**2 / uu)
    return _report(lhs, rhs + _lgamma_correction(fine, uu, up, n, dz), tag, seed)


def check_gamma2(
    u: GridFn,
    params: UltraParams,
    enforce_neumann: bool = True,
    seed: int = -1,
) -> IdentityReport:
    """Second-order identity for the plain operator."""
    if params.eps != 0:
        raise DomainError("check_gamma2 is the plain-measure check; use check_gamma2_eps")
    return _gamma2(u, params, "Gamma2", seed, enforce_neumann)


def check_lgamma(
    u: GridFn,
    params: UltraParams,
    enforce_neumann: bool = True,
    seed: int = -1,
) -> IdentityReport:
    """Mixed gradient identity for the plain operator."""
    if params.eps != 0:
        raise DomainError("check_lgamma is the plain-measure check; use check_lgamma_eps")
    return _lgamma(u, params, "L-Gamma", seed, enforce_neumann)


def _check_eps_params(params: UltraParams) -> None:
    if params.eps == 0 and params.n != params.d:
        raise DomainError("the regularized checks need eps > 0 when n is not an integer")


def check_gamma2_eps(u: GridFn, params: UltraParams, seed: int = -1) -> IdentityReport:
    """Second-order identity for the regularized operator; no boundary condition."""
    _check_eps_params(params)
    return _gamma2(u, params, "Gamma2-eps", seed, False)


def check_lgamma_eps(u: GridFn, params: UltraParams, seed: int = -1) -> IdentityReport:
    """Mixed gradient identity for the regularized operator; no boundary condition."""
    _check_eps_params(params)
    return _lgamma(u, params, "L-Gamma-eps", seed, False)
