"""Quadrature verification of the integration-by-parts identities.

Four identities are checked on randomly generated smooth positive
functions.  On the plain measure (Neumann hypothesis u'(+-1) = 0 enforced
by default):

    (Gamma2)   int (Lu)^2 dnu = int |u''|^2 rho^4 dnu + n int rho^2 |u'|^2 dnu
    (L-Gamma)  <|u'|^2 rho^2 / u, Lu> = n/(n+2) int |u'|^4 rho^4/u^2 dnu
                                 - 2(n-1)/(n+2) int |u'|^2 u'' rho^4/u dnu

and on the regularized measure, where no boundary condition is needed,
the same identities acquire one correction term each:

    (Gamma2-eps)  rhs += -eps(n-d) int (1+eps+z^2)/(1+eps-z^2)^2 rho^2 |u'|^2
    (L-Gamma-eps) rhs += 2 eps(n-d)/(n+2) int (u')^3 rho^2 z / ((1+eps-z^2) u)

with rho^2 = 1 - z^2 and all integrals against the measure of the
operator in play.  One body computes each identity; the plain check is
its eps = 0 case, where the drift is n z and the correction vanishes.
Each check resamples the function spectrally onto the refined companion
rule, evaluates both sides, and reports the residual
|lhs - rhs| / (1 + |lhs| + |rhs|): relative in the large, with an
absolute floor so that zero-valued identities (constant u) do not divide
by zero.

A note on the Neumann hypothesis: the default validation rejects
functions with u'(+-1) != 0 because the plain identities are stated under
that assumption.  Numerically the boundary terms carry vanishing weight
factors for every n > 0, so running the checks anyway (pass
``enforce_neumann=False``) still produces machine-precision residuals;
the enforcement is a contract check, not a numerical necessity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .errors import DomainError
from .measure import DEFAULT_NODES, Quadrature, UltraParams, build_quadrature
from .operators import drift
from .spectral import GridFn, _resample_positive

# Degree of the random exponent polynomial; amplitude is at most 1 about
# the constant term, so test functions satisfy e^-2 <= u <= e^2.
DEFAULT_DEGREE = 6
_NEUMANN_TOL = 1e-8


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
    """
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(-1.0, 1.0)
    if neumann:
        q_deg = max(0, degree - 3)
        Q = Polynomial(rng.uniform(-1.0, 1.0, size=q_deg + 1))
        P1 = (Q - Polynomial([0.0, 0.0, 1.0]) * Q).integ()
    else:
        coeffs = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, size=degree)])
        P1 = Polynomial(coeffs)
    zz = np.linspace(-1.0, 1.0, 2001)
    scale = np.max(np.abs(P1(zz)))
    if scale > 0:
        P1 = P1 / scale
    return np.exp(c0 + P1(build_quadrature(params, N).nodes))


def _require_neumann(basis, c) -> None:
    up_ends = basis.end_slopes[:, : c.shape[0]] @ c
    scale = 1.0 + float(np.max(np.abs(basis.derivative_values(c))))
    if np.max(np.abs(up_ends)) > _NEUMANN_TOL * scale:
        raise DomainError(
            "u'(+-1) != 0: this check assumes the Neumann property; "
            "pass enforce_neumann=False to run it diagnostically"
        )


def _gamma2_correction(fine: Quadrature, up: np.ndarray, params: UltraParams):
    """The Gamma2-eps term of the right-hand side on ``fine``, one per row of ``up``; 0.0 if plain."""
    n, eps, d, z = params.n, params.eps, params.d, fine.nodes
    if eps == 0 or n == d:
        return 0.0
    zeta = 1.0 + eps - z**2
    return -eps * (n - d) * fine.integrate((1.0 + eps + z**2) / zeta**2 * (1.0 - z**2) * up**2)


def _lgamma_correction(fine: Quadrature, uu: np.ndarray, up: np.ndarray, params: UltraParams):
    """The L-Gamma-eps term of the right-hand side on ``fine``, one per row of ``up``; 0.0 if plain."""
    n, eps, d, z = params.n, params.eps, params.d, fine.nodes
    if eps == 0 or n == d:
        return 0.0
    zeta = 1.0 + eps - z**2
    return 2.0 * eps * (n - d) / (n + 2.0) * fine.integrate(up**3 * (1.0 - z**2) * z / (zeta * uu))


def _gamma2(u: GridFn, params: UltraParams, tag: str, seed: int, enforce_neumann: bool) -> IdentityReport:
    fine, basis, c, uu, up, upp = _resample_positive(u, params, len(u), "the tested function")
    if enforce_neumann:
        _require_neumann(basis, c)
    n, z = params.n, fine.nodes
    rho2 = 1.0 - z**2
    Lu = rho2 * upp - drift(z, params) * up
    lhs = fine.integrate(Lu**2)
    rhs = fine.integrate(upp**2 * rho2**2) + n * fine.integrate(rho2 * up**2)
    return _report(lhs, rhs + _gamma2_correction(fine, up, params), tag, seed)


def _lgamma(u: GridFn, params: UltraParams, tag: str, seed: int, enforce_neumann: bool) -> IdentityReport:
    fine, basis, c, uu, up, upp = _resample_positive(u, params, len(u), "the tested function")
    if enforce_neumann:
        _require_neumann(basis, c)
    n, z = params.n, fine.nodes
    rho2 = 1.0 - z**2
    Lu = rho2 * upp - drift(z, params) * up
    lhs = fine.integrate((up**2 * rho2 / uu) * Lu)
    rhs = n / (n + 2.0) * fine.integrate(up**4 * rho2**2 / uu**2) - 2.0 * (
        n - 1.0
    ) / (n + 2.0) * fine.integrate(up**2 * upp * rho2**2 / uu)
    return _report(lhs, rhs + _lgamma_correction(fine, uu, up, params), tag, seed)


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
