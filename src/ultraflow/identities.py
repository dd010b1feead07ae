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
operator in play.  Each check resamples the function spectrally onto the
refined companion rule, evaluates both sides, and reports the residual
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
from .measure import DEFAULT_NODES, UltraParams, build_quadrature
from .operators import drift
from .spectral import GridFn, resample

# Degree of the random exponent polynomial; amplitude is capped at 1 about
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


def _sampled_derivatives(u: GridFn, params: UltraParams):
    """``resample`` of a strictly positive u: (fine, basis, c, u, u', u'')."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise DomainError("identity checks require a strictly positive function")
    fine, basis, c, uu, up, upp = resample(u, params, len(u))
    if np.any(uu <= 0):
        raise DomainError("resampled function loses positivity; refine the grid")
    return fine, basis, c, uu, up, upp


def _require_neumann(basis, c) -> None:
    ends = np.array([-1.0, 1.0])
    up_ends = basis.derivative_values(c, ends)
    scale = 1.0 + float(np.max(np.abs(basis.derivative_values(c))))
    if np.max(np.abs(up_ends)) > _NEUMANN_TOL * scale:
        raise DomainError(
            "u'(+-1) != 0: this check assumes the Neumann property; "
            "pass enforce_neumann=False to run it diagnostically"
        )


def check_gamma2(
    u: GridFn,
    params: UltraParams,
    enforce_neumann: bool = True,
    seed: int = -1,
) -> IdentityReport:
    """Second-order identity for the plain operator."""
    if params.eps != 0:
        raise DomainError("check_gamma2 is the plain-measure check; use check_gamma2_eps")
    fine, basis, c, uu, up, upp = _sampled_derivatives(u, params)
    if enforce_neumann:
        _require_neumann(basis, c)
    n, z = params.n, fine.nodes
    rho2 = 1.0 - z**2
    Lu = rho2 * upp - n * z * up
    lhs = fine.integrate(Lu**2)
    rhs = fine.integrate(upp**2 * rho2**2) + n * fine.integrate(rho2 * up**2)
    return _report(lhs, rhs, "Gamma2", seed)


def check_lgamma(
    u: GridFn,
    params: UltraParams,
    enforce_neumann: bool = True,
    seed: int = -1,
) -> IdentityReport:
    """Mixed gradient identity for the plain operator."""
    if params.eps != 0:
        raise DomainError("check_lgamma is the plain-measure check; use check_lgamma_eps")
    fine, basis, c, uu, up, upp = _sampled_derivatives(u, params)
    if enforce_neumann:
        _require_neumann(basis, c)
    n, z = params.n, fine.nodes
    rho2 = 1.0 - z**2
    Lu = rho2 * upp - n * z * up
    lhs = fine.integrate((up**2 * rho2 / uu) * Lu)
    rhs = n / (n + 2.0) * fine.integrate(up**4 * rho2**2 / uu**2) - 2.0 * (
        n - 1.0
    ) / (n + 2.0) * fine.integrate(up**2 * upp * rho2**2 / uu)
    return _report(lhs, rhs, "L-Gamma", seed)


def _check_eps_params(params: UltraParams) -> None:
    if params.eps == 0 and params.n != params.d:
        raise DomainError("the regularized checks need eps > 0 when n is not an integer")


def check_gamma2_eps(u: GridFn, params: UltraParams, seed: int = -1) -> IdentityReport:
    """Second-order identity for the regularized operator; no boundary condition."""
    _check_eps_params(params)
    fine, _, _, uu, up, upp = _sampled_derivatives(u, params)
    n, eps, d, z = params.n, params.eps, params.d, fine.nodes
    rho2 = 1.0 - z**2
    Lu = rho2 * upp - drift(z, params) * up
    lhs = fine.integrate(Lu**2)
    rhs = fine.integrate(upp**2 * rho2**2) + n * fine.integrate(rho2 * up**2)
    if eps > 0 and n != d:
        zeta = 1.0 + eps - z**2
        rhs -= eps * (n - d) * fine.integrate((1.0 + eps + z**2) / zeta**2 * rho2 * up**2)
    return _report(lhs, rhs, "Gamma2-eps", seed)


def check_lgamma_eps(u: GridFn, params: UltraParams, seed: int = -1) -> IdentityReport:
    """Mixed gradient identity for the regularized operator; no boundary condition."""
    _check_eps_params(params)
    fine, _, _, uu, up, upp = _sampled_derivatives(u, params)
    n, eps, d, z = params.n, params.eps, params.d, fine.nodes
    rho2 = 1.0 - z**2
    Lu = rho2 * upp - drift(z, params) * up
    lhs = fine.integrate((up**2 * rho2 / uu) * Lu)
    rhs = n / (n + 2.0) * fine.integrate(up**4 * rho2**2 / uu**2) - 2.0 * (
        n - 1.0
    ) / (n + 2.0) * fine.integrate(up**2 * upp * rho2**2 / uu)
    if eps > 0 and n != d:
        zeta = 1.0 + eps - z**2
        rhs += 2.0 * eps * (n - d) / (n + 2.0) * fine.integrate(up**3 * rho2 * z / (zeta * uu))
    return _report(lhs, rhs, "L-Gamma-eps", seed)
