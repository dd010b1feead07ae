"""Energy, entropy and Lyapunov functionals for the interpolation inequalities.

The central object is the deficit

    deficit(f; lambda) = int (1 - z^2) |f'|^2 dnu_n
                         - lambda * (||f||_p^2 - ||f||_2^2) / (p - 2),

which the sharp inequality makes nonnegative for lambda = n on the range
p in [1, 2*], with 2* = 2n/(n-2) enforced only when n > 2.  At p = 2 the
entropy term is its limit (1/2) int f^2 log(f^2 / ||f||_2^2) dnu, the
logarithmic Sobolev case; ``logsob_deficit`` reports it on the full log
entropy with the sharp constant n/2.  The deficit is the flow Lyapunov
functional F at beta = 1, taken of |f|, or of the signed f at p = 1;
``lyapunov_terms`` is the one body of both.

Conventions at the endpoints:

* p = 1 is evaluated as the spectral-gap case: the entropy term is
  ||f||_2^2 - (int f dnu)^2, so the first eigenfunction f(z) = z attains
  equality.  For p in (1, 2) the norm uses |f|^p as usual; the two
  conventions agree on nonnegative functions.
* p = 2* for n > 2 is permitted, with the documented caveat that
  quadrature convergence degrades near the extremal profiles, whose
  derivatives concentrate as b -> 1.

All integrals run on the internally refined rule of the relevant measure
(see the measure module), with GridFn arguments resampled spectrally.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, _warn
from .measure import Quadrature, UltraParams, _critical_exponent
from .spectral import GridFn, _resample_positive, _warn_unresolved, resample


@dataclass(frozen=True)
class DeficitReport:
    """Ingredients of one deficit evaluation."""

    n: float
    p: float
    lambda_used: float
    fisher: float
    entropy_term: float
    deficit: float


@dataclass(frozen=True)
class LyapunovValue:
    """Value of the flow Lyapunov functional and the conserved mass."""

    value: float
    mass: float
    lambda_used: float


def lp_norm(f: GridFn, params: UltraParams) -> float:
    """(int |f|^p dnu)^(1/p), p = params.p, on the refined rule of the measure of ``params``.

    ``f`` is sampled on ``build_quadrature(params, len(f))``.  An f the rule does
    not resolve gets ``spectral_derivative``'s AccuracyWarning.
    """
    fine, _, c, ff, _, _ = resample(f, params, len(f))
    _warn_unresolved(c, "lp_norm")
    return float(fine.integrate(np.abs(ff) ** params.p) ** (1.0 / params.p))


def fisher(f: GridFn, params: UltraParams) -> float:
    """Weighted Dirichlet energy int (1 - z^2) |f'|^2 dnu on the measure of ``params``.

    ``f`` is sampled on ``build_quadrature(params, len(f))``.  An f the rule does
    not resolve warns as in ``lp_norm``.
    """
    fine, _, c, _, fp, _ = resample(f, params, len(f))
    _warn_unresolved(c, "fisher")
    return float(fine.integrate(fine.rho2 * fp**2))


def deficit(
    f: GridFn,
    params: UltraParams,
    lam: float | None = None,
    N: int | None = None,
) -> DeficitReport:
    """Deficit of the sharp interpolation inequality on the plain measure.

    ``lam`` defaults to the sharp constant n.  ``f`` is sampled on the
    plain N-node rule; N defaults to len(f), and another N raises
    ShapeError.  Both factors of the entropy term change sign across p = 2,
    and at p = 2 the term is its limit, half the log entropy of
    ``logsob_deficit``, so the report is meaningful on the whole range
    p in [1, 2*].  ``params`` must be plain (eps = 0) with beta = 1;
    anything else raises DomainError.  An f the rule does not resolve gets
    ``spectral_derivative``'s AccuracyWarning, and 0 < |p - 2| < 1e-2, where
    the entropy quotient loses digits, an AccuracyWarning too.
    """
    return _deficit(f, params, params.n if lam is None else lam, N, "deficit")


def logsob_deficit(
    f: GridFn,
    params: UltraParams,
    lam: float | None = None,
    N: int | None = None,
) -> DeficitReport:
    """Deficit of the logarithmic endpoint p = 2, sharp constant n/2.

    The entropy is int f^2 log(f^2 / ||f||_2^2) dnu with 0 log 0 = 0: twice
    ``deficit``'s entropy term at p = 2, so this is ``deficit`` at 2 lam,
    reported with lam and the full entropy.  ``params`` must have p = 2,
    eps = 0 and beta = 1; anything else, or f = 0, raises DomainError.  N
    and an f the rule does not resolve behave as in ``deficit``.
    """
    if params.p != 2:
        raise DomainError(f"logsob_deficit is the p = 2 endpoint, got p={params.p}; use deficit")
    lam = params.n / 2.0 if lam is None else lam
    rep = _deficit(f, params, 2 * lam, N, "logsob_deficit")
    return replace(rep, lambda_used=float(lam), entropy_term=2 * rep.entropy_term)


def _deficit(f: GridFn, params: UltraParams, lam: float, N: int | None, what: str) -> DeficitReport:
    """The body of ``deficit`` and ``logsob_deficit`` (``what``), with their unresolved-input
    and near-p = 2 warnings."""
    n, p = params.n, params.p
    if params.eps != 0 or params.beta != 1:
        raise DomainError(f"{what} is defined on the plain measure at beta = 1, got eps={params.eps}, "
                          f"beta={params.beta}")
    if p > _critical_exponent(n) * (1.0 + 1e-12):
        raise DomainError(f"p={p} exceeds the critical exponent {_critical_exponent(n)} for n={n}")
    fine, _, c, ff, fp, _ = resample(f, params, len(f) if N is None else N)
    _warn_unresolved(c, "deficit")
    _warn_near_two(p)
    F, _, fb, entropy = lyapunov_terms(ff if p == 1 else np.abs(ff), fp, fine, params, lam)
    return DeficitReport(n, p, float(lam), fisher=fb, entropy_term=entropy, deficit=F)


def extremal_profile(n: float, b: float, nodes: np.ndarray, a: float = 1.0) -> np.ndarray:
    """Two-parameter family a |1 - b z|^(-(n-2)/2) sampled at ``nodes``.

    For n > 2 and |b| < 1 these are exactly the equality cases of the
    deficit at the critical exponent p = 2n/(n-2); they solve the
    Euler-Lagrange equation -Lf + n/(p-2) f = c f^(p-1).  For other n the
    family is still well defined and useful as a stress test.
    """
    if abs(b) >= 1:
        raise DomainError(f"extremal_profile needs |b| < 1, got b={b}")
    return a * np.abs(1.0 - b * np.asarray(nodes, dtype=float)) ** (-(n - 2.0) / 2.0)


def lyapunov_terms(
    u: np.ndarray,
    up: np.ndarray,
    fine: Quadrature,
    params: UltraParams,
    lam: float,
) -> tuple[float, float, float, float]:
    """(F, mass, fisher_beta, entropy) from values of u and u' on a refined rule.

    With w = u^beta: F = fisher_beta - lam * entropy, fisher_beta = int (1-z^2) |w'|^2 dnu,
    entropy = (||w||_p^2 - ||w||_2^2)/(p-2) and mass = int w^p dnu.  At p = 2 the entropy is
    the limit (1/2) int w^2 log(w^2 / ||w||_2^2) dnu, with 0 log 0 = 0, and w = 0 raises
    DomainError.  Within 1e-2 of p = 2 the quotient loses digits like 1e-16/|p - 2|
    (above 1e-12 relative within 3e-3); this body never warns, its callers give
    ``_warn_near_two`` once each.  The one body of F, for the flow recorder,
    ``lyapunov_F`` and ``deficit`` (beta = 1, u = |f|, or f at p = 1).
    Off beta = 1, w' = beta w u'/u needs u > 0, as the flows and ``lyapunov_F`` ensure.
    u and u' are 1-D float arrays at the nodes of ``fine``, and each integral is one
    ``weights.dot`` with Python-float scalars: the recorder calls it once per record.
    """
    beta, p = params.beta, params.p
    w = fine.weights  # the integrals are weight dot products of 1-D node values
    if beta == 1:  # u and u' as they are: deficit's |f| may be 0 at a node
        ub, ubp = u, up
    else:  # (u^beta)' = beta u^beta u'/u: one pow, beta^2 taken out of the integral
        ub = u**beta
        ubp = ub * up / u
    fisher_beta = beta * beta * float(w.dot(fine.rho2 * ubp**2))
    g = ub**2
    l2 = float(w.dot(g))
    if p == 2:
        if l2 <= 0:
            raise DomainError("the entropy at p = 2 requires a nonzero function")
        with np.errstate(divide="ignore", invalid="ignore"):
            entropy = 0.5 * float(w.dot(np.where(g > 0, g * np.log(g / l2), 0.0)))
        return float(fisher_beta - lam * entropy), l2, fisher_beta, entropy
    lpp = float(w.dot(ub**p))  # the mass: int u^(beta p) = int (u^beta)^p
    lp2 = lpp ** (2.0 / p)
    return float(fisher_beta + lam / (p - 2.0) * (l2 - lp2)), lpp, fisher_beta, (lp2 - l2) / (p - 2.0)


def _warn_near_two(p: float) -> None:
    """The AccuracyWarning of ``lyapunov_terms``' entropy where 0 < |p - 2| < 1e-2, from
    ``errors._warn``: at the line that called the entry point."""
    if 0 < abs(p - 2.0) < 1e-2:
        _warn(f"p = {p} is within 1e-2 of 2; the entropy term loses digits like 1e-16/|p - 2|")


def lyapunov_F(
    u: GridFn,
    params: UltraParams,
    lam: float | None = None,
    N: int | None = None,
) -> LyapunovValue:
    """Lyapunov functional of a positive GridFn on the measure of ``params``.

    The measure is regularized when params.eps > 0, plain otherwise; the
    sample grid is the corresponding N-node rule, N = len(u) by default
    (another N raises ShapeError).  ``lam`` defaults to n.  A u the rule
    does not resolve warns as in ``lp_norm``, a p within 1e-2 of 2 as in
    ``deficit``.
    """
    if lam is None:
        lam = params.n
    fine, _, c, uu, up, _ = _resample_positive(u, params, len(u) if N is None else N, "the function")
    _warn_unresolved(c, "lyapunov_F")
    _warn_near_two(params.p)
    F, mass, _, _ = lyapunov_terms(uu, up, fine, params, lam)
    return LyapunovValue(value=F, mass=mass, lambda_used=float(lam))
