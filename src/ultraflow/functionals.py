"""Energy, entropy and Lyapunov functionals for the interpolation inequalities.

The central object is the deficit

    deficit(f; lambda) = int (1 - z^2) |f'|^2 dnu_n
                         - lambda * (||f||_p^2 - ||f||_2^2) / (p - 2),

which the sharp inequality makes nonnegative for lambda = n on the range
p in [1, 2) u (2, 2*], with 2* = 2n/(n-2) enforced only when n > 2.  At
p = 2 the entropy term degenerates to the logarithmic form handled by
``logsob_deficit`` with the sharp constant n/2.

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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measure import DEFAULT_NODES, Quadrature, UltraParams
from .spectral import GridFn, _resample_positive, resample


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


def _resampled(f: GridFn, q: Quadrature):
    """``resample`` of f given on ``q``; the measure is q's own."""
    eps = q.eps if q.kind == "regularized" else 0.0
    return resample(f, UltraParams(n=q.n, eps=eps), q.order)


def lp_norm(f: GridFn, q: Quadrature, p: float) -> float:
    """(int |f|^p dnu)^(1/p) on the refined companion rule of ``q``."""
    if p < 1:
        raise DomainError(f"lp_norm requires p >= 1, got {p}")
    fine, _, _, ff, _, _ = _resampled(f, q)
    return float(fine.integrate(np.abs(ff) ** p) ** (1.0 / p))


def fisher(f: GridFn, q: Quadrature) -> float:
    """Weighted Dirichlet energy int (1 - z^2) |f'|^2 dnu."""
    fine, _, _, _, fp, _ = _resampled(f, q)
    return float(fine.integrate((1.0 - fine.nodes**2) * fp**2))


def _check_p_range(n: float, p: float) -> None:
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if p == 2:
        raise DomainError("p = 2 is the logarithmic case; use logsob_deficit")
    if n > 2:
        p_crit = 2.0 * n / (n - 2.0)
        if p > p_crit * (1.0 + 1e-12):
            raise DomainError(f"p={p} exceeds the critical exponent {p_crit} for n={n}")


def deficit(
    f: GridFn,
    params: UltraParams,
    lam: float | None = None,
    N: int | None = None,
) -> DeficitReport:
    """Deficit of the sharp interpolation inequality on the plain measure.

    ``lam`` defaults to the sharp constant n.  ``f`` is sampled on the
    plain N-node rule (N defaults to the package default).  Both factors of
    the entropy term change sign across p = 2, so the report is meaningful
    on the whole range p in [1, 2) u (2, 2*].
    """
    _check_p_range(params.n, params.p)
    return _deficit(f, params.n, params.p, lam, N)


def logsob_deficit(
    f: GridFn,
    params: UltraParams,
    lam: float | None = None,
    N: int | None = None,
) -> DeficitReport:
    """Deficit of the logarithmic endpoint p = 2, sharp constant n/2.

    The entropy is int f^2 log(f^2 / ||f||_2^2) dnu with 0 log 0 = 0.
    """
    return _deficit(f, params.n, 2.0, lam, N)


def _deficit(f: GridFn, n: float, p: float, lam: float | None, N: int | None) -> DeficitReport:
    """The body of ``deficit`` and of ``logsob_deficit`` (p = 2, the log entropy)."""
    if lam is None:
        lam = n / 2.0 if p == 2 else n
    if N is None:
        N = DEFAULT_NODES
    fine, _, _, ff, fp, _ = resample(f, UltraParams(n=n), N)
    fisher_val = float(fine.integrate((1.0 - fine.nodes**2) * fp**2))
    g = ff**2
    l2 = fine.integrate(g)
    if p == 2:
        if l2 <= 0:
            raise DomainError("logsob_deficit requires a nonzero function")
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.where(g > 0, g * np.log(g / l2), 0.0)
        entropy = fine.integrate(integrand)
    elif p == 1:
        mean = fine.integrate(ff)
        entropy = l2 - mean**2
    else:
        lp2 = fine.integrate(np.abs(ff) ** p) ** (2.0 / p)
        entropy = (lp2 - l2) / (p - 2.0)
    return DeficitReport(
        n=n,
        p=p,
        lambda_used=float(lam),
        fisher=fisher_val,
        entropy_term=float(entropy),
        deficit=float(fisher_val - lam * entropy),
    )


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
) -> tuple[float, float, float]:
    """(F, mass, fisher_beta) from values of u and u' on a refined rule.

    F = int (1-z^2) |(u^beta)'|^2 dnu + lam/(p-2) (||u^beta||_2^2 - ||u^beta||_p^2),
    mass = int u^(beta p) dnu.  Shared with the flow drivers, which obtain
    (u, u') exactly from the evolved polynomial state.
    """
    beta, p = params.beta, params.p
    if p == 2:
        raise DomainError("the Lyapunov functional needs p != 2")
    rho2 = 1.0 - fine.nodes**2
    ub = u**beta
    ubp = beta * u ** (beta - 1.0) * up
    fisher_beta = float(fine.integrate(rho2 * ubp**2))
    l2 = fine.integrate(ub**2)
    lpp = fine.integrate(ub**p)
    F = fisher_beta + lam / (p - 2.0) * (l2 - lpp ** (2.0 / p))
    mass = float(lpp)  # int u^(beta p) = int (u^beta)^p
    return float(F), mass, fisher_beta


def lyapunov_F(
    u: GridFn,
    params: UltraParams,
    lam: float | None = None,
    N: int | None = None,
) -> LyapunovValue:
    """Lyapunov functional of a positive GridFn on the measure of ``params``.

    The measure is regularized when params.eps > 0, plain otherwise; the
    sample grid is the corresponding N-node rule.  ``lam`` defaults to n.
    """
    if lam is None:
        lam = params.n
    if N is None:
        N = DEFAULT_NODES
    fine, _, _, uu, up, _ = _resample_positive(u, params, N, "the function")
    F, mass, _ = lyapunov_terms(uu, up, fine, params, lam)
    return LyapunovValue(value=F, mass=mass, lambda_used=float(lam))
