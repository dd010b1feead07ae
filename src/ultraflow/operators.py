"""The ultraspherical operator and its regularized deformation.

Plain operator (self-adjoint in L^2(dnu_n)):

    L f = (1 - z^2) f'' - n z f',      <f, L g> = -int f' g' (1 - z^2) dnu_n.

Regularized operator (self-adjoint in L^2(dnu_{eps,n})):

    L_eps f = (1 - z^2) f'' - ell(z) f',
    ell(z) = z (n - eps (n - d) / (1 + eps - z^2)),

whose drift slope  ell'(z) = n - eps (n - d)(1 + eps + z^2)/(1 + eps - z^2)^2
stays >= n for n < d and collapses to the constant n at eps = 0 or n = d.
Derivatives of the argument are spectral (see the spectral module); the
pointwise combination makes no use of the eigendecomposition, so eigenvalue
checks against k (k + n - 1) are a genuine cross-validation.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .measure import Quadrature, UltraParams, build_quadrature
from .spectral import GridFn, _nodal_derivatives


def drift(z: np.ndarray, params: UltraParams) -> np.ndarray:
    """Drift coefficient ell(z) of the regularized operator.

    Reduces to n z at eps = 0 (plain operator) and for n = d.
    """
    z = np.asarray(z, dtype=float)
    n, d, eps = params.n, params.d, params.eps
    if eps == 0 or n == d:
        return n * z
    return z * (n - eps * (n - d) / (1.0 + eps - z**2))


def drift_prime(z: np.ndarray, params: UltraParams) -> np.ndarray:
    """Slope ell'(z) = n - eps (n - d)(1 + eps + z^2)/(1 + eps - z^2)^2."""
    z = np.asarray(z, dtype=float)
    n, d, eps = params.n, params.d, params.eps
    if eps == 0 or n == d:
        return np.full_like(z, n)
    return n - eps * (n - d) * (1.0 + eps + z**2) / (1.0 + eps - z**2) ** 2


def _apply(f: GridFn, q: Quadrature, params: UltraParams) -> GridFn:
    _, fp, fpp = _nodal_derivatives(f, q)
    return q.rho2 * fpp - drift(q.nodes, params) * fp


def apply_L(f: GridFn, q: Quadrature) -> GridFn:
    """Plain operator (1 - z^2) f'' - n z f' at the nodes of ``q``.

    n is taken from the rule; f must be sampled on ``q``.  Exact for
    polynomials of degree <= K up to differentiation rounding.
    """
    return _apply(f, q, UltraParams(n=q.n))


def apply_L_eps(f: GridFn, params: UltraParams, q: Quadrature | None = None) -> GridFn:
    """Regularized operator (1 - z^2) f'' - ell(z) f' at the nodes of ``q``.

    Requires eps > 0 unless n = d (where it coincides with apply_L).  The
    default rule is the N=64 regularized quadrature for ``params``.
    """
    if params.eps == 0 and params.n < params.d:
        raise DomainError("apply_L_eps with eps=0 is only defined at integer n=d")
    if q is None:
        q = build_quadrature(params, kind="regularized")
    return _apply(f, q, params)
