"""The ultraspherical operator and its regularized deformation.

Plain operator (self-adjoint in L^2(dnu_n)):

    L f = (1 - z^2) f'' - n z f',      <f, L g> = -int f' g' (1 - z^2) dnu_n.

Regularized operator (self-adjoint in L^2(dnu_{eps,n})), zeta = 1 + eps - z^2:

    L_eps f = (1 - z^2) f'' - ell(z) f',    ell = -(rho^2 w)'/w = z (n - eps (n - d) / zeta),

with w the eps-weight of the measure module.  eps enters the operator, the
identities and the gradient bound only through the deformation of n z,

    ell - n z = eps (d - n) z / zeta,    ell' - n = eps (d - n)(2 (1 + eps) - zeta) / zeta^2,

0 at eps = 0 or n = d (ell' >= n for n < d).  Its one owner, ``_deformation``,
forms zeta = rho^2 + eps from a rule's own rho^2 (exact from theta on the graded
rule) or, at points z, from (1 - z)(1 + z) (``_points``); it returns None in the
plain case, where callers add nothing.  Rules come from the Lu of ``apply_L``,
``apply_L_eps`` and the identities (through ``drift``) and from the eps corrections
(``identities._prepared``, the flow recorder, ``flows.dF_dt_closed_form``); points from ``drift``,
``drift_prime``, ``regularity_coeffs``.
Derivatives of the argument are spectral (see the spectral module); the
pointwise combination makes no use of the eigendecomposition, so eigenvalue
checks against k (k + n - 1) are a genuine cross-validation.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .measure import Quadrature, UltraParams, build_quadrature
from .spectral import GridFn, _finite, _nodal_derivatives


def _points(z: np.ndarray | Quadrature):
    """(z, rho^2) at the nodes of a rule, with its rho^2, or at points z, with (1 - z)(1 + z)."""
    if isinstance(z, Quadrature):
        return z.nodes, z.rho2
    z = np.asarray(z, dtype=float)
    return z, (1.0 - z) * (1.0 + z)


def _deformation(z: np.ndarray, rho2: np.ndarray, params: UltraParams):
    """(ell - n z, ell' - n) at z, with zeta = rho^2 + eps; None if plain (eps = 0 or n = d)."""
    n, d, eps = params.n, params.d, params.eps
    if eps == 0 or n == d:
        return None
    zeta = rho2 + eps
    r = eps * (d - n) / zeta  # exact on rationals too
    return r * z, r * (2 * (1 + eps) - zeta) / zeta


def drift(z: np.ndarray | Quadrature, params: UltraParams) -> np.ndarray:
    """Drift ell at points z, or at a rule's nodes with zeta from its rho^2; n z at eps = 0 and for n = d."""
    z, rho2 = _points(z)
    dz = _deformation(z, rho2, params)
    return params.n * z if dz is None else params.n * z + dz[0]


def drift_prime(z: np.ndarray, params: UltraParams) -> np.ndarray:
    """Slope ell'(z) = n - eps (n - d)(1 + eps + z^2)/(1 + eps - z^2)^2, shaped like z."""
    z, rho2 = _points(z)
    dz = _deformation(z, rho2, params)
    return np.full_like(z, params.n)[()] if dz is None else params.n + dz[1]


def _apply(fp: np.ndarray, fpp: np.ndarray, q: Quadrature, params: UltraParams) -> np.ndarray:
    return q.rho2 * fpp - drift(q, params) * fp


def apply_L(f: GridFn, q: Quadrature) -> GridFn:
    """Plain operator (1 - z^2) f'' - n z f' at the nodes of ``q``.

    n is taken from the rule, so on the sample rule of a key with eps > 0
    it is d, the rule's own measure; f must be sampled on ``q``.  Exact for
    polynomials of degree <= K up to differentiation rounding.
    """
    return _apply(*_nodal_derivatives(_finite(f), q)[1:], q, UltraParams(n=q.n))


def apply_L_eps(f: GridFn, params: UltraParams, q: Quadrature | None = None) -> GridFn:
    """Regularized operator (1 - z^2) f'' - ell(z) f' at the nodes of ``q``.

    Requires eps > 0 unless n = d (where it coincides with apply_L).  The
    default rule is ``build_quadrature(params)``, the 64-node sample rule of
    d = ceil(n).  A non-finite sample or a graded refined rule raises
    ``DomainError``.
    """
    if params.eps == 0 and params.n < params.d:
        raise DomainError("apply_L_eps with eps=0 is only defined at integer n=d")
    if q is None:
        q = build_quadrature(params)
    return _apply(*_nodal_derivatives(_finite(f), q)[1:], q, params)
