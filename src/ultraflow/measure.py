"""Weighted measures on [-1, 1] and the Gauss rules that integrate them.

The plain family is the probability measure

    dnu_n(z) = Z_n^{-1} (1 - z^2)^{(n-2)/2} dz,      Z_n = sqrt(pi) Gamma(n/2) / Gamma((n+1)/2),

defined for every real n > 0; for integer n it is the density of one
coordinate of the uniform measure on the n-sphere.  The regularized family
interpolates toward the integer dimension d = ceil(n) via the bounded weight

    dnu_{eps,n}(z) = Z_{eps,n}^{-1} (1 + eps - z^2)^{(n-d)/2} (1 - z^2)^{(d-2)/2} dz,

which is smooth on [-1, 1] for eps > 0 and collapses to dnu_n as eps -> 0.

Quadrature policy.  Plain measures use the N-point Gauss-Jacobi rule with
both exponents (n-2)/2, exact for polynomials of degree 2N-1.  Regularized
measures use the Gauss-Jacobi rule for the (d-2)/2 weight and fold the
bounded factor (1+eps-z^2)^{(n-d)/2} into the weights.  That factor is
analytic except at +-sqrt(1+eps), so its polynomial order grows like
1/sqrt(eps); ``refined_quadrature`` scales the node count accordingly and is
what every functional in this package integrates on.

Rules are memoized in two layers.  A Gauss-Jacobi base rule depends only on
(N, a), a = (d-2)/2 for regularized and (n-2)/2 for plain rules, and is
built once and shared read-only.  ``build_quadrature`` validates every call,
then returns the read-only rule for (kind, n, eps, N), which folds its
factor into new weights over the base nodes; p and beta do not enter it.
Each layer keeps 128 entries, at most 16 MiB together at the 4096-node cap.
Where that cap clips a refined rule the 1e-12 claim fails, and
``refined_quadrature`` and ``spectral.resample`` warn on every such call.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import AccuracyWarning, DomainError, ShapeError

#: Default Gauss rule size used throughout the package.
DEFAULT_NODES = 64

#: Smallest admissible positive regularization; below this the drift
#: coefficient is too close to its pole for double precision.
EPS_MIN = 1e-8

#: Node-count multiplier for the eps-adapted refined rule (empirically,
#: 24/sqrt(eps) nodes push the folded-weight quadrature error below 1e-12).
_EPS_REFINE = 24.0

#: Hard cap on refined-rule sizes, to keep worst-case calls bounded.
_MAX_REFINE = 4096


@dataclass(frozen=True)
class UltraParams:
    """Parameter bundle (n, eps, p, beta) with derived quantities.

    Parameters
    ----------
    n : float
        Effective dimension, any real n > 0.
    eps : float, optional
        Regularization strength; 0 (plain objects) or >= 1e-8.
    p : float, optional
        Integrable exponent, p >= 1.
    beta : float, optional
        Flow exponent, nonzero.  Defaults to 1 (heat scaling).

    Derived attributes ``d`` (smallest integer >= n), ``kappa`` and ``m``
    are always recomputed from the primary fields and cannot be set.
    """

    n: float
    eps: float = 0.0
    p: float = 2.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.n > 0 and math.isfinite(self.n)):
            raise DomainError(f"n must be a finite positive real, got {self.n}")
        if self.eps < 0 or not math.isfinite(self.eps):
            raise DomainError(f"eps must be >= 0, got {self.eps}")
        if 0 < self.eps < EPS_MIN:
            raise DomainError(
                f"eps={self.eps} is below the supported minimum {EPS_MIN}; "
                "use 0 or a larger value"
            )
        if not (self.p >= 1 and math.isfinite(self.p)):
            raise DomainError(f"p must satisfy p >= 1, got {self.p}")
        if self.beta == 0 or not math.isfinite(self.beta):
            raise DomainError(f"beta must be finite and nonzero, got {self.beta}")

    @property
    def d(self) -> int:
        """Smallest integer >= n, so d - 1 < n <= d."""
        return math.ceil(self.n)

    @property
    def kappa(self) -> float:
        """Gradient-term coefficient beta*(p-2) + 1 of the fast-diffusion flow."""
        return self.beta * (self.p - 2) + 1.0

    @property
    def m(self) -> float:
        """Porous-medium exponent 1 + (2/p)(1/beta - 1) of the pressure variable."""
        return 1.0 + (2.0 / self.p) * (1.0 / self.beta - 1.0)


@dataclass(frozen=True)
class Quadrature:
    """A positive quadrature rule normalized against its target measure.

    ``weights`` are strictly positive and sum to one, so ``integrate``
    approximates integrals against a probability measure.  ``kind`` is
    "plain" or "regularized"; ``order`` is the node count N.  ``n`` and
    ``eps`` echo the measure the rule was built for.
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    kind: str
    order: int
    n: float
    eps: float = 0.0

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, values: np.ndarray) -> float:
        """Integrate a function given by its values at ``nodes``."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.nodes.shape:
            raise ShapeError(
                f"expected {self.nodes.shape[0]} node values, got shape {values.shape}"
            )
        return float(np.dot(self.weights, values))

    def __repr__(self):  # keep array dumps out of error messages
        return (
            f"Quadrature(kind={self.kind!r}, order={self.order}, "
            f"n={self.n}, eps={self.eps})"
        )


def normalization_constant(n: float) -> float:
    """Total mass Z_n = sqrt(pi) Gamma(n/2) / Gamma((n+1)/2) of the plain weight.

    Valid for any real n > 0.  Z_1 = pi, Z_2 = 2, Z_3 = pi/2.
    """
    if n <= 0:
        raise DomainError(f"normalization requires n > 0, got {n}")
    return math.sqrt(math.pi) * math.gamma(n / 2.0) / math.gamma((n + 1) / 2.0)


def build_quadrature(
    params: UltraParams, N: int = DEFAULT_NODES, kind: str | None = None
) -> Quadrature:
    """Build the N-point rule for the plain or regularized measure of ``params``.

    ``kind`` defaults to "regularized" when params.eps > 0, else "plain".
    A regularized rule for n < d requires eps > 0; at n = d the bounded
    factor is identically one and the rule coincides with the plain one.

    Notes
    -----
    Weights are renormalized to sum to exactly one, so moment identities
    such as  int z^2 dnu_n = 1/(n+1)  hold to rounding for N >= 2.
    """
    if kind is None:
        kind = "regularized" if params.eps > 0 else "plain"
    if kind not in ("plain", "regularized"):
        raise DomainError(f"unknown quadrature kind {kind!r}")
    if N < 2:
        raise DomainError(f"need at least 2 nodes, got N={N}")
    if kind == "regularized" and params.eps == 0 and params.n < params.d:
        raise DomainError(
            "regularized quadrature with eps=0 is only defined at integer n=d"
        )
    return _rule(kind, float(params.n), float(params.eps), N)


@lru_cache(maxsize=128)
def _base_rule(N: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and raw weights of the N-point Gauss-Jacobi rule (a, a)."""
    nodes, w = roots_jacobi(N, a, a)
    nodes.setflags(write=False)
    w.setflags(write=False)
    return nodes, w


@lru_cache(maxsize=128)
def _rule(kind: str, n: float, eps: float, N: int) -> Quadrature:
    if kind == "plain":
        nodes, w = _base_rule(N, (n - 2.0) / 2.0)
    else:
        d = math.ceil(n)
        nodes, w = _base_rule(N, (d - 2.0) / 2.0)
        w = w * (1.0 + eps - nodes**2) ** ((n - d) / 2.0)
    return Quadrature(nodes=nodes, weights=w / w.sum(), kind=kind, order=N, n=n, eps=eps)


def refined_node_count(params: UltraParams, N: int) -> int:
    """Node count of the internally refined rule for non-polynomial integrands.

    Plain measures double the rule (suppresses |u|^p aliasing); regularized
    measures additionally scale like 1/sqrt(eps) so the folded weight is
    integrated to full precision.
    """
    return min(_wanted_node_count(params, N), _MAX_REFINE)


def _wanted_node_count(params: UltraParams, N: int) -> int:
    folded = params.eps > 0 and params.n < params.d
    return max(2 * N, math.ceil(_EPS_REFINE / math.sqrt(params.eps)) if folded else 0)


def _warn_if_capped(params: UltraParams, N: int) -> None:
    """AccuracyWarning, at the caller's caller, when the refined rule of (params, N) is clipped."""
    if (wanted := _wanted_node_count(params, N)) > _MAX_REFINE:
        msg = f"refined rule for n={params.n}, eps={params.eps} needs {wanted} nodes, capped at {_MAX_REFINE}"
        warnings.warn(msg + "; the advertised 1e-12 accuracy is not guaranteed", AccuracyWarning, stacklevel=3)


def refined_quadrature(
    params: UltraParams, N: int = DEFAULT_NODES, kind: str | None = None
) -> Quadrature:
    """The refined companion of ``build_quadrature(params, N, kind)``; warns if the cap clips it."""
    _warn_if_capped(params, N)
    return build_quadrature(params, refined_node_count(params, N), kind)
