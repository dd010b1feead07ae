"""Orthonormal polynomial bases, transforms, and spectral differentiation.

For the plain measure dnu_n the basis is the Gegenbauer family: orthonormal
polynomials P_k with P_0 = 1, P_1 proportional to z, satisfying

    L P_k = -k (k + n - 1) P_k,

so the operator module diagonalizes in this basis.  The recurrence
coefficients are computed by the Stieltjes procedure directly on the Gauss
rule (discrete inner products), which reproduces the classical three-term
recurrence to rounding for every real n > 0 and extends verbatim to the
regularized measures, whose orthonormal families have no classical closed
form.

A function on [-1, 1] is carried as a ``GridFn``, its values at the nodes
of a quadrature rule; ``OrthoBasis.analyze`` and ``synthesize`` map it to
and from coefficients in the orthonormal basis.  Transforms are exact for
polynomials of degree <= K because the Gauss rules integrate products of
basis elements exactly.
Derivatives are computed in spectral space; second derivatives apply the
first-derivative operator twice, so the top two modes carry no accuracy
guarantee.

Caching.  ``get_basis`` and ``get_regularized_basis`` memoize bases per
(n, N) and (n, eps, N); eps = 0 gives the plain basis on the refined
rule at any n.  The Gauss rules beneath them are memoized in the measure
module.  ``resample`` is the one way from samples to (u, u', u'') on the
refined rule: it keeps, for the key (n, eps, N), the refined rule, the
interpolation basis and the read-only tables of Q_k and Q_k' at the
refined nodes, built in one pass of the recurrence.  Only the most
recent key's tables are kept.  The identity loops visit one key at a
time, so that is all they reuse, while a scan over fresh keys never
reuses any.  At N = 64 one entry holds at most about 0.8 MB (746 refined
nodes at eps = 1e-8).
"""
from __future__ import annotations

import warnings
from functools import cached_property, lru_cache

import numpy as np

from .errors import AccuracyWarning, AliasingError, DomainError, ShapeError
from .measure import DEFAULT_NODES, Quadrature, UltraParams, build_quadrature, refined_quadrature

#: A function represented by its values at quadrature nodes.
GridFn = np.ndarray

#: Relative spectral tail energy beyond which differentiation warns.
TAIL_WARN_FRACTION = 1e-8


def eigenvalue(n: float, k: int) -> float:
    """Eigenvalue k (k + n - 1) of -L on the degree-k basis element."""
    if k < 0 or k != int(k):
        raise DomainError(f"mode index must be a nonnegative integer, got {k}")
    return float(k) * (float(k) + n - 1.0)


class OrthoBasis:
    """Orthonormal polynomials of a discrete measure, with derivatives.

    Built by the Stieltjes recurrence on ``quad``: with b_0 = 0,

        b_{k+1} Q_{k+1}(z) = (z - a_k) Q_k(z) - b_k Q_{k-1}(z),

    where a_k and b_k are discrete inner products against ``quad``.  The
    same recurrence, differentiated once and twice, evaluates Q_k' and
    Q_k'' anywhere without finite differencing.

    Parameters
    ----------
    quad : Quadrature
        Discrete measure defining the inner product.  Must be fine enough
        that moments up to degree 2K+1 are integrated accurately.
    K : int
        Highest retained degree; K <= order - 2.
    """

    def __init__(self, quad: Quadrature, K: int):
        if K + 2 > quad.order:
            raise AliasingError(
                f"truncation K={K} needs at least K+2={K + 2} nodes, rule has {quad.order}"
            )
        self.quad = quad
        self.K = K
        z, w = quad.nodes, quad.weights
        a = np.zeros(K + 1)
        b = np.zeros(K + 1)  # b[0] unused
        V = np.empty((z.size, K + 1))
        V[:, 0] = 1.0 / np.sqrt(w.sum())
        for k in range(K):
            a[k] = np.dot(w, z * V[:, k] ** 2)
            q = (z - a[k]) * V[:, k]
            if k > 0:
                q -= b[k] * V[:, k - 1]
            b[k + 1] = np.sqrt(np.dot(w, q * q))
            V[:, k + 1] = q / b[k + 1]
        a[K] = np.dot(w, z * V[:, K] ** 2)
        self.alpha = a
        self.offdiag = b
        self.V = V
        self.V1 = self._tables(z, 1, V[0, 0])[1]
        # coefficient-space first-derivative operator; second derivatives
        # apply it twice, so modes K-1 and K are outside accuracy claims
        self.D = V.T @ (w[:, None] * self.V1)
        for table in (self.V, self.V1, self.D):  # shared through the caches below
            table.setflags(write=False)

    def evaluate(self, nodes: np.ndarray, order: int = 0) -> np.ndarray:
        """Values (order 0), Q_k' (order 1) or Q_k'' (order 2) at ``nodes``.

        Returns an array of shape (len(nodes), K+1).  The recurrence is
        numerically stable on [-1, 1] for all supported measures.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        return self._tables(nodes, order)[order]

    @cached_property
    def end_slopes(self) -> np.ndarray:
        """Read-only rows Q_k'(-1) and Q_k'(+1), shape (2, K+1), built once per basis."""
        T = self._tables(np.array([-1.0, 1.0]), 1)[1]
        T.setflags(write=False)
        return T

    def _tables(self, nodes: np.ndarray, order: int, q0: float = 1.0) -> list[np.ndarray]:
        """[Q_k, Q_k', ...] up to derivative ``order`` at ``nodes``, in one recurrence pass.

        ``q0`` is the constant Q_0; the constructor passes its own
        1/sqrt(sum of weights), which may differ from 1 in the last bit.
        """
        z = np.asarray(nodes, dtype=float)
        a, b, K = self.alpha, self.offdiag, self.K
        T = [np.zeros((z.size, K + 1)) for _ in range(order + 1)]
        T[0][:, 0] = q0
        if K >= 1:
            T[0][:, 1] = (z - a[0]) * q0 / b[1]
            if order >= 1:
                T[1][:, 1] = q0 / b[1]
        for k in range(1, K):
            zk = z - a[k]
            T[0][:, k + 1] = (zk * T[0][:, k] - b[k] * T[0][:, k - 1]) / b[k + 1]
            for j in range(1, order + 1):
                T[j][:, k + 1] = (zk * T[j][:, k] + j * T[j - 1][:, k] - b[k] * T[j][:, k - 1]) / b[k + 1]
        return T

    def analyze(self, values: GridFn, K: int | None = None) -> np.ndarray:
        """Project node values onto the basis, returning coefficients 0..K."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.quad.nodes.shape:
            raise ShapeError(
                f"expected {self.quad.nodes.size} node values, got shape {values.shape}"
            )
        if K is None:
            K = self.K
        if K > self.K:
            raise AliasingError(f"requested K={K} exceeds basis truncation {self.K}")
        return self.V[:, : K + 1].T @ (self.quad.weights * values)

    def synthesize(self, coeffs: np.ndarray, nodes: np.ndarray | None = None) -> GridFn:
        """Evaluate a coefficient vector at ``nodes`` (defaults to the rule's)."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[0] > self.K + 1:
            raise AliasingError(
                f"coefficient vector of length {coeffs.shape[0]} exceeds basis size {self.K + 1}"
            )
        table = self.V if nodes is None else self.evaluate(nodes)
        return table[:, : coeffs.shape[0]] @ coeffs

    def derivative_values(self, coeffs: np.ndarray, nodes: np.ndarray | None = None) -> GridFn:
        table = self.V1 if nodes is None else self.evaluate(nodes, order=1)
        return table[:, : coeffs.shape[0]] @ coeffs

    def second_derivative_values(self, coeffs: np.ndarray, nodes: np.ndarray | None = None) -> GridFn:
        c1 = self.D[: coeffs.shape[0], : coeffs.shape[0]] @ coeffs
        return self.derivative_values(c1, nodes)


@lru_cache(maxsize=64)
def get_basis(n: float, N: int = DEFAULT_NODES) -> OrthoBasis:
    """Shared read-only Gegenbauer basis for the plain measure dnu_n."""
    quad = build_quadrature(UltraParams(n=n), N, kind="plain")
    return OrthoBasis(quad, K=N - 2)


@lru_cache(maxsize=16)
def get_regularized_basis(n: float, eps: float, N: int = DEFAULT_NODES) -> OrthoBasis:
    """Orthonormal basis of the regularized measure, built on its refined rule.

    Truncation is K = N - 2 as for plain bases, but the discrete inner
    product uses the eps-adapted refined rule so that the folded weight is
    integrated to full precision.  eps = 0 (any n) gives the plain basis.
    """
    params = UltraParams(n=n, eps=eps)
    return OrthoBasis(refined_quadrature(params, N), K=N - 2)


def interpolation_basis(q: Quadrature) -> OrthoBasis:
    """The polynomial family interpolating GridFn samples on ``q``.

    Plain rules carry the Gegenbauer basis of their own measure.  A
    regularized rule shares its nodes with the plain rule of the ceiling
    dimension d, so values on it are interpreted through the d-basis.
    """
    if q.kind == "plain":
        return get_basis(q.n, q.order)
    import math

    return get_basis(float(math.ceil(q.n)), q.order)


@lru_cache(maxsize=1)  # most recent key only; see the module docstring
def _discretization(n: float, eps: float, N: int) -> tuple:
    params = UltraParams(n=n, eps=eps)
    basis = interpolation_basis(build_quadrature(params, N))
    fine = refined_quadrature(params, N)
    V, V1 = basis._tables(fine.nodes, 1)
    V.setflags(write=False)
    V1.setflags(write=False)
    return fine, basis, V, V1


def resample(u: GridFn, params: UltraParams, N: int):
    """Spectral interpolant of samples on the N-node rule of ``params``, on its refined rule.

    The measure is regularized when params.eps > 0, plain otherwise; only
    n and eps matter.  Returns ``(fine, basis, c, u, u', u'')``: the refined
    rule, the interpolation basis, the coefficients of ``u`` in it, and the
    interpolant with its first two derivatives at ``fine.nodes``.  The
    values equal ``basis.synthesize``, ``basis.derivative_values`` and
    ``basis.second_derivative_values`` at those nodes, bit for bit.
    """
    fine, basis, V, V1 = _discretization(float(params.n), float(params.eps), N)
    c = basis.analyze(u)
    return fine, basis, c, V @ c, V1 @ c, V1 @ (basis.D @ c)


def _resample_positive(u: GridFn, params: UltraParams, N: int, what: str):
    """``resample`` of samples that are, and stay, strictly positive; ``what`` names them."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise DomainError(f"{what} must be strictly positive")
    out = resample(u, params, N)
    if np.any(out[3] <= 0):
        raise DomainError(f"{what} loses positivity under resampling; refine the grid")
    return out


def _nodal_derivatives(f: GridFn, q: Quadrature):
    """The N-node counterpart of ``resample``: ``(c, f', f'')`` at the nodes of ``q``.

    ``c`` holds the coefficients of the interpolant of f in
    ``interpolation_basis(q)``; f' and f'' equal ``derivative_values`` and
    ``second_derivative_values`` of c, bit for bit.
    """
    basis = interpolation_basis(q)
    c = basis.analyze(np.asarray(f, dtype=float))
    return c, basis.V1 @ c, basis.V1 @ (basis.D @ c)


def spectral_derivative(f: GridFn, q: Quadrature, order: int = 1) -> GridFn:
    """Derivative of the spectral interpolant of f, at the nodes of ``q``.

    Emits :class:`AccuracyWarning` when the top two modes carry more than
    ``TAIL_WARN_FRACTION`` of the coefficient energy, which signals that f
    is not resolved on this rule and the derivative is untrustworthy.
    """
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    c, fp, fpp = _nodal_derivatives(f, q)
    total = float(np.dot(c, c))
    if total > 0:
        tail = float(np.dot(c[-2:], c[-2:])) / total
        if tail > TAIL_WARN_FRACTION:
            warnings.warn(
                f"spectral tail fraction {tail:.2e} exceeds {TAIL_WARN_FRACTION:.0e}; "
                "derivative accuracy is degraded",
                AccuracyWarning,
                stacklevel=2,
            )
    return fp if order == 1 else fpp
