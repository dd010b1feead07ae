"""Orthonormal polynomial bases, transforms, and spectral differentiation.

For the plain measure dnu_n the basis is the Gegenbauer family: orthonormal
polynomials P_k with P_0 = 1, P_1 proportional to z, satisfying

    L P_k = -k (k + n - 1) P_k,

so the operator module diagonalizes in this basis.  The recurrence
coefficients come from the Stieltjes procedure of ``_recurrence`` on the
basis's rule (discrete inner products), which reproduces the classical
three-term recurrence to rounding for every real n > 0 and extends verbatim
to the regularized measures, whose orthonormal families have no classical
closed form; the stepping rule of those measures takes its recurrence from
the same loop, run values-only.

A function on [-1, 1] is carried as a ``GridFn``, its values at the nodes
of a quadrature rule; ``OrthoBasis.analyze`` and ``synthesize`` map it to
and from coefficients in the orthonormal basis.  Transforms are exact for
polynomials of degree <= K because the Gauss rules integrate products of
basis elements exactly.
Derivatives are computed in spectral space; second derivatives apply the
first-derivative operator twice, so the top two modes carry no accuracy
guarantee.

Building.  An ``OrthoBasis`` builds on first use, in one pass of
``_recurrence`` that forms (a_k, b_k) and Q_k with Q_k' together, as
``evaluate`` takes all derivative orders: each degree is one contiguous
(orders x nodes) block, a_k and b_{k+1} are inner products of its row 0
over the rule's nodes, and the blocks of eight degrees are written into
the column tables at once.  ``_tables_at`` adds further nodes to that
pass, whose rows go into tables of their own, or makes one ``_tables`` pass
on a built basis.  The arithmetic is that of a column-at-a-time Stieltjes
step and recurrence, bit for bit.
Medians on a 2-core x86-64 host at N = 64: a basis on the 128-node plain
refined rule 0.68-0.72 ms, on a 530- to 746-node graded rule 1.47-1.83 ms;
a cold ``resample`` key, the 64-node sample basis with the refined rule's
tables, 0.69-1.09 ms; Q_k and Q_k' on a built basis at the refined nodes
0.33-0.65 ms, at +-1 0.26-0.27 ms.

Samples.  Every entry point takes samples f with the ``UltraParams`` that
set their rule, ``build_quadrature(params, len(f))``, and its basis; one
check, ``_sample_contract``, asks for ``UltraParams`` and finite samples.

Caching.  ``get_basis`` and ``get_regularized_basis`` memoize bases per
(n, N) and (n, eps, N); eps = 0 gives the plain basis on the refined
rule at any n.  The Gauss rules beneath them are memoized in the measure
module.  ``resample`` is the one way from samples to (u, u', u'') on the
refined rule: it keeps, for the key (n, eps, N), the refined rule, the
sample basis and the read-only tables of Q_k and Q_k' at the
refined nodes, from ``_tables_at``: the pass that builds a cold basis, one
``_tables`` pass on a built one.  A basis keeps only its own rule's rows,
and the key only the refined rule's, so the cached bases do not grow with
the refined rules and no row is kept twice.  Only the most
recent key's tables are kept, so a caller reuses them while it stays on
one key.  One cold pass of the benchmark's identity sweep makes 192 hits
and 8 misses (its two checks of each function share one resample, see the
identities module), its parameter scan 0 and 62 (every key is fresh), and
one CLI ``identities`` command 2 misses (1 at integer n without eps).  At
N = 64 one entry holds at most about 0.8 MB (746 refined nodes at
eps = 1e-8).
"""
from __future__ import annotations

import math
import warnings
from functools import cached_property, lru_cache

import numpy as np

from .errors import AccuracyWarning, AliasingError, DomainError, ShapeError, _warn
from .measure import DEFAULT_NODES, Quadrature, UltraParams, build_quadrature, refined_quadrature

#: A function represented by its values at quadrature nodes.
GridFn = np.ndarray

#: Relative spectral tail energy beyond which differentiation warns.
TAIL_WARN_FRACTION = 1e-8

_RING = 8  # degree k's block sits in slot k % _RING; a flush writes 8 doubles, a cache line, per row


def eigenvalue(n: float, k: int) -> float:
    """Eigenvalue k (k + n - 1) of -L on the degree-k basis element."""
    if k < 0 or k != int(k):
        raise DomainError(f"mode index must be a nonnegative integer, got {k}")
    return float(k) * (float(k) + n - 1.0)


def _recur(P: np.ndarray, Pm: np.ndarray, zk: np.ndarray, bk: float, out: np.ndarray) -> np.ndarray:
    """b_{k+1} times the block of degree k + 1, from the blocks ``P`` of degree k and ``Pm`` of k - 1.

    Row j of a block holds the Taylor coefficient Q^(j)/j! at the nodes, so
    differentiating the recurrence j times adds row j - 1 unscaled:
    ``out`` = zk P + P shifted down a row - b_k Pm, with zk = z - a_k in every
    row: a broadcast row doubles the cost of each call at small node counts.
    """
    np.multiply(zk, P, out)
    if len(out) > 1:
        out[1:] += P[:-1]
    out -= bk * Pm
    return out


def _flush(tables: list[tuple[np.ndarray, np.ndarray]], k: int) -> None:
    """For each (R, T) of ``tables``, R a (nodes, slot) view of one row of the ring, write
    its blocks of degrees k - k % _RING .. k into columns of T."""
    s = k % _RING
    for R, T in tables:
        T[:, k - s : k + 1] = R[:, : s + 1]


def _recurrence(
    z: np.ndarray, K: int, order: int, q0: float, a: list, b: list, w: np.ndarray | None = None
) -> list[np.ndarray]:
    """[Q_k, Q_k', ...], k = 0..K, up to derivative ``order`` at the 1-D float nodes ``z``, in
    one pass of the recurrence from Q_0 = ``q0`` with a_k = a[k] and b_k = b[k].

    Given the weights ``w`` of a rule whose nodes lead ``z``, the pass is also the Stieltjes
    procedure, the one place that forms a recurrence from a rule: ``a`` and ``b`` enter as []
    and [0.0], and it appends a_k = <z Q_k, Q_k> and b_{k+1} = |(z - a_k) Q_k - b_k Q_{k-1}|,
    inner products over the rule's nodes, as it reaches them; from q0 = 1/sqrt(sum w) they are
    exact while the rule integrates z Q_k^2 exactly (Gautschi, Orthogonal Polynomials, OUP
    2004, section 2.2).  The tables at the nodes after the rule's are then tables of their
    own, returned after the rule's.  Row 0 is elementwise the values-only recurrence, so
    neither the nodes after the rule's nor ``order`` move a bit of the coefficients or tables;
    order -1 runs that recurrence alone and returns no table.
    """
    rows = max(order, 0) + 1  # order -1: row 0 alone, and no table
    P = np.zeros((_RING, rows, z.size))  # the block of degree k in slot k % _RING
    S, Z = list(P), np.tile(z, (rows, 1))
    P[0, 0] = q0
    size = 0 if w is None else w.size
    zw = z[:size]
    rings = (P[..., :size], P[..., size:]) if 0 < size < z.size else (P,)  # the rule's nodes, the rest
    tables = [(ring[:, j].T, np.empty((ring.shape[2], K + 1))) for ring in rings for j in range(order + 1)]
    for k in range(K):
        s = k % _RING
        if s == _RING - 1:
            _flush(tables, k)
        if size:
            p = S[s][0, :size]
            a.append(w.dot(zw * p**2))
        Pn = _recur(S[s], S[s - 1], Z - a[k], b[k], S[(s + 1) % _RING])
        if size:
            p = Pn[0, :size]
            b.append(math.sqrt(w.dot(p * p)))
        Pn /= b[k + 1]
    if size:
        p = S[K % _RING][0, :size]
        a.append(w.dot(zw * p**2))
    _flush(tables, K)
    T = [t for _, t in tables]
    if order == 2:
        T[2] *= 2.0  # Q'' = 2! times its Taylor coefficient, exactly
    return T


class OrthoBasis:
    """Orthonormal polynomials of a discrete measure, with derivatives.

    Built on the recurrence of ``quad``: with b_0 = 0,

        b_{k+1} Q_{k+1}(z) = (z - a_k) Q_k(z) - b_k Q_{k-1}(z),

    where a_k (``alpha``) and b_k (``offdiag``) are discrete inner products
    against ``quad``, formed by the Stieltjes procedure of ``_recurrence``.
    The same recurrence, differentiated once and twice, evaluates Q_k' and
    Q_k'' anywhere without finite differencing; ``V`` and ``V1`` are Q_k and
    Q_k' at the rule's nodes.  The basis builds on first use: the first read
    of ``alpha``, ``offdiag``, ``V``, ``V1`` or ``D`` forms them all in one
    pass, which ``_tables_at`` extends to further nodes (see the module
    docstring).  ``AliasingError`` is raised at construction.

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

    def __getattr__(self, name: str):
        # reached only while the basis is unbuilt: a read of what the build forms builds it
        if name not in ("alpha", "offdiag", "V", "V1", "D"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build(np.empty(0))
        return self.__dict__[name]

    def _build(self, extra: np.ndarray) -> list[np.ndarray]:
        """Form alpha, offdiag, V, V1 and D in one pass over the rule's nodes followed by
        ``extra``; return Q_k and Q_k' at ``extra``."""
        w = self.quad.weights
        a, b = [], [0.0]
        V, V1, *at_extra = _recurrence(np.concatenate((self.quad.nodes, extra)), self.K, 1,
                                       1.0 / np.sqrt(w.sum()), a, b, w)
        # coefficient-space first-derivative operator; second derivatives
        # apply it twice, so modes K-1 and K are outside accuracy claims
        D = V.T @ (w[:, None] * V1)
        for table in (V, V1, D):  # shared through the caches below
            table.setflags(write=False)
        self.alpha, self.offdiag, self.V, self.V1, self.D = np.array(a), np.array(b), V, V1, D
        return at_extra

    def _tables_at(self, nodes: np.ndarray) -> list[np.ndarray]:
        """[Q_k, Q_k'] at the 1-D float ``nodes``: added to the build of an unbuilt basis,
        else one ``_tables`` pass; either way they meet ``V`` bit for bit."""
        return self._tables(nodes, 1) if "V" in self.__dict__ else self._build(nodes)

    def evaluate(self, nodes: np.ndarray, order: int = 0) -> np.ndarray:
        """Values (order 0), Q_k' (order 1) or Q_k'' (order 2) at ``nodes``.

        ``nodes`` must be 1-D (else ``ShapeError``).  Returns an array of
        shape (len(nodes), K+1).  The recurrence is numerically stable on
        [-1, 1] for all supported measures.
        """
        if order not in (0, 1, 2):
            raise DomainError(f"order must be 0, 1 or 2, got {order}")
        z = np.asarray(nodes, dtype=float)
        if z.ndim != 1:
            raise ShapeError(f"nodes must be a 1-D array, got shape {z.shape}")
        return self._tables(z, order)[order]

    @cached_property
    def end_slopes(self) -> np.ndarray:
        """Read-only rows Q_k'(-1) and Q_k'(+1), shape (2, K+1), built once per basis."""
        T = self._tables(np.array([-1.0, 1.0]), 1)[1]
        T.setflags(write=False)
        return T

    def _tables(self, z: np.ndarray, order: int) -> list[np.ndarray]:
        """[Q_k, Q_k', ...] up to derivative ``order`` at the 1-D float nodes ``z``, in one
        recurrence pass from the built basis's Q_0, so every table meets ``V`` bit for bit."""
        return _recurrence(z, self.K, order, self.V[0, 0], self.alpha.tolist(), self.offdiag.tolist())

    def analyze(self, values: GridFn) -> np.ndarray:
        """Project node values onto the basis, returning coefficients 0..K."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.quad.nodes.shape:
            raise ShapeError(
                f"expected {self.quad.nodes.size} node values, got shape {values.shape}"
            )
        return self.V.T @ (self.quad.weights * values)

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
    return OrthoBasis(build_quadrature(UltraParams(n=n), N), K=N - 2)


@lru_cache(maxsize=16)
def get_regularized_basis(n: float, eps: float, N: int = DEFAULT_NODES) -> OrthoBasis:
    """Orthonormal basis of the regularized measure, built on its refined rule.

    Truncation is K = N - 2 as for plain bases, but the discrete inner
    product uses the eps-adapted refined rule, the one rule that integrates
    the regularized weight to full precision.  eps = 0 (any n) gives the
    plain basis.
    """
    params = UltraParams(n=n, eps=eps)
    return OrthoBasis(refined_quadrature(params, N), K=N - 2)


@lru_cache(maxsize=1)  # most recent key only; see the module docstring
def _discretization(n: float, eps: float, N: int) -> tuple:
    params = UltraParams(n=n, eps=eps)
    # the one small-n warning of a key: the 2N-node refined rule warns wherever the
    # N-node sample rule would, since the threshold grows with N
    fine = refined_quadrature(params, N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        basis = get_basis(build_quadrature(params, N).n, N)
    V, V1 = basis._tables_at(fine.nodes)
    V.setflags(write=False)
    V1.setflags(write=False)
    return fine, basis, V, V1


def resample(u: GridFn, params: UltraParams):
    """Spectral interpolant of samples on the len(u)-node rule of ``params``, on its refined rule.

    The measure is regularized when params.eps > 0, plain otherwise.
    Returns ``(fine, basis, c, u, u', u'')``: the refined rule, the sample
    basis, the coefficients of ``u`` in it, and the interpolant with its
    first two derivatives at ``fine.nodes``.  The values equal
    ``basis.synthesize``, ``basis.derivative_values`` and
    ``basis.second_derivative_values`` at those nodes, bit for bit.  Samples
    that break ``_sample_contract`` raise ``DomainError``.  A key whose rules lie
    below ``gauss_jacobi``'s threshold warns once, at the caller's line, when the key
    changes (one is kept), not per call.
    """
    return _resample(_sample_contract(params, u), params)


def _resample(u: np.ndarray, params: UltraParams):
    """``resample`` of samples that passed ``_sample_contract``."""
    fine, basis, V, V1 = _discretization(float(params.n), float(params.eps), len(u))
    c = basis.analyze(u)
    return fine, basis, c, V @ c, V1 @ c, V1 @ (basis.D @ c)


def _sample_contract(params: UltraParams, u: GridFn = (), positive: str | None = None) -> np.ndarray:
    """``u`` as a float array, if it keeps the contract of samples; else ``DomainError``.

    ``params`` is ``UltraParams``: a rule or a dict echoes n and eps, not the
    measure of the samples.  Every sample is finite, or, where the caller gives
    ``positive``, the message of its refusal, lies in (0, inf); NaN fails both.
    With no samples (a flow's configuration) only ``params`` is checked; an
    empty ``u`` passes, for the rule builder to reject.
    """
    if not isinstance(params, UltraParams):
        raise DomainError(f"samples come with the UltraParams of their measure, got {params!r}")
    u = np.asarray(u, dtype=float)
    if u.size and not (-np.inf if positive is None else 0.0) < u.min() <= u.max() < np.inf:
        raise DomainError(positive or "the samples must be finite")
    return u


def _resample_positive(u: GridFn, params: UltraParams, what: str):
    """``resample`` of samples that are, and stay, finite and strictly positive; ``what`` names them."""
    u = _sample_contract(params, u, f"{what} must be finite and strictly positive")
    out = _resample(u, params)
    _sample_contract(params, out[3], f"{what} loses positivity under resampling; refine the grid")
    return out


def _nodal_derivatives(f: GridFn, params: UltraParams, positive: str | None = None):
    """The N-node counterpart of ``resample``: ``(basis, c, f, f', f'')`` at the nodes of f's rule.

    ``f`` comes back as the float array that ``_sample_contract`` (with
    ``positive``) checked, ``c`` holds its coefficients in the sample basis,
    and f' and f'' equal ``derivative_values`` and ``second_derivative_values``
    of c, bit for bit.
    """
    f = _sample_contract(params, f, positive)
    basis = get_basis(build_quadrature(params, len(f)).n, len(f))
    c = basis.analyze(f)
    return basis, c, f, basis.V1 @ c, basis.V1 @ (basis.D @ c)


def spectral_derivative(f: GridFn, params: UltraParams, order: int = 1) -> GridFn:
    """Derivative of the spectral interpolant of f, at the nodes of ``build_quadrature(params, len(f))``.

    Emits :class:`AccuracyWarning` when the top two modes carry more than
    ``TAIL_WARN_FRACTION`` of the coefficient energy, which signals that f
    is not resolved on this rule and the derivative is untrustworthy.
    Samples that break ``_sample_contract`` raise ``DomainError``.
    """
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    _, c, _, fp, fpp = _nodal_derivatives(f, params)
    _warn_unresolved(c, "derivative")
    return fp if order == 1 else fpp


def _warn_unresolved(c: np.ndarray, what: str) -> None:
    """``errors._warn``'s AccuracyWarning, at the line that called the entry point ``what``, when
    the top two modes of ``c`` carry more than ``TAIL_WARN_FRACTION`` of its energy: the function
    is not resolved."""
    total = float(c.dot(c))
    if total > 0:
        tail = float(c[-2:].dot(c[-2:])) / total
        if tail > TAIL_WARN_FRACTION:
            _warn(f"spectral tail fraction {tail:.2e} exceeds {TAIL_WARN_FRACTION:.0e}; {what} accuracy is degraded")
