"""Weighted measures on [-1, 1] and the Gauss rules that integrate them.

The plain family is the probability measure

    dnu_n(z) = Z_n^{-1} (1 - z^2)^{(n-2)/2} dz,      Z_n = sqrt(pi) Gamma(n/2) / Gamma((n+1)/2),

defined for every real n > 0; for integer n it is the density of one
coordinate of the uniform measure on the n-sphere.  The regularized family
interpolates toward the integer dimension d = ceil(n) via the bounded weight

    dnu_{eps,n}(z) = Z_{eps,n}^{-1} (1 + eps - z^2)^{(n-d)/2} (1 - z^2)^{(d-2)/2} dz,

which is smooth on [-1, 1] for eps > 0 and collapses to dnu_n as eps -> 0.

Quadrature policy.  GridFn samples live on the N-point Gauss-Jacobi rule of
a plain measure dnu_m, both exponents (m-2)/2, exact for polynomials of
degree 2N-1: m = n when eps = 0 and m = d when eps > 0, since for n < d the
bounded factor (1+eps-z^2)^{(n-d)/2} has branch points about eps/2 outside
[-1, 1] and no N-node Gauss rule integrates it.  Functionals integrate on
``refined_quadrature``, good to degree 4N-1 like the 2N-node plain rule
that it is for plain measures and at n = d.  For eps > 0 and n < d, in
theta = arccos z the measure reads
sin^{d-1}(theta) (sin^2 theta + eps)^{(n-d)/2} d theta, near-singular only
at theta = +-i sqrt(eps), and the refined rule is composite Gauss-Legendre
in theta, with panels halved from pi/2 toward 0 (mirrored toward pi) until
an edge is at most sqrt(eps)/2 (Schwab, Computing 53, 1994):
O(N + log(1/eps)) nodes.  So every rule integrates the measure (n, eps) it
echoes.

The flows step on ``_stepping_rule``, the 2N-node Gauss rule of the
measure, good to degree 4N-1 as well: the refined rule itself where eps = 0
or n = d.  Otherwise the Stieltjes procedure of ``spectral._recurrence``,
the loop that builds every basis, run values-only on the graded rule gives
the recurrence of the regularized measure up to degree 2N, exact since that
rule is exact to degree 4N-1 (Gautschi, Orthogonal Polynomials, OUP 2004,
section 2.2), and the eigenvalue and Newton steps of ``_golub_welsch`` its
nodes; the Christoffel weights are summed again at the corrected nodes,
since the Jacobi equation that carries them across the Newton step does
not hold for this weight.  Its Chebyshev
moments below degree 4N meet the graded rule's within 5.0e-15 (1.6e-13 at
(0.300001, 1e-8), the rounding of a node next to 1 that carries 0.115 of
the mass).  The graded rule and this rule are the only rules with eps > 0;
neither carries samples.

Every rule carries rho^2 = 1 - z^2 at its nodes, and so zeta = rho^2 + eps,
for integrands to read: 1 - nodes^2 on Gauss rules, sin^2 theta on the graded
one, which keeps the digits that 1 - z^2 and 1 + eps - z^2 lose at +-1.

Rules are memoized and shared read-only: 128 keys of the Gauss rule per
(n, N) that ``build_quadrature`` returns after validation (p, beta and,
beyond choosing d, eps do not enter it), whose n = 2 rules are the graded
rule's Gauss-Legendre panels, few sizes per N since the panel edges pi/2^j
do not depend on eps; and, 16 keys only, as many as the bases built on it,
the graded rule and the stepping rule per (n, eps, N).  These caches are
the only memo: a rule rebuilt after its entry is dropped is a new object
with the same arrays, and no code compares rules by identity.  Warnings
are not memoized: each ``build_quadrature`` call gives its own.

Gauss-Jacobi rules come from ``gauss_jacobi``, with numpy alone.  At
a = -1/2 and 1/2 it takes Chebyshev's closed forms: nodes cos((2k-1) pi/2N)
with equal weights, and nodes cos(k pi/(N+1)) with weights proportional to
sin^2(k pi/(N+1)).  Every other a goes to ``_golub_welsch`` (Golub & Welsch,
Math. Comp. 23, 1969, with the Newton step of Hale & Townsend, SIAM J. Sci.
Comput. 35, 2013).  The squares of the nonnegative nodes are the eigenvalues
of the even block of J^2, a ceil(N/2)-square matrix, J the Jacobi matrix of
the orthonormal recurrence.  One pass of that recurrence gives p_{N-1}, p_N
and S = sum_{k<N} p_k^2 at them, so one Newton step, and the Christoffel
weight 1/S carried to the corrected node.  Measured for N <= 256 and n in
[1e-3, 12]: nodes within 2.0e-16 of 30-digit zeros (the eigenvalues alone
miss by up to 3.4e-15 next to 0); plain-rule even moments within 8.0e-14
of their closed form, against 6.0e-10 with scipy's rules and 1.9e-12 with
1/S taken at the uncorrected node.  Median cost of a build for
a in {-0.35, 0.25, 1}: 0.14-0.22 ms at N = 64 and 0.33-0.47 ms at N = 128,
against 0.19-0.26 and 0.57-0.73 ms for ``scipy.special.roots_jacobi`` on the
same 2-core x86-64 host; a closed form takes under 0.01 ms.  For the
11- to 212-node Gauss-Legendre panels (a = 0) of the graded rule at N = 64
and 128: nodes within 1.1e-16 and weights within 7.3e-14 (relative) of
30-digit mpmath, where numpy's ``leggauss`` misses the weights by 8.9e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ShapeError, _warn

#: Default Gauss rule size used throughout the package.
DEFAULT_NODES = 64

#: Smallest admissible positive regularization: the range down to which the
#: refined rule and the eps corrections are checked against mpmath.
EPS_MIN = 1e-8


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
    approximates integrals against a probability measure.  ``order`` is the
    node count, read off ``nodes``.  ``n`` and ``eps`` echo the measure the
    rule integrates: eps = 0 on the Gauss-Jacobi rules, eps > 0 only on the
    graded refined rule and the stepping rule of the regularized measure.
    ``rho2`` is rho^2 = 1 - z^2 at the nodes (see the module docstring).
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    n: float
    eps: float = 0.0
    rho2: np.ndarray = field(repr=False, kw_only=True)

    def __post_init__(self):
        for a in (self.nodes, self.weights, self.rho2):
            a.setflags(write=False)

    @property
    def order(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> float | np.ndarray:
        """Integrate a function given by its values at ``nodes``.

        The last axis runs over the nodes.  A 1-D array gives a float; an
        (..., N) block gives the (...) array of its rows' integrals.  Values
        are taken as float64.  An array of the nodes' shape, tested first, is
        one ``weights.dot``, bit for bit ``float(weights.dot(values))``; any
        other shape must end in the node count, else ``ShapeError``.
        """
        values = np.asarray(values, dtype=float)
        if values.shape == self.nodes.shape:
            return float(self.weights.dot(values))
        if values.shape[-1:] != self.nodes.shape:
            raise ShapeError(
                f"expected {self.nodes.shape[0]} node values, got shape {values.shape}"
            )
        return values @ self.weights

    def __repr__(self):  # keep array dumps out of error messages
        return f"Quadrature(order={self.order}, n={self.n}, eps={self.eps})"


def normalization_constant(n: float) -> float:
    """Total mass Z_n = sqrt(pi) Gamma(n/2) / Gamma((n+1)/2) of the plain weight.

    Valid for any real n > 0.  Z_1 = pi, Z_2 = 2, Z_3 = pi/2.
    """
    if n <= 0:
        raise DomainError(f"normalization requires n > 0, got {n}")
    return math.sqrt(math.pi) * math.gamma(n / 2.0) / math.gamma((n + 1) / 2.0)


def _critical_exponent(n: float) -> float:
    """The Sobolev endpoint 2n/(n-2) of p on dnu_n, +inf for n <= 2."""
    return math.inf if n <= 2 else 2.0 * n / (n - 2.0)


def build_quadrature(
    params: UltraParams, N: int = DEFAULT_NODES, kind: str | None = None
) -> Quadrature:
    """The N-point Gauss rule that GridFn samples of ``params`` live on.

    eps = 0: the rule of the plain measure dnu_n.  eps > 0: the plain rule
    of d = ceil(n), the same cached object as
    ``build_quadrature(UltraParams(n=d), N)``; the regularized measure
    itself is integrated on ``refined_quadrature`` (module docstring).

    ``kind`` selects nothing: it is a checked echo, "regularized" when
    eps > 0 and "plain" otherwise, and anything else raises DomainError.
    It is kept only for the benchmark harness, which still passes it.

    Notes
    -----
    Weights are renormalized to sum to exactly one, so moment identities
    such as  int z^2 dnu_n = 1/(n+1)  hold to rounding for N >= 2.  Plain
    rules meet every even moment they integrate exactly,
    B(k + 1/2, a + 1) / B(1/2, a + 1) with a = (n-2)/2 and k < N, within
    8.0e-14 for N <= 256 and n in [1e-3, 12], and ``fisher(z)`` = n/(n+1)
    within 1.2e-14 (measured; module docstring).  Below ``gauss_jacobi``'s
    threshold every call warns, at the caller's line, cached rule or not.
    """
    echo = "regularized" if params.eps > 0 else "plain"
    if kind not in (None, echo):
        raise DomainError(f"kind={kind!r} contradicts eps={params.eps}, whose echo is {echo!r}; kind selects no rule")
    if N < 2:
        raise DomainError(f"need at least 2 nodes, got N={N}")
    n = float(params.d if params.eps else params.n)
    rule = _rule(n, N)
    _warn_small_n(N, (n - 2.0) / 2.0)
    return rule


def gauss_jacobi(N: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights summing to one of the N-point Gauss rule for
    (1 - x^2)^a, a > -1: Chebyshev's closed forms at a = -1/2 and 1/2, else
    ``_golub_welsch`` (module docstring).

    Emits :class:`AccuracyWarning` where a + 1 < 1.8e-19 N^4 s^3,
    s = max(1, min(N, 1024) / 256) (n < 3.6e-19 N^4 s^3 on the plain measure):
    the nodes next to +-1 lie within about 2 (a + 1) / N^2 of them, the Newton
    step there loses digits, and the even moments can miss their closed form
    by more than 1e-12.  Measured against 30-digit moments at 16 sizes from
    N = 192 to 1024 (40 points a decade of n / N^4 in [10^-19.6, 10^-16.5] and
    40 random ones), the largest n / N^4 with a miss above 1e-12 is 2.8e-19 at
    N = 256, 6.7e-19 at 384 and 1.6e-18 at 512, the most up to 1024: faster
    than N^4.  Above the threshold (34 sizes from 16 to 1024, n up to 30 times
    it) no miss exceeds 7.9e-13.  Past N = 1024, s stays 4 (the worst n / N^4
    at 2048 is 1.7e-18).  Each call warns, at the caller's line, as does
    each ``build_quadrature`` call of such a rule; a rule built inside the package
    (``refined_quadrature``, ``get_basis``, ``resample``) warns at the innermost line
    outside it.
    """
    rule = _gauss_jacobi(N, a)
    _warn_small_n(N, a)
    return rule


def _gauss_jacobi(N: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """``gauss_jacobi`` without its warning, which the rule cache's callers give on every call."""
    if not a > -1.0:
        raise DomainError(f"the Gauss rule of (1 - z^2)^a needs a > -1, got {a} (on the plain "
                          "measure, n below 1.1e-16 rounds a = (n - 2)/2 to -1)")
    k = np.arange(N, 0, -1)
    if a == -0.5:
        return np.cos((2 * k - 1) * (math.pi / (2 * N))), np.full(N, 1.0 / N)
    if a == 0.5:
        w = np.sin(k * (math.pi / (N + 1))) ** 2
        return np.cos(k * (math.pi / (N + 1))), w / w.sum()
    return _golub_welsch(N, a)


def _warn_small_n(N: int, a: float) -> None:
    """``gauss_jacobi``'s warning (none on a closed form), from ``errors._warn``: at the line
    that called ``gauss_jacobi``, ``build_quadrature`` or whatever built the rule."""
    if abs(a) != 0.5 and a + 1.0 < 1.8e-19 * N**4 * max(1.0, min(N, 1024) / 256) ** 3:
        _warn(f"the {N}-node Gauss rule of (1 - z^2)^a at a + 1 = {a + 1.0:.3g} (the plain measure of "
              f"n = {2.0 * a + 2.0:.3g}) is below the measured threshold of gauss_jacobi: its moments "
              "can miss by more than 1e-12; use fewer nodes")


def _golub_welsch(N: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """``gauss_jacobi`` for any a > -1: eigenvalues, one Newton step, Christoffel weights."""
    # the orthonormal polynomials of the probability measure: x p_k = b_{k+1} p_{k+1} + b_k p_{k-1},
    # b_k^2 = k (k + 2a) / ((2k + 2a)^2 - 1), at k = 1 with the factor 1 + 2a cancelled
    k = np.arange(2.0, N + 1)
    b2 = np.concatenate(([0.0, 1.0 / (3.0 + 2.0 * a)], k * (k + 2.0 * a) / ((2.0 * k + 2.0 * a) ** 2 - 1.0)))
    x, dx, S = _symmetric_nodes(b2)
    if x[-1] >= 1.0:  # a + 1 below about 1e-16 N^2: the node next to 1 rounds to it
        raise DomainError(
            f"the {N}-node Gauss rule of (1 - z^2)^a at a + 1 = {a + 1.0:.3g} (the plain measure "
            f"of n = {2.0 * a + 2.0:.3g}) has a node within rounding of +-1; use fewer nodes"
        )
    # the Jacobi equation gives S' = (2a + 2) x S / (1 - x^2): 1/S carried to the corrected node
    return _mirror(x, (1.0 + (2.0 * a + 2.0) * x * dx / (1.0 - x * x)) / S, N)


def _symmetric_nodes(b2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending nonnegative zeros x of p_N, the Newton step dx that corrected them and
    S = sum_{k<N} p_k^2 before it, for the symmetric recurrence with b_k^2 = b2[k], N = b2.size - 1."""
    N = b2.size - 1
    b = np.sqrt(b2)
    # the squares of the nonnegative nodes are the eigenvalues of the even block
    # of J^2: b_k^2 + b_{k+1}^2 (no b_N^2) on its diagonal, b_{k+1} b_{k+2} below
    # it, for k = 0, 2, ...; eigvalsh reads the lower triangle
    m = (N + 1) // 2
    A = np.zeros((m, m))
    diag = A.reshape(-1)[:: m + 1]
    diag[:] = b2[0:N:2]
    diag[: N // 2] += b2[1:N:2]
    A.reshape(-1)[m :: m + 1] = b[1 : N - 1 : 2] * b[2:N:2]
    y = np.linalg.eigvalsh(A)
    if N % 2:
        y[0] = 0.0
    x = np.sqrt(y)
    p = _orthonormal_values(b, x)
    S = np.einsum("ij,ij->j", p[:N], p[:N])  # sum_{k<N} p_k^2, the inverse weight
    # at a zero of p_N, Christoffel-Darboux gives p_N' = S / (b_N p_{N-1})
    dx = p[N] * b[N] * p[N - 1] / S
    return x - dx, dx, S


def _orthonormal_values(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows p_0 = 1, ..., p_N at x of the symmetric recurrence with coefficients b, N = b.size - 1."""
    # one pass of the recurrence, as r_{k+1} = c_k x r_k - r_{k-1} with p_k = s_k r_k:
    # s_{k+1} = s_{k-1} b_k / b_{k+1} leaves two numpy calls a step
    N = b.size - 1
    t = b[1:N] / b[2:]
    s = np.ones(N + 1)
    s[2::2] = np.cumprod(t[0::2])
    s[3::2] = np.cumprod(t[1::2])
    cx = np.multiply.outer(s[:N] / (b[1:] * s[1:]), x)
    r = np.empty((N + 1, x.size))
    r[0], r[1] = 1.0, cx[0]
    rows = list(r)
    for c, r0, r1, r2 in zip(cx[1:], rows, rows[1:], rows[2:]):
        np.multiply(c, r1, r2)
        np.subtract(r2, r0, r2)
    return s[:, None] * r


def _mirror(x: np.ndarray, w: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric N-node rule of its nonnegative nodes x (x[0] = 0 for odd N), weights summing to one."""
    h = N % 2
    w = np.concatenate((w[h:][::-1], w))
    return np.concatenate((-x[h:][::-1], x)), w / w.sum()


@lru_cache(maxsize=128)
def _rule(n: float, N: int) -> Quadrature:
    """The N-point Gauss rule of dnu_n, read-only; at n = 2 Gauss-Legendre, the graded rule's panels."""
    nodes, w = _gauss_jacobi(N, (n - 2.0) / 2.0)
    return Quadrature(nodes=nodes, weights=w / w.sum(), n=n, rho2=1.0 - nodes**2)


@lru_cache(maxsize=16)
def _graded_rule(n: float, eps: float, N: int) -> Quadrature:
    """The refined rule of the regularized measure for n < d: graded Gauss-Legendre in theta."""
    d = math.ceil(n)
    edges = [math.pi / 2]
    while edges[-1] > 0.5 * math.sqrt(eps):
        edges.append(edges[-1] / 2)
    edges = [0.0, *edges[::-1]]
    theta, w = [], []
    for lo, hi in zip(edges, edges[1:]):
        # 2N (hi - lo) nodes resolve cos(k theta), k < 4N; 10 more resolve the
        # weight, whose branch points lie about a panel width away
        panel = _rule(2.0, 10 + math.ceil(2 * N * (hi - lo)))  # Gauss-Legendre
        theta.append(lo + (hi - lo) * (panel.nodes + 1) / 2)
        w.append(panel.weights * (hi - lo))
    theta, w = np.concatenate(theta), np.concatenate(w)
    s2 = np.sin(theta) ** 2
    w = w * np.sin(theta) ** (d - 1) * (s2 + eps) ** ((n - d) / 2)
    z = np.cos(theta)  # descending on (0, 1); the mirror image about pi/2 gives z < 0
    nodes, w, s2 = (np.concatenate((x, y[::-1])) for x, y in ((-z, z), (w, w), (s2, s2)))
    return Quadrature(nodes=nodes, weights=w / w.sum(), n=n, eps=eps, rho2=s2)


def _is_plain(params: UltraParams) -> bool:
    """eps = 0 or n = d: the measure of ``params`` is the plain dnu_n, and L_eps is L."""
    return params.eps == 0 or params.n == params.d


def refined_quadrature(params: UltraParams, N: int = DEFAULT_NODES) -> Quadrature:
    """The companion of ``build_quadrature(params, N)`` good to degree 4N-1: its
    2N-node rule where the measure is plain (``_is_plain``), else the graded rule (module docstring)."""
    if _is_plain(params):
        return build_quadrature(params, 2 * N)
    return _graded_rule(float(params.n), float(params.eps), N)


@lru_cache(maxsize=16)
def _regularized_gauss_rule(n: float, eps: float, N: int) -> Quadrature:
    """The 2N-node Gauss rule of the regularized measure for n < d, from its graded rule."""
    from .spectral import _recurrence  # the Stieltjes procedure's owner, which imports this module

    q, b = _graded_rule(n, eps, N), [0.0]
    # values only, no table (order -1); the a_k vanish by symmetry
    _recurrence(q.nodes, 2 * N, -1, 1.0 / np.sqrt(q.weights.sum()), [], b, q.weights)
    b = np.array(b)
    x, _, _ = _symmetric_nodes(b * b)
    # the Jacobi equation that carries 1/S across the Newton step does not hold
    # for this weight: S is summed again at the corrected nodes
    p = _orthonormal_values(b, x)
    nodes, w = _mirror(x, 1.0 / np.einsum("ij,ij->j", p[:-1], p[:-1]), 2 * N)
    return Quadrature(nodes=nodes, weights=w, n=n, eps=eps, rho2=1.0 - nodes**2)


def _stepping_rule(params: UltraParams, N: int) -> Quadrature:
    """The 2N-node Gauss rule of the measure of ``params``, good to degree 4N-1: the
    refined rule itself where that is a Gauss rule (eps = 0 or n = d), else ``_regularized_gauss_rule``."""
    fine = refined_quadrature(params, N)
    return _regularized_gauss_rule(fine.n, fine.eps, N) if fine.eps else fine
