"""Admissible diffusion exponents for the nonlinear flow.

Whether the flow interpolation argument closes for a given exponent pair
(p, beta) is decided by the sign of a quadratic,

    delta(beta) = A beta^2 - 2 B beta + C,
    A = ((n-1)(p-1)/(n+2))^2 + 2 - p,   B = (n+3-p)/(n+2),   C = 1,

which is also the reduced discriminant b^2 - c of the pointwise quadratic
form q[u] = |u''|^2 - 2 b u'' |u'|^2 / u + c |u'|^4 / u^2 controlling the
dissipation.  delta(beta) <= 0 makes q[u] >= 0 for every positive u, and
that sign is exactly what the admissibility predicates here report.  Where
delta(beta) > 0, ``dissipation_witness`` gives a positive u with q[u] < 0
on all of [-1, 1], in closed form.

Two parametrizations coexist.  The diffusion exponent m of the evolution
d/dt v = (1/m) L v^m relates to beta through

    m = 1 + (2/p)(1/beta - 1),        beta = 2 / (2 + p(m - 1)),

a Moebius map with a pole at beta = 0 and at m = 1 - 2/p.  ``m_range``
reports the conventional closed-form anchors

    m_pm = (np + 2 +- sqrt(n(p-1)(2n-(n-2)p))) / ((n+2)p),

while ``beta_range`` computes the set {beta != 0 : delta(beta) <= 0}
exactly.  The two views agree on emptiness, on the degenerate double root
at the critical exponent p = 2n/(n-2) (where both collapse onto
m = (n-1)/n), and on the midpoint (np+2)/((n+2)p); away from those anchors
the beta intervals are the authoritative membership test, and
``delta_of_beta`` is the ground truth both are measured against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measure import DEFAULT_NODES, UltraParams, _critical_exponent, build_quadrature, refined_quadrature
from .operators import _deformation, _points
from .spectral import _nodal_derivatives, _require_positive


def thresholds(n: float) -> tuple[float, float]:
    """(p_sharp, p_crit) = ((2n^2+1)/(n-1)^2, 2n/(n-2)), with infinities.

    p_sharp is the largest p for which the linear heat flow closes the
    argument (beta = 1 admissible); it is +inf at n = 1.  p_crit is the
    Sobolev endpoint, +inf for n <= 2.
    """
    if not (n > 0 and math.isfinite(n)):
        raise DomainError(f"thresholds requires a finite n > 0, got {n}")
    p_sharp = math.inf if n == 1 else (2.0 * n * n + 1.0) / (n - 1.0) ** 2
    return p_sharp, _critical_exponent(n)


def abc(n: float, p: float) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the admissibility quadratic."""
    A = ((n - 1.0) * (p - 1.0) / (n + 2.0)) ** 2 + 2.0 - p
    B = (n + 3.0 - p) / (n + 2.0)
    return A, B, 1.0


def delta_of_beta(beta, n: float, p: float):
    """delta(beta) = A beta^2 - 2 B beta + C; accepts scalar or array beta."""
    A, B, C = abc(n, p)
    beta = np.asarray(beta, dtype=float)
    out = A * beta**2 - 2.0 * B * beta + C
    return float(out) if out.ndim == 0 else out


def qform_coeffs(beta: float, n: float, p: float) -> tuple[float, float]:
    """(b, c) of the dissipation form q[u]; satisfies delta = b^2 - c.

    With kappa = beta(p-2) + 1:
        b = (n-1)(kappa+beta-1)/(n+2)
        c = kappa(beta-1) + n(kappa+beta-1)/(n+2)
    """
    kappa = beta * (p - 2.0) + 1.0
    s = kappa + beta - 1.0
    b = (n - 1.0) * s / (n + 2.0)
    c = kappa * (beta - 1.0) + n * s / (n + 2.0)
    return b, c


def m_of_beta(beta: float, p: float) -> float:
    """Diffusion exponent m = 1 + (2/p)(1/beta - 1); pole at beta = 0."""
    if beta == 0:
        raise DomainError("m_of_beta has a pole at beta = 0")
    return 1.0 + (2.0 / p) * (1.0 / beta - 1.0)


def beta_for_m(m: float, p: float) -> float:
    """Inverse map beta = 2/(2 + p(m-1)); pole at m = 1 - 2/p."""
    den = 2.0 + p * (m - 1.0)
    if den == 0:
        raise DomainError(f"beta_for_m has a pole at m = {1.0 - 2.0 / p}")
    return 2.0 / den


def beta_excluded(n: float, p: float) -> float | None:
    """The beta at which (n+2) m(beta) = n, i.e. beta = (n+2)/(n+2-p).

    At this value the exponent relation m <-> beta puts the evolution on
    the barrier (n+2)m = n where the scaling constant 2/((n+2)m - n)
    blows up; flow configurations must avoid it.  None when p = n + 2
    (the excluded value escapes to infinity).
    """
    if p == n + 2.0:
        return None
    return (n + 2.0) / (n + 2.0 - p)


def beta_window(n: float, p: float) -> tuple[float, float]:
    """Open interval of beta > 1 matching m in ((n-2)/n, 1).

    Equals (1, n/(n-p)) when p < n.  For p >= n the upper endpoint is
    +inf: the window is left half-open because no finite upper bound is
    asserted there.
    """
    if p < n:
        return 1.0, n / (n - p)
    return 1.0, math.inf


@dataclass(frozen=True)
class AdmissibleRange:
    """Admissibility report for one (n, p) pair.

    ``m_minus``/``m_plus`` are the closed-form anchors (None when the
    radicand is negative, i.e. p beyond the critical exponent).
    ``beta_interval_data`` is the exact solution set of delta(beta) <= 0,
    as closed intervals possibly reaching +-inf; it is empty exactly when
    no beta is admissible.  ``degenerate`` flags a double root,
    ``constant_delta`` the exceptional corner A = B = 0 where delta == 1
    and admissibility holds only in the limit (the m anchors collapse but
    the corresponding beta is at infinity).
    """

    n: float
    p: float
    p_sharp: float
    p_crit: float
    A: float
    B: float
    C: float
    disc: float
    m_minus: float | None
    m_plus: float | None
    beta_interval_data: tuple[tuple[float, float], ...]
    beta_excluded: float | None
    degenerate: bool
    constant_delta: bool

    @property
    def empty(self) -> bool:
        return len(self.beta_interval_data) == 0


def _radicand(n: float, p: float) -> float:
    return n * (p - 1.0) * (2.0 * n - (n - 2.0) * p)


def _discriminant(n: float, p: float) -> tuple[float, float, float, float]:
    """(A, B, B^2 - A, tol) of delta, C = 1: within tol, 1e-13 relative, B^2 - A is a double root."""
    A, B, _ = abc(n, p)
    return A, B, B * B - A, 1e-13 * (1.0 + B * B + abs(A))


def _beta_intervals(n: float, p: float) -> tuple[tuple[float, float], ...]:
    """{beta != 0 : delta(beta) <= 0} via the reciprocal substitution.

    With s = 1/beta and C = 1, delta(beta) <= 0 iff s^2 - 2Bs + A <= 0,
    whose root interval [s-, s+] maps back through beta = 1/s.  The pole
    at beta = 0 (s -> +-inf) is what splits the set in two when the
    s-interval straddles zero.
    """
    _, B, disc, scale = _discriminant(n, p)
    if disc < -scale:
        return ()
    if disc <= scale:
        if abs(B) <= scale:
            return ()  # only s = 0: no finite beta
        b0 = 1.0 / B
        return ((b0, b0),)
    r = math.sqrt(disc)
    s_lo, s_hi = B - r, B + r
    if s_lo > 0.0 or s_hi < 0.0:  # 1/s decreases on either side of the pole
        return ((1.0 / s_hi, 1.0 / s_lo),)
    if s_lo == 0.0:
        return ((1.0 / s_hi, math.inf),)
    if s_hi == 0.0:
        return ((-math.inf, 1.0 / s_lo),)
    return ((-math.inf, 1.0 / s_lo), (1.0 / s_hi, math.inf))


def m_range(n: float, p: float) -> AdmissibleRange:
    """Full admissibility report; requires finite n > 0 and p > 1."""
    if not (n > 0 and math.isfinite(n)):
        raise DomainError(f"m_range requires a finite n > 0, got {n}")
    if not (p > 1 and math.isfinite(p)):
        raise DomainError(f"m_range requires a finite p > 1, got {p}")
    p_sharp, p_crit = thresholds(n)
    A, B, disc, scale = _discriminant(n, p)
    rad = _radicand(n, p)
    if rad >= 0:
        root = math.sqrt(rad)
        m_minus = (n * p + 2.0 - root) / ((n + 2.0) * p)
        m_plus = (n * p + 2.0 + root) / ((n + 2.0) * p)
    else:
        m_minus = m_plus = None
    return AdmissibleRange(
        n=n,
        p=p,
        p_sharp=p_sharp,
        p_crit=p_crit,
        A=A,
        B=B,
        C=1.0,
        disc=disc,
        m_minus=m_minus,
        m_plus=m_plus,
        beta_interval_data=_beta_intervals(n, p),
        beta_excluded=beta_excluded(n, p),
        degenerate=abs(disc) <= scale,
        constant_delta=abs(A) <= scale and abs(B) <= scale,
    )


def _scaling_denominator(params: UltraParams) -> float:
    """(n+2)m - n of the scaling constant 2/((n+2)m - n); DomainError at its pole, the excluded beta."""
    den = (params.n + 2.0) * params.m - params.n
    if abs(den) < 1e-12:
        raise DomainError("beta sits on the excluded value (n+2)m = n of the exponent relation")
    return den


def _check_bounds(h0: float | None, h1: float | None) -> None:
    """DomainError unless h0 < u < 1/h0 and |u'| <= h1 are bounds: 0 < h0 < 1, h1 > 0; None skips one."""
    if h0 is not None and not 0 < h0 < 1:
        raise DomainError(f"h0 must lie in (0, 1), got {h0}")
    if h1 is not None and h1 <= 0:
        raise DomainError(f"h1 must be positive, got {h1}")


def beta_range(n: float, p: float) -> tuple[tuple[float, float], ...]:
    """Exact admissible beta set for p > 2, as closed intervals."""
    if p <= 2:
        raise DomainError(f"beta_range requires p > 2, got {p}")
    return _beta_intervals(n, p)


def is_admissible(beta: float, n: float, p: float, tol: float = 1e-12) -> bool:
    """delta(beta) <= tol; the membership test behind beta_range."""
    return bool(delta_of_beta(beta, n, p) <= tol)


def qform_value(u, params: UltraParams) -> np.ndarray:
    """Pointwise q[u] = |u''|^2 - 2b u''|u'|^2/u + c|u'|^4/u^2 at the nodes, at beta = params.beta.

    ``u`` is a GridFn on the rule matching ``params`` (plain when eps = 0)
    with as many nodes as len(u); derivatives are spectral.  Nonnegative
    everywhere, for every positive u, exactly when delta(beta) <= 0.  A
    sample that is not finite and positive raises ``DomainError``.
    """
    u = np.asarray(u, dtype=float)
    _require_positive(u, "qform_value requires a finite, strictly positive function")
    _, up, upp = _nodal_derivatives(u, build_quadrature(params, len(u)))
    return _qform(u, up, upp, params)


def _qform(u, up, upp, params: UltraParams) -> np.ndarray:
    """q[u] = u''^2 - 2b u''u'^2/u + c u'^4/u^2 from pointwise (u, u', u'')."""
    b, c = qform_coeffs(params.beta, params.n, params.p)
    return upp**2 - 2.0 * b * upp * up**2 / u + c * (up**2) ** 2 / u**2  # square, not pow()


def dissipation_witness(n: float, p: float, beta: float = 1.0, N: int = DEFAULT_NODES) -> tuple[np.ndarray, float]:
    """A positive u on which q[u] has the sign of -delta(beta) everywhere, and its rate.

    With (b, c) = ``qform_coeffs`` and g = 1/(1 - b), u = (1 + s z)^g has
    u''u/u'^2 = (g - 1)/g = b, the minimizer of the quadratic in q, so

        q[u] = -delta(beta) (g s)^4 (1 + s z)^(2g - 4)   on all of [-1, 1];

    at b = 1 the limit u = e^(z/2) (s -> 0, g s = 1/2) gives
    q[u] = -delta (1/2)^4 u^2.  The slope s = 1/(2 max(1, |g|)) keeps u
    within a factor of 3.  Returns u sampled on the plain N-node rule of
    n, and rate = delta (g s)^4 int (1 + s z)^(2g - 4) rho^4 dnu_n on the
    refined rule: the (dF/dt) / (2 beta^2) = -int q[u] rho^4 dnu_n of the
    flow at lam = n that ``dF_dt_closed_form`` returns, here without the
    spectral derivatives.  rate > 0 exactly when delta(beta) > 0, so u
    shows that F can grow wherever beta is not admissible.
    """
    params = UltraParams(n=n, p=p, beta=beta)
    b, _ = qform_coeffs(beta, n, p)
    fine = refined_quadrature(params, N)
    z = build_quadrature(params, N).nodes, fine.nodes
    if b == 1.0:
        gs, s = 0.5, 0.0
        log_u = [gs * x for x in z]
    else:
        g = 1.0 / (1.0 - b)
        s = 0.5 / max(1.0, abs(g))
        gs = g * s
        log_u = [g * np.log1p(s * x) for x in z]  # keeps its digits at large |g|
    # (1 + s z)^(2g - 4) = u^2 / (1 + s z)^4, which is u^2 itself at b = 1
    decay = np.exp(2.0 * log_u[1]) / ((1.0 + s * fine.nodes) ** 2) ** 2
    rate = delta_of_beta(beta, n, p) * gs**4 * fine.integrate(decay * fine.rho2**2)
    return np.exp(log_u[0]), float(rate)


def regularity_coeffs(z, params: UltraParams):
    """(a, b_eps, c_eps, disc_eps) of the gradient-bound comparison ODE.

    The signed quantity w = sgn * u' obeys a parabolic inequality whose
    zeroth-order part is the quadratic a w''-slot analysis below; its
    discriminant disc_eps = b_eps^2 - 4 a c_eps must be negative on the
    open interval for the gradient bound to propagate.  With m = params.m
    and the scaling constant alpha = 2/((n+2)m - n) already substituted:

        a(z)     = -n(1-m)(2-n(1-m))(1-z^2) / ((n+2)m - n)^2
        b_eps(z) = 2(1-m)(ell(z) - n z) / ((n+2)m - n)
        c_eps(z) = -ell'(z)      (ell: the drift of the operators module)

    At eps = 0 this reduces to b = 0, c = -n and
    disc_0 = -4 n^2 (1-m)(2-n(1-m))(1-z^2) / ((n+2)m - n)^2.
    """
    n, m = params.n, params.m
    den = _scaling_denominator(params)
    z, rho2 = _points(z)
    one_m = 1.0 - m
    a = -n * one_m * (2.0 - n * one_m) * rho2 / den**2
    ell_n, ell_n_prime = _deformation(z, rho2, params) or (0 * rho2,) * 2  # zeros if plain
    b_eps = 2.0 * one_m * ell_n / den
    c_eps = -(n + ell_n_prime)
    disc_eps = b_eps**2 - 4.0 * a * c_eps
    if z.ndim == 0:
        return float(a), float(b_eps), float(c_eps), float(disc_eps)
    return a, b_eps, c_eps, disc_eps


def lambda_eps(params: UltraParams, h0: float, h1: float) -> float:
    """Adjusted Lyapunov constant for the regularized flow.

        lambda = n + eps (n - d) (beta (p-1) h1 / ((n+2) h0))^2

    where h0 < u < 1/h0 and |u'| <= h1 bound the evolving solution.  For
    n < d, lambda < n: a slightly weaker constant, vanishing as eps -> 0.
    Integer n with eps > 0 passes UltraParams but raises DomainError here.
    """
    n, eps = params.n, params.eps
    if eps == 0:
        return float(n)
    d = params.d
    if n >= d:
        raise DomainError(
            "lambda_eps needs non-integer n (n < ceil(n)); the integer case "
            "does not take a regularization correction"
        )
    _check_bounds(h0, h1)
    factor = params.beta * (params.p - 1.0) * h1 / ((n + 2.0) * h0)
    return float(n + eps * (n - d) * factor**2)
