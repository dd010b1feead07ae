"""Independent high-precision values for the param-scan gate.

The regularized measure of (n, eps), with d = ceil(n), has the weight

    w(z) = (1 + eps - z^2)^((n-d)/2) (1 - z^2)^((d-2)/2)    on [-1, 1],

and the gate compares the package's second moment int z^2 dnu_{eps,n}
against ``second_moment``, an mpmath.quad evaluation at 30 digits.
``second_moment_hyp`` is a second, closed form of the same number, used by
the tests to check the quadrature oracle itself.
"""
from __future__ import annotations

import math

import mpmath


def second_moment(n: float, eps: float, dps: int = 30) -> float:
    """int z^2 w dz / int w dz by tanh-sinh quadrature at ``dps`` digits.

    By symmetry and s = 1 - z the integrals run over s in [0, 1] with
    1 - z^2 = s (2 - s), which keeps the endpoint factor exact near s = 0.
    The weight changes on the scale eps there, so the interval is split at
    eps/10, eps, 10 eps, ... up to 1/2.
    """
    with mpmath.workdps(dps):
        d = math.ceil(n)
        a = (mpmath.mpf(n) - d) / 2
        b = mpmath.mpf(d - 2) / 2
        e = mpmath.mpf(eps)

        def w(s):
            t = s * (2 - s)
            return (e + t) ** a * t**b

        pts = [mpmath.mpf(0)]
        x = e / 10
        while x < 0.5:
            pts.append(x)
            x *= 10
        pts.append(mpmath.mpf(1))
        m0 = mpmath.quad(w, pts)
        m2 = mpmath.quad(lambda s: (1 - s) ** 2 * w(s), pts)
        return float(m2 / m0)


def second_moment_hyp(n: float, eps: float, dps: int = 30) -> float:
    """The same moment from Euler's integral for 2F1.

    With t = z^2, int_0^1 t^(s-1) (1-t)^b (1+eps-t)^a dt
    = (1+eps)^a B(s, b+1) 2F1(-a, s; s+b+1; 1/(1+eps)), and the moment is
    the ratio of the s = 3/2 and s = 1/2 values.
    """
    with mpmath.workdps(dps):
        d = math.ceil(n)
        a = (mpmath.mpf(n) - d) / 2
        b = mpmath.mpf(d - 2) / 2
        x = 1 / (1 + mpmath.mpf(eps))

        def integral(s):
            return mpmath.beta(s, b + 1) * mpmath.hyp2f1(-a, s, s + b + 1, x)

        return float(integral(mpmath.mpf(3) / 2) / integral(mpmath.mpf(1) / 2))
