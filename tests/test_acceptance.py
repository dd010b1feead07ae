"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they appear; without ``-s`` they show up in pytest's captured
output for failing checks and in the summary line of passing ones.

Conventions used throughout:

* Criterion 3 normalizes the eigenrelation residual by the natural scale
  max(1, lambda_k * max|P_k|): the orthonormal basis polynomials grow
  large near the endpoints for small n, and an absolute comparison would
  measure their size rather than the operator's accuracy.
* Criterion 8 evolves a datum with a small slow-mode amplitude plus a
  larger fast-mode amplitude; the fast mode is gone long before t_end,
  so it fattens F (keeping the 1e-9-relative monotonicity gate above
  float granularity) without touching the terminal gap.
* Criterion 9's derivative-matching clause runs at 128 nodes: the
  closed-form/finite-difference agreement is limited by the spatial
  resolution of the smoothed-measure basis, and 64 modes leave it at
  ~4e-6 while 128 reach ~1e-7 (the time step is far inside the stable
  region in both cases).
* Criterion 4's second clause checks that the plain identities hold
  without the Neumann condition: the weight (1-z^2)^(n/2) multiplying
  every boundary term vanishes at the endpoints for all n > 0.  Its 200
  test functions must each violate u'(+-1) = 0 (enforcement raises
  DomainError) and still meet the 1e-8 residual gate unenforced.  One of
  them is rebuilt from its seed's polynomial and its Gamma2 identity is
  evaluated with mpmath.quad at 30 digits, an oracle the package does
  not produce.
"""
from __future__ import annotations

import math
import time

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

from ultraflow.admissibility import (
    abc,
    beta_range,
    delta_of_beta,
    dissipation_witness,
    lambda_eps,
    m_range,
)
from ultraflow.cli import main as cli_main
from ultraflow.errors import AccuracyWarning, DomainError
from ultraflow.flows import (
    FlowConfig,
    run_heat_flow,
    run_nonlinear_flow,
    run_regularized_flow,
)
from ultraflow.functionals import deficit, extremal_profile, logsob_deficit
from ultraflow.identities import (
    check_gamma2,
    check_gamma2_eps,
    check_lgamma,
    check_lgamma_eps,
    make_test_function,
)
from ultraflow.measure import UltraParams, build_quadrature
from ultraflow.operators import apply_L
from ultraflow.spectral import get_basis


def verdict(num: int, ok: bool, summary: str) -> None:
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {summary}"
    print(line)
    assert ok, line


def nodes_of(n: float, N: int = 64) -> np.ndarray:
    return build_quadrature(UltraParams(n=n), N).nodes


def neumann_free_exponent(seed: int, degree: int = 6) -> Polynomial:
    """The exponent P of ``make_test_function(seed, ..., neumann=False)``.

    Rebuilt from the seed's random draws so that u = exp(P) is known in
    closed form, independently of the package's grid values.
    """
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(-1.0, 1.0)
    P1 = Polynomial(np.concatenate([[0.0], rng.uniform(-1.0, 1.0, size=degree)]))
    P1 = P1 / np.max(np.abs(P1(np.linspace(-1.0, 1.0, 2001))))
    return c0 + P1


def gamma2_oracle(expo: Polynomial, n: float, dps: int = 30):
    """(lhs, rhs, gap) of the plain Gamma2 identity for u = exp(expo).

    lhs = int (Lu)^2 dnu_n and rhs = int |u''|^2 rho^4 dnu_n
    + n int rho^2 |u'|^2 dnu_n, with Lu = rho^2 u'' - n z u' and
    rho^2 = 1 - z^2, by mpmath.quad at ``dps`` digits; no boundary
    condition is assumed.  gap = |lhs - rhs| / (1 + |lhs| + |rhs|) is
    taken at full precision, before rounding to float.
    """
    with mpmath.workdps(dps):
        # Differentiate in mpf: float products k * c_k would round.
        c = [mpmath.mpf(float(x)) for x in expo.coef]
        dc = [k * c[k] for k in range(1, len(c))]
        ddc = [k * dc[k] for k in range(1, len(dc))]
        c, dc, ddc = c[::-1], dc[::-1], ddc[::-1]  # polyval wants highest first
        nn = mpmath.mpf(n)

        def weight(z):
            return (1 - z**2) ** ((nn - 2) / 2)

        def derivs(z):
            u = mpmath.exp(mpmath.polyval(c, z))
            e1 = mpmath.polyval(dc, z)
            return e1 * u, (mpmath.polyval(ddc, z) + e1**2) * u

        def lhs_integrand(z):
            up, upp = derivs(z)
            return ((1 - z**2) * upp - nn * z * up) ** 2 * weight(z)

        def rhs_integrand(z):
            up, upp = derivs(z)
            rho2 = 1 - z**2
            return (upp**2 * rho2**2 + nn * rho2 * up**2) * weight(z)

        mass = mpmath.quad(weight, [-1, 0, 1])
        lhs = mpmath.quad(lhs_integrand, [-1, 0, 1]) / mass
        rhs = mpmath.quad(rhs_integrand, [-1, 0, 1]) / mass
        gap = abs(lhs - rhs) / (1 + abs(lhs) + abs(rhs))
        return float(lhs), float(rhs), float(gap)


def test_01_closed_form_threshold_anchors():
    problems = []
    rng = np.random.default_rng(101)
    bad = 0
    for _ in range(100):
        n = rng.uniform(0.3, 8.0)
        p = rng.uniform(1.0, 8.0)
        if abs(delta_of_beta(0.0, n, p) - 1.0) > 1e-15:
            bad += 1
    if bad:
        problems.append(f"delta(0) != 1 in {bad}/100 draws")

    A, B, _ = abc(3.0, 6.0)
    if A != 0.0 or B != 0.0:
        problems.append(f"A, B at (3, 6) = {A}, {B}, want exact zeros")

    d44 = delta_of_beta(2.0, 4.0, 4.0)
    if abs(d44) > 1e-12:
        problems.append(f"delta(2; 4, 4) = {d44:.3e}")

    r = m_range(3.0, 4.0)
    lo = (14.0 - 3.0 * math.sqrt(2.0)) / 20.0
    hi = (14.0 + 3.0 * math.sqrt(2.0)) / 20.0
    if abs(r.m_minus - lo) > 1e-12 or abs(r.m_plus - hi) > 1e-12:
        problems.append(f"m range at (3, 4) = [{r.m_minus}, {r.m_plus}]")

    for n in (2.5, 3.0, 4.0, 6.0):
        p_crit = 2.0 * n / (n - 2.0)
        rc = m_range(n, p_crit)
        target = (n - 1.0) / n
        if abs(rc.m_minus - target) > 1e-10 or abs(rc.m_plus - target) > 1e-10:
            problems.append(f"no collapse at n={n}: [{rc.m_minus}, {rc.m_plus}]")

    verdict(1, not problems,
            "closed-form anchors (delta(0)=1, (3,6) degeneracy, (4,4) root, "
            "(3,4) endpoints, critical collapse)" if not problems
            else "; ".join(problems))


def test_02_sign_membership_equivalence():
    rng = np.random.default_rng(202)
    disagreements = 0
    checked = 0
    for _ in range(10_000):
        n = rng.uniform(0.3, 6.0)
        p = rng.uniform(2.001, 8.0)  # the interval description covers p > 2
        beta = rng.uniform(-10.0, 10.0)
        d = delta_of_beta(beta, n, p)
        if abs(d) <= 1e-10:
            continue  # boundary band
        inside = any(lo <= beta <= hi for lo, hi in beta_range(n, p))
        checked += 1
        if inside != (d < 0.0):
            disagreements += 1
    verdict(2, disagreements == 0,
            f"sign of delta vs interval membership on {checked} triples "
            f"({disagreements} disagreements)")


def test_03_operator_eigenrelation_and_integration_by_parts():
    worst_eig = 0.0
    worst_ibp = 0.0
    rng = np.random.default_rng(303)
    for n in (0.5, 1.7, 3.0, 4.2):
        q = build_quadrature(UltraParams(n=n), 64)
        basis = get_basis(n, 64)
        for k in range(21):
            c = np.zeros(basis.K + 1)
            c[k] = 1.0
            Pk = basis.synthesize(c, q.nodes)
            lam_k = k * (k + n - 1.0)
            res = np.max(np.abs(apply_L(Pk, q) + lam_k * Pk))
            worst_eig = max(worst_eig, res / max(1.0, lam_k * np.max(np.abs(Pk))))
        rho2 = 1.0 - q.nodes**2
        for _ in range(20):
            f = rng.uniform(-1.0, 1.0, size=13)
            g = rng.uniform(-1.0, 1.0, size=13)
            fv = P.polyval(q.nodes, f)
            gv = P.polyval(q.nodes, g)
            fp = P.polyval(q.nodes, P.polyder(f))
            gp = P.polyval(q.nodes, P.polyder(g))
            lhs = float(q.integrate(fv * apply_L(gv, q)))
            rhs = -float(q.integrate(fp * gp * rho2))
            worst_ibp = max(worst_ibp,
                            abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    ok = worst_eig < 1e-10 and worst_ibp < 1e-10
    verdict(3, ok,
            f"eigenrelation residual {worst_eig:.2e}, "
            f"integration-by-parts residual {worst_ibp:.2e} (gates 1e-10)")


def test_04_identity_residuals_and_neumann_witness():
    worst: dict[str, float] = {}
    for n in (0.5, 1.7, 3.0, 4.2):
        params = UltraParams(n=n)
        for seed in range(100):
            u = make_test_function(seed, params)
            for rep in (check_gamma2(u, params, seed=seed),
                        check_lgamma(u, params, seed=seed)):
                worst[rep.identity_tag] = max(worst.get(rep.identity_tag, 0.0),
                                              rep.residual)
    for n, eps in ((2.5, 1e-2), (2.5, 1e-3), (3.3, 1e-2), (3.0, 1e-2)):
        params = UltraParams(n=n, eps=eps)
        for seed in range(100):
            u = make_test_function(seed, params, neumann=False)
            for rep in (check_gamma2_eps(u, params, seed=seed),
                        check_lgamma_eps(u, params, seed=seed)):
                worst[rep.identity_tag] = max(worst.get(rep.identity_tag, 0.0),
                                              rep.residual)
    residual_ok = all(v < 1e-8 for v in worst.values()) and len(worst) == 4

    # Break the Neumann condition: the plain identities must not notice.
    # The slopes come from the rebuilt exponent, which must match u.
    ends = np.array([-1.0, 1.0])
    compliant = 0
    mismatched = 0
    min_slope = math.inf
    unenforced: dict[str, float] = {}
    for n in (2.5, 3.0):
        params = UltraParams(n=n)
        nodes = nodes_of(n)
        for seed in range(100):
            u = make_test_function(seed, params, neumann=False)
            try:
                check_gamma2(u, params, seed=seed)
                compliant += 1
            except DomainError:
                pass
            expo = neumann_free_exponent(seed)
            if np.max(np.abs(np.exp(expo(nodes)) - u)) > 1e-13 * np.max(u):
                mismatched += 1
            slope = expo.deriv()(ends) * np.exp(expo(ends))
            min_slope = min(min_slope, float(np.max(np.abs(slope))))
            for rep in (check_gamma2(u, params, enforce_neumann=False, seed=seed),
                        check_lgamma(u, params, enforce_neumann=False, seed=seed)):
                unenforced[rep.identity_tag] = max(
                    unenforced.get(rep.identity_tag, 0.0), rep.residual)
    neumann_free_ok = (compliant == 0 and mismatched == 0 and len(unenforced) == 2
                       and all(v < 1e-8 for v in unenforced.values()))

    # Independent oracle for one violating function (u'(-1) = 1.29,
    # u'(1) = -0.64): 30-digit quadrature of both sides of Gamma2.
    oracle_seed = 3
    expo = neumann_free_exponent(oracle_seed)
    oracle_gap = 0.0
    package_err = 0.0
    for n in (2.5, 3.0):
        params = UltraParams(n=n)
        u = make_test_function(oracle_seed, params, neumann=False)
        lhs, rhs, gap = gamma2_oracle(expo, n)
        oracle_gap = max(oracle_gap, gap)
        rep = check_gamma2(u, params, enforce_neumann=False, seed=oracle_seed)
        package_err = max(package_err, abs(rep.lhs - lhs) / abs(lhs),
                          abs(rep.rhs - rhs) / abs(rhs))
    oracle_ok = oracle_gap < 1e-25 and package_err < 1e-12

    worst_txt = ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
    unenforced_txt = ", ".join(f"{k}={v:.1e}" for k, v in sorted(unenforced.items()))
    summary = (
        f"identity residuals over 100 seeds per cell: {worst_txt}; "
        f"without Neumann: {200 - compliant}/200 functions rejected by enforcement, "
        f"{mismatched} differ from their rebuilt exponent, "
        f"smallest max|u'(+-1)| {min_slope:.2f}, unenforced residuals "
        f"{unenforced_txt} (gate 1e-8); mpmath 30-digit Gamma2 at seed "
        f"{oracle_seed}: identity gap {oracle_gap:.1e}, package error {package_err:.1e}"
    )
    verdict(4, residual_ok and neumann_free_ok and oracle_ok, summary)


def test_05_deficit_nonnegativity_and_equality_witnesses():
    problems = []
    rng = np.random.default_rng(505)
    min_deficit = math.inf
    count = 0
    dims = (0.6, 1.0, 1.8, 2.5, 4.0)
    for n in dims:
        two_star = 2.0 * n / (n - 2.0) if n > 2 else math.inf
        p_hi = min(two_star, 8.0)
        zz = nodes_of(n)
        for p in (1.0, 1.5, 1.99, 2.0, 2.01, 0.5 * (2.01 + p_hi), p_hi):
            for _ in range(5):
                c = rng.normal(size=7) / (1.0 + np.arange(7.0)) ** 2
                f = P.polyval(zz, c)
                if np.max(np.abs(f)) < 1e-3:
                    continue
                if p == 2.0:
                    d = logsob_deficit(f, UltraParams(n=n, p=2.0)).deficit
                elif p == 2.01:  # 2.01 - 2 < 1e-2 in binary: the entropy quotient warns
                    with pytest.warns(AccuracyWarning, match="within 1e-2 of 2"):
                        d = deficit(f, UltraParams(n=n, p=p)).deficit
                else:
                    d = deficit(f, UltraParams(n=n, p=p)).deficit
                min_deficit = min(min_deficit, d)
                count += 1
    if min_deficit < -1e-8:
        problems.append(f"deficit {min_deficit:.3e} below -1e-8")

    for n in dims:
        zz = nodes_of(n)
        const = 2.3 * np.ones_like(zz)
        for p in (1.0, 1.7, 2.0, 3.0):
            rep = (logsob_deficit(const, UltraParams(n=n, p=2.0)) if p == 2.0
                   else deficit(const, UltraParams(n=n, p=p)))
            if abs(rep.deficit) > 1e-10:
                problems.append(f"constant witness fails at (n,p)=({n},{p})")
        dz = deficit(zz, UltraParams(n=n, p=1.0)).deficit
        if abs(dz) > 1e-10:
            problems.append(f"linear witness at p=1 fails for n={n}: {dz:.2e}")

    z4 = nodes_of(4.0)
    for b in (0.3, 0.5, 0.7):
        f = extremal_profile(4.0, b, z4)
        d = deficit(f, UltraParams(n=4.0, p=4.0)).deficit
        if abs(d) > 1e-8:
            problems.append(f"profile witness b={b} fails: {d:.2e}")

    verdict(5, not problems,
            f"min deficit {min_deficit:.2e} over {count} corpus functions; "
            "equality witnesses (constants, linear at p=1, critical profiles) "
            "at their gates" if not problems else "; ".join(problems))


def test_06_sharpness_of_the_constant():
    problems = []
    for n, p in ((3.0, 4.0), (2.5, 4.0)):
        zz = nodes_of(n)
        for amp in (1e-1, 1e-2, 1e-3):
            d = deficit(1.0 + amp * zz, UltraParams(n=n, p=p)).deficit
            if not d / amp**2 < 10.0 * amp:
                problems.append(
                    f"(n,p)=({n},{p}), amp={amp}: ratio {d / amp**2:.2e}")
        for amp in (1e-2, 1e-3):
            d = deficit(1.0 + amp * zz, UltraParams(n=n, p=p),
                        lam=1.01 * n).deficit
            if not d < 0.0:
                problems.append(
                    f"(n,p)=({n},{p}), amp={amp}: inflated constant kept "
                    f"deficit {d:.2e} >= 0")
    verdict(6, not problems,
            "deficit of 1 + amp*z vanishes to second order (ratio < 10*amp) "
            "and a 1% larger constant drives it negative" if not problems
            else "; ".join(problems))


def test_07_heat_flow_properties():
    problems = []
    # pure spectral modes (p = 1 keeps v = u linear in the perturbation)
    n = 3.0
    zz = nodes_of(n, 48)
    modes = {
        1: zz,
        2: zz**2 - 1.0 / (n + 1.0),
        3: zz**3 - 3.0 * zz / (n + 3.0),
    }
    for k, shape in modes.items():
        cfg = FlowConfig(kind="heat", params=UltraParams(n=n, p=1.0, beta=1.0),
                         dt=1e-2, t_end=1.0, record_every=5)
        tr = run_heat_flow(1.0 + 0.05 * shape, cfg)
        fitted = -np.polyfit(tr.times, np.log(tr.fisher_beta), 1)[0] / 2.0
        lam_k = k * (k + n - 1.0)
        if abs(fitted - lam_k) > 1e-6:
            problems.append(f"mode {k} rate {fitted:.8f} vs {lam_k}")

    cfg = FlowConfig(kind="heat", params=UltraParams(n=3.0, p=3.0, beta=1.0),
                     dt=1e-2, t_end=2.0)
    tr = run_heat_flow(1.0 + 0.3 * zz + 0.1 * zz**2, cfg)
    drift = float(np.max(np.abs(tr.mass - tr.mass[0])))
    if drift > 1e-12:
        problems.append(f"mass drift {drift:.2e}")

    for nn, pp in ((3.0, 4.5), (2.0, 8.5)):  # both below (2n^2+1)/(n-1)^2
        cfg = FlowConfig(kind="heat", params=UltraParams(n=nn, p=pp, beta=1.0),
                         dt=1e-2, t_end=1.0)
        trf = run_heat_flow(1.0 + 0.3 * nodes_of(nn, 48), cfg)
        gate = 1e-12 * max(1.0, abs(trf.F_values[0]))
        if not np.all(np.diff(trf.F_values) <= gate):
            problems.append(f"F increased at (n,p)=({nn},{pp})")

    _, rate = dissipation_witness(3.0, 5.0)
    if not rate > 0:
        problems.append(f"dissipation witness rate {rate:.2e}")

    verdict(7, not problems,
            f"mode rates fit to 1e-6, mass drift {drift:.1e}, F monotone "
            f"below the threshold, witness rate {rate:.2e} > 0 at "
            "(3, 5)" if not problems else "; ".join(problems))


def test_08_nonlinear_flow_dissipation():
    # slow-mode amplitude sets the terminal gap, fast-mode amplitude sets
    # the size of F; the pairs keep both clauses away from their edges
    cases = (
        (4.0, 3.8, 1.9048, 0.01, 0.05),
        (2.5, 5.0, 4.0, 0.01, 0.05),
        (1.5, 8.0, 8.333, 0.005, 0.02),
    )
    problems = []
    notes = []
    for n, p, beta, a1, a2 in cases:
        if not delta_of_beta(beta, n, p) < 0:
            problems.append(f"beta={beta} not interior at ({n},{p})")
            continue
        params = UltraParams(n=n, p=p, beta=beta)
        cfg = FlowConfig(kind="nonlinear", params=params, dt=1e-3,
                         t_end=10.0 / n, record_every=1)
        zz = nodes_of(n)
        u0 = 1.0 + a1 * zz + a2 * (zz**2 - 1.0 / (n + 1.0))
        t0 = time.perf_counter()
        tr = run_nonlinear_flow(u0, cfg)
        elapsed = time.perf_counter() - t0
        tag = f"({n},{p},beta={beta})"
        max_rise = float(np.diff(tr.F_values).max())
        if max_rise > 1e-9 * abs(tr.F_values[0]):
            problems.append(f"{tag}: F rose by {max_rise:.2e} relative to "
                            f"F0={tr.F_values[0]:.2e}")
        drift = float(np.max(np.abs(tr.mass - tr.mass[0])))
        if drift > 1e-8:
            problems.append(f"{tag}: mass drift {drift:.2e}")
        if tr.terminal_gap > 1e-6:
            problems.append(f"{tag}: terminal gap {tr.terminal_gap:.2e}")
        if elapsed > 30.0:
            problems.append(f"{tag}: took {elapsed:.1f}s")
        notes.append(f"{tag} gap {tr.terminal_gap:.1e} in {elapsed:.0f}s")
    verdict(8, not problems,
            "F monotone to 1e-9 relative, mass conserved, equilibrium "
            "reached: " + "; ".join(notes) if not problems
            else "; ".join(problems))


def test_09_regularized_flow_bounds_and_derivative():
    params = UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3)
    h0, h1 = 0.88, 0.105
    lam = lambda_eps(params, h0, h1)
    problems = []

    q = build_quadrature(params, 64)
    cfg = FlowConfig(kind="regularized", params=params, dt=1e-3, t_end=0.5,
                     record_every=50, lam=lam, h0=h0, h1=h1)
    tr = run_regularized_flow(1.0 + 0.1 * q.nodes, cfg)
    if tr.bound_events:
        problems.append(f"{len(tr.bound_events)} bound events")
    if not (np.all(tr.u_min >= h0 - 1e-8)
            and np.all(tr.u_max <= 1.0 / h0 + 1e-8)
            and np.all(tr.grad_max <= h1 + 1e-8)):
        problems.append("state left the entered bounds")
    if not np.all(np.diff(tr.F_values) <= 1e-12):
        problems.append("F not non-increasing under lambda_eps")

    # derivative matching needs the finer 128-node basis (see module notes)
    q128 = build_quadrature(params, 128)
    cfg_short = FlowConfig(kind="regularized", params=params, dt=3e-5,
                           t_end=0.01, record_every=1, lam=lam, h0=h0, h1=h1)
    trs = run_regularized_flow(1.0 + 0.1 * q128.nodes, cfg_short)
    fd = np.gradient(trs.F_values, trs.times)
    closed = 2.0 * params.beta**2 * trs.dF_closed
    rel = float(np.max(np.abs(fd[1:-1] - closed[1:-1]) / np.abs(closed[1:-1])))
    if rel > 1e-6:
        problems.append(f"closed-form derivative off by {rel:.2e} relative")

    verdict(9, not problems,
            f"bounds hold within 1e-8 at all {tr.times.size} recorded times, "
            f"F monotone with lambda={lam:.6f}, derivative match {rel:.1e} "
            "relative" if not problems else "; ".join(problems))


def test_10_exponent_range_csv_sweep(tmp_path):
    problems = []
    for n in (0.25, 1.0, 1.8, 2.0, 3.0, 4.0):
        out = tmp_path / f"fig1_n{n:g}.csv"
        code = cli_main(["figure1", "--n", str(n), "--out", str(out)])
        if code != 0:
            problems.append(f"n={n}: exit code {code}")
            continue
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        ps = np.array([float(r[0]) for r in rows])
        dotted = n / (n + 2.0)

        def formula(p):
            disc = n * (p - 1.0) * (2.0 * n - (n - 2.0) * p) / (n + 2.0) ** 2
            root = (n + 2.0) * math.sqrt(disc)
            return ((n * p + 2.0 - root) / ((n + 2.0) * p),
                    (n * p + 2.0 + root) / ((n + 2.0) * p))

        if n <= 2.0:
            if ps[-1] != 8.0:
                problems.append(f"n={n}: sweep ends at {ps[-1]}, want 8")
            if any(r[1] == "" or r[2] == "" for r in rows):
                problems.append(f"n={n}: empty range below the threshold")
                continue
            mlo = np.array([float(r[1]) for r in rows])
            mhi = np.array([float(r[2]) for r in rows])
            if not np.all(mlo < mhi):
                problems.append(f"n={n}: band not open at every sampled p")
        else:
            mlo = np.array([float(r[1]) for r in rows])
            mhi = np.array([float(r[2]) for r in rows])
            p_sharp = (2.0 * n**2 + 1.0) / (n - 1.0) ** 2
            at = int(np.argmin(np.abs(ps - p_sharp)))
            if not (mlo[at] < dotted < mhi[at]):
                problems.append(
                    f"n={n}: no straddle of n/(n+2) near p={ps[at]:.3f}")
            if np.count_nonzero((mlo < dotted) & (dotted < mhi)) < 3:
                problems.append(f"n={n}: straddle interval not visible")
            if abs(mhi[-1] - mlo[-1]) > 1e-10:
                problems.append(f"n={n}: no collapse at the final p")
            target = (n - 1.0) / n
            if abs(mhi[-1] - target) > 1e-10:
                problems.append(f"n={n}: collapse misses (n-1)/n")

        worst = 0.0
        for p, lo, hi in zip(ps, mlo, mhi):
            flo, fhi = formula(p)
            worst = max(worst, abs(lo - flo), abs(hi - fhi))
        if worst > 1e-12:
            problems.append(f"n={n}: formula deviation {worst:.2e}")

    verdict(10, not problems,
            "six sweeps: bands straddle n/(n+2) near the threshold and "
            "collapse onto (n-1)/n at the critical exponent for n > 2, stay "
            "nonempty through p=8 for n <= 2, and match the closed form to "
            "1e-12" if not problems else "; ".join(problems))
