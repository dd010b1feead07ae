"""Quadrature and measure tests.

Oracle values were computed independently of the package: normalization
constants with adaptive quadrature of the density (scipy.integrate.quad),
regularized-measure integrals the same way at tight tolerance.  The refined
regularized rules are checked against ``theta_oracle``, mpmath.quad at 30
digits of the measure written in theta = arccos z, the eps corrections
on them against ``corrections_oracle``, the same integrals at 40 digits,
their Gauss-Legendre panels against ``legendre_oracle``, Newton on the
Legendre recurrence at 30 digits, and the recurrence coefficients of the
regularized bases against ``stieltjes_oracle``, a Stieltjes pass at 30
digits on ``theta_oracle``'s moments.
"""
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

import ultraflow.measure as measure
from ultraflow import (
    EPS_MIN,
    AccuracyWarning,
    DomainError,
    Quadrature,
    ShapeError,
    UltraParams,
    build_quadrature,
    fisher,
    get_regularized_basis,
    lyapunov_F,
    normalization_constant,
    refined_quadrature,
    resample,
)
from ultraflow.identities import _gamma2_correction, _lgamma_correction
from ultraflow.operators import _deformation

# adaptive-quadrature oracles for int_{-1}^{1} (1-z^2)^{(n-2)/2} dz
Z_ORACLE = {
    0.5: 5.2441151085842383,
    1.0: math.pi,
    1.5: 2.3962804694711841,
    2.0: 2.0,
    2.5: 1.7480383695280799,
    3.0: math.pi / 2.0,
    4.0: 4.0 / 3.0,
}

# adaptive-quadrature oracles against the normalized regularized density
# (1 + eps - z^2)^((n-d)/2) (1-z^2)^((d-2)/2) at n = 2.5, eps = 0.1
EPS_Z2_ORACLE = 0.27653735914158756
EPS_EXP_ORACLE = 1.1445254639865854
EPS_COS3_ORACLE = 0.16492951808528897


def theta_oracle(n, eps, ks):
    """E[T_k(z)] for each k in ``ks`` under the regularized measure of (n, eps).

    With z = cos(theta) the density is sin^(d-1) theta (sin^2 theta + eps)^((n-d)/2)
    on [0, pi] and T_k(z) = cos(k theta).  The density is symmetric about
    pi/2, so odd moments vanish and even ones are integrals over [0, pi/2].
    There it varies on the scale sqrt(eps) near 0, so the breakpoints
    sqrt(eps) 2^j grade toward 0 (their mirror images grade toward pi).
    mpmath.quad at 30 digits, by Gauss-Legendre, which is faster than
    tanh-sinh on the oscillating cos(k theta).
    """
    with mpmath.workdps(30):
        return [float(m) for m in theta_moments(n, eps, ks)]


def theta_moments(n, eps, ks):
    """``theta_oracle``'s moments as mpf, to be used inside ``mpmath.workdps(30)``."""
    d, e = math.ceil(n), mpmath.mpf(eps)
    a = (mpmath.mpf(n) - d) / 2

    @functools.lru_cache(maxsize=None)  # every moment samples the same nodes
    def density(t):
        s = mpmath.sin(t)
        return s ** (d - 1) * (s * s + e) ** a

    def integral(f):
        return mpmath.quad(f, pts, method="gauss-legendre")

    pts = [0, *(mpmath.sqrt(e) * 2**j for j in range(40) if mpmath.sqrt(e) * 2**j < 1), mpmath.pi / 2]
    mass = integral(density)
    return [mpmath.mpf(0) if k % 2 else integral(lambda t: density(t) * mpmath.cos(k * t)) / mass for k in ks]


def stieltjes_oracle(n, eps, K):
    """b_1, ..., b_K of the regularized measure of (n, eps): a Stieltjes pass at 30 digits.

    Polynomials are Chebyshev series, so z T_j = (T_{j+1} + T_{|j-1|}) / 2
    and <T_i, T_j> = (m_{i+j} + m_{|i-j|}) / 2 with m_k = E[T_k] from
    ``theta_moments``.  The measure is symmetric, so the a_k vanish.
    """
    with mpmath.workdps(30):
        m = theta_moments(n, eps, range(2 * K + 1))

        def dot(p, q):
            return sum(x * y * (m[i + j] + m[abs(i - j)]) / 2 for i, x in enumerate(p) for j, y in enumerate(q))

        b, prev, p = [mpmath.mpf(0)], [mpmath.mpf(0)], [mpmath.mpf(1)]
        for k in range(K):
            q = [mpmath.mpf(0)] * (k + 2)
            for j, x in enumerate(p):  # z p_k
                q[j + 1] += x / 2
                q[abs(j - 1)] += x / 2
            for j, x in enumerate(prev):
                q[j] -= b[k] * x
            b.append(mpmath.sqrt(dot(q, q)))
            prev, p = p, [x / b[-1] for x in q]
        return np.array([float(x) for x in b[1:]])


class TestParams:
    def test_defaults(self):
        p = UltraParams(n=3.0)
        assert p.eps == 0.0
        assert p.p == 2.0
        assert p.beta == 1.0

    def test_d_is_ceiling(self):
        assert UltraParams(n=2.5).d == 3
        assert UltraParams(n=3.0).d == 3
        assert UltraParams(n=0.5).d == 1

    def test_kappa_and_m(self):
        p = UltraParams(n=4.0, p=4.0, beta=2.0)
        assert p.kappa == pytest.approx(5.0, abs=1e-15)
        assert p.m == pytest.approx(0.75, abs=1e-15)

    def test_heat_exponent(self):
        # beta = 1 gives m = 1 regardless of p
        assert UltraParams(n=3.0, p=5.0, beta=1.0).m == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            UltraParams(n=0.0)
        with pytest.raises(DomainError):
            UltraParams(n=-1.0)
        with pytest.raises(DomainError):
            UltraParams(n=3.0, eps=-0.1)
        with pytest.raises(DomainError):
            UltraParams(n=3.0, p=0.5)
        with pytest.raises(DomainError):
            UltraParams(n=3.0, beta=0.0)

    def test_eps_below_the_supported_minimum_rejected(self):
        with pytest.raises(DomainError, match="below the supported minimum"):
            UltraParams(n=2.5, eps=5e-9)
        assert UltraParams(n=2.5, eps=EPS_MIN).eps == EPS_MIN


class TestNormalization:
    @pytest.mark.parametrize("n", sorted(Z_ORACLE))
    def test_against_oracle(self, n):
        assert normalization_constant(n) == pytest.approx(Z_ORACLE[n], rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            normalization_constant(0.0)


class TestPlainQuadrature:
    @pytest.mark.parametrize("n", [0.5, 1.0, 1.5, 2.5, 3.0, 4.0])
    def test_weights_positive_and_normalized(self, n):
        q = build_quadrature(UltraParams(n=n), 32)
        assert np.all(q.weights > 0)
        assert q.weights.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.5, 3.0, 4.0, 7.3])
    def test_second_moment(self, n):
        q = build_quadrature(UltraParams(n=n), 16)
        assert q.integrate(q.nodes**2) == pytest.approx(1.0 / (n + 1.0), abs=1e-14)

    @pytest.mark.parametrize("n", [0.5, 2.5, 3.0, 4.0])
    def test_fourth_moment(self, n):
        q = build_quadrature(UltraParams(n=n), 16)
        expect = 3.0 / ((n + 1.0) * (n + 3.0))
        assert q.integrate(q.nodes**4) == pytest.approx(expect, abs=1e-14)

    def test_odd_moments_vanish(self):
        q = build_quadrature(UltraParams(n=2.5), 24)
        assert abs(q.integrate(q.nodes)) < 1e-15
        assert abs(q.integrate(q.nodes**3)) < 1e-15

    def test_nodes_inside_interval(self):
        q = build_quadrature(UltraParams(n=0.7), 40)
        assert np.all(np.abs(q.nodes) < 1.0)

    def test_smooth_integrand_converges(self):
        # doubling N leaves an already-converged value unchanged
        p = UltraParams(n=3.0)
        vals = []
        for N in (24, 48, 96):
            q = build_quadrature(p, N)
            vals.append(q.integrate(np.exp(q.nodes)))
        assert vals[1] == pytest.approx(vals[0], abs=1e-13)
        assert vals[2] == pytest.approx(vals[1], abs=1e-13)

    def test_shape_mismatch(self):
        q = build_quadrature(UltraParams(n=3.0), 16)
        with pytest.raises(ShapeError):
            q.integrate(np.ones(17))

    def test_block_integrates_row_by_row(self):
        q = build_quadrature(UltraParams(n=3.0), 16)
        block = np.exp(np.outer(np.linspace(-2.0, 2.0, 5), q.nodes))
        got = q.integrate(block)
        want = np.array([q.integrate(row) for row in block])
        assert got.shape == (5,)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        assert type(q.integrate(block[0])) is float
        with pytest.raises(ShapeError):
            q.integrate(np.ones((5, 17)))

    def test_one_dimensional_integral_is_the_weights_dot_product(self):
        # any 1-D input of the nodes' size is taken as float64 and integrates to
        # float(weights.dot(values)) bit for bit: a float64 array, a row view of a
        # C-order block, a list, int and float32 arrays
        q = build_quadrature(UltraParams(n=3.0), 16)
        f = np.exp(q.nodes)
        block = np.exp(np.outer(np.linspace(-2.0, 2.0, 5), q.nodes))
        for values in (f, block[2], f.tolist(), np.arange(16) - 7, f.astype(np.float32)):
            got = q.integrate(values)
            assert type(got) is float
            assert got == float(q.weights.dot(values))
        got = q.integrate(block)
        assert got.shape == (5,) and np.array_equal(got, block @ q.weights)
        for bad in (np.ones(15), np.ones(17), [1.0] * 17, 1.0, np.ones((16, 1)), np.ones((5, 17))):
            with pytest.raises(ShapeError):
                q.integrate(bad)

    def test_too_few_nodes(self):
        with pytest.raises(DomainError):
            build_quadrature(UltraParams(n=3.0), 1)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            build_quadrature(UltraParams(n=3.0), 16, kind="fancy")

    def test_weights_read_only(self):
        q = build_quadrature(UltraParams(n=3.0), 16)
        with pytest.raises(ValueError):
            q.weights[0] = 0.5


class TestGaussJacobi:
    """The plain rules against closed forms and mpmath, and the builder's invariants.

    Gates, from the measured worst cases: even moments within 5e-13 (measured
    8.0e-14; scipy's rules missed by up to 6.0e-10), ``fisher(z)`` within
    1e-13 (measured 1.2e-14; 6.1e-10 with scipy's, at n = 0.3, N = 256),
    nodes within 2.5e-16 of the zeros (measured 2.0e-16, Chebyshev's closed
    form next to 0 at n = 1).
    """

    @pytest.mark.parametrize("n", [1e-3, 0.1, 0.3, 0.5, 1.5, 2.5, 4.2, 6.0, 12.0])
    def test_even_moments(self, n):
        # int z^2k dnu_n = B(k + 1/2, a + 1) / B(1/2, a + 1), exact for k < N
        a = (n - 2.0) / 2.0
        with mpmath.workdps(30):
            def moment(k):
                return float(mpmath.beta(k + 0.5, a + 1) / mpmath.beta(0.5, a + 1))

            for N in (2, 3, 7, 16, 64, 65, 128, 256):
                q = build_quadrature(UltraParams(n=n), N)
                for k in {1, 2, 5, N // 2, N - 1} & set(range(1, N)):
                    assert abs(q.integrate(q.nodes ** (2 * k)) - moment(k)) < 5e-13, (N, k)

    @pytest.mark.parametrize("n", [0.1, 0.3, 0.5, 1.5, 2.5, 6.0])
    def test_fisher_of_z(self, n):
        for N in (16, 64, 128, 256):
            q = build_quadrature(UltraParams(n=n), N)
            assert abs(fisher(q.nodes, UltraParams(n=n)) - n / (n + 1.0)) < 1e-13, N

    def test_nodes_against_mpmath_zeros(self):
        # three Newton steps at 30 digits from the node, on P_N' = (N + 2a + 1)/2 P_{N-1}^(a+1, a+1)
        with mpmath.workdps(30):
            for n in (0.1, 0.3, 1.0, 2.5, 3.0, 4.2, 12.0):
                a = (mpmath.mpf(n) - 2) / 2
                for N in (7, 64, 65, 128):
                    nodes = build_quadrature(UltraParams(n=n), N).nodes
                    for i in (N // 2 + 1, (3 * N) // 4, N - 1):
                        z = mpmath.mpf(nodes[i])
                        for _ in range(3):
                            z -= mpmath.jacobi(N, a, a, z) / ((N + 2 * a + 1) / 2 * mpmath.jacobi(N - 1, a + 1, a + 1, z))
                        assert abs(nodes[i] - z) < 2.5e-16, (n, N, i)

    def test_node_rounding_to_the_end_raises(self):
        # a + 1 = 2.2e-16 at N = 6: the largest node rounds to 1, where the weight
        # transfer would divide by 1 - x^2 = 0; below n = 1.1e-16, a rounds to -1
        with pytest.raises(DomainError, match=r"6-node .* n = 4\.4"):
            build_quadrature(UltraParams(n=4.4e-16), 6)
        with pytest.raises(DomainError, match="a > -1"):
            build_quadrature(UltraParams(n=1e-300), 6)

    def test_smallest_n_at_256_nodes_keeps_its_moments(self):
        # n = 1e-11 at N = 256 still builds: its largest node is 7.0e-14 from 1,
        # and its even moments meet their closed form within 3.6e-11, the floor
        # of this n (8.0e-14 from n = 1e-3 up); it lies below the warning threshold
        n, N = 1e-11, 256
        with pytest.warns(AccuracyWarning, match="256-node"):
            nodes, w = measure.gauss_jacobi(N, (n - 2.0) / 2.0)
        assert nodes[-1] < 1.0 and np.all(w > 0)
        with mpmath.workdps(30):
            half = mpmath.mpf(n) / 2
            for k in (1, 2, 5, N // 2, N - 1):
                want = float(mpmath.beta(k + 0.5, half) / mpmath.beta(0.5, half))
                assert abs(np.dot(w, nodes ** (2 * k)) - want) < 5e-11, k

    @pytest.mark.parametrize("N", [16, 64, 65, 256])
    def test_small_n_warns_below_its_threshold(self, N):
        # a + 1 = 0.5e-19 N^4 warns and changes no node or weight; at
        # a + 1 = 2e-19 N^4, above the threshold 1.8e-19 N^4 of N <= 256, the
        # rule is silent and these even moments meet their closed form within
        # 1e-12 (the largest measured n / N^4 with a larger miss is 2.8e-19)
        below = 0.5e-19 * N**4
        with pytest.warns(AccuracyWarning, match=f"{N}-node"):
            got = measure.gauss_jacobi(N, below - 1.0)
        for x, y in zip(got, measure._golub_welsch(N, below - 1.0)):
            np.testing.assert_array_equal(x, y)
        a = 2e-19 * N**4 - 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes, w = measure.gauss_jacobi(N, a)
        with mpmath.workdps(30):
            for k in (1, 2, 5, N // 2, N - 1):
                want = mpmath.beta(k + 0.5, a + 1) / mpmath.beta(0.5, a + 1)
                assert abs(np.dot(w, nodes ** (2 * k)) - float(want)) < 1e-12, k

    def test_small_n_warns_on_every_build_quadrature_call(self):
        # the rule is memoized, its warning is not: a fresh build and a cached
        # repeat each warn once, at the caller's line
        for _ in range(2):
            with pytest.warns(AccuracyWarning, match="256-node") as record:
                build_quadrature(UltraParams(n=1.25e-9), 256)
            assert [w.filename for w in record] == [__file__]

    def test_small_n_warns_once_at_the_caller_of_resample_and_refined_quadrature(self):
        # a new resample key builds the 256-node sample rule, its basis and the
        # 512-node refined rule, all below the threshold: one warning, for the
        # refined rule, naming this file; refined_quadrature's too
        params = UltraParams(n=1e-9)
        resample(np.ones(8), UltraParams(n=3.0))  # resample keeps one key: the next is new
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            resample(np.ones(256), params)
        assert [w.filename for w in record] == [__file__]
        assert "512-node" in str(record[0].message)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            refined_quadrature(params, 128)
        assert [w.filename for w in record] == [__file__]
        assert "256-node" in str(record[0].message)

    def test_small_n_warns_at_512_nodes(self):
        # measured: this rule misses an even moment by 3.2e-12 and used to build
        # silently, since n / N^4 = 2.2e-19 lay above the old threshold 2e-19;
        # past N = 256 the threshold grows like N^7 (gauss_jacobi)
        n, N = 1.5e-8, 512
        with pytest.warns(AccuracyWarning, match="512-node"):
            nodes, w = measure.gauss_jacobi(N, (n - 2.0) / 2.0)
        with mpmath.workdps(30):
            m, a1, want = mpmath.mpf(1), mpmath.mpf(n) / 2, [1.0]
            for k in range(1, N):  # B(k + 1/2, a + 1) / B(1/2, a + 1), a + 1 = n/2
                m *= (k - mpmath.mpf(0.5)) / (k + a1 - mpmath.mpf(0.5))
                want.append(float(m))
        got = [np.dot(w, nodes ** (2 * k)) for k in range(N)]
        assert np.max(np.abs(np.array(got) - want)) > 1e-12

    # a + 1 >= 1e-9 (n >= 2e-9): closer to -1 the nodes next to +-1 lie within
    # rounding of +-1 (their distance is about 2 (a + 1) / N^2), so no double
    # rule has them strictly inside, and where one rounds to +-1 the build raises
    @given(N=st.integers(min_value=2, max_value=256),
           a=st.floats(min_value=-1.0 + 1e-9, max_value=15.0))
    @settings(max_examples=60, deadline=None)
    def test_builder_invariants(self, N, a):
        for nodes, w in (measure.gauss_jacobi(N, a), measure._golub_welsch(N, a)):
            assert nodes.shape == w.shape == (N,)
            assert np.all(np.diff(nodes) > 0) and -1.0 < nodes[0] and nodes[-1] < 1.0
            assert np.all(w > 0) and abs(w.sum() - 1.0) < 1e-15
        # the generic branch mirrors its nonnegative nodes: exact symmetry, and 0
        # exactly for odd N; Chebyshev's closed forms are symmetric to 5.8e-16
        nodes, w = measure._golub_welsch(N, a)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert (0.0 in nodes) == (N % 2 == 1)
        for half in (-0.5, 0.5):
            closed, generic = measure.gauss_jacobi(N, half), measure._golub_welsch(N, half)
            np.testing.assert_allclose(closed[0], generic[0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(closed[1], generic[1], rtol=0, atol=1e-15)


class TestRuleCache:
    @pytest.mark.parametrize("n, eps, kind", [(2.5, 0.0, "plain"), (2.5, 0.01, "regularized"),
                                              (3.0, 1e-4, "regularized")])
    def test_repeat_equals_fresh_build(self, n, eps, kind):
        first = build_quadrature(UltraParams(n=n, eps=eps), 24, kind=kind)
        again = build_quadrature(UltraParams(n=n, eps=eps, p=4.0, beta=0.5), 24)
        assert again is first  # p, beta and the kind echo are not part of the key
        d = math.ceil(n) if eps else n
        a = (d - 2.0) / 2.0
        nodes, w = measure.gauss_jacobi(24, a)
        np.testing.assert_array_equal(again.nodes, nodes)
        np.testing.assert_array_equal(again.weights, w / w.sum())
        assert (again.n, again.eps) == (d, 0.0)
        assert not again.nodes.flags.writeable and not again.weights.flags.writeable
        # scipy's rule, the reference: its nodes are good to about 1e-16, its end
        # weights miss Chebyshev's closed form at a = 1/2 by 2.3e-13 relative, and
        # that closed form misses the zero next to 0 by 1.9e-16
        ref_nodes, ref_w = roots_jacobi(24, a, a)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=4.5e-16)
        np.testing.assert_allclose(w, ref_w / ref_w.sum(), rtol=3e-13, atol=0)

    def test_plain_rule_records_eps_zero(self):
        q = build_quadrature(UltraParams(n=2.5), 64)
        assert q.eps == 0.0 and repr(q) == "Quadrature(order=64, n=2.5, eps=0.0)"
        # the sample rule of an eps key is a plain rule too: it records d and eps = 0
        assert repr(build_quadrature(UltraParams(n=2.5, eps=1e-3), 64)) == "Quadrature(order=64, n=3.0, eps=0.0)"

    def test_eps_zero_noninteger_rejected_after_plain_is_cached(self):
        build_quadrature(UltraParams(n=2.7), 20, kind="plain")
        with pytest.raises(DomainError):
            build_quadrature(UltraParams(n=2.7), 20, kind="regularized")

    def test_graded_rule_is_not_a_folded_gauss_jacobi_rule(self, monkeypatch):
        # its panels are the Gauss-Legendre rules (n = 2, a = 0), never the rule of d;
        # the rule cache is left warm, as other tests pin its shared arrays
        calls, build = [], measure._rule

        def counting(n, N):
            calls.append((n, N))
            return build(n, N)

        monkeypatch.setattr(measure, "_rule", counting)
        measure._graded_rule.cache_clear()
        for n, eps in [(2.5, 1e-6), (2.2, 4e-6), (0.300001, 1e-8)]:
            refined_quadrature(UltraParams(n=n, eps=eps), 64)
        assert calls and {n for n, _ in calls} == {2.0}
        assert {N for _, N in calls} <= PANEL_SIZES

    def test_regularized_rule_shares_nodes_with_plain_rule_of_d(self):
        for N in (16, 64):
            assert build_quadrature(UltraParams(n=2.5, eps=1e-2), N) is build_quadrature(UltraParams(n=3.0), N)
        assert build_quadrature(UltraParams(n=2.5, eps=1e-2), 64).n == 3.0
        # kind is a checked echo of eps; it selects no rule
        for params, kind in [(UltraParams(n=2.5, eps=1e-2), "plain"), (UltraParams(n=3.0), "regularized"),
                             (UltraParams(n=3.0, eps=1e-2), "fancy")]:
            with pytest.raises(DomainError, match="contradicts"):
                build_quadrature(params, 64, kind=kind)

    @pytest.mark.parametrize("n, eps, N", [(2.5, 1e-6, 64), (0.300001, 1e-8, 32)])
    def test_graded_rule_repeat_is_same_read_only_object(self, n, eps, N):
        q = refined_quadrature(UltraParams(n=n, eps=eps), N)
        assert refined_quadrature(UltraParams(n=n, eps=eps, p=4.0, beta=0.5), N) is q
        basis_rule = get_regularized_basis(n, eps, N).quad  # equal content: identity is not promised
        for name in ("nodes", "weights", "rho2"):
            np.testing.assert_array_equal(getattr(basis_rule, name), getattr(q, name))
        assert q.eps == eps and q.order == q.nodes.size
        assert not q.nodes.flags.writeable and not q.weights.flags.writeable
        panel = measure._rule(2.0, 11)  # a shared panel rule
        assert (panel.n, panel.eps) == (2.0, 0.0)
        assert not any(a.flags.writeable for a in (panel.nodes, panel.weights, panel.rho2))
        assert np.all(np.diff(q.nodes) > 0) and np.all(np.abs(q.nodes) < 1.0)
        np.testing.assert_array_equal(q.nodes, -q.nodes[::-1])


def legendre_oracle(m):
    """Nodes and weights (sum 2) of the m-point Gauss-Legendre rule, ascending:
    Newton on the three-term recurrence at 30 digits, from cos(pi (k - 1/4) / (m + 1/2))."""
    with mpmath.workdps(30):
        nodes, weights = [], []
        for k in range(1, m + 1):
            x = mpmath.cos(mpmath.pi * (k - mpmath.mpf(0.25)) / (m + mpmath.mpf(0.5)))
            for _ in range(50):
                p0, p1 = mpmath.mpf(1), x
                for j in range(2, m + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = m * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
                if abs(p1 / dp) < mpmath.mpf(10) ** -27:
                    break
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(nodes[::-1]), np.array(weights[::-1])


# panel sizes 10 + ceil(2 N pi / 2^j), j >= 2, of the graded rule at N = 64 and 128:
# 11, 12, 14, 17, 23, 36, 61, 111 and, at N = 128 only, 212
PANEL_SIZES = {10 + math.ceil(2 * N * math.pi / 2**j) for N in (64, 128) for j in range(2, 20)}


@pytest.mark.parametrize("m", sorted(PANEL_SIZES))
def test_panel_rule_against_mpmath(m):
    # measured: nodes within 1.1e-16, weights within 7.3e-14 relative (m = 212)
    panel = measure._rule(2.0, m)
    x, w = panel.nodes, panel.weights
    want_x, want_w = legendre_oracle(m)
    np.testing.assert_allclose(x, want_x, rtol=0, atol=2e-16)
    np.testing.assert_allclose(2.0 * w, want_w, rtol=2e-13, atol=0)


class TestRegularizedQuadrature:
    """The rules of keys with eps > 0: samples on the plain rule of d, integrals on the graded rule."""

    def test_against_dense_oracles(self):
        # on the graded rule; EPS_EXP_ORACLE is test_refined_agrees_with_oracle's
        q = refined_quadrature(UltraParams(n=2.5, eps=0.1), 32)
        assert q.integrate(q.nodes**2) == pytest.approx(EPS_Z2_ORACLE, abs=1e-10)
        assert q.integrate(np.cos(3.0 * q.nodes)) == pytest.approx(EPS_COS3_ORACLE, abs=1e-10)

    def test_doubling_plateau(self):
        # the graded rule resolves the weight at every N, so doubling moves no digit
        p = UltraParams(n=2.5, eps=0.05)
        vals = [refined_quadrature(p, N).integrate(np.sin(refined_quadrature(p, N).nodes) ** 2)
                for N in (32, 64, 128)]
        assert vals[1] == pytest.approx(vals[0], abs=1e-14)
        assert vals[2] == pytest.approx(vals[1], abs=1e-14)

    def test_defaults_to_regularized_when_eps_positive(self):
        p = UltraParams(n=2.5, eps=0.01)
        assert build_quadrature(p, 16) is build_quadrature(p, 16, kind="regularized")
        with pytest.raises(DomainError):
            build_quadrature(p, 16, kind="plain")

    @pytest.mark.parametrize(
        "rule",
        [
            lambda: build_quadrature(UltraParams(n=2.5), 64),
            lambda: build_quadrature(UltraParams(n=2.5), 64, kind="plain"),
            lambda: build_quadrature(UltraParams(n=3.0), 64),
            lambda: build_quadrature(UltraParams(n=3.0, eps=1e-4), 64),
            lambda: refined_quadrature(UltraParams(n=2.5, eps=1e-4), 64),
            lambda: refined_quadrature(UltraParams(n=2.5), 64),
        ],
        ids=["plain", "plain-kind", "n=d", "n=d-eps", "graded", "refined-plain"],
    )
    def test_resolved_rules_do_not_warn(self, rule):
        # every rule integrates the measure (n, eps) it echoes, silently
        q = rule()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = q.integrate(q.nodes**2)
        want = (1.0 + theta_oracle(q.n, q.eps, [2])[0]) / 2.0 if q.eps else 1.0 / (q.n + 1.0)
        assert abs(got - want) < 1e-14

    def test_integer_n_matches_plain(self):
        # at n = d the bounded factor is identically one: every rule of the
        # eps key is the plain rule of d
        for eps in (1e-2, 1e-6):
            p = UltraParams(n=3.0, eps=eps)
            assert build_quadrature(p, 16) is build_quadrature(UltraParams(n=3.0), 16)
            assert refined_quadrature(p, 16) is refined_quadrature(UltraParams(n=3.0), 16)

    def test_eps_zero_noninteger_rejected(self):
        with pytest.raises(DomainError):
            build_quadrature(UltraParams(n=2.5), 16, kind="regularized")

    def test_eps_to_zero_limit(self):
        # the regularized integral of a smooth function approaches the plain one
        n = 2.5
        plain = refined_quadrature(UltraParams(n=n), 48)
        target = plain.integrate(np.exp(plain.nodes))
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            q = refined_quadrature(UltraParams(n=n, eps=eps), 48)
            errs.append(abs(q.integrate(np.exp(q.nodes)) - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4


class TestRefinedQuadrature:
    def test_plain_doubles(self):
        p = UltraParams(n=3.0)
        assert refined_quadrature(p, 64).order == 128

    def test_regularized_size_grows_like_log_inverse_eps(self):
        counts = [refined_quadrature(UltraParams(n=2.5, eps=10.0**-j), 64).order for j in range(2, 9)]
        steps = np.diff(counts)
        # each decade of eps splits one or two small panels (about 11 nodes each)
        # off each end: a bounded step, where 1/sqrt(eps) nodes would grow 3.2-fold
        assert np.all(steps > 0) and np.all(steps <= 50)
        assert counts[-1] < 1000
        assert refined_quadrature(UltraParams(n=2.5, eps=1e-8), 64).order == counts[-1]

    def test_refined_agrees_with_oracle(self):
        p = UltraParams(n=2.5, eps=0.1)
        q = refined_quadrature(p, 32)
        assert q.integrate(np.exp(q.nodes)) == pytest.approx(EPS_EXP_ORACLE, abs=1e-10)


class TestCapWarning:
    """No refined rule is capped, so none warns, and small eps keeps full accuracy."""

    SMALL_EPS = [(2.5, 1e-6), (0.300001, 1e-8)]

    @pytest.mark.parametrize("n, eps", SMALL_EPS)
    def test_refined_quadrature_is_silent_and_exact(self, n, eps):
        p = UltraParams(n=n, eps=eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = refined_quadrature(p, 64)
        ez2 = (1.0 + theta_oracle(n, eps, [2])[0]) / 2.0  # z^2 = (1 + T_2) / 2
        assert abs(q.integrate(q.nodes**2) - ez2) < 1e-13

    @pytest.mark.parametrize("n, eps", SMALL_EPS)
    def test_lyapunov_F_is_silent_and_exact(self, n, eps):
        p = UltraParams(n=n, eps=eps, p=3.0, beta=1.0 / 3.0)
        u = 1.0 + build_quadrature(p, 64).nodes ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mass = lyapunov_F(u, p).mass  # beta p = 1: the mass is 1 + E[z^2]
        assert abs(mass - 1.0 - (1.0 + theta_oracle(n, eps, [2])[0]) / 2.0) < 1e-13

    @pytest.mark.parametrize("n, eps", [(2.5, 1e-3), (3.0, 1e-6), (3.0, 0.0)])
    def test_uncapped_rules_are_silent(self, n, eps):
        p = UltraParams(n=n, eps=eps, p=3.0, beta=1.0 / 3.0)
        u = 1.0 + build_quadrature(p, 64).nodes ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refined_quadrature(p, 64)
            lyapunov_F(u, p)


class TestGradedRuleOracle:
    """The refined regularized rule against mpmath over the accepted range of (n, eps)."""

    @given(
        n=st.floats(min_value=0.0, max_value=6.0, exclude_min=True),
        log_eps=st.floats(min_value=math.log10(EPS_MIN), max_value=0.0, exclude_max=True),
        N=st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=25, deadline=None)
    def test_chebyshev_moments_and_lyapunov_mass(self, n, log_eps, N):
        eps = max(10.0**log_eps, EPS_MIN)
        ks = [1, 2, N // 2 + 1, 2 * N]
        oracle = theta_oracle(n, eps, ks)
        q = refined_quadrature(UltraParams(n=n, eps=eps), N)
        for k, expect in zip(ks, oracle):
            assert abs(q.integrate(np.polynomial.Chebyshev.basis(k)(q.nodes)) - expect) < 1e-13, k
        p = UltraParams(n=n, eps=eps, p=3.0, beta=1.0 / 3.0)
        mass = lyapunov_F(1.0 + build_quadrature(p, N).nodes ** 2, p).mass
        assert abs(mass - 1.0 - (1.0 + oracle[1]) / 2.0) < 1e-13


def corrections_oracle(n, eps):
    """The Gamma2-eps and L-Gamma-eps corrections of u = 1 + z/10 + z^2/20 by mpmath.

    The integrals run in theta = arccos z, where rho^2 = sin^2 theta and
    zeta = sin^2 theta + eps are exact, over [0, pi] split at sqrt(eps) 2^j
    and their mirror images as in ``theta_oracle``; 40 digits.
    """
    with mpmath.workdps(40):
        d, e = math.ceil(n), mpmath.mpf(eps)
        a = (mpmath.mpf(n) - d) / 2

        @functools.lru_cache(maxsize=None)  # every integral samples the same nodes
        def at(t):
            s2, z = mpmath.sin(t) ** 2, mpmath.cos(t)
            return s2, z, (1 + z / 10 + z * z / 20), (1 + z) / 10, mpmath.sin(t) ** (d - 1) * (s2 + e) ** a

        def integral(f):
            return mpmath.quad(lambda t: f(*at(t)), pts, method="gauss-legendre")

        half = [0, *(mpmath.sqrt(e) * 2**j for j in range(40) if mpmath.sqrt(e) * 2**j < 1), mpmath.pi / 2]
        pts = half + [mpmath.pi - x for x in half[-2::-1]]
        mass = integral(lambda s2, z, u, up, w: w)
        g2 = integral(lambda s2, z, u, up, w: w * (1 + e + z * z) / (s2 + e) ** 2 * s2 * up**2)
        lg = integral(lambda s2, z, u, up, w: w * up**3 * s2 * z / ((s2 + e) * u))
        return float(-e * (n - d) * g2 / mass), float(2 * e * (n - d) / (n + 2) * lg / mass)


class TestRuleRho2:
    """rho^2 is data of the rule: sin^2 theta on the graded rule, 1 - z^2 on Gauss rules."""

    def test_eps_corrections_in_the_end_layer_and_gauss_rho2(self):
        # rho^2 and zeta formed from z cancel within sqrt(eps) of +-1: the
        # Gamma2-eps term would miss by 9.4e-13 at eps = 1e-6, 2.1e-11 at 1e-8
        for eps in (1e-4, 1e-6, 1e-8):
            p = UltraParams(n=2.5, eps=eps)
            fine = refined_quadrature(p, 64)
            z = fine.nodes
            uu, up = 1.0 + 0.1 * z + 0.05 * z**2, 0.1 + 0.1 * z
            g2, lg = corrections_oracle(2.5, eps)
            dz = _deformation(z, fine.rho2, p)
            assert abs(_gamma2_correction(fine, up, dz) - g2) < 1e-14 * abs(g2), eps
            assert abs(_lgamma_correction(fine, uu, up, p.n, dz) - lg) < 1e-14 * abs(lg), eps
        assert not fine.rho2.flags.writeable
        for n, eps in [(0.7, 0.0), (2.5, 0.0), (2.5, 1e-2), (3.0, 1e-6), (4.2, 1e-4)]:
            for N in (16, 64, 128):
                q = build_quadrature(UltraParams(n=n, eps=eps), N)
                np.testing.assert_array_equal(q.rho2, 1.0 - q.nodes**2)
                assert not q.rho2.flags.writeable
                with pytest.raises(ValueError):
                    q.rho2[0] = 0.0


class TestSteppingRule:
    """The 2N-node Gauss rule of the regularized measure, which the flows step on.

    Its recurrence comes from a Stieltjes pass on the graded rule, exact
    to degree 4N - 1, so the two rules share their moments below degree 4N.
    Measured: Chebyshev moments within 5.0e-15 of the graded rule's, and
    1.6e-13 at the corner (0.300001, 1e-8), where the outermost node carries
    weight 0.115 and T_k'(1) = k^2, so a node's rounding alone moves
    T_254's moment by about 1e-13.
    """

    @pytest.mark.parametrize("n, eps, N, gate", [
        (2.5, 1e-3, 64, 1e-14), (2.5, 1e-3, 128, 1e-14), (0.300001, 1e-8, 64, 3e-13),
        (1.5, 1e-6, 128, 1e-14),
    ])
    def test_moments_below_degree_4N_match_the_graded_rule(self, n, eps, N, gate):
        p = UltraParams(n=n, eps=eps)
        g, fine = measure._stepping_rule(p, N), refined_quadrature(p, N)
        assert g.nodes.size == g.order == 2 * N and (g.n, g.eps) == (n, eps)
        assert abs(g.weights.sum() - 1.0) < 1e-15 and np.all(g.weights > 0)
        np.testing.assert_array_equal(g.nodes, -g.nodes[::-1])
        np.testing.assert_array_equal(g.weights, g.weights[::-1])
        assert np.all(np.diff(g.nodes) > 0) and g.nodes[-1] < 1.0
        np.testing.assert_array_equal(g.rho2, 1.0 - g.nodes**2)
        for k in range(4 * N):
            T = np.polynomial.Chebyshev.basis(k)
            assert abs(g.integrate(T(g.nodes)) - fine.integrate(T(fine.nodes))) < gate, k

    @pytest.mark.parametrize("n, eps", [(2.5, 1e-3), (0.300001, 1e-8), (1.5, 1e-6)])
    def test_second_and_fourth_moments_against_mpmath(self, n, eps):
        # z^2 = (1 + T_2)/2 and z^4 = (3 + 4 T_2 + T_4)/8; measured worst 3.2e-15
        t2, t4 = theta_oracle(n, eps, [2, 4])
        g = measure._stepping_rule(UltraParams(n=n, eps=eps), 64)
        assert abs(g.integrate(g.nodes**2) - (1.0 + t2) / 2.0) < 1e-14
        assert abs(g.integrate(g.nodes**4) - (3.0 + 4.0 * t2 + t4) / 8.0) < 1e-14

    @pytest.mark.parametrize("n, eps", [(2.5, 0.0), (0.7, 0.0), (3.0, 0.0), (3.0, 1e-3)])
    def test_plain_stepping_rule_is_the_refined_rule(self, n, eps):
        p = UltraParams(n=n, eps=eps, p=4.0, beta=2.0)
        assert measure._stepping_rule(p, 32) is refined_quadrature(p, 32)

    def test_built_once_per_key_and_read_only(self):
        p = UltraParams(n=2.5, eps=1e-3)
        g = measure._stepping_rule(p, 32)
        assert measure._stepping_rule(UltraParams(n=2.5, eps=1e-3, p=5.0, beta=4.0), 32) is g
        for a in (g.nodes, g.weights, g.rho2):
            assert not a.flags.writeable


@pytest.mark.parametrize("n, eps", [(2.5, 1e-3), (0.300001, 1e-8)])
def test_regularized_recurrence_against_mpmath(n, eps):
    # the b_k of the basis on the graded rule, k <= 6; measured worst 4.4e-16
    # relative (N = 16 to 128)
    got = get_regularized_basis(n, eps, 64).offdiag[1:7]
    np.testing.assert_allclose(got, stieltjes_oracle(n, eps, 6), rtol=2e-15, atol=0)
