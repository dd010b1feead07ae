"""Spectral basis tests.

The recurrence-coefficient oracle is the classical closed form for the
weight (1-z^2)^((n-2)/2): the squared off-diagonal entries must equal
k (k + n - 2) / ((2k + n - 3)(2k + n - 1)); the Stieltjes construction
is tested against it.  Derivative oracles are analytic.  The basis itself,
with its first two derivatives, is checked against the orthonormal Jacobi
polynomials evaluated at 30 digits with mpmath, and the builder, one pass
that forms the recurrence and the tables together, is pinned bit for bit to
a column-at-a-time reference recurrence.
"""
import dataclasses
import warnings

import mpmath
import numpy as np
import pytest

import ultraflow.measure as measure
import ultraflow.spectral as spectral
from ultraflow import (
    AccuracyWarning,
    AliasingError,
    DomainError,
    FlowConfig,
    ShapeError,
    UltraParams,
    apply_L,
    build_quadrature,
    check_gamma2,
    check_gamma2_eps,
    check_lgamma,
    check_lgamma_eps,
    dF_dt_closed_form,
    deficit,
    eigenvalue,
    fisher,
    get_basis,
    get_regularized_basis,
    logsob_deficit,
    lp_norm,
    lyapunov_F,
    qform_value,
    refined_quadrature,
    resample,
    run_heat_flow,
    run_nonlinear_flow,
    run_regularized_flow,
    spectral_derivative,
)
from ultraflow.spectral import OrthoBasis, _discretization


def recurrence_oracle(n: float, kmax: int) -> np.ndarray:
    k = np.arange(1, kmax + 1, dtype=float)
    with np.errstate(invalid="ignore"):
        out = k * (k + n - 2.0) / ((2.0 * k + n - 3.0) * (2.0 * k + n - 1.0))
    out[0] = 1.0 / (n + 1.0)  # k = 1 is 0/0 at n = 1; its limit is 1/(n+1)
    return out


def jacobi_oracle(n: float, K: int, nodes: np.ndarray, order: int) -> np.ndarray:
    """Q_k^(order), k = 0..K, of the orthonormal basis of dnu_n at ``nodes``, at 30 digits.

    Q_k = P_k^(a,a) / ||P_k^(a,a)|| with a = (n - 2)/2 and the norm taken in
    the probability measure dnu_n; d/dz P_k^(a,a) = (k + 2a + 1)/2 P_{k-1}^(a+1,a+1),
    so Q_k^(j) is a scaled P_{k-j}^(a+j,a+j), evaluated by the classical
    Jacobi three-term recurrence.
    """
    with mpmath.workdps(30):
        a = (mpmath.mpf(n) - 2) / 2
        al = a + order
        rec = []  # P_{k+1} = A_k z P_k - B_k P_{k-1} for P^(al,al)
        for k in range(1, K):
            c = 2 * k + 2 * al
            den = 2 * (k + 1) * (k + 2 * al + 1) * c
            rec.append(((c + 1) * c * (c + 2) / den, 2 * (k + al) ** 2 * (c + 2) / den))
        mass = 2 ** (2 * a + 1) * mpmath.gamma(a + 1) ** 2 / mpmath.gamma(2 * a + 2)
        scale = []
        for k in range(K + 1):
            h = (2 ** (2 * a + 1) * mpmath.gamma(k + a + 1) ** 2
                 / ((2 * k + 2 * a + 1) * mpmath.gamma(k + 2 * a + 1) * mpmath.factorial(k)))
            s = mpmath.sqrt(mass / h)
            for j in range(order):
                s *= (k + 2 * a + 1 + j) / 2
            scale.append(s)
        out = np.zeros((len(nodes), K + 1))
        for i, x in enumerate(nodes):
            z = mpmath.mpf(float(x))
            P = [mpmath.mpf(1), (al + 1) * z]
            for k, (A, B) in enumerate(rec[: K - order - 1], start=1):
                P.append(A * z * P[k] - B * P[k - 1])
            for k in range(order, K + 1):
                out[i, k] = float(scale[k] * P[k - order])
        return out


class TestBasisConstruction:
    def test_jacobi_oracle_matches_the_explicit_sum(self):
        # the oracle's recurrence and closed-form norms against the explicit
        # sum P_k^(a,a)(x) = sum_s C(k+a, k-s) C(k+a, s) ((x-1)/2)^s ((x+1)/2)^(k-s),
        # differentiated numerically and normalized by quadrature
        n, K, z = 1.7, 3, 0.3141592653589793
        with mpmath.workdps(30):
            a = (mpmath.mpf(n) - 2) / 2

            def jacobi(k, x):
                return mpmath.fsum(mpmath.binomial(k + a, k - s) * mpmath.binomial(k + a, s)
                                   * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (k - s)
                                   for s in range(k + 1))

            mass = mpmath.beta(0.5, a + 1)  # int (1 - z^2)^a dz
            got = [jacobi_oracle(n, K, [z], order)[0] for order in range(3)]
            for k in range(K + 1):
                norm = mpmath.quad(lambda x: jacobi(k, x) ** 2 * (1 - x * x) ** a, [-1, 0, 1])
                for order in range(3):
                    want = float(mpmath.diff(lambda x: jacobi(k, x), z, order) * mpmath.sqrt(mass / norm))
                    assert got[order][k] == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("N", [16, 64])
    @pytest.mark.parametrize("n", [0.5, 1.7, 3.0, 4.2])
    def test_values_and_derivatives_match_jacobi_oracle(self, n, N):
        # measured: at most 1.3e-13 of max|Q^(j)| (n = 1.7, N = 64, values on
        # its own nodes); 5.2e-15 at N = 16
        basis = get_basis(n, N)
        fine = refined_quadrature(UltraParams(n=n), N)
        assert fine.nodes.size == 2 * N
        for nodes, tables in ((basis.quad.nodes, (basis.V, basis.V1)), (fine.nodes, ())):
            for order in range(3):
                want = jacobi_oracle(n, basis.K, nodes, order)
                tol = 5e-13 * np.max(np.abs(want))
                for got in (basis.evaluate(nodes, order),) + tables[order:order + 1]:
                    assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("n", [0.5, 1.0, 1.5, 2.5, 3.0, 4.0, 6.7])
    def test_offdiag_closed_form(self, n):
        basis = get_basis(n, 48)
        got = basis.offdiag[1:] ** 2
        want = recurrence_oracle(n, len(got))
        np.testing.assert_allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("n", [0.5, 2.5, 4.0])
    def test_alpha_vanishes_by_symmetry(self, n):
        basis = get_basis(n, 48)
        assert np.max(np.abs(basis.alpha)) < 1e-14

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.5, 3.0, 5.2])
    def test_orthonormality(self, n):
        basis = get_basis(n, 32)
        G = basis.V.T @ (basis.quad.weights[:, None] * basis.V)
        np.testing.assert_allclose(G, np.eye(G.shape[1]), atol=1e-12)

    def test_first_element_is_constant(self):
        basis = get_basis(3.0, 16)
        np.testing.assert_allclose(basis.V[:, 0], 1.0, atol=1e-13)

    def test_second_element_proportional_to_z(self):
        n = 3.0
        basis = get_basis(n, 16)
        scale = np.sqrt(n + 1.0)  # normalizes z against <z^2> = 1/(n+1)
        np.testing.assert_allclose(basis.V[:, 1], scale * basis.quad.nodes, atol=1e-12)

    def test_regularized_basis_orthonormal(self):
        basis = get_regularized_basis(2.5, 0.05, 24)
        G = basis.V.T @ (basis.quad.weights[:, None] * basis.V)
        np.testing.assert_allclose(G, np.eye(G.shape[1]), atol=1e-11)

    def test_regularized_basis_at_eps_0_is_the_plain_basis(self):
        # eps = 0 at non-integer n: the plain measure's basis on its 2N-node rule
        basis = get_regularized_basis(2.5, 0.0, 32)
        fine = refined_quadrature(UltraParams(n=2.5), 32)
        assert basis.quad is fine
        want = get_basis(2.5, 32).evaluate(fine.nodes)
        assert np.max(np.abs(basis.V - want)) <= 1e-12 * np.max(np.abs(want))


def reference_tables(alpha, offdiag, K, nodes, order, q0=1.0):
    """[Q_k, Q_k', ...] by the differentiated recurrence, one strided column at a time."""
    z = np.asarray(nodes, dtype=float)
    a, b = alpha, offdiag
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


def reference_basis(quad, K):
    """(alpha, offdiag, V, V1, D): the Stieltjes step on columns of V, then Q_k' in a second pass."""
    z, w = quad.nodes, quad.weights
    a = np.zeros(K + 1)
    b = np.zeros(K + 1)
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
    V1 = reference_tables(a, b, K, z, 1, V[0, 0])[1]
    return a, b, V, V1, V.T @ (w[:, None] * V1)


def count_passes(monkeypatch):
    """A list that gets (nodes, K, order, forms coefficients) for every _recurrence pass."""
    calls, recurrence = [], spectral._recurrence

    def counting(z, K, order, q0, a, b, w=None):
        calls.append((z.size, K, order, w is not None))
        return recurrence(z, K, order, q0, a, b, w)

    monkeypatch.setattr(spectral, "_recurrence", counting)
    return calls


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


class TestOnePassBuild:
    """One pass forms the recurrence and the tables, bit for bit those of the column recurrence."""

    KEYS = [(3.0, 0.0, 64), (2.5, 1e-3, 64)]  # plain; graded (eps > 0, n < d)

    @pytest.mark.parametrize("n, eps, N", KEYS)
    def test_basis_matches_the_column_recurrence(self, n, eps, N):
        quad = refined_quadrature(UltraParams(n=n, eps=eps), N)
        basis = OrthoBasis(quad, N - 2)
        for got, want in zip((basis.alpha, basis.offdiag, basis.V, basis.V1, basis.D),
                             reference_basis(quad, N - 2)):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("n, eps, N", KEYS)
    def test_tables_match_the_column_recurrence(self, n, eps, N):
        basis = resample(np.ones(N), UltraParams(n=n, eps=eps))[1]  # the sample basis of the key
        ends = np.array([-1.0, 1.0])
        for nodes in (refined_quadrature(UltraParams(n=n, eps=eps), N).nodes, ends):
            for order in range(3):
                got = basis._tables(nodes, order)
                want = reference_tables(basis.alpha, basis.offdiag, basis.K, nodes, order, basis.V[0, 0])
                assert len(got) == order + 1
                for g, w in zip(got, want):
                    assert_same_bits(g, w)
        want = reference_tables(basis.alpha, basis.offdiag, basis.K, ends, 1, basis.V[0, 0])[1]
        assert_same_bits(OrthoBasis(basis.quad, basis.K).end_slopes, want)

    @pytest.mark.parametrize("n", [2.75, 3.45])
    def test_evaluate_at_the_nodes_is_V(self, n):
        # weights summing to 1 - 2^-52: evaluate used to start at Q_0 = 1.0, not
        # where V starts, and missed V by 1.9e-14 (n = 2.75) and 5.7e-14 (n = 3.45)
        basis = get_basis(n, 64)
        assert basis.quad.weights.sum() != 1.0
        assert_same_bits(basis.evaluate(basis.quad.nodes), basis.V)
        assert_same_bits(basis.evaluate(basis.quad.nodes, order=1), basis.V1)
        # the flows' stage tables: one pass at the stepping rule's nodes, which
        # at eps = 0 are the nodes of the basis's refined rule, is V and V1
        basis = get_regularized_basis(n, 0.0, 64)
        nodes = measure._stepping_rule(UltraParams(n=n), 64).nodes
        V, V1 = basis._tables(nodes, 1)
        assert_same_bits(V, basis.V)
        assert_same_bits(V1, basis.V1)
        assert_same_bits(basis.evaluate(nodes, 1), basis.V1)

    def test_constructor_makes_one_pass(self, monkeypatch):
        # the first use builds the basis: one _recurrence pass over the rule's
        # nodes forms the recurrence and Q_k with Q_k'; construction makes none
        calls = count_passes(monkeypatch)
        quad = refined_quadrature(UltraParams(n=2.5, eps=1e-3), 32)
        basis = OrthoBasis(quad, 30)
        assert calls == []
        assert basis.V1.shape == (quad.nodes.size, 31)
        assert basis.alpha.size == basis.D.shape[0] == 31
        assert calls == [(quad.nodes.size, 30, 1, True)]

    @pytest.mark.parametrize("N", [15, 16, 48, 64, 128])
    @pytest.mark.parametrize("n, eps", [(1.7, 0.0), (3.0, 1e-2), (2.5, 1e-3)])  # plain, n = d, graded
    def test_one_pass_with_and_without_extra_nodes(self, n, eps, N):
        # the sample rule's basis with the refined nodes added (resample's tables),
        # and the refined rule's with the stepping rule's (the flows' stage tables)
        params = UltraParams(n=n, eps=eps)
        fine = refined_quadrature(params, N)
        for quad, extra in ((build_quadrature(params, N), fine.nodes), (fine, measure._stepping_rule(params, N).nodes)):
            want = reference_basis(quad, N - 2)
            fused = OrthoBasis(quad, N - 2)
            at_extra = fused._tables_at(extra)
            for got, w in zip(at_extra, reference_tables(*want[:2], N - 2, extra, 1, want[2][0, 0]), strict=True):
                assert_same_bits(got, w)
            for basis in (fused, OrthoBasis(quad, N - 2)):
                for got, w in zip((basis.alpha, basis.offdiag, basis.V, basis.V1, basis.D), want):
                    assert_same_bits(got, w)
            for got, w in zip(fused._tables_at(extra), at_extra, strict=True):  # built: a _tables pass
                assert_same_bits(got, w)

    def test_unknown_attribute_leaves_the_basis_unbuilt(self):
        # only a read of what the build forms builds the basis; any other name
        # is an AttributeError, so hasattr is False and nothing is built
        basis = OrthoBasis(build_quadrature(UltraParams(n=2.5), 16), K=14)
        with pytest.raises(AttributeError, match="'OrthoBasis' object has no attribute 'W'"):
            basis.W
        assert not hasattr(basis, "alpha_k")
        assert "V" not in basis.__dict__

    def test_cold_plain_resample_makes_one_pass(self, monkeypatch):
        # the sample basis forms its recurrence, V, V1 and the refined rule's
        # tables in the one pass of its first build
        calls = count_passes(monkeypatch)
        params, N = UltraParams(n=1.2345), 20
        resample(np.ones(N), params)
        assert calls == [(3 * N, N - 2, 1, True)]

    def test_cold_regularized_flow_builds_its_basis_with_the_stage_tables(self, monkeypatch):
        # the run asks for the stepping rule's tables before it projects v0, so the
        # regularized basis builds with them in one pass: the sample basis with the
        # graded nodes, the values-only Gauss rule of the measure, then the basis
        # over the graded and the 2N stepping nodes; a warm run repeats the trace
        params, N = UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-3), 24
        for cache in (get_basis, get_regularized_basis, _discretization, measure._regularized_gauss_rule):
            cache.cache_clear()
        fine = refined_quadrature(params, N)
        cfg = FlowConfig(kind="regularized", params=params, dt=1e-3, t_end=0.01)
        u0 = 1.0 + 0.05 * build_quadrature(params, N).nodes
        calls = count_passes(monkeypatch)
        cold = run_regularized_flow(u0, cfg)
        assert calls == [(N + fine.order, N - 2, 1, True), (fine.order, 2 * N, -1, True),
                         (fine.order + 2 * N, N - 2, 1, True)]
        warm = run_regularized_flow(u0, cfg)
        assert calls[3:] == [(2 * N, N - 2, 1, False)]  # the stage tables of a built basis
        for name in ("times", "mass", "fisher_beta", "F_values", "u_min", "u_max", "grad_max", "dF_closed"):
            assert_same_bits(getattr(cold, name), getattr(warm, name))

    @pytest.mark.parametrize("n, eps", [(1.37, 0.0), (2.5, 1e-3)])
    def test_cold_resample_tables_own_their_rows(self, n, eps):
        # the extra rows of the fused build are tables of their own: the cached
        # tables keep no second copy of the sample basis's rows
        params, N = UltraParams(n=n, eps=eps), 128
        get_basis.cache_clear()
        _discretization.cache_clear()
        resample(np.ones(N), params)
        fine, basis, V, V1 = _discretization(n, eps, N)
        for table in (V, V1, basis.V, basis.V1):
            assert table.base is None
        want = basis._tables(fine.nodes, 1)
        assert_same_bits(V, want[0])
        assert_same_bits(V1, want[1])

    def test_warm_key_cycle_makes_one_tables_pass_per_key(self, monkeypatch):
        # resample keeps one key's tables: a cycle over built bases makes one
        # _tables pass per key and builds nothing
        keys = [UltraParams(n=1.7), UltraParams(n=2.5, eps=1e-3), UltraParams(n=3.0, eps=1e-2)]
        for params in keys:
            resample(np.ones(24), params)
        calls = count_passes(monkeypatch)
        for params in keys:
            resample(np.ones(24), params)
        assert calls == [(refined_quadrature(p, 24).order, 22, 1, False) for p in keys]


class TestTransforms:
    def test_round_trip_polynomial(self):
        basis = get_basis(2.5, 32)
        z = basis.quad.nodes
        f = 1.0 + z - 0.5 * z**3 + 0.2 * z**5
        c = basis.analyze(f)
        np.testing.assert_allclose(basis.synthesize(c), f, atol=1e-13)

    def test_parseval(self):
        basis = get_basis(3.0, 32)
        z = basis.quad.nodes
        f = np.exp(0.7 * z)
        c = basis.analyze(f)
        assert basis.quad.integrate(f**2) == pytest.approx(float(c @ c), abs=1e-13)

    def test_analyze_shape_check(self):
        basis = get_basis(3.0, 16)
        with pytest.raises(ShapeError):
            basis.analyze(np.ones(17))

    def test_synthesize_at_arbitrary_nodes(self):
        basis = get_basis(2.0, 32)
        z = basis.quad.nodes
        c = basis.analyze(z**4)
        pts = np.linspace(-0.9, 0.9, 11)
        np.testing.assert_allclose(basis.synthesize(c, pts), pts**4, atol=1e-12)

    def test_sample_basis_of_an_eps_key(self):
        # the sample rule of an eps key is the plain rule of the ceiling
        # dimension, so interpolation there must reproduce sampled values
        params = UltraParams(n=2.5, eps=0.1)
        q = build_quadrature(params, 24)
        f = np.exp(q.nodes)
        basis = resample(f, params)[1]
        c = basis.analyze(f)
        np.testing.assert_allclose(basis.synthesize(c, q.nodes), f, atol=1e-12)
        assert basis.quad is q and q.n == 3.0  # ceiling dimension

    def test_graded_rule_is_not_a_sample_rule(self):
        # read as samples on the 270-node rule of d = 3, z^2 on the graded rule
        # gave a derivative off by 3.27, with no warning; samples now come with
        # their parameters, so no entry point takes a rule
        params = UltraParams(n=2.5, eps=1e-3)
        fine = refined_quadrature(params, 16)
        f = fine.nodes**2
        for call in (spectral_derivative, apply_L, resample):
            with pytest.raises(DomainError, match="UltraParams"):
                call(f, fine)

    def test_caching_returns_same_object(self):
        assert get_basis(3.0, 32) is get_basis(3.0, 32)

    @pytest.mark.parametrize("n", [1.7, 3.0])
    def test_end_slopes_are_built_once_and_match_evaluate(self, n):
        basis = get_basis(n, 48)
        rows = basis.end_slopes
        assert basis.end_slopes is rows
        np.testing.assert_array_equal(rows, basis.evaluate(np.array([-1.0, 1.0]), order=1))

    @pytest.mark.parametrize("nodes", [np.zeros((2, 3)), [[0.1, 0.2]], 0.5], ids=["2x3", "1x2", "scalar"])
    def test_nodes_must_be_one_dimensional(self, nodes):
        # [[0.1, 0.2]] is one row of two nodes, not two nodes
        basis = get_basis(3.0, 16)
        c = np.ones(4)
        for call in (basis.evaluate, lambda z: basis.evaluate(z, order=2), lambda z: basis.synthesize(c, z),
                     lambda z: basis.derivative_values(c, z), lambda z: basis.second_derivative_values(c, z)):
            with pytest.raises(ShapeError, match="1-D"):
                call(nodes)

    @pytest.mark.parametrize("order", [-1, 3])
    def test_evaluate_rejects_an_unknown_order(self, order):
        with pytest.raises(DomainError, match="order must be 0, 1 or 2"):
            get_basis(2.5, 16).evaluate(np.array([0.0, 0.5]), order=order)


class TestDerivatives:
    def test_polynomial_derivatives_exact(self):
        basis = get_basis(2.5, 32)
        z = basis.quad.nodes
        f = z**5 - 2.0 * z**2 + 3.0
        c = basis.analyze(f)
        np.testing.assert_allclose(
            basis.derivative_values(c), 5.0 * z**4 - 4.0 * z, atol=1e-11
        )
        np.testing.assert_allclose(
            basis.second_derivative_values(c), 20.0 * z**3 - 4.0, atol=1e-10
        )

    def test_smooth_derivative_accuracy(self):
        p = UltraParams(n=3.0)
        q = build_quadrature(p, 48)
        f = np.exp(np.sin(2.0 * q.nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d1 = spectral_derivative(f, p, order=1)
            d2 = spectral_derivative(f, p, order=2)
        z = q.nodes
        true1 = 2.0 * np.cos(2.0 * z) * f
        true2 = (4.0 * np.cos(2.0 * z) ** 2 - 4.0 * np.sin(2.0 * z)) * f
        np.testing.assert_allclose(d1, true1, atol=1e-9)
        np.testing.assert_allclose(d2, true2, atol=1e-6)

    def test_unresolved_function_warns(self):
        p = UltraParams(n=3.0)
        q = build_quadrature(p, 8)
        f = np.exp(5.0 * q.nodes)  # nowhere near resolved with 6 modes
        with pytest.warns(AccuracyWarning):
            spectral_derivative(f, p)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            spectral_derivative(np.ones(16), UltraParams(n=3.0), order=3)


class TestResample:
    # a plain key, an eps key, and an n = d key (regularized rule equal to the plain one)
    KEYS = [(1.7, 0.0), (2.5, 1e-2), (3.0, 1e-2)]

    @pytest.mark.parametrize("n, eps", KEYS)
    def test_matches_basis_methods_bit_for_bit(self, n, eps):
        params = UltraParams(n=n, eps=eps)
        q = build_quadrature(params, 48)
        for f in (np.exp(np.sin(2.0 * q.nodes)), 1.0 + q.nodes**3):  # a miss, then a hit
            fine, basis, c, uu, up, upp = resample(f, params)
            assert fine is refined_quadrature(params, 48)
            assert basis is get_basis(q.n, 48)
            np.testing.assert_array_equal(c, basis.analyze(f))
            np.testing.assert_array_equal(uu, basis.synthesize(c, fine.nodes))
            np.testing.assert_array_equal(up, basis.derivative_values(c, fine.nodes))
            np.testing.assert_array_equal(upp, basis.second_derivative_values(c, fine.nodes))

    def test_a_rule_in_place_of_params_is_rejected(self):
        # a rule echoes n and eps, so the graded rule's samples used to be read
        # as samples on the rule of d: fisher(g.nodes, g) gave 1.860 here
        params = UltraParams(n=2.5, eps=1e-3)
        g, q = refined_quadrature(params, 16), build_quadrature(params, 16)
        assert fisher(q.nodes, params) == pytest.approx(0.7145, abs=1e-4)
        for rule in (g, q):
            with pytest.raises(DomainError, match="UltraParams"):
                fisher(rule.nodes, rule)
            with pytest.raises(DomainError, match="UltraParams"):
                resample(rule.nodes, rule)

    def test_cached_tables_are_read_only(self):
        resample(np.ones(32), UltraParams(n=2.5, eps=1e-2))
        fine, basis, V, V1 = _discretization(2.5, 1e-2, 32)
        for table in (V, V1, basis.V, basis.V1, basis.D, basis.end_slopes, fine.nodes, fine.weights):
            with pytest.raises(ValueError):
                table[0] = 0.0


class TestPositivityGuard:
    # u = 1e-3 + exp(-400 (z - 0.5)^2) is positive on 16 nodes, but its
    # resample dips to -0.19 at n = 3 and to -0.28 at (n, eps) = (2.5, 1e-2)
    PLAIN = UltraParams(n=3.0, p=3.0, beta=1.0)
    EPS = UltraParams(n=2.5, p=5.0, beta=4.0, eps=1e-2)
    ENTRY_POINTS = {
        "dF_dt_closed_form": (PLAIN, lambda u, prm: dF_dt_closed_form(u, FlowConfig("heat", prm))),
        "heat flow": (PLAIN, lambda u, prm: run_heat_flow(u, FlowConfig("heat", prm))),
        "regularized flow": (EPS, lambda u, prm: run_regularized_flow(u, FlowConfig("regularized", prm))),
        "check_gamma2": (PLAIN, lambda u, prm: check_gamma2(u, prm, enforce_neumann=False)),
        "check_gamma2_eps": (EPS, check_gamma2_eps),
        "lyapunov_F": (PLAIN, lyapunov_F),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_loss_of_positivity_under_resampling_is_rejected(self, entry):
        params, call = self.ENTRY_POINTS[entry]
        z = build_quadrature(params, 16).nodes
        u = 1e-3 + np.exp(-400.0 * (z - 0.5) ** 2)
        assert np.min(resample(u, params)[3]) < -0.1
        with pytest.raises(DomainError, match="positivity"):
            call(u, params)

    NONLINEAR = UltraParams(n=3.0, p=4.0, beta=2.0)
    LOGSOB = UltraParams(n=3.0)
    # every public entry point that takes samples, each with its parameters: the
    # sample contract (spectral._sample_contract) holds on each of them
    SAMPLE_ENTRY_POINTS = {
        "resample": (EPS, resample),
        "check_gamma2": (PLAIN, check_gamma2),
        "check_lgamma": (PLAIN, check_lgamma),
        "check_gamma2_eps": (EPS, check_gamma2_eps),
        "check_lgamma_eps": (EPS, check_lgamma_eps),
        "lyapunov_F": (PLAIN, lyapunov_F),
        "dF_dt_closed_form": (PLAIN, lambda u, prm: dF_dt_closed_form(u, FlowConfig("heat", prm))),
        "heat flow": (PLAIN, lambda u, prm: run_heat_flow(u, FlowConfig("heat", prm))),
        "nonlinear flow": (NONLINEAR, lambda u, prm: run_nonlinear_flow(u, FlowConfig("nonlinear", prm))),
        "regularized flow": (EPS, lambda u, prm: run_regularized_flow(u, FlowConfig("regularized", prm))),
        "qform_value": (PLAIN, qform_value),
        # signed samples: one finiteness check, on resample and the nodal derivatives
        "deficit": (PLAIN, lambda u, prm: deficit(u, prm, N=16)),
        "logsob_deficit": (LOGSOB, lambda u, prm: logsob_deficit(u, prm, N=16)),
        "lp_norm": (PLAIN, lp_norm),
        "fisher": (PLAIN, fisher),
        "spectral_derivative": (PLAIN, spectral_derivative),
        "apply_L": (PLAIN, apply_L),
        "apply_L_eps": (EPS, apply_L),  # L_eps: apply_L on an eps key
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", SAMPLE_ENTRY_POINTS)
    def test_non_finite_sample_is_rejected(self, entry, bad):
        # NaN and +inf pass a sign test such as np.any(u <= 0), and a NaN
        # sample turns a residual or a flow's terminal gap into nan
        params, call = self.SAMPLE_ENTRY_POINTS[entry]
        u = 1.0 + 0.1 * build_quadrature(params, 16).nodes
        u[3] = bad
        with pytest.raises(DomainError, match="finite"):
            call(u, params)

    # what a caller may pass in place of the parameters: the samples' own rule,
    # the refined rule of their measure, and the fields of the parameters
    NOT_PARAMS = {
        "sample rule": lambda prm: build_quadrature(prm, 16),
        "refined rule": lambda prm: refined_quadrature(prm, 16),
        "dict": dataclasses.asdict,
    }

    @pytest.mark.parametrize("stand_in", NOT_PARAMS)
    @pytest.mark.parametrize("entry", SAMPLE_ENTRY_POINTS)
    def test_params_that_are_not_ultra_params_are_rejected(self, entry, stand_in):
        # the other half of the contract: a rule or a dict echoes n and eps, not
        # the measure of the samples, so every entry point refuses it alike,
        # before it reads a field (no AttributeError) and before it computes
        params, call = self.SAMPLE_ENTRY_POINTS[entry]
        u = 1.0 + 0.1 * build_quadrature(params, 16).nodes
        with pytest.raises(DomainError, match="UltraParams"):
            call(u, self.NOT_PARAMS[stand_in](params))


class TestEigenvalue:
    @pytest.mark.parametrize("n", [0.5, 1.0, 3.0, 4.2])
    def test_closed_form(self, n):
        for k in range(6):
            assert eigenvalue(n, k) == pytest.approx(k * (k + n - 1.0), abs=1e-15)

    def test_zero_mode(self):
        assert eigenvalue(7.7, 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            eigenvalue(3.0, -1)


class TestAliasing:
    def test_truncation_needs_enough_nodes(self):
        from ultraflow import OrthoBasis

        q = build_quadrature(UltraParams(n=3.0), 16)
        with pytest.raises(AliasingError):
            OrthoBasis(q, K=15)

    def test_synthesize_oversized_coefficients(self):
        basis = get_basis(3.0, 16)
        with pytest.raises(AliasingError):
            basis.synthesize(np.zeros(basis.K + 2))
