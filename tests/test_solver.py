import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgd.errors import DegenerateGradientError, InvalidInputError, NumericError
from emgd.solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    CombinationResult,
    ElasticFactors,
    ElasticState,
    GradientBundle,
    avg_grad,
    combine,
    elastic_factors_gmc,
    elastic_factors_gs,
    solve_emgd,
    solve_min_norm_simplex,
    solve_request,
)
from emgd.solver import _ROW_GRAM_MIN_DIM
from oracles import (
    brute_force_weights,
    kkt_min_norm_simplex,
    pareto_descent_check,
    two_task_closed_form,
)


def bundle(*vecs, ids=None):
    vecs = [np.asarray(v, dtype=float) for v in vecs]
    if ids is None:
        ids = tuple(range(1, len(vecs) + 1))
    return GradientBundle(ids, np.stack(vecs))


def random_bundle(rng, k, dim, scale_spread=False):
    g = rng.normal(size=(k, dim))
    if scale_spread:
        g *= rng.uniform(0.2, 3.0, size=(k, 1))
    return GradientBundle(tuple(range(1, k + 1)), g)


def gram(points):
    P = np.asarray(points, dtype=float)
    return P @ P.T


def mgda(b):
    return combine("mgda", b, ElasticState())[0]


def certificate_margin(b, sigma, result):
    """min_i <g_i, d> - sigma_i ||d||^2, relative to max_i ||g_i||^2."""
    d = result.direction
    margin = np.min(b.grads @ d - np.asarray(sigma) * float(d @ d))
    return margin / np.max(np.einsum("ij,ij->i", b.grads, b.grads))


class TestBundleInvariants:
    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            GradientBundle((), np.zeros((0, 3)))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(InvalidInputError):
            GradientBundle((1, 1), np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        for grads in ([[np.nan, 0.0]], [[np.inf, 0.0]], [[0.0, -np.inf]],
                      [[1.0, 2.0], [3.0, np.nan]]):
            with pytest.raises(NumericError, match="non-finite"):
                GradientBundle(tuple(range(1, len(grads) + 1)), np.array(grads))

    def test_rejects_mismatched_ids(self):
        with pytest.raises(InvalidInputError):
            GradientBundle((1, 2, 3), np.ones((2, 3)))


class TestBundleGram:
    # k from 1 to 12 and D on both sides of the row-product threshold, so
    # both Gram kernels run; scales from 1e-8 to 1e8.
    @settings(max_examples=120, deadline=None)
    @given(
        k=st.integers(1, 12),
        dim=st.one_of(st.integers(1, 256),
                      st.integers(_ROW_GRAM_MIN_DIM - 8, _ROW_GRAM_MIN_DIM + 512)),
        log_scale=st.floats(-8.0, 8.0),
        shared=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_matrix_product(self, k, dim, log_scale, shared, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((k, dim)) + shared * rng.standard_normal(dim)
        g *= 10.0 ** log_scale * np.exp(rng.uniform(-1.0, 1.0, size=(k, 1)))
        gram = GradientBundle(tuple(range(1, k + 1)), g).gram
        assert gram.shape == (k, k)
        assert np.array_equal(gram, gram.T)
        assert (gram.diagonal() >= 0.0).all()
        assert np.abs(gram - g @ g.T).max() <= 1e-12 * gram.diagonal().max()


class TestElasticFactors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_numeric_error(self, bad):
        with pytest.raises(NumericError, match="sigma contains non-finite entries"):
            ElasticFactors([0.5, bad])

    @pytest.mark.parametrize("bad", [0.0, -0.25, 1.0 + 1e-12, 2.0])
    def test_out_of_range_is_invalid_input(self, bad):
        with pytest.raises(InvalidInputError, match=r"must lie in \(0, 1\]"):
            ElasticFactors([bad, 0.5])

    def test_accepts_the_closed_end(self):
        assert ElasticFactors([1.0, 1e-300]).sigma.tolist() == [1.0, 1e-300]


class TestElasticFactorsGmc:
    def test_singleton_softmax(self):
        state = ElasticState()
        sig = elastic_factors_gmc(bundle([3.0, 4.0]), state)
        assert sig.sigma.tolist() == [1.0]
        assert state.momentum[1] == 5.0  # first observation stores the norm

    def test_equal_momenta_give_half(self):
        state = ElasticState(momentum={1: 2.0, 2: 2.0})
        # equal norms keep the momenta equal, so the softmax is symmetric
        sig = elastic_factors_gmc(bundle([1.0, 0.0], [0.0, 1.0]), state)
        np.testing.assert_allclose(sig.sigma, [0.5, 0.5], atol=1e-15)

    def test_unit_gap_softmax_value(self):
        # Oracle: softmax of logits (1, 0) evaluated with scalar math.exp.
        expect = [math.exp(1.0) / (math.exp(1.0) + 1.0), 1.0 / (math.exp(1.0) + 1.0)]
        # eps2=0 freezes the update at eps1 * m, landing exactly on m=(1, 0)
        state = ElasticState(momentum={1: 10.0 / 9.0, 2: 0.0}, eps2=0.0)
        sig = elastic_factors_gmc(bundle([1.0, 0.0], [0.0, 1.0]), state)
        np.testing.assert_allclose(sig.sigma, expect, rtol=1e-12)
        np.testing.assert_allclose(sig.sigma, [0.7311, 0.2689], atol=5e-5)

    def test_momentum_update_rule(self):
        state = ElasticState(momentum={1: 2.0})
        elastic_factors_gmc(bundle([3.0, 4.0]), state)
        assert state.momentum[1] == pytest.approx(0.9 * 2.0 + 0.1 * 5.0, rel=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        state = ElasticState()
        for _ in range(20):
            b = random_bundle(rng, 3, 8)
            sig = elastic_factors_gmc(b, state)
            assert abs(sig.sigma.sum() - 1.0) <= 1e-12
            assert np.all(sig.sigma > 0) and np.all(sig.sigma < 1)

    @pytest.mark.parametrize("factors", [
        lambda b: elastic_factors_gmc(b, ElasticState(temperature=1e-310)),
        lambda b: elastic_factors_gs(b, temperature=1e-310),
    ], ids=["gmc", "gs"])
    def test_overflowing_logits_fail_cleanly(self, factors):
        # logits / temperature passes float64's largest value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="raise the temperature"):
                factors(bundle([3.0, 0.0], [1.0, 1.0]))

    def test_extreme_temperature_fails_cleanly(self):
        state = ElasticState(temperature=1e-4)
        with pytest.raises(NumericError, match="temperature"):
            elastic_factors_gmc(bundle([10.0, 0.0], [0.1, 0.0]), state)


class TestElasticFactorsGs:
    def test_singleton(self):
        sig = elastic_factors_gs(bundle([2.0, 1.0]))
        assert sig.sigma.tolist() == [1.0]

    def test_two_tasks_always_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = random_bundle(rng, 2, 5, scale_spread=True)
            sig = elastic_factors_gs(b)
            np.testing.assert_allclose(sig.sigma, [0.5, 0.5], atol=1e-14)

    def test_three_vector_fixture(self):
        # Scores: s1 = s2 = 1 + sqrt(2)/2, s3 = 1 + sqrt(2); softmax oracle.
        b = bundle([1.0, 0.0], [0.0, 1.0], [1.0 / math.sqrt(2), 1.0 / math.sqrt(2)])
        s_edge = 1.0 + math.sqrt(2) / 2
        s_mid = 1.0 + math.sqrt(2)
        z = [math.exp(s_edge), math.exp(s_edge), math.exp(s_mid)]
        expect = [v / sum(z) for v in z]
        sig = elastic_factors_gs(b, temperature=1.0)
        np.testing.assert_allclose(sig.sigma, expect, rtol=1e-12)
        np.testing.assert_allclose(sig.sigma, [0.2483, 0.2483, 0.5035], atol=5e-5)

    def test_zero_norm_gradient_raises(self):
        with pytest.raises(DegenerateGradientError):
            elastic_factors_gs(bundle([1.0, 0.0], [0.0, 0.0]))

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_positive_or_non_finite_temperature_named(self, temperature):
        with pytest.raises(InvalidInputError, match="temperature"):
            elastic_factors_gs(bundle([1.0, 0.0], [0.0, 1.0]), temperature)
        with pytest.raises(InvalidInputError, match="temperature"):
            ElasticState(temperature=temperature)

    @given(st.floats(0.1, 10.0), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_invariant_to_single_gradient_rescale(self, c, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3, 6))
        base = elastic_factors_gs(GradientBundle((1, 2, 3), g)).sigma
        g2 = g.copy()
        g2[1] *= c
        scaled = elastic_factors_gs(GradientBundle((1, 2, 3), g2)).sigma
        np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestMinNormSimplex:
    def test_single_point(self):
        res = solve_min_norm_simplex(gram([[3.0, 4.0]]))
        assert res.mu.tolist() == [1.0]
        assert res.objective == pytest.approx(25.0)
        assert res.converged

    def test_orthogonal_pair(self):
        res = solve_min_norm_simplex(gram([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(res.mu, [0.5, 0.5], atol=1e-12)
        assert res.objective == pytest.approx(0.5, abs=1e-12)

    def test_opposed_pair_contains_origin(self):
        # 1-D clipped formula: mu1 = (p2.p2 - p1.p2) / ||p1 - p2||^2 = 1/3
        res = solve_min_norm_simplex(gram([[2.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(res.mu, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert res.objective <= 1e-16

    def test_dominated_point_gets_zero_weight(self):
        res = solve_min_norm_simplex(gram([[1.0, 0.0], [3.0, 0.0]]))
        np.testing.assert_allclose(res.mu, [1.0, 0.0], atol=1e-12)
        assert res.objective == pytest.approx(1.0)

    @pytest.mark.parametrize("points", [
        [[1, 2, -4, -2], [4, 0, 3, -3], [-3, 1, -4, -4], [-3, 2, 0, 4], [3, 0, 0, -4]],
        [[-3, -4, 4, -4, 3], [-2, -4, -1, -2, 3], [0, 4, 2, 4, 0], [1, 1, 0, 3, 4],
         [-3, 0, 1, 4, -3]],
    ])
    def test_clipping_twice_in_one_minor_cycle_matches_oracle(self, points):
        # Here a minor cycle clips, drops a point and clips again, so its
        # second step must start from the kept weights of the first.
        M = gram(points)
        res = solve_min_norm_simplex(M)
        ref = kkt_min_norm_simplex(M, DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert res.converged and ref.converged
        assert res.iterations == ref.iterations == 5
        np.testing.assert_allclose(res.mu, ref.mu, atol=1e-12)

    def test_gap_condition_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 33))
            P = rng.normal(size=(k, dim)) * rng.uniform(0.2, 3.0, size=(k, 1))
            res = solve_min_norm_simplex(gram(P), tol=1e-10)
            assert res.converged
            q = res.mu @ P
            gaps = P @ q - float(q @ q)
            assert gaps.min() >= -1e-10
            assert abs(res.mu.sum() - 1.0) <= 1e-9
            assert np.all(res.mu >= 0.0)

    def test_duplicate_points(self):
        res = solve_min_norm_simplex(gram([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]]))
        assert res.converged
        assert res.objective <= 1e-16


class TestSolveEmgd:
    @pytest.mark.parametrize("grads, sigma", [
        (([1.0, 0.0], [0.0, 1.0]), [1.0, 1e-170]),  # sigma_2^2 underflows to 0
        (([1.0, 0.0], [0.0, 0.0]), [1.0, 1e-170]),  # even on a zero gradient
        (([1.0, 0.0], [0.0, 1e30]), [1.0, 1e-140]),  # 1e60 / 1e-280 overflows
    ])
    def test_underflowed_factor_is_named_before_the_division(self, grads, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="elastic factor underflowed to zero"):
                solve_emgd(bundle(*grads), sigma)

    def test_tiny_factor_with_a_finite_scaled_gram_still_solves(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_emgd(bundle([1.0, 0.0], [0.0, 1e-100]), [1.0, 1e-140])
        assert res.converged and np.all(np.isfinite(res.direction))


    def test_singleton(self):
        res = solve_emgd(bundle([2.0, 1.0]), [1.0])
        np.testing.assert_allclose(res.lam, [1.0])
        np.testing.assert_allclose(res.direction, [2.0, 1.0])

    def test_boundary_fixture(self):
        # sigma1 g2.g2 = 0.5 < sigma2 g1.g2 = 1.0 puts all weight on task 2.
        res = solve_emgd(bundle([2.0, 0.0], [1.0, 0.0]), [0.5, 0.5])
        np.testing.assert_allclose(res.lam, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(res.direction, [2.0, 0.0], atol=1e-12)
        grid_lam, grid_obj = brute_force_weights(
            bundle([2.0, 0.0], [1.0, 0.0]), [0.5, 0.5], 1e-3
        )
        assert res.objective <= grid_obj + 1e-9

    def test_matches_grid_oracle_k3(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            b = random_bundle(rng, 3, 8, scale_spread=True)
            sig = elastic_factors_gs(b)
            res = solve_emgd(b, sig)
            _, grid_obj = brute_force_weights(b, sig, 1e-2)
            assert res.objective <= grid_obj + 1e-4 * max(1.0, grid_obj)
            assert res.objective >= -1e-12

    def test_constraint_feasibility(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            k = int(rng.integers(1, 5))
            b = random_bundle(rng, k, 6)
            sig = rng.uniform(0.1, 1.0, size=k) if trial % 2 else np.full(k, 1.0 / k)
            res = solve_emgd(b, sig)
            assert np.all(res.lam >= 0)
            assert abs(res.lam @ sig - 1.0) <= 1e-8
            np.testing.assert_allclose(res.direction, res.lam @ b.grads, atol=1e-10)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_emgd(bundle([1.0, 0.0], [0.0, 1.0]), [0.5, 0.0])

    def test_zero_gradient_is_pareto_critical_and_flagged(self):
        res = solve_emgd(bundle([1.0, 2.0], [0.0, 0.0]), [0.5, 0.5])
        assert np.linalg.norm(res.direction) <= 1e-9
        assert res.degenerate_tasks == (2,)

    @given(st.floats(-8.0, 8.0), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, log_c, k, seed):
        # the relative gap makes the solve the same at every gradient scale
        c = 10.0 ** log_c
        b = random_bundle(np.random.default_rng(seed), k, 8)
        scaled_b = GradientBundle(b.task_ids, b.grads * c)
        base, sig = combine("emgd_gs", b, ElasticState(), tol=1e-12)
        scaled, scaled_sig = combine("emgd_gs", scaled_b, ElasticState(), tol=1e-12)
        assert base.converged and scaled.converged
        np.testing.assert_allclose(scaled_sig, sig, rtol=1e-12)
        np.testing.assert_allclose(scaled.lam, base.lam, atol=1e-9)
        np.testing.assert_allclose(scaled.direction, base.direction * c, rtol=1e-8,
                                   atol=1e-10 * c)
        assert certificate_margin(scaled_b, scaled_sig, scaled) >= -1e-8
        default, default_sig = combine("emgd_gs", scaled_b, ElasticState())
        assert default.converged
        assert certificate_margin(scaled_b, default_sig, default) >= -1e-8

    def test_k256_converges_under_default_max_iter(self):
        # near-orthogonal gradients put every task in the active set, one
        # iteration each: more than the default max_iter of 250
        b = random_bundle(np.random.default_rng(256), 256, 1024)
        result, sigma = combine("emgd_gs", b, ElasticState())
        assert result.converged
        assert result.iterations > 250
        assert certificate_margin(b, sigma, result) >= -1e-8

    def test_k256_needs_no_dense_solve(self, monkeypatch):
        # every working-set change is a bordered or downdated inverse; no
        # iteration may factorise or solve a dense system
        def refuse(*args, **kwargs):
            raise AssertionError("dense linear algebra inside the min-norm loop")

        for name in ("solve", "inv", "lstsq", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        b = random_bundle(np.random.default_rng(256), 256, 1024)
        result, sigma = combine("emgd_gs", b, ElasticState())
        assert result.converged
        assert result.iterations > 250
        assert certificate_margin(b, sigma, result) >= -1e-8


def pooled(grads, mu):
    """Weights summed over identical gradients. With equal factors they are
    one point, up to the rounding of their Gram rows, and any split of the
    weight between them is a solution."""
    _, group = np.unique(grads, axis=0, return_inverse=True)
    return np.bincount(group.ravel(), weights=mu)


def assert_matches_kkt_oracle(grads, sigma):
    # the scaled Gram matrix and gap scale that solve_emgd hands the solver
    G = grads @ grads.T
    M, scale = G / np.outer(sigma, sigma), float(np.max(np.diag(G)))
    res = solve_min_norm_simplex(M, DEFAULT_TOL, DEFAULT_MAX_ITER, scale)
    ref = kkt_min_norm_simplex(M, DEFAULT_TOL, DEFAULT_MAX_ITER, scale)
    assert res.converged == ref.converged
    assert res.iterations == ref.iterations
    np.testing.assert_allclose(pooled(grads, res.mu), pooled(grads, ref.mu), rtol=0, atol=1e-9)
    if res.converged:
        d = (res.mu / sigma) @ grads
        margin = np.min(grads @ d - sigma * float(d @ d)) / scale
        assert margin >= -1e-8
    return res


class TestKktOracleEquivalence:
    """The working-set inverse takes the same steps as a dense KKT re-solve."""

    @given(k=st.integers(2, 64), extra_dim=st.integers(0, 64), log_scale=st.floats(-8.0, 8.0),
           mode=st.sampled_from(["gs", "mgda", "fixed"]), shared=st.floats(0.0, 1.0),
           duplicate=st.booleans(), zero=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_bundles(self, k, extra_dim, log_scale, mode, shared, duplicate, zero, seed):
        # D >= k, as for any bundle of parameter gradients; with fewer
        # dimensions than points the hull is degenerate and the weights of a
        # min-norm point are no longer unique
        rng = np.random.default_rng(seed)
        dim = k + extra_dim
        g = (rng.normal(size=(k, dim)) * np.exp(rng.uniform(-0.5, 0.5, size=(k, 1)))
             + shared * rng.normal(size=dim)) * 10.0 ** log_scale
        if duplicate:
            g[0] = g[k - 1]
        if zero:
            g[k // 2] = 0.0
        b = GradientBundle(tuple(range(1, k + 1)), g)
        if mode == "gs":
            _, sigma = combine("emgd_gs", b, ElasticState())
        elif mode == "mgda":
            sigma = np.ones(k)
        else:
            sigma = rng.uniform(0.05, 1.0, size=k)
            sigma[0] = sigma[k - 1]  # a duplicate gradient stays a duplicate point
        assert_matches_kkt_oracle(b.grads, sigma)

    @pytest.mark.parametrize("seed, shared", [(0, 0.0), (1, 0.125)])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e5])
    def test_near_orthogonal_k256(self, seed, shared, scale):
        rng = np.random.default_rng(seed)
        g = (rng.normal(size=(256, 1024)) * np.exp(rng.uniform(-0.5, 0.5, size=(256, 1)))
             + shared * rng.normal(size=1024)) * scale
        b = GradientBundle(tuple(range(1, 257)), g)
        _, sigma = combine("emgd_gs", b, ElasticState())
        res = assert_matches_kkt_oracle(b.grads, sigma)
        assert res.converged
        # the first point and one per iteration but the last entered the
        # working set; fewer carry weight, so the minor cycle dropped some
        assert np.count_nonzero(res.mu) < res.iterations

    def test_point_that_cannot_enter_stops_unconverged(self):
        # not a Gram matrix: point 0 is the most violating, but its pivot
        # c + M_00 - (c + M_01)^2 / (c + M_11) = 1.5 - 2.25 is negative, so it
        # cannot enter the working set {1} and the iterate can never change
        M = np.array([[1.0, -2.0], [-2.0, 0.5]])
        res = solve_min_norm_simplex(M)
        assert not res.converged
        assert res.iterations == DEFAULT_MAX_ITER
        np.testing.assert_array_equal(res.mu, [0.0, 1.0])
        assert res.objective == 0.5


class TestSolveMgda:
    def test_singleton(self):
        res = mgda(bundle([1.0, 1.0]))
        np.testing.assert_allclose(res.lam, [1.0])

    def test_symmetric_pair(self):
        res = mgda(bundle([1.0, 0.0], [0.0, 1.0]))
        np.testing.assert_allclose(res.lam, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(res.direction, [0.5, 0.5], atol=1e-12)

    def test_prefers_small_gradient(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            g1 = rng.normal(size=dim) * rng.uniform(1.0, 3.0)
            g2 = rng.normal(size=dim)
            if np.linalg.norm(g1) <= np.linalg.norm(g2):
                g1, g2 = g2, g1
            if np.linalg.norm(g1) == np.linalg.norm(g2):
                continue
            res = mgda(bundle(g1, g2))
            assert res.lam[0] <= res.lam[1] + 1e-9

    def test_simplex_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            b = random_bundle(rng, 4, 5)
            res = mgda(b)
            assert abs(res.lam.sum() - 1.0) <= 1e-8


class TestAvgGrad:
    def test_singleton(self):
        res = avg_grad(bundle([2.0, 0.0]))
        np.testing.assert_allclose(res.direction, [2.0, 0.0])

    def test_orthogonal_pair(self):
        res = avg_grad(bundle([1.0, 0.0], [0.0, 1.0]))
        np.testing.assert_allclose(res.direction, [0.5, 0.5])

    def test_three_task_mean(self):
        res = avg_grad(bundle([2.0, 2.0], [0.0, -2.0], [1.0, 0.0]))
        np.testing.assert_allclose(res.direction, [1.0, 0.0])
        np.testing.assert_allclose(res.lam, [1 / 3, 1 / 3, 1 / 3])


class TestTwoTaskClosedForm:
    def test_symmetric_uniform(self):
        sol = two_task_closed_form([1.0, 0.0], [0.0, 1.0], 1.0, 1.0)
        assert (sol.lam1, sol.lam2) == pytest.approx((0.5, 0.5))
        assert not sol.degenerate

    def test_boundary_branch(self):
        sol = two_task_closed_form([2.0, 0.0], [1.0, 0.0], 0.5, 0.5)
        assert (sol.lam1, sol.lam2) == pytest.approx((0.0, 2.0))

    def test_interior_branch(self):
        sol = two_task_closed_form([2.0, 0.0], [-1.0, 0.0], 1.0, 1.0)
        assert (sol.lam1, sol.lam2) == pytest.approx((1 / 3, 2 / 3))

    def test_degenerate_prefers_smaller_norm(self):
        # sigma2 g1 == sigma1 g2, so the scaled points coincide exactly
        sol = two_task_closed_form([2.0, 0.0], [1.0, 0.0], 0.5, 0.25)
        assert sol.degenerate
        assert (sol.lam1, sol.lam2) == (0.0, 4.0)
        swapped = two_task_closed_form([1.0, 0.0], [2.0, 0.0], 0.25, 0.5)
        assert swapped.degenerate
        assert (swapped.lam1, swapped.lam2) == (4.0, 0.0)

    def test_matches_full_solver(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            g1 = rng.normal(size=4)
            g2 = rng.normal(size=4)
            s = rng.uniform(0.1, 1.0, size=2)
            sol = two_task_closed_form(g1, g2, s[0], s[1])
            res = solve_emgd(bundle(g1, g2), s, tol=1e-12)
            d_closed = sol.lam1 * g1 + sol.lam2 * g2
            assert float(d_closed @ d_closed) == pytest.approx(
                res.objective, abs=1e-9
            )

    def test_interior_ratio_identity(self):
        rng = np.random.default_rng(13)
        seen = 0
        while seen < 200:
            g1 = rng.normal(size=3)
            g2 = rng.normal(size=3)
            s1, s2 = rng.uniform(0.1, 1.0, size=2)
            sol = two_task_closed_form(g1, g2, s1, s2)
            if sol.degenerate or sol.lam1 == 0.0 or sol.lam2 == 0.0:
                continue
            seen += 1
            num = s1 * (g2 @ g2) - s2 * (g1 @ g2)
            den = s2 * (g1 @ g1) - s1 * (g1 @ g2)
            assert sol.lam1 / sol.lam2 == pytest.approx(num / den, rel=1e-8)


class TestBruteForce:
    def test_singleton(self):
        lam, obj = brute_force_weights(bundle([3.0, 0.0]), [0.5], 0.05)
        np.testing.assert_allclose(lam, [2.0])
        assert obj == pytest.approx(36.0)

    def test_rejects_large_k(self):
        b = random_bundle(np.random.default_rng(0), 5, 3)
        with pytest.raises(InvalidInputError, match="k <= 4"):
            brute_force_weights(b, np.full(5, 0.2), 0.05)

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidInputError):
            brute_force_weights(bundle([1.0]), [1.0], 0.2)

    def test_two_task_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            g1, g2 = rng.normal(size=(2, 3))
            s = rng.uniform(0.2, 1.0, size=2)
            sol = two_task_closed_form(g1, g2, s[0], s[1])
            d = sol.lam1 * g1 + sol.lam2 * g2
            _, grid_obj = brute_force_weights(bundle(g1, g2), s, 1e-3)
            assert float(d @ d) <= grid_obj + 1e-3
            assert grid_obj >= float(d @ d) - 1e-12

    def test_symmetric_triple_reaches_zero(self):
        angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
        g = np.array([[np.cos(a), np.sin(a)] for a in angles])
        _, obj = brute_force_weights(
            GradientBundle((1, 2, 3), g), np.full(3, 1 / 3), 0.01
        )
        assert obj <= 1e-3


class TestParetoDescentCheck:
    def test_holds_on_solver_output(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            b = random_bundle(rng, k, int(rng.integers(1, 9)))
            sig = np.full(k, 1.0 / k)
            res = solve_emgd(b, sig)
            assert pareto_descent_check(b, sig, res, 1e-8)

    def test_zero_direction_vacuous(self):
        b = bundle([1.0, 0.0], [-1.0, 0.0])
        res = mgda(b)
        assert np.linalg.norm(res.direction) <= 1e-9
        assert pareto_descent_check(b, [1.0, 1.0], res, 1e-8)

    def test_corrupted_weights_fail(self):
        b = bundle([3.0, 0.0], [0.0, 1.0])
        res = mgda(b)
        assert res.lam[0] != pytest.approx(res.lam[1])
        bad = CombinationResult(
            lam=res.lam[::-1].copy(),
            direction=res.lam[::-1] @ b.grads,
            objective=0.0,
            iterations=0,
            converged=True,
        )
        assert not pareto_descent_check(b, [1.0, 1.0], bad, 1e-8)


class TestLemmaProperties:
    def test_opposed_gradients_give_zero_direction_and_alpha(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g1 = rng.normal(size=6)
            c = rng.uniform(0.2, 4.0)
            b = bundle(g1, -c * g1)
            sig = np.array([0.5, 0.5])
            res = solve_emgd(b, sig)
            assert np.linalg.norm(res.direction) <= 1e-6
            assert abs(-res.objective) <= 1e-6

    def test_min_norm_inequality_in_scaled_space(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            b = random_bundle(rng, k, 8)
            sig = elastic_factors_gs(b).sigma
            res = solve_emgd(b, sig, tol=1e-8)
            assert res.converged
            scaled = b.grads / sig[:, None]
            dd = float(res.direction @ res.direction)
            assert np.min(scaled @ res.direction) >= dd - 1e-8


class TestSolveRequest:
    def test_fixed_singleton(self):
        out = solve_request({"grads": [[1.0, 0.0]], "sigma_mode": "fixed", "sigma": [1.0]})
        assert out["lambda"] == pytest.approx([1.0])
        assert out["converged"] is True

    def test_piecewise_fixture(self):
        out = solve_request(
            {"grads": [[2.0, 0.0], [1.0, 0.0]], "sigma_mode": "fixed", "sigma": [0.5, 0.5]}
        )
        assert out["lambda"] == pytest.approx([0.0, 2.0], abs=1e-10)

    def test_unequal_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_request({"grads": [[1.0, 0.0], [1.0]]})

    @pytest.mark.parametrize(
        "sigma", [[5.0, 5.0], [0.5, 1.5], [0.0, 1.0], [-0.5, 0.5], [float("nan"), 1.0], [1.0], 0.5]
    )
    def test_fixed_sigma_outside_unit_interval_rejected(self, sigma):
        with pytest.raises(InvalidInputError, match="sigma"):
            solve_request({"grads": [[1.0, 0.0], [0.0, 1.0]], "sigma_mode": "fixed",
                           "sigma": sigma})

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError, match="bogus"):
            solve_request({"grads": [[1.0]], "bogus": 1})

    @pytest.mark.parametrize("mode", ["fixed", "gs", "gmc"])
    @pytest.mark.parametrize("dim", [2, _ROW_GRAM_MIN_DIM])  # both Gram kernels
    def test_overflowing_squared_norm_is_named_without_a_warning(self, mode, dim):
        grads = np.zeros((2, dim))
        grads[0, 0], grads[1, 1] = 1.3407807929942597e154, 1.0  # squared: past float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="gram contains non-finite entries"):
                solve_request({"grads": grads.tolist(), "sigma_mode": mode})

    def test_gs_mode(self):
        out = solve_request({"grads": [[1.0, 0.0], [0.0, 1.0]], "sigma_mode": "gs"})
        assert out["lambda"] == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_gs_zero_gradient_falls_back_to_uniform_factors(self):
        # the same fallback as the training loops: factors 1/k, and the zero
        # gradient makes the point Pareto critical
        grads = [[1.0, 2.0], [0.0, 0.0]]
        out = solve_request({"grads": grads, "sigma_mode": "gs"})
        result, sigma = combine("emgd_gs", bundle(*grads), ElasticState())
        np.testing.assert_array_equal(sigma, [0.5, 0.5])
        assert out["lambda"] == result.lam.tolist()
        assert out["direction"] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert out["converged"] is True

    @pytest.mark.parametrize("field, doc", [
        ("grads", {"grads": [["a", 1.0]]}),
        ("grads", {"grads": [[{}, 1.0]]}),
        ("grads", {"grads": [[10 ** 400, 1.0]]}),
        ("temperature", {"temperature": "x"}),
        ("temperature", {"temperature": float("nan")}),
        ("temperature", {"temperature": 0.0}),
        ("tol", {"tol": "x"}),
        ("tol", {"tol": [1e-8]}),
        ("tol", {"tol": float("inf")}),
        ("tol", {"tol": -1.0}),
        ("max_iter", {"max_iter": "x"}),
        ("max_iter", {"max_iter": 2.5}),
        ("max_iter", {"max_iter": float("inf")}),
        ("max_iter", {"max_iter": 0}),
        ("sigma_mode", {"sigma_mode": ["gs"]}),
    ])
    def test_malformed_field_named(self, field, doc):
        request = {"grads": [[1.0, 0.0], [0.0, 1.0]], "sigma_mode": "gs", **doc}
        with pytest.raises(InvalidInputError, match=field):
            solve_request(request)

    def test_integral_max_iter_accepted(self):
        out = solve_request({"grads": [[1.0, 0.0], [0.0, 1.0]], "max_iter": 3.0})
        assert out["converged"] is True


class TestCombine:
    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError, match="bogus"):
            combine("bogus", bundle([1.0, 0.0]), ElasticState())

    def test_fixed_without_sigma_is_mgda(self):
        b = bundle([2.0, 0.0], [0.5, 1.0])
        fixed, sigma = combine("fixed", b, ElasticState())
        np.testing.assert_array_equal(sigma, [1.0, 1.0])
        np.testing.assert_array_equal(fixed.lam, combine("mgda", b, ElasticState())[0].lam)

    def test_mgda_is_elastic_solve_at_unit_sigma(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            b = random_bundle(rng, 4, 6)
            result, sigma = combine("mgda", b, ElasticState())
            np.testing.assert_array_equal(sigma, np.ones(4))
            plain = solve_min_norm_simplex(b.grads @ b.grads.T)
            np.testing.assert_array_equal(result.lam, plain.mu)
