import dataclasses
import inspect
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from emgd import solver
from emgd.errors import EmgdError, InvalidInputError, NumericError
from emgd.solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    EPS1,
    EPS2,
    CombinationResult,
    ElasticFactors,
    ElasticState,
    GradientBundle,
    combine,
    elastic_factors_gmc,
    elastic_factors_gs,
    solve_emgd,
    solve_request,
)
from emgd.solver import _ROW_GRAM_MIN_DIM, _min_norm_point, _two_points, _wolfe
from oracles import (
    brute_force_weights,
    hull_objective,
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


def min_norm(M):
    """``_min_norm_point`` at the gap scale ``solve_emgd`` uses at sigma = 1, max_i M_ii."""
    M = np.asarray(M, dtype=float)
    return _min_norm_point(M, float(M.diagonal().max()))


def gap_tolerance(tol):
    """Every solve in the ``with`` block stops at the relative gap ``tol``, not
    DEFAULT_TOL, which ``_min_norm_point`` reads at each call."""
    return mock.patch.object(solver, "DEFAULT_TOL", tol)


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

    # The bundle is the one place a Gram matrix is formed and checked, so
    # every malformed gradient array must stop here, before any solve.
    @pytest.mark.parametrize("shape", [(0,), (0, 0), (2, 0), (2, 2, 2)])
    def test_rejects_a_gradient_array_of_the_wrong_shape(self, shape):
        with pytest.raises(InvalidInputError,
                           match="need at least one gradient of dimension >= 1"):
            GradientBundle((1, 2), np.ones(shape))

    # A planted entry at the first and the last coordinate, under both Gram
    # kernels: k = 3 lies in the row-product range of k.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (2, -1)], ids=["first", "last"])
    @pytest.mark.parametrize("dim", [3, _ROW_GRAM_MIN_DIM])
    def test_non_finite_entry_named_under_both_kernels(self, bad, at, dim):
        grads = np.ones((3, dim))
        grads[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="^gradient bundle contains non-finite entries$"):
                GradientBundle((1, 2, 3), grads)

    # The bundle validates its Gram matrix, not the gradients: a NaN or inf
    # entry and a squared norm past float64 must each still be named, at k
    # from 1 to 12 and D on both sides of the row-product threshold, so both
    # Gram kernels run.
    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 12),
        dim=st.one_of(st.integers(1, 64),
                      st.integers(_ROW_GRAM_MIN_DIM - 8, _ROW_GRAM_MIN_DIM + 64)),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        big=st.floats(1.3407807929942597e154, 1e300),  # its square is past float64
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_entry_is_named_without_a_warning(self, k, dim, bad, big, seed):
        rng = np.random.default_rng(seed)
        grads = rng.standard_normal((k, dim))
        row, col = int(rng.integers(k)), int(rng.integers(dim))
        ids = tuple(range(1, k + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grads[row, col] = bad
            with pytest.raises(NumericError,
                               match="^gradient bundle contains non-finite entries$"):
                GradientBundle(ids, grads)
            grads[row, col] = big * rng.choice([-1.0, 1.0])
            with pytest.raises(NumericError, match="^gram contains non-finite entries: a "
                                                   "squared gradient norm overflows float64$"):
                GradientBundle(ids, grads)


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
        state = ElasticState()
        state.momentum[1] = state.momentum[2] = 2.0
        # equal norms keep the momenta equal, so the softmax is symmetric
        sig = elastic_factors_gmc(bundle([1.0, 0.0], [0.0, 1.0]), state)
        np.testing.assert_allclose(sig.sigma, [0.5, 0.5], atol=1e-15)

    def test_unit_gap_softmax_value(self):
        # unit norms move the momenta (1 / EPS1, 0) to EPS1 m + EPS2, a gap of 1.
        # Oracle: softmax of those logits evaluated with scalar math.exp.
        logits = [EPS1 * (1.0 / EPS1) + EPS2, EPS1 * 0.0 + EPS2]
        total = math.exp(logits[0]) + math.exp(logits[1])
        expect = [math.exp(logits[0]) / total, math.exp(logits[1]) / total]
        state = ElasticState()
        state.momentum[1], state.momentum[2] = 1.0 / EPS1, 0.0
        sig = elastic_factors_gmc(bundle([1.0, 0.0], [0.0, 1.0]), state)
        np.testing.assert_allclose(sig.sigma, expect, rtol=1e-12)
        np.testing.assert_allclose(sig.sigma, [0.7311, 0.2689], atol=5e-5)

    def test_momentum_update_rule(self):
        state = ElasticState()
        state.momentum[1] = 2.0
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

    @pytest.mark.parametrize("factors, grads", [
        (lambda b: elastic_factors_gmc(b, ElasticState(temperature=1e-310)),
         [[3.0, 0.0], [1.0, 1.0]]),
        # two tasks get gs factors 1/2 at any temperature (TestElasticFactorsGs)
        (lambda b: elastic_factors_gs(b, temperature=1e-310),
         [[3.0, 0.0], [1.0, 1.0], [0.0, 2.0]]),
    ], ids=["gmc", "gs"])
    def test_overflowing_logits_fail_cleanly(self, factors, grads):
        # logits / temperature passes float64's largest value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="raise the temperature"):
                factors(bundle(*grads))

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

    @pytest.mark.parametrize("temperature", [1.0, 0.3, 1e-3, 1e-310, 1e300])
    @pytest.mark.parametrize("grads", [
        [[3.0, 0.0], [1.0, 1.0]],
        [[1.0, 2.0], [-2.0, -4.1]],
        [[1e-160, 0.0], [0.0, 1e150]],
        [[0.0, 0.0], [1.0, 2.0]],
        [[1.0, 2.0], [0.0, 0.0]],
    ], ids=["acute", "near opposed", "scales apart", "first zero", "second zero"])
    def test_two_tasks_get_exact_halves(self, grads, temperature):
        # both score 1 + cos(g_1, g_2), so the softmax is 1/2 each at any temperature
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = elastic_factors_gs(bundle(*grads), temperature).sigma
        assert sig.tobytes() == np.array([0.5, 0.5]).tobytes()
        assert not sig.flags.writeable  # one shared instance

    @pytest.mark.parametrize("temperature", [1.0, 0.3, 1e-3, 1e-310, 1e300])
    @pytest.mark.parametrize("grad", [[3.0, 4.0], [1e-160, 0.0], [0.0, 1e150], [0.0, 0.0]],
                             ids=["unit scale", "subnormal norm", "large", "zero"])
    def test_one_task_gets_exact_one(self, grad, temperature):
        # the softmax of one score is 1 at any temperature, 1e-310 included,
        # where the score over the temperature would overflow float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors = elastic_factors_gs(bundle(grad), temperature)
        assert factors.sigma.tobytes() == np.array([1.0]).tobytes()
        assert not factors.sigma.flags.writeable
        assert factors is elastic_factors_gs(bundle([1.0, 2.0], ids=(7,)))  # one shared instance

    def test_zero_norm_gradient_raises(self):
        # undefined cosines give uniform factors, not an error
        sig = elastic_factors_gs(bundle([1.0, 0.0], [0.0, 0.0]))
        np.testing.assert_array_equal(sig.sigma, [0.5, 0.5])

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_positive_or_non_finite_temperature_named(self, temperature):
        with pytest.raises(InvalidInputError, match="temperature"):
            elastic_factors_gs(bundle([1.0, 0.0], [0.0, 1.0]), temperature)
        with pytest.raises(InvalidInputError, match="temperature"):
            ElasticState(temperature=temperature)

    def test_the_temperature_is_the_only_init_field(self):
        # momentum starts empty: only elastic_factors_gmc fills it, from finite norms
        assert [f.name for f in dataclasses.fields(ElasticState) if f.init] == ["temperature"]
        assert ElasticState().momentum == {}

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
        M = gram([[3.0, 4.0]])
        res = min_norm(M)
        assert res.mu.tolist() == [1.0]
        assert hull_objective(M, res.mu) == pytest.approx(25.0)
        assert res.converged

    def test_orthogonal_pair(self):
        M = gram([[1.0, 0.0], [0.0, 1.0]])
        res = min_norm(M)
        np.testing.assert_allclose(res.mu, [0.5, 0.5], atol=1e-12)
        assert hull_objective(M, res.mu) == pytest.approx(0.5, abs=1e-12)

    def test_opposed_pair_contains_origin(self):
        # 1-D clipped formula: mu1 = (p2.p2 - p1.p2) / ||p1 - p2||^2 = 1/3
        M = gram([[2.0, 0.0], [-1.0, 0.0]])
        res = min_norm(M)
        np.testing.assert_allclose(res.mu, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert hull_objective(M, res.mu) <= 1e-16

    def test_dominated_point_gets_zero_weight(self):
        M = gram([[1.0, 0.0], [3.0, 0.0]])
        res = min_norm(M)
        np.testing.assert_allclose(res.mu, [1.0, 0.0], atol=1e-12)
        assert hull_objective(M, res.mu) == pytest.approx(1.0)

    @pytest.mark.parametrize("points", [
        [[1, 2, -4, -2], [4, 0, 3, -3], [-3, 1, -4, -4], [-3, 2, 0, 4], [3, 0, 0, -4]],
        [[-3, -4, 4, -4, 3], [-2, -4, -1, -2, 3], [0, 4, 2, 4, 0], [1, 1, 0, 3, 4],
         [-3, 0, 1, 4, -3]],
    ])
    def test_clipping_twice_in_one_minor_cycle_matches_oracle(self, points):
        # Here a minor cycle clips, drops a point and clips again, so its
        # second step must start from the kept weights of the first.
        M = gram(points)
        res = min_norm(M)
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
            with gap_tolerance(1e-10):
                res = min_norm(gram(P))
            assert res.converged
            q = res.mu @ P
            gaps = P @ q - float(q @ q)
            assert gaps.min() >= -1e-10
            assert abs(res.mu.sum() - 1.0) <= 1e-9
            assert np.all(res.mu >= 0.0)

    @pytest.mark.parametrize("gram, mu", [
        ([[1.69e308, 0.0], [0.0, 1.69e308]], [0.5, 0.5]),  # c + M_jj overflows unscaled
        ([[1e-320, 0.0], [0.0, 4e-320]], [0.8, 0.2]),  # every entry subnormal
    ])
    def test_extreme_scale_solves_in_units_of_a_power_of_two(self, gram, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = min_norm(gram)
        assert res.converged
        np.testing.assert_allclose(res.mu, mu, rtol=1e-12)
        assert hull_objective(gram, res.mu) == pytest.approx(hull_objective(gram, mu),
                                                             rel=1e-12)

    def test_duplicate_points(self):
        M = gram([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        res = min_norm(M)
        assert res.converged
        assert hull_objective(M, res.mu) <= 1e-16

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_budget_never_falls_below_4k(self, k):
        # the k vertices of the unit simplex enter one per iteration, so Wolfe's
        # loop needs k iterations: a module budget of 1 still leaves 4k
        with mock.patch.object(solver, "DEFAULT_MAX_ITER", 1):
            res = min_norm(np.eye(k))
        assert res.converged and res.iterations == (0 if k == 1 else k)
        np.testing.assert_allclose(res.mu, np.full(k, 1.0 / k), rtol=1e-12)

    @pytest.mark.parametrize("max_iter, budget", [(1, 12), (12, 12), (13, 13),
                                                  (DEFAULT_MAX_ITER, DEFAULT_MAX_ITER)])
    def test_a_stall_reports_the_budget_read_at_the_call(self, max_iter, budget):
        # gmc factors of about (1, 5e-111, 6e-48) stall the solve (ROADMAP item 4,
        # step 3); with k = 3 the budget is max(DEFAULT_MAX_ITER, 12)
        b = GradientBundle((1, 2, 3), np.random.default_rng(3).normal(size=(3, 3)) * 100)
        with mock.patch.object(solver, "DEFAULT_MAX_ITER", max_iter):
            res, _ = combine("emgd_gmc", b, ElasticState())
        assert not res.converged and res.iterations == budget


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

    @pytest.mark.parametrize("call", ["avg_grad", "emgd_gmc", "emgd_gs", "mgda", "solve_emgd"])
    @pytest.mark.parametrize("big", [1e200, 1.3407807929942597e154])  # squared: past float64
    @pytest.mark.parametrize("dim", [2, _ROW_GRAM_MIN_DIM])  # both Gram kernels
    def test_overflowing_squared_norm_is_named_without_a_warning(self, call, big, dim):
        # every path names it, not only `emgd solve`
        grads = np.zeros((2, dim))
        grads[0, 0], grads[1, 1] = big, 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="a squared gradient norm overflows float64"):
                b = GradientBundle((1, 2), grads)
                if call == "solve_emgd":
                    solve_emgd(b, [1.0, 1.0])
                else:
                    combine(call, b, ElasticState())

    @given(method=st.sampled_from(["emgd_gs", "emgd_gmc", "solve_emgd"]), k=st.integers(2, 4),
           dim=st.integers(1, 4), log_scale=st.floats(-160.0, math.log10(1.3e154)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_any_gradient_scale_converges_certified_or_is_named(self, method, k, dim,
                                                                 log_scale, seed):
        rng = np.random.default_rng(seed)
        unit = rng.normal(size=(k, dim))
        sigma = rng.uniform(0.1, 1.0, k)
        scale = 10.0 ** log_scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                b = GradientBundle(tuple(range(1, k + 1)), unit * scale)
                if method == "solve_emgd":
                    result, used = solve_emgd(b, sigma), sigma
                else:
                    result, used = combine(method, b, ElasticState())
            except EmgdError:
                return
        # Two known stalls may end unconverged (exit 2 at the CLI): D < k (ROADMAP
        # item 3, step 2), and factors spanning more than about 1e7, which emgd_gmc
        # draws from gradient norms that differ by more than about 16 (ROADMAP item
        # 3, step 3). The smallest stalling spread seen in 60,000 draws was 1.17e7;
        # the allowance starts an order of magnitude lower.
        if not result.converged and (dim < k or used.max() > used.min() * 1e6):
            return
        assert result.converged
        # The certificate holds for the Gram the bundle formed, the solver's one
        # input (below about 1e-154 its entries are subnormal and have lost digits),
        # read in units of 2^e, where no product overflows or underflows.
        top = b.gram.diagonal().max()
        G, lam = np.ldexp(b.gram, -math.frexp(top)[1]), result.lam
        margin = np.min(G @ lam - used * float(lam @ G @ lam))
        assert margin >= -1e-8 * G.diagonal().max()

    def test_scaled_gram_formed_in_units_of_a_power_of_two(self):
        # gs factors are 1/2 here, so G_11 / sigma_1^2 overflows float64 unless
        # formed in units of 2^e
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, _ = combine("emgd_gs", bundle([1.3e154, 0.0], [0.0, 1e150]), ElasticState())
            assert res.converged and np.isfinite(res.objective)
            # equal norms: d = g_1 + g_2, and ||d||^2 overflows
            with pytest.raises(NumericError, match="combined direction's squared norm"):
                combine("emgd_gs", bundle([1.3e154, 0.0], [0.0, 1.3e154]), ElasticState())

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
        b = bundle([1.0, 2.0], [0.0, 0.0])
        res = solve_emgd(b, [0.5, 0.5])
        assert np.linalg.norm(res.direction) <= 1e-9
        # a zero-gradient task shows on the Gram diagonal
        assert np.compress(b.gram.diagonal() == 0.0, b.task_ids).tolist() == [2]

    @given(st.floats(-8.0, 8.0), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, log_c, k, seed):
        # the relative gap makes the solve the same at every gradient scale
        c = 10.0 ** log_c
        b = random_bundle(np.random.default_rng(seed), k, 8)
        scaled_b = GradientBundle(b.task_ids, b.grads * c)
        with gap_tolerance(1e-12):
            base, sig = combine("emgd_gs", b, ElasticState())
            scaled, scaled_sig = combine("emgd_gs", scaled_b, ElasticState())
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
    res = _min_norm_point(M, scale)
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
    # D = k with gs factors down to 4e-9: the bordered KKT solve without
    # equilibration stalled here for the whole budget, the solver converges in 3
    @example(k=42, extra_dim=0, log_scale=0.0, mode="gs", shared=0.5, duplicate=False,
             zero=False, seed=0)
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
        # cannot enter the working set {1} and the iterate can never change.
        # Wolfe's loop is called directly: two points take the closed form.
        M = np.array([[1.0, -2.0], [-2.0, 0.5]])
        res = _wolfe(M, 1, DEFAULT_TOL * 1.0, DEFAULT_MAX_ITER)
        assert not res.converged
        assert res.iterations == DEFAULT_MAX_ITER
        np.testing.assert_array_equal(res.mu, [0.0, 1.0])
        assert hull_objective(M, res.mu) == 0.5

    @pytest.mark.parametrize("budget", [1, 2, 4, 5])
    def test_small_budget_stops_at_its_last_iterate(self, budget):
        # each iteration adds one vertex of the unit simplex and moves to the
        # centroid of those in the working set; all 5 are in at iteration 5
        res = _wolfe(np.eye(5), 0, DEFAULT_TOL, budget)
        n = min(budget + 1, 5)
        assert res.converged == (budget == 5) and res.iterations == budget
        np.testing.assert_allclose(res.mu, [1.0 / n] * n + [0.0] * (5 - n), rtol=1e-12)
        assert hull_objective(np.eye(5), res.mu) == pytest.approx(1.0 / n, rel=1e-12)


def two_point_solves(M, tol, max_iter):
    """``_two_points`` and Wolfe's loop (``_wolfe``), each called on the same
    scaled 2 x 2 Gram, start, gap tolerance and budget, as ``_min_norm_point``
    would call them."""
    M = np.asarray(M, dtype=float)
    diag = M.diagonal().tolist()
    args = (M, diag.index(min(diag)), tol * max(diag), max(max_iter, 8))
    return _two_points(*args), _wolfe(*args)


def exact_gap(M, mu) -> Fraction:
    """mu' M mu - min_i (M mu)_i of float arrays, in rational arithmetic."""
    n = len(mu)
    inner = [sum(Fraction(M[i, j]) * Fraction(mu[j]) for j in range(n)) for i in range(n)]
    return sum(Fraction(mu[i]) * inner[i] for i in range(n)) - min(inner)


def two_gradients(rng, dim, kind, log_ratio):
    g = rng.normal(size=(2, dim))
    g[1] *= 10.0 ** log_ratio
    if kind == "identical":
        g[1] = g[0]
    elif kind in ("parallel", "antiparallel"):
        g[1] = (1.0 if kind == "parallel" else -1.0) * 10.0 ** log_ratio * g[0]
    elif kind == "near":
        g[1] = g[0] + 1e-9 * rng.normal(size=dim)
    elif kind.endswith("zero"):
        g[[0] if kind == "first zero" else [1] if kind == "second zero" else [0, 1]] = 0.0
    return g


GRADIENT_KINDS = ["random", "identical", "parallel", "antiparallel", "near", "first zero",
                  "second zero", "both zero"]


class TestTwoPoints:
    """``_two_points``, the closed form, exits as Wolfe's loop does, with the same weights."""

    @given(dim=st.integers(1, 4), log_scale=st.floats(-160.0, math.log10(1.3e154)),
           kind=st.sampled_from(GRADIENT_KINDS), log_ratio=st.floats(-3.0, 3.0),
           fixed=st.booleans(), tol=st.sampled_from([1e-12, DEFAULT_TOL, 1e-4, 1.0, 1e300]),
           max_iter=st.sampled_from([1, 2, 9, DEFAULT_MAX_ITER]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=1000, deadline=None)
    def test_matches_the_loop(self, dim, log_scale, kind, log_ratio, fixed, tol, max_iter, seed):
        rng = np.random.default_rng(seed)
        try:
            G = GradientBundle((1, 2), two_gradients(rng, dim, kind, log_ratio)
                               * 10.0 ** log_scale).gram
        except NumericError:  # a squared norm past float64
            assume(False)
        sigma = rng.uniform(0.05, 1.0, size=2) if fixed else np.ones(2)
        # the scaled Gram solve_emgd forms, in units of 2^e
        M = np.ldexp(G, -solver._exponent(float(G.diagonal().max()))) / np.outer(sigma, sigma)
        res, ref = two_point_solves(M, tol, max_iter)
        # past the vertex test, the points well apart, so the weights are unique and
        # well conditioned
        top = float(M.diagonal().max())
        assume(res.iterations == 1 or M[0, 0] - 2.0 * M[0, 1] + M[1, 1] > 1e-3 * top)
        assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
        np.testing.assert_allclose(res.mu, ref.mu, rtol=1e-12, atol=1e-12)
        assert abs(hull_objective(M, res.mu) - hull_objective(M, ref.mu)) <= 1e-12 * top

    @pytest.mark.parametrize("M, tol, mu, iterations, converged", [
        ([[1e-320, 0.0], [0.0, 1.0]], DEFAULT_TOL, [1.0, 0.0], 1, True),  # subnormal vertex
        ([[9.0, 3.0], [3.0, 1.0]], DEFAULT_TOL, [0.0, 1.0], 1, True),  # ... at either index
        ([[1.0, 0.0], [0.0, 4.0]], DEFAULT_TOL, [0.8, 0.2], 2, True),  # interior
        ([[1.0, 1.0], [1.0, 1.0]], DEFAULT_TOL, [1.0, 0.0], 1, True),  # identical points
        ([[0.0, 0.0], [0.0, 0.0]], math.inf, [1.0, 0.0], DEFAULT_MAX_ITER, False),  # spread 0
        ([[32.0, 0.0], [0.0, 8.0]], 5e-324, [0.2, 0.8], DEFAULT_MAX_ITER, False),  # gap > tol
    ], ids=["vertex", "vertex at index 1", "interior", "identical", "no spread", "gap above tol"])
    def test_each_exit(self, M, tol, mu, iterations, converged):
        # the vertex passes the gap test before any division: 1e-320 / 1 would put
        # weight 1e-320 on the other point. Identical points pass it with gap 0. All
        # zeros at tol inf make the gap tolerance 0 * inf (NaN), so the vertex fails
        # the test, the spread is 0 and the iterate stays at the vertex, as the loop's
        # does when the most violating point is already in its working set.
        res, ref = two_point_solves(M, tol, DEFAULT_MAX_ITER)
        assert (res.iterations, res.converged) == (iterations, converged)
        assert (ref.iterations, ref.converged) == (iterations, converged)
        np.testing.assert_allclose(res.mu, mu, rtol=1e-15)
        np.testing.assert_allclose(res.mu, ref.mu, rtol=1e-12, atol=1e-12)

    def test_a_failed_float_gap_test_is_decided_on_the_exact_gap(self):
        # the scaled Gram solve_emgd forms at the pinned draw of
        # test_matches_the_two_task_closed_form: antiparallel points in 1-D, whose
        # rounded inner products give a gap above this tolerance at weights whose
        # exact gap is below it
        M = np.array([[0.0017601009256577288, -0.001582257651407707],
                      [-0.001582257651407707, 0.0014223839320479249]])
        tol = 3.9205466621512477e-19  # below the float gap, 3.9966e-19
        res = _two_points(M, 1, tol, DEFAULT_MAX_ITER)
        gap = exact_gap(M, res.mu)
        assert gap <= tol and (res.iterations, res.converged) == (2, True)
        # the exit turns at the exact gap: converged at the float at or above
        # it, not at the float below, with the same weights
        at = float(gap) if Fraction(float(gap)) >= gap else math.nextafter(float(gap), math.inf)
        for gap_tol, converged in ((at, True), (math.nextafter(at, 0.0), False)):
            edge = _two_points(M, 1, gap_tol, DEFAULT_MAX_ITER)
            assert edge.converged == converged
            assert edge.iterations == (2 if converged else DEFAULT_MAX_ITER)
            np.testing.assert_array_equal(edge.mu, res.mu)

    @given(dim=st.integers(1, 4), log_scale=st.floats(-3.0, 3.0),
           log_tol=st.floats(-17.0, -13.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_an_unconverged_exit_misses_the_tolerance_exactly(self, dim, log_scale, log_tol,
                                                              seed):
        # at tolerances near float64's resolution of the scaled Gram: every exit
        # short of convergence holds weights whose exact gap is above the tolerance
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(2, dim)) * 10.0 ** (log_scale + rng.uniform(-1.0, 1.0, size=(2, 1)))
        sigma = rng.uniform(0.05, 1.0, size=2)
        G = GradientBundle((1, 2), g).gram
        M = np.ldexp(G, -solver._exponent(float(G.diagonal().max()))) / np.outer(sigma, sigma)
        diag = M.diagonal().tolist()
        gap_tol = 10.0 ** log_tol * max(diag)
        res = _two_points(M, diag.index(min(diag)), gap_tol, DEFAULT_MAX_ITER)
        gap = exact_gap(M, res.mu)
        if not res.converged:
            assert gap > gap_tol and res.iterations == DEFAULT_MAX_ITER

    @given(dim=st.integers(1, 4), log_scale=st.floats(-3.0, 3.0), fixed=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=500, deadline=None)
    # antiparallel points in 1-D: the rounded inner products gave a gap above the
    # tolerance at an iterate whose exact gap is below it
    @example(dim=1, log_scale=-2.6169995437097846, fixed=True, seed=2106)
    def test_matches_the_two_task_closed_form(self, dim, log_scale, fixed, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(2, dim)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(2, 1))
        g *= 10.0 ** log_scale
        sigma = rng.uniform(0.1, 1.0, size=2) if fixed else np.ones(2)
        sol = two_task_closed_form(g[0], g[1], *sigma)
        # the scaled points g_1 / sigma_1 and g_2 / sigma_2 well apart, so the weights
        # are unique and well conditioned
        spread = float(np.sum((sigma[1] * g[0] - sigma[0] * g[1]) ** 2))
        assume(spread > 1e-6 * float(np.sum((sigma[::-1, None] * g) ** 2)))
        with gap_tolerance(1e-14):
            res = solve_emgd(GradientBundle((1, 2), g), sigma)
        assert res.converged and res.iterations in (1, 2)
        np.testing.assert_allclose(res.lam, [sol.lam1, sol.lam2], rtol=1e-7,
                                   atol=1e-7 / sigma.min())



def assert_scaled_gram_matches_the_array_steps(grads, sigma):
    """``solve_emgd`` at k <= 2 forms G / (s s^T) in units of 2^e in Python floats.
    It must hand ``_min_norm_point`` the array steps' Gram and gap scale bit for
    bit, or raise their underflow error, with no numpy warning."""
    b = GradientBundle(tuple(range(1, len(grads) + 1)), grads)
    scale = float(b.gram.diagonal().max())
    e = solver._exponent(scale)
    G, S = np.ldexp(b.gram, -e), np.outer(sigma, sigma)
    underflow = not (G.diagonal() < S.diagonal() * np.finfo(float).max).all()
    with warnings.catch_warnings(), mock.patch.object(
            solver, "_min_norm_point", wraps=solver._min_norm_point) as spy:
        warnings.simplefilter("error")
        try:
            solve_emgd(b, sigma)
        except NumericError as err:
            if underflow:
                assert str(err) == "elastic factor underflowed to zero; raise the temperature"
                return
            assert str(err) == "the combined direction's squared norm overflows float64"
    assert not underflow
    M, gap_scale = spy.call_args.args
    assert M.tobytes() == (G / S).tobytes()
    assert gap_scale.hex() == math.ldexp(scale, -e).hex()


class TestTwoTaskSteps:
    """The one k = 2 step outside the factors and the solve, ``solve_emgd``'s
    set-up, against the array steps; and every check a two-task step makes.
    One gradient takes the same set-up and is held to the same steps."""

    @given(dim=st.integers(1, 4), log_scale=st.floats(-160.0, math.log10(1.3e154)),
           kind=st.sampled_from(GRADIENT_KINDS), log_ratio=st.floats(-3.0, 3.0),
           factors=st.sampled_from(["ones", "halves", "random"]),
           log_sigma=st.tuples(st.floats(-170.0, 0.0), st.floats(-170.0, 0.0)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=1000, deadline=None)
    def test_scaled_gram_matches_the_array_steps_bit_for_bit(self, dim, log_scale, kind,
                                                             log_ratio, factors, log_sigma, seed):
        g = two_gradients(np.random.default_rng(seed), dim, kind, log_ratio) * 10.0 ** log_scale
        try:
            GradientBundle((1, 2), g)
        except NumericError:  # a squared norm past float64
            assume(False)
        sigma = {"ones": np.ones(2), "halves": np.full(2, 0.5),
                 "random": 10.0 ** np.array(log_sigma)}[factors]
        assert_scaled_gram_matches_the_array_steps(g, sigma)

    @pytest.mark.parametrize("sigma", [[1.0, 1.0], [0.5, 0.5], [0.5, 0.25]])
    @pytest.mark.parametrize("grads", [
        [[1e100, 0.0], [0.0, 1e-155]],  # G_11 = 1e-310 flushes to 0 when scaled by 2^-665
        [[1e-160, 0.0], [0.0, 1.0]],  # a subnormal squared norm
        [[1e150, 2e150], [-3e150, 1e150]],  # a Gram past 2^500, solved in units of 2^e
        [[0.0, 0.0], [1.0, 2.0]],  # a zero gradient: degenerate
    ])
    def test_edge_bundles_match_the_array_steps(self, grads, sigma):
        assert_scaled_gram_matches_the_array_steps(np.array(grads), np.array(sigma))

    @pytest.mark.parametrize("sigma", [1.0, 0.5, 1e-170])  # 1e-170 squared flushes to 0
    @pytest.mark.parametrize("grad", [
        [3.0, 4.0],
        [1e100, 0.0],  # G_00 = 1e200 past 2^500, solved in units of 2^e
        [1e-160, 0.0],  # a subnormal squared norm
        [0.0, 0.0],  # a zero gradient: degenerate
    ])
    def test_one_gradient_matches_the_array_steps(self, grad, sigma):
        assert_scaled_gram_matches_the_array_steps(np.array([grad]), np.array([sigma]))

    @pytest.mark.parametrize("call, error, message", [
        (lambda: combine("emgd_gmc", bundle([400.0, 0.0], [0.0, 1.0]), ElasticState()),
         NumericError, "elastic factor underflowed to zero; raise the temperature"),
        (lambda: combine("emgd_gmc", bundle([1.0, 0.0], [0.0, 2.0]),
                         ElasticState(temperature=1e-3)),
         NumericError, "elastic factor underflowed to zero; raise the temperature"),
        (lambda: combine("emgd_gmc", bundle([1.0, 0.0], [0.0, 1.0]),
                         ElasticState(temperature=1e-310)),
         NumericError, "elastic factor logits overflow float64; raise the temperature"),
        (lambda: solve_emgd(bundle([1.0, 0.0], [0.0, 1.0]), ElasticFactors([0.5, 1e-170])),
         NumericError, "elastic factor underflowed to zero; raise the temperature"),
    ], ids=["factor underflow", "exp underflow", "logit overflow", "sigma squared 0"])
    def test_each_check_is_named(self, call, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as err:
                call()
        assert str(err.value) == message

    @pytest.mark.parametrize("sigma, error, message", [
        ([0.5, 0.0], InvalidInputError, "every elastic factor must lie in (0, 1]"),
        ([1.5, 0.5], InvalidInputError, "every elastic factor must lie in (0, 1]"),
        ([0.5, math.nan], NumericError, "sigma contains non-finite entries"),
        ([math.inf, 0.5], NumericError, "sigma contains non-finite entries"),
        ([-0.0, 1.0], InvalidInputError, "every elastic factor must lie in (0, 1]"),
    ])
    def test_out_of_range_factors_named(self, sigma, error, message):
        with pytest.raises(error) as err:
            ElasticFactors(sigma)
        assert str(err.value) == message


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
        res, _ = combine("avg_grad", bundle([2.0, 0.0]), ElasticState())
        np.testing.assert_allclose(res.direction, [2.0, 0.0])

    def test_orthogonal_pair(self):
        res, _ = combine("avg_grad", bundle([1.0, 0.0], [0.0, 1.0]), ElasticState())
        np.testing.assert_allclose(res.direction, [0.5, 0.5])

    def test_three_task_mean(self):
        res, sigma = combine("avg_grad", bundle([2.0, 2.0], [0.0, -2.0], [1.0, 0.0]),
                             ElasticState())
        np.testing.assert_allclose(res.direction, [1.0, 0.0])
        np.testing.assert_allclose(res.lam, [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(sigma, [1 / 3, 1 / 3, 1 / 3])
        assert (res.iterations, res.converged) == (0, True)


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
            with gap_tolerance(1e-12):
                res = solve_emgd(bundle(g1, g2), s)
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
            res = solve_emgd(b, sig)
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

    @pytest.mark.parametrize("mode", ["gs", "gmc"])
    @pytest.mark.parametrize("sigma", ["junk", [0.5, 0.5], [1.0, 1.0]])
    def test_sigma_under_a_computed_mode_named(self, mode, sigma):
        # gs and gmc compute their own factors; a sigma there would be ignored
        with pytest.raises(InvalidInputError, match=f"field sigma .* not '{mode}'"):
            solve_request({"grads": [[1.0, 0.0], [0.0, 1.0]], "sigma_mode": mode,
                           "sigma": sigma})

    @pytest.mark.parametrize("doc", [{"sigma_mode": "fixed", "sigma": [0.5, 1.0]},
                                     {"sigma_mode": "fixed"}, {}])
    def test_temperature_under_fixed_named(self, doc):
        # fixed computes no factors; a temperature there would be ignored
        with pytest.raises(InvalidInputError, match="^field temperature is read only under "
                                                    "sigma_mode 'gs' or 'gmc', not 'fixed'$"):
            solve_request({"grads": [[1.0, 0.0], [0.0, 1.0]], "temperature": 7.0, **doc})

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
        # every solve has the one budget, so a budget field is unknown whatever its value
        ("^unknown field: tol$", {"tol": "x"}),
        ("^unknown field: tol$", {"tol": [1e-8]}),
        ("^unknown field: tol$", {"tol": float("inf")}),
        ("^unknown field: tol$", {"tol": -1.0}),
        ("^unknown field: max_iter$", {"max_iter": "x"}),
        ("^unknown field: max_iter$", {"max_iter": 2.5}),
        ("^unknown field: max_iter$", {"max_iter": float("inf")}),
        ("^unknown field: max_iter$", {"max_iter": 0}),
        ("sigma_mode", {"sigma_mode": ["gs"]}),
    ])
    def test_malformed_field_named(self, field, doc):
        request = {"grads": [[1.0, 0.0], [0.0, 1.0]], "sigma_mode": "gs", **doc}
        with pytest.raises(InvalidInputError, match=field):
            solve_request(request)

    def test_fixed_without_sigma_is_mgda(self):
        grads = [[2.0, 0.0], [0.5, 1.0]]
        out = solve_request({"grads": grads, "sigma_mode": "fixed"})
        assert out["lambda"] == mgda(bundle(*grads)).lam.tolist()


class TestCombine:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reaches_factors_and_solve_through_module_attributes(self, monkeypatch, k):
        # the traced benchmark counts and times these calls by patching them
        calls = []
        for name in ("elastic_factors_gs", "solve_emgd"):
            def counted(*args, _real=getattr(solver, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(solver, name, counted)
        b = random_bundle(np.random.default_rng(k), k, 4)
        for _ in range(3):
            combine("emgd_gs", b, ElasticState())
        assert calls == ["elastic_factors_gs", "solve_emgd"] * 3

    @given(dim=st.integers(1, 4), log_scale=st.floats(-160.0, math.log10(1.3e154)),
           kind=st.sampled_from(GRADIENT_KINDS), log_ratio=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=1000, deadline=None)
    def test_gs_weights_are_twice_mgda_s_at_two_tasks(self, dim, log_scale, kind, log_ratio,
                                                       seed):
        # factors 1/2 scale every point by exactly 2, so the closed form's weight t is
        # mgda's and lambda = mu / (1/2). The stopping gap, 4 times mgda's at the same
        # tolerance, can end one solve at the vertex and the other past it.
        g = two_gradients(np.random.default_rng(seed), dim, kind, log_ratio) * 10.0 ** log_scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                b = GradientBundle((1, 2), g)
                gs, mg = (combine(m, b, ElasticState())[0] for m in ("emgd_gs", "mgda"))
            except NumericError:  # a squared norm, or gs's doubled direction, past float64
                assume(False)
        assume((gs.iterations, gs.converged) == (mg.iterations, mg.converged))
        assert gs.lam.tobytes() == (2.0 * mg.lam).tobytes()

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError, match="bogus"):
            combine("bogus", bundle([1.0, 0.0]), ElasticState())

    def test_fixed_is_not_a_method(self):
        # given factors go to solve_emgd; `emgd solve`'s "fixed" mode calls it
        with pytest.raises(InvalidInputError, match="unknown combination method 'fixed'"):
            combine("fixed", bundle([2.0, 0.0], [0.5, 1.0]), ElasticState())

    @pytest.mark.parametrize("function, params", [
        (solve_emgd, ["bundle", "sigma"]),
        (combine, ["method", "bundle", "state"]),
        (_min_norm_point, ["M", "scale"]),
    ])
    def test_no_call_takes_a_solver_budget(self, function, params):
        # every solve reads DEFAULT_TOL and DEFAULT_MAX_ITER; none is handed them
        assert list(inspect.signature(function).parameters) == params

    def test_mgda_is_elastic_solve_at_unit_sigma(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            b = random_bundle(rng, 4, 6)
            result, sigma = combine("mgda", b, ElasticState())
            np.testing.assert_array_equal(sigma, np.ones(4))
            plain = min_norm(b.grads @ b.grads.T)
            np.testing.assert_array_equal(result.lam, plain.mu)
