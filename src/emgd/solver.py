"""Pareto descent directions from per-task gradients, with elastic factors.

All gradients are stored in the negative convention g_i = -grad(loss_i), and
the model update is theta <- theta + gamma * d. Under this convention a
combined direction d is a Pareto descent direction when

    <g_i, d> >= sigma_i * ||d||^2    for every task i,

which the elastic solver guarantees up to DEFAULT_TOL * max_i ||g_i||^2, a
slack relative to the gradients' scale. Every solve stops at that tolerance or
after max(DEFAULT_MAX_ITER, 4k) iterations for k tasks; no caller sets either.

The elastic problem  min ||sum_i lambda_i g_i||^2  s.t.  sum_i lambda_i
sigma_i = 1, lambda >= 0  reduces exactly to the classic min-norm-point
problem over the scaled points g_i / sigma_i via mu_i = lambda_i * sigma_i,
which needs only their Gram matrix G / (sigma sigma^T) (Wolfe 1976; Sener &
Koltun 2018). A bundle forms and validates G at construction; norms,
cosines and the solve all read it and nothing later re-scans the gradients,
so the only D-length passes per solve are G and d = lambda @ grads.
G comes from ``grads @ grads.T`` (BLAS syrk) except for 2 <= k <= 6
gradients of dimension D >= 4096, where one matrix-vector product per row
fills its upper triangle and the mirror: on a few long rows syrk's fixed
cost dominates (k = 2, D = 33,088: 95 us against 31 us with 1 BLAS
thread), while below D = 4096 or above k = 6 syrk is as fast or faster.
The solve keeps one working-set inverse across its iterations, so each
change of the working set costs O(|S|^2) and no linear system is re-solved.
Two tasks, the commonest bundle in parallel continual learning, need no
iteration: their ``gs`` factors are exactly 1/2, and their min-norm point
has a closed form (``_two_points``). One task, as on a tick that trains a
single stream, takes the same shortcuts: its ``gs`` factor is exactly 1, and
its min-norm point is the one point. ``solve_emgd`` forms the scaled Gram of
one or two gradients in Python floats, where numpy's call overhead on 1 x 1
and 2 x 2 arrays would dominate. ``combine`` dispatches every training
method; ``mgda`` is the solve at sigma = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericError, is_number, read_field

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 250
EPS1, EPS2 = 0.9, 0.1  # gradient-norm momentum: m_t <- EPS1 * m_t + EPS2 * ||g_t||

# Gram kernel rule: row products for k in _ROW_GRAM_K and D >= the minimum.
# Measured with OpenBLAS 0.3.31 on 1 thread, median us, syrk / row products:
#   D = 33,088: k=1 6/9, k=2 95/31, k=3 259/64, k=5 384/105, k=6 336/159,
#               k=8 294/272 (a tie across runs: 334/343 in another)
#   D = 4096:   k=1 3/5, k=2 13/8, k=3 37/19, k=6 49/27, k=8 32/38
#   D = 2048:   k=2 7/8, k=3 16/13, k=6 21/25 (mixed, so syrk)
#   D = 1024:   k=2 5/9, k=3 10/13, k=8 12/33
_ROW_GRAM_K = (2, 6)
_ROW_GRAM_MIN_DIM = 4096
_FLOAT_MAX = float(np.finfo(np.float64).max)
_UNSCALED = (2.0 ** -500, 2.0 ** 500)  # Grams solved as given (see _exponent)


@dataclass(frozen=True)
class GradientBundle:
    """Per-task flat gradient vectors for one optimization step.

    ``grads[i]`` is the negative loss gradient of task ``task_ids[i]`` with
    respect to the shared parameters. The memory stream, when present, uses
    task id 0. ``gram`` holds the k x k inner products <g_i, g_j>, exactly
    symmetric with a non-negative diagonal; its kernel follows the measured
    rule at ``_ROW_GRAM_K``. The bundle forms and validates G at
    construction; nothing later re-scans the gradients.
    """

    task_ids: tuple
    grads: np.ndarray
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grads = np.atleast_2d(np.asarray(self.grads, dtype=np.float64))
        ids = tuple(map(int, self.task_ids))
        object.__setattr__(self, "grads", grads)
        object.__setattr__(self, "task_ids", ids)
        if grads.ndim != 2 or grads.shape[0] < 1 or grads.shape[1] < 1:
            raise InvalidInputError("need at least one gradient of dimension >= 1")
        if len(ids) != grads.shape[0]:
            raise InvalidInputError(f"{len(ids)} task ids for {grads.shape[0]} gradients")
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate task ids: {ids}")
        gram = _gram(grads)  # a NaN or inf entry, or a squared norm past float64, shows in G
        if not np.isfinite(gram).all():  # only then are the gradients scanned
            if not np.isfinite(grads).all():
                raise NumericError("gradient bundle contains non-finite entries")
            raise NumericError("gram contains non-finite entries: a squared gradient norm "
                               "overflows float64")
        object.__setattr__(self, "gram", gram)

    @property
    def size(self) -> int:
        return self.grads.shape[0]

    def norms(self) -> np.ndarray:
        return np.sqrt(self.gram.diagonal())


@np.errstate(over="ignore", invalid="ignore")  # GradientBundle names a non-finite G
def _gram(grads: np.ndarray) -> np.ndarray:
    k, dim = grads.shape
    if not (_ROW_GRAM_K[0] <= k <= _ROW_GRAM_K[1] and dim >= _ROW_GRAM_MIN_DIM):
        return grads @ grads.T
    gram = np.empty((k, k))
    for i in range(k):
        gram[i, i:] = gram[i:, i] = grads[i:] @ grads[i]
    return gram


@dataclass(frozen=True)
class ElasticFactors:
    """Per-task relaxation weights, each in (0, 1]."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64)
        object.__setattr__(self, "sigma", sigma)
        if sigma.ndim != 1 or sigma.size < 1:
            raise InvalidInputError("sigma must be a non-empty vector")
        if not ((sigma > 0.0) & (sigma <= 1.0)).all():  # false on NaN and inf too
            if not np.isfinite(sigma).all():
                raise NumericError("sigma contains non-finite entries")
            raise InvalidInputError("every elastic factor must lie in (0, 1]")


@dataclass
class ElasticState:
    """The factors' temperature, and the running gradient-norm statistics
    used by the momentum factors.

    ``momentum[t]`` follows m_t <- EPS1 * m_t + EPS2 * ||g_t||, seeded with
    the first observed norm so a task's debut is not down-weighted. It starts
    empty and only updates from finite norms fill it.
    """

    temperature: float = 1.0  # the one default temperature: runs and requests read it
    momentum: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise InvalidInputError(
                f"temperature must be positive and finite, got {self.temperature!r}")


@dataclass(frozen=True)
class CombinationResult:
    """Solver output: weights, combined direction and diagnostics.

    ``objective`` is ||d||^2, 0 at a Pareto critical point.
    """

    lam: np.ndarray
    direction: np.ndarray
    objective: float
    iterations: int
    converged: bool


class MinNormResult(NamedTuple):
    mu: np.ndarray
    iterations: int
    converged: bool


_LOGITS_OVERFLOW = "elastic factor logits overflow float64; raise the temperature"
_UNDERFLOW = "elastic factor underflowed to zero; raise the temperature"


def _softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    # logits / temperature can overflow only at temperatures below 1
    if temperature < 1.0 and not np.abs(logits).max() < temperature * _FLOAT_MAX:
        raise NumericError(_LOGITS_OVERFLOW)
    logits = logits / temperature
    z = np.exp(logits - logits.max())
    if (z == 0.0).any():
        raise NumericError(_UNDERFLOW)
    return z / z.sum()


def elastic_factors_gmc(bundle: GradientBundle, state: ElasticState) -> ElasticFactors:
    """Elastic factors from gradient-norm momentum (mutates ``state``).

    Each task's momentum statistic is refreshed with the bundle's gradient
    norm, then the factors are a temperature-scaled softmax of the momenta.
    """
    for tid, n in zip(bundle.task_ids, bundle.norms().tolist()):
        prev = state.momentum.get(tid)
        if prev is None:
            state.momentum[tid] = n
        else:
            state.momentum[tid] = EPS1 * prev + EPS2 * n
    logits = np.array([state.momentum[tid] for tid in bundle.task_ids])
    return ElasticFactors(_softmax(logits, state.temperature))


def elastic_factors_gs(bundle: GradientBundle,
                       temperature: float = ElasticState.temperature) -> ElasticFactors:
    """Elastic factors from summed pairwise cosine similarities.

    Task i scores sum_k cos(g_i, g_k), self-similarity included, so the
    factors reflect how aligned each gradient is with the rest of the bundle.
    A zero-norm gradient leaves the cosines undefined; the factors are then
    uniform, 1/k each. Two tasks both score 1 + cos(g_1, g_2), so their
    factors are exactly 1/2 at every temperature, and the softmax of one
    task's one score is exactly 1: for k <= 2 the factors are one shared,
    read-only ``ElasticFactors`` per k, and no score is computed.
    """
    if not 0 < temperature < math.inf:
        raise InvalidInputError(f"temperature must be positive and finite, got {temperature!r}")
    k = bundle.size
    if k <= 2:
        return _HALVES if k == 2 else _ONE
    norms = bundle.norms()
    if not norms.all():  # a zero gradient
        return ElasticFactors(np.full(k, 1.0 / k))
    cosines = norms[:, None] * norms
    scores = np.divide(bundle.gram, cosines, out=cosines).sum(axis=1)
    return ElasticFactors(_softmax(scores, temperature))


_ONE, _HALVES = ElasticFactors(np.array([1.0])), ElasticFactors(np.array([0.5, 0.5]))
_ONE.sigma.flags.writeable = _HALVES.sigma.flags.writeable = False


def _border(B: np.ndarray, n: int, u: np.ndarray, pivot: float) -> None:
    # The leading n x n block of B holds A^-1; grow it in place to the inverse
    # of [[A, a], [a', alpha]], given u = A^-1 a and pivot = alpha - a'u.
    B[:n, :n] += (u / pivot)[:, None] * u
    B[:n, n] = B[n, :n] = -u / pivot
    B[n, n] = 1.0 / pivot


def _drop(B: np.ndarray, n: int, p: int) -> None:
    # The leading n x n block of B holds A^-1; shrink it in place to the
    # inverse of A without row and column p (a Schur downdate, O(n^2)):
    # B_{-p,-p} - B_{-p,p} B_{p,-p} / B_pp, shifted over row and column p.
    # Once the rows are shifted, column p without row p is B[:n-1, p].
    pivot = B[p, p]
    B[p:n - 1, :n] = B[p + 1:n, :n]
    col = B[:n - 1, p].copy()
    B[:n - 1, p:n - 1] = B[:n - 1, p + 1:n]
    B[:n - 1, :n - 1] -= (col / pivot)[:, None] * col


def _exponent(top: float) -> int:
    """0 for a largest Gram diagonal entry ``top`` in ``_UNSCALED`` (or 0), else its binary exponent
    e: in units of 2^e (exact) nothing overflows near float64's max or goes subnormal."""
    return math.frexp(top)[1] if top > _UNSCALED[1] or 0.0 < top < _UNSCALED[0] else 0


def _min_norm_point(M: np.ndarray, scale: float) -> MinNormResult:
    """Minimum-norm point of the convex hull of k points, given their Gram matrix M.

    Solves min_mu mu' M mu over the probability simplex by
    Wolfe's min-norm-point method: repeatedly add the most violating point
    to the working set S, move to the affine minimiser over S, and clip
    back to the simplex when a weight would go negative. Stops when the
    duality gap ||q||^2 - min_i <p_i, q> drops to ``DEFAULT_TOL * scale``
    (``solve_emgd`` passes max_i ||g_i||^2, so the test is the same at every
    magnitude), or after ``max(DEFAULT_MAX_ITER, 4k)`` iterations: each adds at
    most one working point.
    Two points take the closed form instead (``_two_points``), with the same
    stopping test, exact where floats fail it, and the same exits.

    The affine minimiser is read off one inverse kept across iterations,
    B = (c ee' + M_SS)^-1: M_SS w = nu e with e'w = 1 gives
    (c ee' + M_SS) w = (nu + c) e, so w = B e / (e'B e) for any c > 0.
    Adding a point borders B and dropping one downdates it, each O(|S|^2);
    nothing is re-factorised. M and ``scale`` are first multiplied by 2^-e
    (see ``_exponent``); the weights are the same in either unit. c is M_jj
    of the first working point, the smallest squared norm (1 when that is 0
    or so small that its reciprocal overflows): the points' squared norms can span
    many orders of magnitude (elastic factors divide them by sigma^2), and a
    c at the largest would leave c ee' + M_SS badly conditioned. If the most
    violating point is already in S, or is numerically affinely dependent on
    S (its pivot is not positive), the iterate can no longer change: the
    solve stops there, not converged, and reports the whole budget as used,
    as running it out would have. Nothing is checked here: ``solve_emgd``, the
    one caller, hands over the scaled Gram of a bundle that validated G, and M
    is not re-scanned.
    """
    k = M.shape[0]
    if k == 1:
        return MinNormResult(np.ones(1), 0, True)
    diag = M.diagonal().tolist()  # tolist: cheaper than a reduction at small k
    e = _exponent(max(diag))
    if e:
        M, scale = np.ldexp(M, -e), math.ldexp(scale, -e)
    # the smallest squared norm, the first on ties as argmin would pick, read
    # before the scaling: it can flush two tiny entries to an equal 0
    first = diag.index(min(diag))
    gap_tol = DEFAULT_TOL * scale
    budget = max(DEFAULT_MAX_ITER, 4 * k)
    if k == 2:
        return _two_points(M, first, gap_tol, budget)
    return _wolfe(M, first, gap_tol, budget)


def _two_points(M: np.ndarray, first: int, gap_tol: float, budget: int) -> MinNormResult:
    # The min-norm point of p_f and p_o in closed form (Sener & Koltun 2018),
    # with _wolfe's exits. Iteration 1 tests the vertex e_f, the smaller point,
    # as the loop does: a subnormal M_ff gets its whole weight, not a weight
    # of M_ff / M_oo on p_o. Otherwise ||(1 - t) p_f + t p_o||^2 is least at
    # t = <p_f, p_f - p_o> / ||p_f - p_o||^2, clipped to [0, 1], and the gap
    # test decides convergence there, on the weights' exact gap where it fails
    # in floats (the closed form's gap is rounding only). With no positive
    # spread ||p_f - p_o||^2 (identical points under a NaN gap tolerance, or a
    # non-Gram M) the iterate stays at e_f.
    rows, other = M.tolist(), 1 - first
    m_ff, m_fo, m_oo = rows[first][first], rows[first][other], rows[other][other]
    mu = np.zeros(2)
    if m_ff - min(m_ff, m_fo) <= gap_tol:
        mu[first] = 1.0
        return MinNormResult(mu, 1, True)
    spread = m_ff - 2.0 * m_fo + m_oo
    t = min(max((m_ff - m_fo) / spread, 0.0), 1.0) if spread > 0.0 else 0.0
    inner_f = (1.0 - t) * m_ff + t * m_fo  # M @ mu
    inner_o = (1.0 - t) * m_fo + t * m_oo
    objective = (1.0 - t) * inner_f + t * inner_o
    converged = objective - min(inner_f, inner_o) <= gap_tol
    if not converged:  # in rationals, at the weights below
        w_f, w_o, f_ff, f_fo, f_oo = map(Fraction, (1.0 - t, t, m_ff, m_fo, m_oo))
        e_f, e_o = w_f * f_ff + w_o * f_fo, w_f * f_fo + w_o * f_oo
        converged = w_f * e_f + w_o * e_o - min(e_f, e_o) <= gap_tol
    mu[first], mu[other] = 1.0 - t, t
    return MinNormResult(mu, 2 if converged else budget, converged)


def _wolfe(M: np.ndarray, first: int, gap_tol: float, budget: int) -> MinNormResult:
    # Wolfe's loop (see _min_norm_point) on M in units of 2^e, from point first
    k = M.shape[0]
    c = float(M[first, first])
    if not c > 1.0 / _FLOAT_MAX:  # B[0, 0] below would overflow
        c = 1.0
    S = np.empty(k, dtype=np.intp)  # working set in S[:n], in order of entry
    w = np.empty(k)  # its weights in w[:n]
    in_S = np.zeros(k, dtype=bool)
    S[0], w[0], in_S[first], n = first, 1.0, True, 1
    B = np.empty((k, k))  # leading n x n block: (c ee' + M_SS)^-1
    B[0, 0] = 1.0 / (c + M[first, first])
    mu = np.zeros(k)
    mu[first] = 1.0

    for iterations in range(1, budget + 1):
        inner = M @ mu  # <p_i, q> for all i
        objective = float(mu @ inner)
        j = int(inner.argmin())
        if objective - inner[j] <= gap_tol:
            return MinNormResult(mu, iterations, True)
        if in_S[j]:  # the iterate cannot change any more (see above)
            break
        a = c + M[S[:n], j]
        u = B[:n, :n] @ a
        pivot = c + M[j, j] - float(a @ u)
        if not pivot > 0:  # j is affinely dependent on S, up to rounding
            break
        _border(B, n, u, pivot)
        S[n], w[n], in_S[j] = j, 0.0, True
        n += 1
        # Minor cycle: affine minimiser, clipped back to the simplex.
        for _ in range(2 * k + 2):
            v = B[:n, :n].sum(axis=1)
            v /= v.sum()
            if (v > -1e-14).all():
                wn = np.clip(v, 0.0, None, out=w[:n])
                wn /= wn.sum()
                break
            neg = v < 0
            wn = w[:n]
            theta = float((wn[neg] / (wn[neg] - v[neg])).min())
            wn = (1.0 - theta) * wn + theta * v
            wn[wn < 1e-14] = 0.0
            keep = wn > 0
            if not keep.any():
                keep[int(v.argmax())] = True
                wn[keep] = 1.0
            members = S[:n]
            in_S[members[~keep]] = False
            for p in np.flatnonzero(~keep)[::-1]:
                _drop(B, n, p)
                n -= 1
            S[:n] = members[keep]
            w[:n] = wn[keep]
            w[:n] /= w[:n].sum()
        mu.fill(0.0)
        mu[S[:n]] = w[:n]

    return MinNormResult(mu, budget, False)


def _as_factors(sigma, k: int) -> ElasticFactors:
    factors = sigma if isinstance(sigma, ElasticFactors) else ElasticFactors(sigma)
    if factors.sigma.shape != (k,):
        raise InvalidInputError(f"expected {k} elastic factors, got shape {factors.sigma.shape}")
    return factors


@np.errstate(over="ignore", invalid="ignore")  # an overflow is named below
def _combine(bundle: GradientBundle, lam: np.ndarray, iterations: int,
             converged: bool) -> CombinationResult:
    direction = lam @ bundle.grads
    objective = float(direction @ direction)
    if not math.isfinite(objective):  # d or ||d||^2 past float64: inf, or NaN from inf - inf
        raise NumericError("the combined direction's squared norm overflows float64")
    return CombinationResult(lam=lam, direction=direction, objective=objective,
                             iterations=iterations, converged=converged)


def solve_emgd(bundle: GradientBundle, sigma) -> CombinationResult:
    """Elastic combination: min ||sum lambda_i g_i||^2 s.t. sum lambda_i sigma_i = 1.

    Substituting mu_i = lambda_i * sigma_i turns the problem into the plain
    min-norm point of {g_i / sigma_i}, with Gram matrix G / (sigma sigma^T);
    the weights are recovered as mu_i / sigma_i. The stopping gap is scaled
    by the unscaled max_j ||g_j||^2, so on a converged solve
    <g_i, d> >= sigma_i ||d||^2 - DEFAULT_TOL * max_j ||g_j||^2 for every i.
    """
    k = bundle.size
    s = _as_factors(sigma, k).sigma
    # G / (s s^T) is formed in units of 2^e. Each scaled entry |G_ij| / (s_i s_j)
    # is at most the geometric mean of two scaled diagonal entries
    # (Cauchy-Schwarz), so finite G_ii / s_i^2 (s_i^2 > 0 included; s_i <= 1,
    # so s_i^2 * MAX cannot overflow) keeps every entry finite, checked
    # before the division could warn.
    if k <= 2:  # the same steps in Python floats: numpy's calls cost more here
        # one gradient takes them on (G_00, s_0) twice and keeps the 1 x 1 corner
        rows, sl = bundle.gram.tolist(), s.tolist()
        (g00, g01), (_, g11) = rows if k == 2 else (rows[0] * 2,) * 2
        s0, s1 = sl if k == 2 else sl * 2
        scale = max(g00, g11)
        e = _exponent(scale)
        if e:
            g00, g01, g11 = math.ldexp(g00, -e), math.ldexp(g01, -e), math.ldexp(g11, -e)
        m00, m11 = s0 * s0, s1 * s1
        if not (g00 < m00 * _FLOAT_MAX and g11 < m11 * _FLOAT_MAX):
            raise NumericError(_UNDERFLOW)
        m01 = g01 / (s0 * s1)
        M = np.array(((g00 / m00, m01), (m01, g11 / m11)) if k == 2 else ((m01,),))
    else:
        scale = float(bundle.gram.diagonal().max())
        e = _exponent(scale)
        G, M = np.ldexp(bundle.gram, -e) if e else bundle.gram, s[:, None] * s  # M: G / (s s^T)
        if not (G.diagonal() < M.diagonal() * _FLOAT_MAX).all():
            raise NumericError(_UNDERFLOW)
        M = np.divide(G, M, out=M)
    res = _min_norm_point(M, math.ldexp(scale, -e))
    return _combine(bundle, res.mu / s, res.iterations, res.converged)


def combine(method: str, bundle: GradientBundle, state: ElasticState):
    """Combine a bundle per ``method``; returns (CombinationResult, sigma used).

    ``emgd_gmc`` and ``emgd_gs`` compute elastic factors from ``state``
    (momenta, temperature); for ``emgd_gs`` a zero gradient gives factors
    1/k (see ``elastic_factors_gs``). ``mgda`` fixes every factor at one,
    and ``avg_grad`` is the plain mean, every task weighted 1/k and reported
    with factors 1/k. Given factors are not a method: ``solve_emgd`` takes them.
    """
    k = bundle.size
    if method == "avg_grad":
        return _combine(bundle, np.full(k, 1.0 / k), 0, True), np.full(k, 1.0 / k)
    if method == "emgd_gmc":
        factors = elastic_factors_gmc(bundle, state)
    elif method == "emgd_gs":
        factors = elastic_factors_gs(bundle, state.temperature)
    elif method == "mgda":
        factors = ElasticFactors(np.ones(k))
    else:
        raise InvalidInputError(f"unknown combination method {method!r}")
    return solve_emgd(bundle, factors), factors.sigma


_REQUEST_KEYS = {"grads", "sigma_mode", "sigma", "temperature"}
_SIGMA_MODES = {"gmc": "emgd_gmc", "gs": "emgd_gs", "fixed": "mgda"}  # fixed with no sigma


def _require_numbers(values: list, where: str) -> None:
    # np.asarray would take "1" and true as numbers
    for i, value in enumerate(values):
        if not is_number(value):
            raise InvalidInputError(f"field {where}[{i}] must be a number, got {value!r}")


def solve_request(doc: dict) -> dict:
    """One-shot solver call on a JSON-style document.

    Accepts {"grads": [[...], ...], "sigma_mode": "gmc"|"gs"|"fixed",
    "sigma": [...], "temperature": 1.0} and returns {"lambda", "direction",
    "objective", "converged"}; unknown keys (``tol`` and ``max_iter`` among
    them: every solve has the one budget) and malformed values are rejected
    by name. "gs" and "gmc" run ``combine`` as the training methods
    ``emgd_gs`` and ``emgd_gmc`` do, so a zero gradient under "gs" gets
    uniform factors; one-shot "gmc" has no momentum history, so its factors
    are a softmax of the gradient norms. "fixed" runs ``solve_emgd`` on
    ``sigma``; with none it is ``mgda``, plain min-norm at factors all ones.
    A ``sigma`` under "gs" or "gmc", which compute their own factors, and a
    ``temperature`` under "fixed", which computes none, are rejected by name.
    Every entry of ``grads`` and ``sigma`` must be a JSON int or float, not a bool.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError("request must be a JSON object")
    unknown = set(doc) - _REQUEST_KEYS
    if unknown:
        raise InvalidInputError(f"unknown field: {sorted(unknown)[0]}")
    if "grads" not in doc:
        raise InvalidInputError("missing field: grads")
    rows = doc["grads"]
    for i, row in enumerate(rows if isinstance(rows, list) else ()):
        if isinstance(row, list):  # a row that is not a list fails the shape check below
            _require_numbers(row, f"grads[{i}]")
    try:
        grads = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged, or an int past float64
        grads = np.zeros(0)
    if grads.ndim != 2 or not grads.size:
        raise InvalidInputError("field grads must be a non-empty list of equal-length "
                                "numeric vectors")
    bundle = GradientBundle(tuple(range(1, len(grads) + 1)), grads)
    mode = read_field(doc, "sigma_mode", "fixed", error=InvalidInputError)
    if mode not in _SIGMA_MODES:
        raise InvalidInputError(f"unknown field value: sigma_mode={mode!r}")
    raw = doc.get("sigma")
    if raw is not None and mode != "fixed":  # gs and gmc compute their own factors
        raise InvalidInputError(f"field sigma is read only under sigma_mode 'fixed', "
                                f"not {mode!r}")
    if "temperature" in doc and mode == "fixed":
        raise InvalidInputError("field temperature is read only under sigma_mode 'gs' or "
                                "'gmc', not 'fixed'")
    if raw is not None:
        if not isinstance(raw, list) or len(raw) != bundle.size:
            raise InvalidInputError("field sigma must list one factor per gradient")
        _require_numbers(raw, "sigma")
        try:
            sigma = ElasticFactors(np.asarray(raw, dtype=np.float64))
        except (InvalidInputError, NumericError, OverflowError) as err:  # an int past float64
            raise InvalidInputError(f"field sigma: {err}") from None
    state = ElasticState(temperature=read_field(doc, "temperature", ElasticState.temperature,
                                                error=InvalidInputError))
    result = (combine(_SIGMA_MODES[mode], bundle, state)[0] if raw is None
              else solve_emgd(bundle, sigma))
    return {
        "lambda": result.lam.tolist(),
        "direction": result.direction.tolist(),
        "objective": result.objective,
        "converged": bool(result.converged),
    }
