"""Pareto descent directions from per-task gradients, with elastic factors.

All gradients are stored in the negative convention g_i = -grad(loss_i), and
the model update is theta <- theta + gamma * d. Under this convention a
combined direction d is a Pareto descent direction when

    <g_i, d> >= sigma_i * ||d||^2    for every task i,

which is what the elastic solver guarantees up to tol * max_i ||g_i||^2,
a slack relative to the gradients' scale.

The elastic problem  min ||sum_i lambda_i g_i||^2  s.t.  sum_i lambda_i
sigma_i = 1, lambda >= 0  reduces exactly to the classic min-norm-point
problem over the scaled points g_i / sigma_i via mu_i = lambda_i * sigma_i,
which needs only their Gram matrix G / (sigma sigma^T) (Wolfe 1976; Sener &
Koltun 2018). A bundle forms G once; norms, cosines and the solve all read
it, so the only D-length products per solve are G and d = lambda @ grads.
G comes from ``grads @ grads.T`` (BLAS syrk) except for 2 <= k <= 6
gradients of dimension D >= 4096, where one matrix-vector product per row
fills its upper triangle and the mirror: on a few long rows syrk's fixed
cost dominates (k = 2, D = 33,088: 95 us against 31 us with 1 BLAS
thread), while below D = 4096 or above k = 6 syrk is as fast or faster.
The solve keeps one working-set inverse across its iterations, so each
change of the working set costs O(|S|^2) and no linear system is re-solved.
``combine`` dispatches every method; ``mgda`` is the solve at sigma = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateGradientError,
    InvalidInputError,
    NumericError,
    read_field,
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 250

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


@dataclass(frozen=True)
class GradientBundle:
    """Per-task flat gradient vectors for one optimization step.

    ``grads[i]`` is the negative loss gradient of task ``task_ids[i]`` with
    respect to the shared parameters. The memory stream, when present, uses
    task id 0.
    """

    task_ids: tuple
    grads: np.ndarray

    def __post_init__(self):
        grads = np.atleast_2d(np.asarray(self.grads, dtype=np.float64))
        ids = tuple(map(int, self.task_ids))
        object.__setattr__(self, "grads", grads)
        object.__setattr__(self, "task_ids", ids)
        if grads.ndim != 2 or grads.shape[0] < 1 or grads.shape[1] < 1:
            raise InvalidInputError("need at least one gradient of dimension >= 1")
        if len(ids) != grads.shape[0]:
            raise InvalidInputError(
                f"{len(ids)} task ids for {grads.shape[0]} gradients"
            )
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate task ids: {ids}")
        if not np.isfinite(grads).all():
            raise NumericError("gradient bundle contains non-finite entries")

    @property
    def size(self) -> int:
        return self.grads.shape[0]

    @property
    def dim(self) -> int:
        return self.grads.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """k x k inner products <g_i, g_j>, formed once per bundle.

        Exactly symmetric with a non-negative diagonal either way; the
        kernel follows the measured rule at ``_ROW_GRAM_K``.
        """
        grads = self.grads
        k, dim = grads.shape
        if not (_ROW_GRAM_K[0] <= k <= _ROW_GRAM_K[1] and dim >= _ROW_GRAM_MIN_DIM):
            return grads @ grads.T
        gram = np.empty((k, k))
        for i in range(k):
            gram[i, i:] = gram[i:, i] = grads[i:] @ grads[i]
        return gram

    def norms(self) -> np.ndarray:
        return np.sqrt(self.gram.diagonal())


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
    """Running gradient-norm statistics used by the momentum factors.

    ``momentum[t]`` follows m_t <- eps1 * m_t + eps2 * ||g_t||, seeded with
    the first observed norm so a task's debut is not down-weighted.
    """

    momentum: dict = field(default_factory=dict)
    eps1: float = 0.9
    eps2: float = 0.1
    temperature: float = 1.0

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise InvalidInputError(
                f"temperature must be positive and finite, got {self.temperature!r}")


@dataclass(frozen=True)
class CombinationResult:
    """Solver output: weights, combined direction and diagnostics.

    ``objective`` is ||d||^2, 0 at a Pareto critical point.
    ``degenerate_tasks`` lists task ids whose gradient was exactly zero.
    """

    lam: np.ndarray
    direction: np.ndarray
    objective: float
    iterations: int
    converged: bool
    degenerate_tasks: tuple = ()


class MinNormResult(NamedTuple):
    mu: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    # logits / temperature can overflow only at temperatures below 1
    if temperature < 1.0 and not np.abs(logits).max() < temperature * _FLOAT_MAX:
        raise NumericError("elastic factor logits overflow float64; raise the temperature")
    logits = logits / temperature
    z = np.exp(logits - logits.max())
    if (z == 0.0).any():
        raise NumericError(
            "elastic factor underflowed to zero; raise the temperature"
        )
    return z / z.sum()


def elastic_factors_gmc(bundle: GradientBundle, state: ElasticState) -> ElasticFactors:
    """Elastic factors from gradient-norm momentum (mutates ``state``).

    Each task's momentum statistic is refreshed with the bundle's gradient
    norm, then the factors are a temperature-scaled softmax of the momenta.
    """
    norms = bundle.norms()
    if not np.isfinite(norms).all():
        raise NumericError("non-finite gradient norm")
    for tid, n in zip(bundle.task_ids, norms):
        prev = state.momentum.get(tid)
        if prev is None:
            state.momentum[tid] = float(n)
        else:
            state.momentum[tid] = state.eps1 * prev + state.eps2 * float(n)
    logits = np.array([state.momentum[tid] for tid in bundle.task_ids])
    return ElasticFactors(_softmax(logits, state.temperature))


def elastic_factors_gs(bundle: GradientBundle, temperature: float = 1.0) -> ElasticFactors:
    """Elastic factors from summed pairwise cosine similarities.

    Task i scores sum_k cos(g_i, g_k), self-similarity included, so the
    factors reflect how aligned each gradient is with the rest of the bundle.
    Raises DegenerateGradientError on a zero-norm gradient; callers fall back
    to uniform factors.
    """
    if not 0 < temperature < math.inf:
        raise InvalidInputError(f"temperature must be positive and finite, got {temperature!r}")
    norms = bundle.norms()
    if (norms == 0.0).any():
        raise DegenerateGradientError("zero-norm gradient: cosine undefined")
    scores = (bundle.gram / (norms[:, None] * norms)).sum(axis=1)
    return ElasticFactors(_softmax(scores, temperature))


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


def solve_min_norm_simplex(
    gram: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    scale: float | None = None,
) -> MinNormResult:
    """Minimum-norm point of the convex hull of k points, given their Gram matrix.

    Solves min_mu mu' M mu over the probability simplex (M = ``gram``) by
    Wolfe's min-norm-point method: repeatedly add the most violating point
    to the working set S, move to the affine minimiser over S, and clip
    back to the simplex when a weight would go negative. Stops when the
    duality gap ||q||^2 - min_i <p_i, q> drops to ``tol * scale`` (default
    scale max_i M_ii, so the test is the same at every magnitude), or after
    ``max(max_iter, 4k)`` iterations: each adds at most one working point.
    With two points a single affine solve reproduces the clipped closed form.

    The affine minimiser is read off one inverse kept across iterations,
    B = (c ee' + M_SS)^-1: M_SS w = nu e with e'w = 1 gives
    (c ee' + M_SS) w = (nu + c) e, so w = B e / (e'B e) for any c > 0.
    Adding a point borders B and dropping one downdates it, each O(|S|^2);
    nothing is re-factorised. c is M_jj of the first working point, the
    smallest squared norm (1 when that is 0): the points' squared norms can
    span many orders of magnitude (elastic factors divide them by sigma^2),
    and a c at the largest would leave c ee' + M_SS badly conditioned. If
    the most violating point is already in S, or is numerically affinely
    dependent on S (its pivot is not positive), the iterate can no longer
    change: the solve stops there, not converged, and reports the whole
    budget as used, as running it out would have.
    """
    M = np.atleast_2d(np.asarray(gram, dtype=np.float64))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError("gram must be a square matrix")
    if not np.isfinite(M).all():
        raise NumericError("gram contains non-finite entries")
    if not tol > 0:
        raise InvalidInputError("tol must be positive")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter!r}")
    k = M.shape[0]
    if k == 1:
        return MinNormResult(np.ones(1), float(M[0, 0]), 0, True)
    diag = M.diagonal()
    gap_tol = tol * (float(diag.max()) if scale is None else scale)
    budget = max(max_iter, 4 * k)

    first = int(diag.argmin())
    c = float(M[first, first]) or 1.0
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
            return MinNormResult(mu, objective, iterations, True)
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

    return MinNormResult(mu, float(mu @ (M @ mu)), budget, False)


def _as_sigma(sigma, k: int) -> np.ndarray:
    arr = (sigma if isinstance(sigma, ElasticFactors) else ElasticFactors(sigma)).sigma
    if arr.shape != (k,):
        raise InvalidInputError(f"expected {k} elastic factors, got shape {arr.shape}")
    return arr


def _combine(bundle: GradientBundle, lam: np.ndarray, res: MinNormResult) -> CombinationResult:
    direction = lam @ bundle.grads
    objective = float(direction @ direction)
    zero = bundle.gram.diagonal() == 0.0
    degenerate = tuple(tid for tid, z in zip(bundle.task_ids, zero) if z)
    return CombinationResult(
        lam=lam,
        direction=direction,
        objective=objective,
        iterations=res.iterations,
        converged=res.converged,
        degenerate_tasks=degenerate,
    )


def solve_emgd(
    bundle: GradientBundle,
    sigma,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CombinationResult:
    """Elastic combination: min ||sum lambda_i g_i||^2 s.t. sum lambda_i sigma_i = 1.

    Substituting mu_i = lambda_i * sigma_i turns the problem into the plain
    min-norm point of {g_i / sigma_i}, with Gram matrix G / (sigma sigma^T);
    the weights are recovered as mu_i / sigma_i. The stopping gap is scaled
    by the unscaled max_j ||g_j||^2, so on a converged solve
    <g_i, d> >= sigma_i ||d||^2 - tol * max_j ||g_j||^2 for every i.
    """
    s = _as_sigma(sigma, bundle.size)
    G = bundle.gram
    # Each scaled entry |G_ij| / (s_i s_j) is at most the geometric mean of
    # two scaled diagonal entries (Cauchy-Schwarz), so finite G_ii / s_i^2
    # (s_i^2 > 0 included; s_i <= 1, so s_i^2 * MAX cannot overflow) keeps
    # every entry finite, checked before the division could warn.
    diag = G.diagonal().tolist()
    if not all(g < f * f * _FLOAT_MAX for g, f in zip(diag, s.tolist())):
        raise NumericError("elastic factor underflowed to zero; raise the temperature")
    res = solve_min_norm_simplex(G / (s[:, None] * s), tol, max_iter, scale=max(diag))
    return _combine(bundle, res.mu / s, res)


def avg_grad(bundle: GradientBundle) -> CombinationResult:
    """Plain average: every task weighted 1/k."""
    lam = np.full(bundle.size, 1.0 / bundle.size)
    return _combine(
        bundle, lam, MinNormResult(lam, 0.0, 0, True)
    )


def combine(
    method: str,
    bundle: GradientBundle,
    state: ElasticState,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    sigma: ElasticFactors | None = None,
):
    """Combine a bundle per ``method``; returns (CombinationResult, sigma used).

    ``emgd_gmc`` and ``emgd_gs`` compute elastic factors from ``state``
    (momenta, temperature); ``emgd_gs`` falls back to factors 1/k when a zero
    gradient leaves cosines undefined. ``mgda`` fixes every factor at one,
    ``fixed`` uses ``sigma`` (all ones when omitted), and ``avg_grad`` is the
    plain mean, reported with factors 1/k.
    """
    k = bundle.size
    if method == "avg_grad":
        return avg_grad(bundle), np.full(k, 1.0 / k)
    if method == "emgd_gmc":
        factors = elastic_factors_gmc(bundle, state)
    elif method == "emgd_gs":
        try:
            factors = elastic_factors_gs(bundle, state.temperature)
        except DegenerateGradientError:
            factors = ElasticFactors(np.full(k, 1.0 / k))
    elif method == "mgda":
        factors = ElasticFactors(np.ones(k))
    elif method == "fixed":
        factors = ElasticFactors(np.ones(k)) if sigma is None else sigma
    else:
        raise InvalidInputError(f"unknown combination method {method!r}")
    return solve_emgd(bundle, factors, tol, max_iter), factors.sigma


_REQUEST_KEYS = {"grads", "sigma_mode", "sigma", "temperature", "tol", "max_iter"}
_SIGMA_MODES = {"gmc": "emgd_gmc", "gs": "emgd_gs", "fixed": "fixed"}


def solve_request(doc: dict) -> dict:
    """One-shot solver call on a JSON-style document.

    Accepts {"grads": [[...], ...], "sigma_mode": "gmc"|"gs"|"fixed",
    "sigma": [...], "temperature": 1.0, "tol", "max_iter"} (tol and max_iter
    default to DEFAULT_TOL and DEFAULT_MAX_ITER) and returns {"lambda",
    "direction", "objective", "converged"}; unknown keys and malformed values
    are rejected by name. "gs" and "gmc" run
    ``combine`` as the training methods ``emgd_gs`` and ``emgd_gmc`` do, so
    a zero gradient under "gs" gets uniform factors; one-shot "gmc" has no
    momentum history, so its factors are a softmax of the gradient norms.
    "fixed" uses ``sigma``; all ones (the default) is plain min-norm.
    """
    if not isinstance(doc, dict):
        raise InvalidInputError("request must be a JSON object")
    unknown = set(doc) - _REQUEST_KEYS
    if unknown:
        raise InvalidInputError(f"unknown field: {sorted(unknown)[0]}")
    if "grads" not in doc:
        raise InvalidInputError("missing field: grads")
    try:
        grads = np.asarray(doc["grads"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
        grads = np.zeros(0)
    if grads.ndim != 2 or not grads.size:
        raise InvalidInputError("field grads must be a non-empty list of equal-length "
                                "numeric vectors")
    bundle = GradientBundle(tuple(range(1, len(grads) + 1)), grads)
    with np.errstate(over="ignore"):  # request gradients may be of any size; named below
        gram = bundle.gram  # cached for the solve
    if not max(gram.diagonal().tolist()) < math.inf:  # Cauchy-Schwarz bounds the rest
        raise NumericError("gram contains non-finite entries: a squared gradient norm "
                           "overflows float64")

    mode = read_field(doc, "sigma_mode", "fixed", error=InvalidInputError)
    if mode not in _SIGMA_MODES:
        raise InvalidInputError(f"unknown field value: sigma_mode={mode!r}")
    raw, sigma = doc.get("sigma"), None
    if mode == "fixed" and raw is not None:
        if not isinstance(raw, list) or len(raw) != bundle.size:
            raise InvalidInputError("field sigma must list one factor per gradient")
        try:
            sigma = ElasticFactors(np.asarray(raw, dtype=np.float64))
        except (InvalidInputError, NumericError, TypeError, ValueError) as err:
            raise InvalidInputError(f"field sigma: {err}") from None
    state = ElasticState(temperature=read_field(doc, "temperature", 1.0, error=InvalidInputError))
    tol = read_field(doc, "tol", DEFAULT_TOL, error=InvalidInputError)
    max_iter = read_field(doc, "max_iter", DEFAULT_MAX_ITER, error=InvalidInputError)
    result, _ = combine(_SIGMA_MODES[mode], bundle, state, tol, max_iter, sigma)
    return {
        "lambda": result.lam.tolist(),
        "direction": result.direction.tolist(),
        "objective": result.objective,
        "converged": bool(result.converged),
    }
