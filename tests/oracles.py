"""Reference implementations the tests compare the library against.

The central-difference editor approximates the editing gradient
grad_x ||g(x) - d||^2 by differencing the input gradient through a
parameter perturbation. ``emgd.net.edit_direction`` computes the same
quantity exactly; these slower approximations pin it down.

``Batch`` holds one task's rows and labels as a stream tuple
``(inputs, labels, task_id)``, the arguments ``backward`` takes; ``forward``
is one batch's class probabilities and mean loss, through the library's own
stacking and head stage.

``explicit_edit`` is the editing pass that ``emgd.net._edit_terms``
replaced: each task group's backbone gradient formed in full by
``grouped_backward``, U_g = that gradient + d, the objective sum_g ||U_g||^2
and each group's exact R-op 2 R{grad_x L_g}(U_g) through its own forward,
head and backward, one group at a time.

``group_stream_edit`` and ``group_stream_objective`` are the editing passes
that ``emgd.net``'s pre-grouped ``_pass`` replaced: the rows sliced into a
stream per ``(task_id, slice)`` group (``group_streams``) and stacked back by
``_stack``, and the tangent terms formed with tanh' recomputed per layer and
the softmax part per group, over its own head's columns.

``checked_head`` is the per-group head lookup and label min/max check that
``emgd.net._route``'s one check per pass replaced; the per-group oracles
read their heads through it.

``per_stream_gradients`` is the per-stream training path that
``emgd.net.stream_gradients`` replaced: one forward and one backward per
stream, one softmax per head group, then ``np.stack``.

``SlotListBuffer`` and ``slot_list_insert`` are the list-of-slots buffer
and its row-at-a-time reservoir insert that ``emgd.rehearsal.MemoryBuffer``
and ``insert`` replaced; ``per_head_evaluate`` is the evaluation that
``emgd.experiment._evaluate`` replaced, one ``head_logits`` call per
(task, head) pair and one ``np.hstack`` per task.

``kkt_min_norm_simplex`` is the min-norm-point loop that
``emgd.solver._min_norm_point`` replaced: the same steps, with a
dense KKT solve of the affine subproblem at every minor step, its
bordered system equilibrated by the working points' norms; it reports
its own objective. ``hull_objective`` is mu' M mu for a given Gram matrix,
the objective of the solver's weights, which its result does not carry. The
two-task closed form, the simplex grid search and the descent
certificate check pin the solver down from outside.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from emgd.errors import InvalidInputError
from emgd.net import (Network, _activations, _edit_terms, _head_stage, _layers, _pass, _route,
                      _stack, backward, features, head_logits, input_gradient)
from emgd.solver import CombinationResult, GradientBundle, _as_factors
from emgd.streams import build_parallel_split

# Squared-norm threshold below which two scaled gradients are treated as the
# same hull point (any convex weight is then optimal).
PARALLEL_EPS = 1e-18

# a config's split section with the reader's defaults; tests name the fields they change
SPLIT = {"num_tasks": 3, "label_bounds": [2, 15], "overlap": 0.0, "serial": False,
         "batch_size": 128, "epochs": 1}


def make_split(dataset, seed, **fields):
    """``build_parallel_split`` of the ``SPLIT`` section with ``fields`` changed."""
    return build_parallel_split(dataset, seed, **{**SPLIT, **fields})


class Batch(namedtuple("Batch", "inputs labels task_id")):
    """One task's rows as float64 and labels as int64, in a stream tuple:
    ``backward(net, *batch)`` and ``stream_gradients(net, [batch])`` read it."""

    __slots__ = ()

    def __new__(cls, inputs, labels, task_id):
        return super().__new__(cls, np.atleast_2d(np.asarray(inputs, dtype=np.float64)),
                               np.atleast_1d(np.asarray(labels, dtype=np.int64)), task_id)


def forward(net: Network, batch: Batch):
    """Class probabilities and mean cross-entropy loss for one batch."""
    inputs, labels, routed, _ = _stack([batch])
    probs, _, logp, _ = _head_stage(_activations(net, inputs)[-1], labels,
                                    _route(net, labels, routed))
    return probs, float(-logp.mean())


def checked_head(net: Network, task_id: int, labels: np.ndarray):
    """The task's head parameters, after checking its labels' min and max fit it."""
    if task_id not in net.heads:
        raise InvalidInputError(f"no head for task {task_id}")
    W_h, b_h = net.head(task_id)
    if labels.size and (labels.min() < 0 or labels.max() >= W_h.shape[1]):
        raise InvalidInputError("label out of range for the task head")
    return W_h, b_h


def _head_pass(feats, labels, W_h, b_h):
    """dlogits, flat head gradient and mean cross-entropy of one head group."""
    logits = feats @ W_h + b_h
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    logp = shifted - np.log(expz.sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(labels.size), labels].mean())
    dlogits = probs.copy()
    dlogits[np.arange(labels.size), labels] -= 1.0
    dlogits /= labels.size
    head_grad = np.concatenate([(feats.T @ dlogits).ravel(), dlogits.sum(axis=0)])
    return dlogits, head_grad, loss


def grouped_backward(net: Network, inputs, labels, groups, head_step: float = 0.0):
    """One stream's backbone gradient, loss and weighted head gradients.

    ``groups`` holds ``(task_id, rows)`` pairs covering the rows once; a group
    of n_g of the N rows has weight n_g / N. With ``head_step > 0`` each head
    steps by ``head_step`` times its weighted gradient before its gradient
    is read again.
    """
    activations = _activations(net, inputs)
    feats = activations[-1]
    delta = np.empty_like(feats)
    head_grads, loss = {}, 0.0
    for task_id, rows in groups:
        group_labels = labels[rows]
        W_h, b_h = checked_head(net, task_id, group_labels)
        weight = group_labels.size / labels.size
        dlogits, head_grad, group_loss = _head_pass(feats[rows], group_labels, W_h, b_h)
        if head_step > 0:
            net.heads[task_id] -= head_step * (weight * head_grad)
            dlogits, head_grad, group_loss = _head_pass(feats[rows], group_labels, W_h, b_h)
        delta[rows] = (weight * dlogits) @ W_h.T
        head_grads[task_id] = weight * head_grad
        loss += weight * group_loss
    grad = np.empty(net.backbone_dim)
    grad_layers = _layers(grad, net.layer_sizes)
    for i in range(len(net.backbone) - 1, -1, -1):
        a_out = activations[i + 1]
        dz = delta * (1.0 - a_out * a_out)
        gW, gb = grad_layers[i]
        np.matmul(activations[i].T, dz, out=gW)
        dz.sum(axis=0, out=gb)
        if i > 0:
            delta = dz @ net.backbone[i][0].T
    return grad, float(loss), head_grads


def _rop_edit(net: Network, inputs, labels, task_id: int, U: np.ndarray) -> np.ndarray:
    """2 R{grad_x L}(U) for one group alone: its input gradient's derivative
    along the backbone tangent U, forward-over-reverse."""
    activations = _activations(net, inputs)
    W_h, b_h = checked_head(net, task_id, labels)
    logits = activations[-1] @ W_h + b_h
    expz = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = expz / expz.sum(axis=1, keepdims=True)
    dlogits = probs.copy()
    dlogits[np.arange(labels.size), labels] -= 1.0
    delta = (dlogits / labels.size) @ W_h.T
    dzs = [None] * len(net.backbone)
    for i in range(len(net.backbone) - 1, -1, -1):
        a_out = activations[i + 1]
        dzs[i] = delta * (1.0 - a_out * a_out)
        delta = dzs[i] @ net.backbone[i][0].T
    tangent = _layers(U, net.layer_sizes)
    Ra, Rzs = np.zeros_like(inputs), []
    for i, ((W, _), (dW, db)) in enumerate(zip(net.backbone, tangent)):
        Rzs.append(Ra @ W + activations[i] @ dW + db)
        Ra = (1.0 - activations[i + 1] ** 2) * Rzs[-1]
    Rs = Ra @ W_h
    Rdelta = ((probs * (Rs - (probs * Rs).sum(axis=1, keepdims=True))) / labels.size) @ W_h.T
    for i in range(len(net.backbone) - 1, -1, -1):
        a_out = activations[i + 1]
        Rdz = (1.0 - a_out * a_out) * Rdelta - 2.0 * a_out * dzs[i] * Rzs[i]
        Rdelta = Rdz @ net.backbone[i][0].T + dzs[i] @ tangent[i][0].T
    return 2.0 * Rdelta


def explicit_edit(net: Network, inputs, labels, groups, target_d) -> tuple:
    """``edit_direction``'s results from every ``(task_id, slice)`` group's
    explicit gradient U_g = ``grouped_backward`` + d, one group at a time."""
    delta, objective = np.empty_like(inputs), 0.0
    for task_id, rows in groups:
        U = grouped_backward(net, inputs[rows], labels[rows], [(task_id, slice(None))])[0]
        U += target_d
        objective += float(U @ U)
        delta[rows] = _rop_edit(net, inputs[rows], labels[rows], task_id, U)
    return delta, objective


def group_streams(inputs, labels, groups) -> list:
    """Each ``(task_id, slice)`` group of the rows as its own stream."""
    return [(inputs[rows], labels[rows], task_id) for task_id, rows in groups]


def group_stream_objective(net: Network, inputs, labels, groups, target_d) -> float:
    """``editing_objective`` through a stream per group."""
    p = _pass(net, *_stack(group_streams(inputs, labels, groups)))
    return _edit_terms(net, p, target_d, False)[0]


def group_stream_edit(net: Network, inputs, labels, groups, target_d) -> tuple:
    """``edit_direction`` through a stream per group."""
    p = _pass(net, *_stack(group_streams(inputs, labels, groups)))
    activations, dzs = p.activations, p.dzs
    objective, terms = _edit_terms(net, p, target_d, True)
    Rzs = []
    for i, (W, _) in enumerate(net.backbone):
        Rz = terms[i][0] if i == 0 else Ra @ W + terms[i][0]
        Rzs.append(Rz)
        a_out = activations[i + 1]
        Ra = (1.0 - a_out * a_out) * Rz
    Rdelta = np.empty_like(Ra)
    for g in p.groups:
        probs = p.probs[g.rows, : g.W.shape[1]]
        Rs = Ra[g.rows] @ g.W
        Rp = probs * (Rs - (probs * Rs).sum(axis=1, keepdims=True))
        Rdelta[g.rows] = (Rp / probs.shape[0]) @ g.W.T
    for i in range(len(net.backbone) - 1, -1, -1):
        a_out = activations[i + 1]
        Rdz = (1.0 - a_out * a_out) * Rdelta - 2.0 * a_out * dzs[i] * Rzs[i]
        Rdelta = Rdz @ net.backbone[i][0].T
        Rdelta += terms[i][1]
    Rdelta *= 2.0
    return Rdelta, objective


def per_stream_gradients(net: Network, streams, head_step: float = 0.0):
    """``stream_gradients``' results, one ``grouped_backward`` per stream."""
    grads, losses, head_grads = [], [], {}
    for inputs, labels, task_ids in streams:
        if np.ndim(task_ids) == 0:
            groups = [(int(task_ids), slice(None))]
        else:
            groups = [(int(t), task_ids == t) for t in np.unique(task_ids)]
        grad, loss, heads = grouped_backward(net, inputs, labels, groups, head_step)
        grads.append(grad)
        losses.append(loss)
        head_grads.update(heads)
    return np.stack(grads), losses, head_grads


@dataclass
class Slot:
    x: np.ndarray
    label: int
    task_id: int
    class_id: int


@dataclass
class SlotListBuffer:
    capacity_per_class: int
    slots: list = field(default_factory=list)
    seen_counts: dict = field(default_factory=dict)
    by_class: dict = field(default_factory=dict)


def slot_list_insert(buffer: SlotListBuffer, batch: Batch, class_ids,
                     rng: np.random.Generator) -> None:
    """Per-class reservoir insert, one row copied into its own ``Slot`` at a time."""
    class_ids = np.asarray(class_ids, dtype=np.int64)
    cap = buffer.capacity_per_class
    for i in range(len(batch.labels)):
        c = int(class_ids[i])
        seen = buffer.seen_counts.get(c, 0) + 1
        buffer.seen_counts[c] = seen
        existing = buffer.by_class.setdefault(c, [])
        if len(existing) < cap:
            existing.append(len(buffer.slots))
            buffer.slots.append(
                Slot(batch.inputs[i].copy(), int(batch.labels[i]), batch.task_id, c)
            )
        elif rng.random() < cap / seen:
            victim = existing[int(rng.integers(len(existing)))]
            buffer.slots[victim] = Slot(
                batch.inputs[i].copy(), int(batch.labels[i]), batch.task_id, c
            )


def per_head_evaluate(net: Network, specs_by_id: dict, seen: list):
    """``_evaluate``'s accuracies: per task one forward, then one
    ``head_logits`` call per created head and one ``np.hstack``."""
    task_acc, class_acc = {}, {}
    head_tasks = [t for t in seen if t in net.heads]
    slot_globals = np.asarray(
        [c for t in head_tasks for c in specs_by_id[t].label_set]
    )
    for t in head_tasks:
        spec = specs_by_id[t]
        if spec.test_inputs.shape[0] == 0:
            task_acc[t] = 0.0
            class_acc[t] = 0.0
            continue
        feats = features(net, spec.test_inputs)
        labels_local = spec.to_local(spec.test_labels)
        task_acc[t] = float(
            (head_logits(net, feats, t).argmax(axis=1) == labels_local).mean()
        )
        stacked = np.hstack([head_logits(net, feats, o) for o in head_tasks])
        winners = slot_globals[stacked.argmax(axis=1)]
        class_acc[t] = float((winners == spec.test_labels).mean())
    return task_acc, class_acc


def directional_edit_gradient(input_grad_at, theta: np.ndarray, v: np.ndarray, eps: float):
    """Core of the editing direction: gradient of ||g(x) - d||^2 w.r.t. x.

    ``v = g(x) - d`` in the negative-gradient convention. Since
    dg/dx = -d2(loss)/dtheta dx, the chain rule gives
    grad_x ||v||^2 = 2 * (d2l/dtheta dx)^T (-v), evaluated by a central
    difference of the input gradient through a parameter perturbation along
    u = -v. ``input_grad_at(theta')`` must return the input gradient of the
    loss at parameters ``theta'``. Returns None when ``v`` is (near) zero.
    """
    norm_v = float(np.linalg.norm(v))
    if norm_v < 1e-12:
        return None
    u = -v / norm_v
    plus = input_grad_at(theta + eps * u)
    minus = input_grad_at(theta - eps * u)
    return (plus - minus) * (norm_v / eps)


def central_difference_edit(net: Network, batch: Batch, target_d: np.ndarray,
                            fd_eps: float = 1e-4) -> np.ndarray:
    """Editing gradient of one task's batch by a directional central
    difference, with the step scaled relative to the parameter magnitude.
    The backbone is restored afterwards."""
    v = -backward(net, *batch)[0] - target_d
    theta = net.theta.copy()
    eps = fd_eps * (1.0 + float(np.sqrt(np.mean(theta * theta))))

    def input_grad_at(theta_prime):
        net.set_backbone_flat(theta_prime)
        return input_gradient(net, batch.inputs, batch.labels,
                              [(batch.task_id, slice(None))])[0]

    try:
        delta = directional_edit_gradient(input_grad_at, theta, v, eps)
    finally:
        net.set_backbone_flat(theta)
    return np.zeros_like(batch.inputs) if delta is None else delta


def _affine_min_norm(M: np.ndarray, idx: list) -> np.ndarray:
    # Minimize w' M_SS w subject to sum(w) = 1 (weights may be negative):
    # KKT system [[2 M_SS, 1], [1', 0]] [w; nu] = [0; 1]. It is solved
    # equilibrated by D = diag(M_SS)^-1/2, 1 for a zero point, as
    # [[2 D M_SS D, D 1], [1' D, 0]] [y; nu] = [0; 1] with w = D y: squared
    # norms many orders apart would otherwise leave it badly conditioned.
    n = len(idx)
    sub = M[np.ix_(idx, idx)]
    diag = sub.diagonal()
    scale = np.ones(n)
    scale[diag > 0] = 1.0 / np.sqrt(diag[diag > 0])
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = 2.0 * scale[:, None] * sub * scale
    A[:n, n] = scale
    A[n, :n] = scale
    b = np.zeros(n + 1)
    b[n] = 1.0
    try:
        sol = np.linalg.solve(A, b)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return scale * sol[:n]


class KktResult(NamedTuple):
    mu: np.ndarray
    objective: float
    iterations: int
    converged: bool


def hull_objective(M, mu) -> float:
    """mu' M mu: the squared norm of the hull point with weights ``mu`` over
    the points whose Gram matrix is ``M``."""
    mu = np.asarray(mu, dtype=np.float64)
    return float(mu @ np.asarray(M, dtype=np.float64) @ mu)


def kkt_min_norm_simplex(M: np.ndarray, tol: float, max_iter: int,
                         scale: float | None = None) -> KktResult:
    """Min-norm point of the hull of k points with Gram matrix ``M``,
    re-solving the working set's KKT system at every minor step."""
    M = np.asarray(M, dtype=np.float64)
    k = M.shape[0]
    if k == 1:
        return KktResult(np.ones(1), float(M[0, 0]), 0, True)
    gap_tol = tol * (float(np.max(np.diag(M))) if scale is None else scale)

    S = [int(np.argmin(np.diag(M)))]
    w = np.array([1.0])

    iterations = 0
    for iterations in range(1, max(max_iter, 4 * k) + 1):
        inner = M[:, S] @ w  # <p_i, q> for all i
        objective = float(w @ inner[S])
        j = int(np.argmin(inner))
        if objective - inner[j] <= gap_tol:
            mu = np.zeros(k)
            mu[S] = w
            return KktResult(mu, objective, iterations, True)
        if j not in S:
            S.append(j)
            w = np.append(w, 0.0)
        # Minor cycle: exact affine solve, clipped back to the simplex.
        for _ in range(2 * k + 2):
            v = _affine_min_norm(M, S)
            if np.all(v > -1e-14):
                w = np.clip(v, 0.0, None)
                w /= w.sum()
                break
            neg = v < 0
            theta = float(np.min(w[neg] / (w[neg] - v[neg])))
            w = (1.0 - theta) * w + theta * v
            w[w < 1e-14] = 0.0
            keep = w > 0
            if not keep.any():
                keep[int(np.argmax(v))] = True
                w[keep] = 1.0
            S = [s for s, k_ in zip(S, keep) if k_]
            w = w[keep]
            w /= w.sum()

    mu = np.zeros(k)
    mu[S] = w
    inner = M[:, S] @ w
    return KktResult(mu, float(w @ inner[S]), iterations, False)


class TwoTaskSolution(NamedTuple):
    lam1: float
    lam2: float
    degenerate: bool


def two_task_closed_form(g1, g2, sigma1: float, sigma2: float) -> TwoTaskSolution:
    """Closed-form elastic weights for exactly two gradients.

    The constrained quadratic has a piecewise solution: all weight on one
    task when the other's scaled projection dominates, otherwise the interior
    formula with denominator ||sigma2 g1 - sigma1 g2||^2. When the two scaled
    gradients coincide (denominator ~ 0) any hull point is optimal; the
    weight then goes to the smaller-norm gradient and the solution is
    flagged degenerate.
    """
    if sigma1 <= 0 or sigma2 <= 0:
        raise InvalidInputError("elastic factors must be positive")
    g1 = np.asarray(g1, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    if g1.shape != g2.shape:
        raise InvalidInputError("gradients must share a dimension")
    g11 = float(g1 @ g1)
    g22 = float(g2 @ g2)
    g12 = float(g1 @ g2)
    den = sigma2 * sigma2 * g11 - 2.0 * sigma1 * sigma2 * g12 + sigma1 * sigma1 * g22
    if den < PARALLEL_EPS:
        if g11 < g22:
            return TwoTaskSolution(1.0 / sigma1, 0.0, True)
        return TwoTaskSolution(0.0, 1.0 / sigma2, True)
    if sigma1 * g22 < sigma2 * g12:
        return TwoTaskSolution(0.0, 1.0 / sigma2, False)
    if sigma2 * g11 < sigma1 * g12:
        return TwoTaskSolution(1.0 / sigma1, 0.0, False)
    lam1 = (sigma1 * g22 - sigma2 * g12) / den
    lam2 = (sigma2 * g11 - sigma1 * g12) / den
    return TwoTaskSolution(lam1, lam2, False)


def _simplex_grid(k: int, steps: int) -> np.ndarray:
    # All integer compositions of `steps` into k parts, scaled to sum to 1.
    combos = itertools.combinations(range(steps + k - 1), k - 1)
    cuts = np.fromiter(
        itertools.chain.from_iterable(combos), dtype=np.int64
    ).reshape(-1, k - 1)
    bounds = np.hstack(
        [
            np.full((cuts.shape[0], 1), -1, dtype=np.int64),
            cuts,
            np.full((cuts.shape[0], 1), steps + k - 1, dtype=np.int64),
        ]
    )
    parts = np.diff(bounds, axis=1) - 1
    return parts / float(steps)


def brute_force_weights(bundle: GradientBundle, sigma, grid_step: float):
    """Grid-search oracle for the elastic combination, k <= 4 only.

    Enumerates mu on the simplex at resolution ``grid_step``, maps back to
    lambda = mu / sigma and returns the best (lambda, objective) found. The
    objective is an upper bound on the true optimum with O(grid_step) gap.
    """
    if bundle.size > 4:
        raise InvalidInputError(f"grid search supports k <= 4, got k={bundle.size}")
    if not (0.0 < grid_step <= 0.1):
        raise InvalidInputError("grid_step must lie in (0, 0.1]")
    s = _as_factors(sigma, bundle.size).sigma
    if bundle.size == 1:
        lam = np.array([1.0 / s[0]])
        d = lam @ bundle.grads
        return lam, float(d @ d)
    steps = int(round(1.0 / grid_step))
    W = _simplex_grid(bundle.size, steps)
    scaled = bundle.grads / s[:, None]
    gram = scaled @ scaled.T
    objectives = np.einsum("nk,kl,nl->n", W, gram, W)
    best = int(np.argmin(objectives))
    return W[best] / s, float(objectives[best])


def pareto_descent_check(bundle: GradientBundle, sigma, result: CombinationResult,
                         tol: float) -> bool:
    """True iff <g_i, d> >= sigma_i * ||d||^2 - tol for every task."""
    s = _as_factors(sigma, bundle.size).sigma
    d = result.direction
    dd = float(d @ d)
    return bool(np.all(bundle.grads @ d >= s * dd - tol))
