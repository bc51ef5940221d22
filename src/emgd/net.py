"""Minimal dense network: shared backbone plus per-task classifier heads.

Everything runs in float64 so finite-difference checks are meaningful. The
backbone maps inputs to a feature vector through tanh layers; each head is a
linear map from the feature space to its task's class logits, trained with
mean softmax cross-entropy. Parameter gradients, input gradients and the
exact second-order editing gradient are all computed here.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import InvalidInputError


def _blocks(flat: np.ndarray, sizes) -> list:
    """Each layer's (fan_in + 1) x fan_out view [W; b] of a flat parameter
    vector laid out per layer as W (fan_in x fan_out, row-major) then b. The
    one parameter layout: it holds the backbone, each head and their
    gradients."""
    blocks, pos = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        blocks.append(flat[pos : pos + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out))
        pos += (fan_in + 1) * fan_out
    return blocks


def _layers(flat: np.ndarray, sizes) -> list:
    """(W, b) views of each layer's ``_blocks`` view."""
    return [(block[:-1], block[-1]) for block in _blocks(flat, sizes)]


def flat_size(sizes) -> int:
    """The length of the flat parameter vector of layers of widths ``sizes``."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


def _seeded_layers(rng, sizes) -> np.ndarray:
    """A flat parameter vector with each layer uniform in +-1/sqrt(fan_in)."""
    flat = np.empty(flat_size(sizes))
    for W, b in _layers(flat, sizes):
        bound = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return flat


class Network:
    """Dense backbone with dynamically added task heads.

    ``layer_sizes`` gives the backbone widths, e.g. (32, 64, 16): input 32,
    one hidden layer of 64, feature dimension 16. Every backbone layer is
    followed by tanh; heads are linear. The backbone is the flat vector
    ``theta`` and each head the flat vector ``heads[task_id]``; ``backbone``
    and ``head(task_id)`` are ``(W, b)`` views of them, so every update
    writes in place.
    """

    def __init__(self, layer_sizes, seed: int = 0):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidInputError("layer_sizes needs >= 2 positive widths")
        self.layer_sizes = tuple(sizes)
        self.theta = _seeded_layers(np.random.default_rng(seed), sizes)
        self.backbone = _layers(self.theta, sizes)
        self.heads: dict[int, np.ndarray] = {}
        self._head_views: dict[int, tuple] = {}

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def feature_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def backbone_dim(self) -> int:
        return self.theta.size

    def head_classes(self, task_id: int) -> int:
        return self.heads[task_id].size // (self.feature_dim + 1)

    def head(self, task_id: int):
        """(W, b) views of one head's flat parameters, built once per flat
        vector: a cached pair is rebuilt when ``heads[task_id]`` is replaced
        (or copied, which leaves W owning its data)."""
        flat = self.heads[task_id]
        views = self._head_views.get(task_id)
        if views is None or views[0].base is not flat:
            views = self._head_views[task_id] = _layers(
                flat, (self.feature_dim, self.head_classes(task_id)))[0]
        return views

    # no caller in src, but perfbench/tracing.py SITES patches Network.set_backbone_flat
    def set_backbone_flat(self, flat: np.ndarray) -> None:
        if flat.shape != self.theta.shape:
            raise InvalidInputError(
                f"expected {self.backbone_dim} backbone parameters, got {flat.shape}"
            )
        self.theta[...] = flat


def add_head(net: Network, task_id: int, num_classes: int, seed: int) -> None:
    """Create a seeded linear head for a new task; existing parameters are
    left untouched."""
    if task_id in net.heads:
        raise InvalidInputError(f"task {task_id} already has a head")
    if num_classes < 1:
        raise InvalidInputError("num_classes must be >= 1")
    rng = np.random.default_rng(seed)
    net.heads[task_id] = _seeded_layers(rng, (net.feature_dim, num_classes))


def _activations(net: Network, inputs: np.ndarray) -> list:
    """Inputs followed by every backbone layer's output; the last entry is
    the feature matrix."""
    if inputs.ndim != 2 or inputs.shape[1] != net.input_dim:
        raise InvalidInputError(
            f"inputs of shape {inputs.shape} are not rows of network input dim {net.input_dim}")
    activations = [inputs]
    for W, b in net.backbone:
        z = activations[-1] @ W
        z += b
        activations.append(np.tanh(z, out=z))
    return activations


def task_slices(task_ids) -> list:
    """``(task_id, slice)`` of each run of equal ids in a per-row id array
    sorted by task, so that every task's rows are one contiguous slice."""
    ids = np.asarray(task_ids)
    if ids.size == 0:
        return []
    bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), ids.size]
    firsts = ids[bounds[:-1]].tolist()
    if any(a > b for a, b in zip(firsts, firsts[1:])):  # sorted iff the runs ascend
        raise InvalidInputError("per-row task ids must be sorted by task, so that each "
                                "task's rows are contiguous")
    return [(t, slice(lo, hi)) for t, lo, hi in zip(firsts, bounds, bounds[1:])]


# A head's rows in a pass (a slice), its (W, b) views, stream and share of it.
_Group = namedtuple("_Group", "task_id rows W b stream weight")
_Pass = namedtuple("_Pass", "activations groups probs dlogits logp sizes grads dzs slopes")


def _stack(streams: list) -> tuple:
    """The streams' rows and labels stacked in order, each head's ``(task_id,
    slice, stream, weight)`` in the stack and each stream's ``(lo, hi)``:
    ``_pass``'s arguments. Looks up no head."""
    routed, spans, lo = [], [], 0
    for s, (inputs, labels, task_ids) in enumerate(streams):
        n = len(labels)
        if n == 0:
            raise InvalidInputError(f"stream {s} has no rows")
        if len(inputs) != n:
            raise InvalidInputError(f"stream {s} has {len(inputs)} input rows for {n} labels")
        if np.ndim(task_ids) == 0:
            pairs = [(int(task_ids), slice(0, n))]
        elif len(task_ids) == n:
            pairs = task_slices(task_ids)
        else:
            raise InvalidInputError(f"{len(task_ids)} task ids for {n} rows")
        routed += [(task_id, slice(lo + rows.start, lo + rows.stop), s,
                    (rows.stop - rows.start) / n) for task_id, rows in pairs]
        spans.append((lo, lo + n))
        lo += n
    inputs = np.concatenate([x for x, *_ in streams])
    return inputs, np.concatenate([y for _, y, *_ in streams]), routed, spans


def _route(net: Network, labels: np.ndarray, routed) -> list:
    """A pass's head groups as ``_Group``s. ``routed`` tiles the rows in
    order: ``_stack``'s groups, or an editing batch's ``(task_id, slice)``
    pairs, each a stream of its own at weight 1. Every task needs
    a head that serves one group only, and every label must fit its head:
    one per-group max and one min."""
    groups = []
    for s, (task_id, rows, *share) in enumerate(routed):
        if task_id not in net.heads:
            raise InvalidInputError(f"no head for task {task_id}")
        if any(g.task_id == task_id for g in groups):
            raise InvalidInputError(f"task {task_id}'s head serves more than one stream")
        groups.append(_Group(task_id, rows, *net.head(task_id), *(share or (s, 1.0))))
    if labels.size:
        tops = np.maximum.reduceat(labels, [g.rows.indices(labels.size)[0] for g in groups])
        if labels.min() < 0 or any(top >= g.W.shape[1] for top, g in zip(tops.tolist(), groups)):
            raise InvalidInputError("label out of range for the task head")
    return groups


def _head_stage(feats: np.ndarray, labels: np.ndarray, groups) -> tuple:
    """Softmax cross-entropy of every row under its group's head, in one N x C
    matrix (C the widest head's; a narrower head's extra columns are -inf).
    Returns probs, d(group mean loss)/d(logits), each label's log-prob and
    each row's group size (an N x 1 column)."""
    n = feats.shape[0]
    logits = np.full((n, max(g.W.shape[1] for g in groups)), -np.inf)
    sizes = np.empty(n)
    for g in groups:
        group_feats = feats[g.rows]
        logits[g.rows, : g.W.shape[1]] = group_feats @ g.W + g.b
        sizes[g.rows] = group_feats.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    total = expz.sum(axis=1, keepdims=True)
    probs = expz / total
    every = np.arange(n)
    dlogits = probs.copy()
    dlogits[every, labels] -= 1.0
    dlogits /= sizes[:, None]
    return probs, dlogits, shifted[every, labels] - np.log(total[:, 0]), sizes[:, None]


def _head_grad(feats: np.ndarray, dlogits: np.ndarray, g: _Group) -> np.ndarray:
    """Flat gradient of the group's mean loss w.r.t. its head."""
    d = dlogits[g.rows, : g.W.shape[1]]
    return np.concatenate([(feats[g.rows].T @ d).ravel(), d.sum(axis=0)])


def _feature_delta(feats: np.ndarray, dlogits: np.ndarray, groups, sign: float) -> np.ndarray:
    """``sign`` times d(stream loss)/d(features): each row's weighted dlogits
    through its head. A sign of -1 negates every later product and sum exactly."""
    delta = np.empty_like(feats)
    for g in groups:
        delta[g.rows] = (sign * g.weight * dlogits[g.rows, : g.W.shape[1]]) @ g.W.T
    return delta


def _backprop(net: Network, activations: list, delta: np.ndarray, spans) -> tuple:
    """Push d(loss)/d(features) back through the tanh layers in one chain of
    ``dz @ W.T`` over all rows, writing each layer's ``a.T @ dz`` over rows
    ``spans[s] = (lo, hi)`` into row s of a k x D array (none for no spans).
    Returns it, the dzs and each layer's tanh' 1 - a^2. Each tanh' is formed
    in its own array and each dz in delta's, so ``delta`` is overwritten."""
    grads = np.empty((len(spans), net.backbone_dim))
    views = [_layers(row, net.layer_sizes) for row in grads]
    dzs, slopes = [None] * len(net.backbone), [None] * len(net.backbone)
    for i in range(len(net.backbone) - 1, -1, -1):
        a_out = activations[i + 1]
        s = slopes[i] = np.multiply(a_out, a_out)
        np.subtract(1.0, s, out=s)  # tanh'
        dz = dzs[i] = np.multiply(delta, s, out=delta)
        for (lo, hi), grad in zip(spans, views):
            gW, gb = grad[i]
            np.matmul(activations[i][lo:hi].T, dz[lo:hi], out=gW)
            dz[lo:hi].sum(axis=0, out=gb)
        if i > 0:
            delta = dz @ net.backbone[i][0].T
    return grads, dzs, slopes


def features(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Backbone output for raw inputs (no head, no loss)."""
    return _activations(net, np.atleast_2d(np.asarray(inputs, dtype=np.float64)))[-1]


def head_logits(net: Network, feats: np.ndarray, task_id: int) -> np.ndarray:
    """Raw logits of one head on precomputed features; lets callers compare
    scores across heads without per-head softmax renormalization. The head
    comes from ``_route``, as a group with no labels."""
    g = _route(net, np.empty(0, dtype=np.int64), [(task_id, slice(None))])[0]
    return feats @ g.W + g.b


def _pass(net: Network, inputs, labels, routed, spans=(), negate: bool = False,
          head_step: float = 0.0) -> _Pass:
    """The one pass over rows grouped by head (``routed``, see ``_route``):
    one backbone forward, one head stage (rerun once every head has stepped
    by ``head_step`` times its weighted gradient, when positive) and one
    backward chain. Training streams come through ``_stack``, and each
    stream's backbone gradient over its ``spans`` row range, negated when
    ``negate``, fills its row of a k x D array; the editing passes give no
    spans and read the dzs through ``_edit_terms``. Returns a ``_Pass``:
    activations, ``_Group``s, probs, dlogits, log-probs, group sizes, that
    array, the dzs and each tanh'."""
    if len(inputs) != len(labels):
        raise InvalidInputError(f"{len(inputs)} input rows for {len(labels)} labels")
    groups = _route(net, labels, routed)
    activations = _activations(net, inputs)
    feats = activations[-1]
    probs, dlogits, logp, sizes = _head_stage(feats, labels, groups)
    if head_step > 0:
        for g in groups:  # g.W and g.b are views, so they see the step
            net.heads[g.task_id] -= head_step * (g.weight * _head_grad(feats, dlogits, g))
        probs, dlogits, logp, sizes = _head_stage(feats, labels, groups)
    delta = _feature_delta(feats, dlogits, groups, -1.0 if negate else 1.0)
    return _Pass(activations, groups, probs, dlogits, logp, sizes,
                 *_backprop(net, activations, delta, spans))


def stream_gradients(net: Network, streams, head_step: float = 0.0):
    """Every stream's backbone gradient from one ``_pass``.

    ``streams`` lists ``(inputs, labels, task_ids)``: one task id for the
    stream, or one per row sorted by task (see ``task_slices``). A head's
    n_g of n rows weigh n_g / n in the stream's mean loss. With
    ``head_step > 0`` every head first steps in place by ``head_step`` times
    its weighted gradient, and all results are read at the stepped heads; as
    all heads are read before any step, a head may serve one stream only.
    Returns the k x D negative backbone gradients, the gradient bundle's
    convention, and the losses."""
    p = _pass(net, *_stack(streams), negate=True, head_step=head_step)
    losses = [0.0] * len(p.grads)
    for g in p.groups:
        losses[g.stream] += g.weight * float(-p.logp[g.rows].mean())
    return p.grads, losses


def backward(net: Network, inputs, labels, task_ids, head_step: float = 0.0) -> tuple:
    """One stream's positive backbone gradient, mean loss and ``{task_id:
    weighted head gradient}``, read after the head step: a one-stream
    ``stream_gradients`` pass, not negated. ``task_ids`` is one task id or
    one per row sorted by task."""
    p = _pass(net, *_stack([(inputs, labels, task_ids)]), head_step=head_step)
    loss = sum(g.weight * float(-p.logp[g.rows].mean()) for g in p.groups)
    heads = {g.task_id: g.weight * _head_grad(p.activations[-1], p.dlogits, g)
             for g in p.groups}
    return p.grads[0], loss, heads


# Editing kernel rule, per layer: the factored form when
# N^2 (fan_in + fan_out) <= 8 (G - 1) fan_in fan_out, N the rows of the pass
# and G its task groups. The factored form's N x N Grams cost N^2 (fan_in +
# fan_out) flops each; the explicit form writes and rereads G fan_in x
# fan_out blocks where the factored one reads the layer's block of d once,
# and with one group its block is no dearer than the factored A D_W. A
# G-free rule, N (fan_in + fan_out) <= fan_in fan_out, loses at few groups:
# at 64 x 256 and N = 32 the factored objective is 1.9x slower at G = 1 and
# 1.4x at G = 2. Measured with OpenBLAS 0.3.31 on 1 thread, median us of
# CPU time for the objective and the tangent terms, explicit / factored, at
# (N, G) with N^2 (fan_in + fan_out) / ((G - 1) fan_in fan_out) in brackets:
#   64 x 256:  (16,2) [5] 185/200   (32,4) [6.7] 304/272  (32,3) [10] 274/292
#              (32,2) [20] 243/310  (64,7) [13] 602/632
#   256 x 64:  (16,2) [5] 165/154   (32,4) [6.7] 288/213  (32,3) [10] 282/257
#              (64,4) [27] 470/591
#   32 x 64:   (16,3) [6] 84/75  (16,2) [12] 60/74  (32,7) [8] 191/112  (64,4) [64] 140/199
#   784 x 100: (32,3) [5.8] 1350/1024  (64,7) [7.7] 1793/1341  (32,2) [12] 1380/1066
#              (64,2) [46] 1820/1801
def _factored(n: int, groups: int, fan_in: int, fan_out: int) -> bool:
    return n * n * (fan_in + fan_out) <= 8 * (groups - 1) * fan_in * fan_out


def _edit_terms(net: Network, p: _Pass, target_d, tangent: bool) -> tuple:
    """The editing objective sum_g ||U_g||^2, U_g = grad_theta L_g + d over
    the task groups of an editing pass, and with ``tangent`` each
    layer's (forward, backward) tangent terms: rows of group g get
    a_g dW_g + db_g and dz_g dW_g^T, (dW_g, db_g) the layer's blocks of U_g.

    Per layer, with A the activations in, Z the dzs, M the same-group mask
    and (D_W, d_b) the layer's blocks of d, group g's gradient block is
    a_g^T z_g (bias 1^T z_g), so the terms and the layer's part of the
    objective are
        forward   (M o (A A^T + 1)) Z + A D_W + d_b
        backward  (M o (Z Z^T)) A + Z D_W^T
        objective <Z, (M o (A A^T + 1)) Z> + 2 <Z, A D_W + d_b> + G ||(D_W, d_b)||^2
    computed as written (factored) or from each group's block a_g^T z_g + D_W,
    one group at a time (explicit), by the rule at ``_factored``. No k x D
    array is formed. The factored objective's rounding error is relative to
    the terms, not to their sum, which is small when every g_g is close to d."""
    d = np.asarray(target_d, dtype=np.float64)
    if d.shape != net.theta.shape:
        raise InvalidInputError(f"target direction must have backbone dimension {net.backbone_dim}")
    rows = [g.rows for g in p.groups]
    n, same = p.activations[0].shape[0], None
    objective, terms = 0.0, []
    for a, dz, layer in zip(p.activations, p.dzs, _blocks(d, net.layer_sizes)):
        dW, db = layer[:-1], layer[-1]
        fan_in, fan_out = dW.shape
        if _factored(n, len(rows), fan_in, fan_out):
            if same is None:
                ids = np.repeat(np.arange(len(rows)), [r.stop - r.start for r in rows])
                same = ids[:, None] == ids
            gram = a @ a.T
            gram += 1.0
            gram *= same
            fwd = gram @ dz
            shift = a @ dW
            shift += db
            objective += (float(np.vdot(dz, fwd)) + 2.0 * float(np.vdot(dz, shift))
                          + len(rows) * float(np.vdot(layer, layer)))
            bwd = None
            if tangent:
                fwd += shift
                gram = dz @ dz.T
                gram *= same
                bwd = gram @ a
                bwd += dz @ dW.T
        else:
            fwd = np.empty_like(dz) if tangent else None
            bwd = np.empty_like(a) if tangent else None
            block = np.empty_like(layer)  # one group's [dW_g; db_g] at a time
            block_W, block_b = block[:-1], block[-1]
            for r in rows:
                np.matmul(a[r].T, dz[r], out=block_W)
                dz[r].sum(axis=0, out=block_b)
                block += layer
                objective += float(np.vdot(block, block))
                if tangent:
                    np.matmul(a[r], block_W, out=fwd[r])
                    fwd[r] += block_b
                    np.matmul(dz[r], block_W.T, out=bwd[r])
        terms.append((fwd, bwd))
    return objective, terms


def editing_objective(net: Network, inputs, labels, groups, target_d) -> float:
    """The editing objective sum_g ||grad_theta L_g + d||^2 over the
    ``(task_id, slice)`` ``groups`` of the rows, from one ``_pass`` and its
    ``_edit_terms``."""
    return _edit_terms(net, _pass(net, inputs, labels, groups), target_d, False)[0]


# no caller in src, but perfbench/tracing.py SITES patches net.input_gradient
def input_gradient(net: Network, inputs, labels, groups):
    """Each row's gradient of its own ``(task_id, slice)`` group's mean loss,
    same shape as ``inputs``, and each group's mean loss: one ``_pass`` over
    the grouped rows."""
    p = _pass(net, inputs, labels, groups)
    losses = np.array([-p.logp[g.rows].mean() for g in p.groups])
    return p.dzs[0] @ net.backbone[0][0].T, losses


def _head_tangent(p: _Pass, Ra: np.ndarray) -> np.ndarray:
    """R(delta): the tangent of d(group mean loss)/d(features) through the
    fixed heads, given the feature tangents ``Ra``. Past a head's width both
    ``probs`` and Rs are 0, so the softmax part runs once over all rows; each
    group's matmuls read its own columns."""
    Rdelta, Rs = np.empty_like(Ra), np.zeros_like(p.probs)
    for g in p.groups:
        np.matmul(Ra[g.rows], g.W, out=Rs[g.rows, : g.W.shape[1]])
    Rp = p.probs * (Rs - (p.probs * Rs).sum(axis=1, keepdims=True))
    Rp /= p.sizes
    for g in p.groups:
        np.matmul(Rp[g.rows, : g.W.shape[1]], g.W.T, out=Rdelta[g.rows])
    return Rdelta


def edit_direction(net: Network, inputs, labels, groups, target_d):
    """Gradient of the editing objective w.r.t. every input row, and the
    objective sum_g ||grad_theta L_g + d||^2 at ``inputs``, from one ``_pass``.

    ``target_d`` is the combined update direction and ``-grad_theta L_g``
    the group's stored-convention gradient, so the objective is
    sum_g ||g_g - d||^2 = sum_g ||U_g||^2 with U_g = grad_theta L_g + d. The
    rows of group g get grad_x ||U_g||^2 = 2 R{grad_x L_g}(U_g): the exact
    derivative of the group's input gradient along U_g in parameter space,
    forward-over-reverse (Pearlmutter 1994). On top of the shared pass it
    costs one tangent forward and one tangent backward, whose U_g terms come
    from ``_edit_terms``; parameters are never touched.
    """
    p = _pass(net, inputs, labels, groups)
    objective, terms = _edit_terms(net, p, target_d, True)
    # tangent forward: Rz_l = Ra_{l-1} W_l + a_{l-1} dW_l + db_l, Ra_l = (1 - a_l^2) Rz_l
    Rzs = []
    for i, (W, _) in enumerate(net.backbone):
        Rz = terms[i][0] if i == 0 else Ra @ W + terms[i][0]
        Rzs.append(Rz)
        Ra = p.slopes[i] * Rz
    Rdelta = _head_tangent(p, Ra)
    # tangent backward: R(dz) = (1 - a^2) R(delta) - 2 a dz Rz, formed in Rdelta's
    # array; R(dz W^T) = R(dz) W^T + dz dW^T
    for i in range(len(net.backbone) - 1, -1, -1):
        Rdelta *= p.slopes[i]
        Rdelta -= 2.0 * p.activations[i + 1] * p.dzs[i] * Rzs[i]
        Rdelta = Rdelta @ net.backbone[i][0].T
        Rdelta += terms[i][1]
    Rdelta *= 2.0
    return Rdelta, objective


def apply_update(net: Network, backbone_direction: np.ndarray, step_gamma: float) -> None:
    """theta <- theta + gamma * d, in place."""
    d = np.asarray(backbone_direction, dtype=np.float64)
    if d.shape != net.theta.shape:
        raise InvalidInputError("backbone direction dimension mismatch")
    net.theta += step_gamma * d

