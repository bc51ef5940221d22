"""Minimal dense network: shared backbone plus per-task classifier heads.

Everything runs in float64 so finite-difference checks are meaningful. The
backbone maps inputs to a feature vector through tanh layers; each head is a
linear map from the feature space to its task's class logits, trained with
mean softmax cross-entropy. Parameter gradients, input gradients and the
exact second-order editing gradient are all computed here.
"""

from __future__ import annotations

import json
import struct
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FormatError,
    InvalidInputError,
    TaskExistsError,
    UnknownTaskError,
)

CHECKPOINT_MAGIC = b"EMGD"
CHECKPOINT_VERSION = 1


@dataclass
class Batch:
    """Input rows in [0, 1] with integer class labels local to one task."""

    inputs: np.ndarray
    labels: np.ndarray
    task_id: int

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        self.labels = np.atleast_1d(np.asarray(self.labels, dtype=np.int64))
        if self.inputs.shape[0] < 1:
            raise InvalidInputError("batch must contain at least one sample")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise InvalidInputError("inputs and labels disagree on batch size")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class GradientReport:
    """Flat positive gradients of the mean batch loss (negation happens
    where gradient bundles are assembled)."""

    backbone_grad: np.ndarray
    head_grad: np.ndarray
    loss: float


def _layers(flat: np.ndarray, sizes) -> list:
    """(W, b) views of a flat parameter vector laid out per layer as W
    (fan_in x fan_out, row-major) then b. The one parameter layout: it holds
    the backbone, each head, their gradients and the checkpoint payload."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        W = flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        layers.append((W, flat[pos : pos + fan_out]))
        pos += fan_out
    return layers


def _layout_size(sizes) -> int:
    """Length of the flat vector ``_layers`` reads for these widths."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


def _seeded_layers(rng, sizes) -> np.ndarray:
    """A flat parameter vector with each layer uniform in +-1/sqrt(fan_in)."""
    flat = np.empty(_layout_size(sizes))
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

    def flatten_backbone(self) -> np.ndarray:
        """A copy of ``theta``: a snapshot later updates leave alone."""
        return self.theta.copy()

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
        raise TaskExistsError(f"task {task_id} already has a head")
    if num_classes < 1:
        raise InvalidInputError("num_classes must be >= 1")
    rng = np.random.default_rng(seed)
    net.heads[task_id] = _seeded_layers(rng, (net.feature_dim, num_classes))


def _activations(net: Network, inputs: np.ndarray) -> list:
    """Inputs followed by every backbone layer's output; the last entry is
    the feature matrix."""
    if inputs.shape[1] != net.input_dim:
        raise InvalidInputError(
            f"input dim {inputs.shape[1]} != network input dim {net.input_dim}"
        )
    activations = [inputs]
    for W, b in net.backbone:
        z = activations[-1] @ W
        z += b
        activations.append(np.tanh(z, out=z))
    return activations


def _head(net: Network, task_id: int, labels: np.ndarray):
    """The task's head parameters, after checking the labels fit it."""
    if task_id not in net.heads:
        raise UnknownTaskError(f"no head for task {task_id}")
    W_h, b_h = net.head(task_id)
    if labels.size and (labels.min() < 0 or labels.max() >= W_h.shape[1]):
        raise InvalidInputError("label out of range for the task head")
    return W_h, b_h


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


# A head's rows in a pass (a slice), its (W, b) views, stream, share of it, step.
_Group = namedtuple("_Group", "task_id rows W b stream weight step")


def _stack(net: Network, streams: list) -> tuple:
    """The streams' rows stacked in order, each stream's ``(lo, hi)`` in the
    stack, and one group per head with its slice of the stack."""
    spans, groups, lo = [], [], 0
    for s, (_, labels, task_ids, head_step) in enumerate(streams):
        n = len(labels)
        if np.ndim(task_ids) == 0:
            routed = [(int(task_ids), slice(0, n))]
        elif len(task_ids) == n:
            routed = task_slices(task_ids)
        else:
            raise InvalidInputError(f"{len(task_ids)} task ids for {n} rows")
        for task_id, rows in routed:
            if any(g.task_id == task_id for g in groups):
                raise InvalidInputError(f"task {task_id}'s head serves more than one stream")
            W_h, b_h = _head(net, task_id, labels[rows])
            groups.append(_Group(task_id, slice(lo + rows.start, lo + rows.stop), W_h, b_h, s,
                                 (rows.stop - rows.start) / n, head_step))
        spans.append((lo, lo + n))
        lo += n
    inputs = np.concatenate([x for x, *_ in streams])
    return inputs, np.concatenate([y for _, y, *_ in streams]), spans, groups


def _head_stage(feats: np.ndarray, labels: np.ndarray, groups) -> tuple:
    """Softmax cross-entropy of every row under its group's head, in one N x C
    matrix (C the widest head's; a narrower head's extra columns are -inf).
    Returns probs, d(group mean loss)/d(logits) and each label's log-prob."""
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
    return probs, dlogits, shifted[every, labels] - np.log(total[:, 0])


def _head_grad(feats: np.ndarray, dlogits: np.ndarray, g: _Group) -> np.ndarray:
    """Flat gradient of the group's mean loss w.r.t. its head."""
    d = dlogits[g.rows, : g.W.shape[1]]
    return np.concatenate([(feats[g.rows].T @ d).ravel(), d.sum(axis=0)])


def _feature_delta(feats: np.ndarray, dlogits: np.ndarray, groups) -> np.ndarray:
    """d(stream loss)/d(features): each row's weighted dlogits through its head."""
    delta = np.empty_like(feats)
    for g in groups:
        delta[g.rows] = (g.weight * dlogits[g.rows, : g.W.shape[1]]) @ g.W.T
    return delta


def _backprop(net: Network, activations: list, delta: np.ndarray, spans) -> tuple:
    """Push d(loss)/d(features) back through the tanh layers in one chain of
    ``dz @ W.T`` over all rows, writing each layer's ``a.T @ dz`` over rows
    ``spans[s] = (lo, hi)`` into row s of a k x D array (none for no spans).
    Returns it and the dzs."""
    grads = np.empty((len(spans), net.backbone_dim))
    views = [_layers(row, net.layer_sizes) for row in grads]
    dzs = [None] * len(net.backbone)
    for i in range(len(net.backbone) - 1, -1, -1):
        a_out = activations[i + 1]
        dz = dzs[i] = delta * (1.0 - a_out * a_out)  # tanh'
        for (lo, hi), grad in zip(spans, views):
            gW, gb = grad[i]
            np.matmul(activations[i][lo:hi].T, dz[lo:hi], out=gW)
            dz[lo:hi].sum(axis=0, out=gb)
        if i > 0:
            delta = dz @ net.backbone[i][0].T
    return grads, dzs


def forward(net: Network, batch: Batch):
    """Class probabilities and mean cross-entropy loss for one batch."""
    inputs, labels, _, groups = _stack(net, [(batch.inputs, batch.labels, batch.task_id, 0.0)])
    probs, _, logp = _head_stage(_activations(net, inputs)[-1], labels, groups)
    return probs, float(-logp.mean())


def features(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Backbone output for raw inputs (no head, no loss)."""
    return _activations(net, np.atleast_2d(np.asarray(inputs, dtype=np.float64)))[-1]


def head_logits(net: Network, feats: np.ndarray, task_id: int) -> np.ndarray:
    """Raw logits of one head on precomputed features; lets callers compare
    scores across heads without per-head softmax renormalization."""
    if task_id not in net.heads:
        raise UnknownTaskError(f"no head for task {task_id}")
    W, b = net.head(task_id)
    return feats @ W + b


def stream_gradients(net: Network, streams):
    """Every stream's backbone gradient from one backbone forward, one head
    stage over all rows and one backward chain.

    ``streams`` lists ``(inputs, labels, task_ids, head_step)``: one task id
    for the stream, or one per row sorted by task (see ``task_slices``). A
    head's n_g of n rows weigh n_g / n in the stream's mean loss. With
    ``head_step > 0`` each head first steps in place by ``head_step`` times
    its weighted gradient, and all results are read at the stepped heads; as
    all heads are read before any step, a head may serve one stream only.
    Returns the k x D positive backbone gradients, the losses and the
    weighted head gradients."""
    inputs, labels, spans, groups = _stack(net, list(streams))
    activations = _activations(net, inputs)
    feats = activations[-1]
    _, dlogits, logp = _head_stage(feats, labels, groups)
    if any(g.step > 0 for g in groups):
        for g in groups:
            if g.step > 0:  # g.W and g.b are views, so they see the step
                net.heads[g.task_id] -= g.step * (g.weight * _head_grad(feats, dlogits, g))
        _, dlogits, logp = _head_stage(feats, labels, groups)
    losses, head_grads = [0.0] * len(spans), {}
    for g in groups:
        losses[g.stream] += g.weight * float(-logp[g.rows].mean())
        head_grads[g.task_id] = g.weight * _head_grad(feats, dlogits, g)
    grads, _ = _backprop(net, activations, _feature_delta(feats, dlogits, groups), spans)
    return grads, losses, head_grads


def backward(net: Network, batch: Batch, head_step: float = 0.0) -> GradientReport:
    """Positive gradients of the mean batch loss for backbone and head: a
    one-stream ``stream_gradients`` pass, read at the head after its step."""
    stream = (batch.inputs, batch.labels, batch.task_id, head_step)
    grads, losses, head_grads = stream_gradients(net, [stream])
    return GradientReport(grads[0], head_grads[batch.task_id], losses[0])


def _task_groups(net: Network, labels: np.ndarray, groups) -> list:
    """One ``_Group`` per ``(task_id, slice)``: each its own stream at weight 1,
    no head step."""
    return [_Group(task_id, rows, *_head(net, task_id, labels[rows]), j, 1.0, 0.0)
            for j, (task_id, rows) in enumerate(groups)]


def input_gradient(net: Network, inputs, labels, groups):
    """Each row's gradient of its own ``(task_id, slice)`` group's mean loss,
    same shape as ``inputs``, and each group's mean loss: one forward, one
    head stage and a backward chain with no parameter gradients."""
    groups = _task_groups(net, labels, list(groups))
    activations = _activations(net, inputs)
    feats = activations[-1]
    _, dlogits, logp = _head_stage(feats, labels, groups)
    _, dzs = _backprop(net, activations, _feature_delta(feats, dlogits, groups), [])
    return dzs[0] @ net.backbone[0][0].T, np.array([-logp[g.rows].mean() for g in groups])


def _edit_pass(net: Network, inputs, labels, groups, target_d):
    """``stream_gradients``' head stage and backward chain, each ``(task_id,
    slice)`` group its own stream, no head step; row j of ``U`` is group j's
    gradient plus ``target_d``. Returns the activations, the dzs, each
    group's (W_h, probs), ``U`` and the objective sum_j ||U_j||^2."""
    target_d = np.asarray(target_d, dtype=np.float64)
    if target_d.shape != (net.backbone_dim,):
        raise InvalidInputError(f"target direction must have backbone dimension {net.backbone_dim}")
    activations = _activations(net, inputs)
    feats = activations[-1]
    groups = _task_groups(net, labels, groups)
    probs, dlogits, _ = _head_stage(feats, labels, groups)
    spans = [g.rows.indices(labels.size)[:2] for g in groups]
    U, dzs = _backprop(net, activations, _feature_delta(feats, dlogits, groups), spans)
    U += target_d
    objective = sum(float(u @ u) for u in U)
    heads = [(g.W, probs[g.rows, : g.W.shape[1]]) for g in groups]
    return activations, dzs, heads, U, objective


def edit_objective(net: Network, inputs, labels, groups, target_d) -> float:
    """sum_g ||grad_theta L_g + d||^2 at ``inputs`` over ``(task_id, slice)``
    groups: one forward and one backward over all rows, no tangent pass."""
    return _edit_pass(net, inputs, labels, list(groups), target_d)[-1]


def edit_direction(net: Network, inputs, labels, groups, target_d):
    """Gradient of the editing objective w.r.t. every input row, and the
    objective at ``inputs`` (see ``edit_objective``).

    ``target_d`` is the combined update direction and ``-grad_theta L_g``
    the group's stored-convention gradient, so the objective is
    sum_g ||g_g - d||^2 = sum_g ||U_g||^2 with U_g = grad_theta L_g + d. The
    rows of group g get grad_x ||U_g||^2 = 2 R{grad_x L_g}(U_g): the exact
    derivative of the group's input gradient along U_g in parameter space,
    forward-over-reverse (Pearlmutter 1994). On top of the shared pass it
    costs one tangent forward and one tangent backward; parameters are
    never touched.
    """
    groups = list(groups)
    activations, dzs, heads, U, objective = _edit_pass(net, inputs, labels, groups, target_d)
    tangents = [_layers(row, net.layer_sizes) for row in U]
    # tangent forward: Rz_l = Ra_{l-1} W_l + a_{l-1} dW_l + db_l, Ra_l = (1 - a_l^2) Rz_l
    Rzs = []
    for i, (W, _) in enumerate(net.backbone):
        Rz = np.zeros_like(activations[i + 1]) if i == 0 else Ra @ W
        for (_, rows), tangent in zip(groups, tangents):
            dW, db = tangent[i]
            Rz[rows] += activations[i][rows] @ dW + db
        Rzs.append(Rz)
        a_out = activations[i + 1]
        Ra = (1.0 - a_out * a_out) * Rz
    # tangent of d(mean cross-entropy)/d(features) through the fixed head
    Rdelta = np.empty_like(Ra)
    for (_, rows), (W_h, probs) in zip(groups, heads):
        Rs = Ra[rows] @ W_h
        Rp = probs * (Rs - (probs * Rs).sum(axis=1, keepdims=True))
        Rdelta[rows] = (Rp / probs.shape[0]) @ W_h.T
    # tangent backward: R(dz) = (1 - a^2) R(delta) - 2 a dz Rz, R(dz W^T) = R(dz) W^T + dz dW^T
    for i in range(len(net.backbone) - 1, -1, -1):
        a_out = activations[i + 1]
        Rdz = (1.0 - a_out * a_out) * Rdelta - 2.0 * a_out * dzs[i] * Rzs[i]
        Rdelta = Rdz @ net.backbone[i][0].T
        for (_, rows), tangent in zip(groups, tangents):
            Rdelta[rows] += dzs[i][rows] @ tangent[i][0].T
    Rdelta *= 2.0
    return Rdelta, objective


def apply_update(net: Network, backbone_direction: np.ndarray, step_gamma: float) -> None:
    """theta <- theta + gamma * d, in place."""
    d = np.asarray(backbone_direction, dtype=np.float64)
    if d.shape != net.theta.shape:
        raise InvalidInputError("backbone direction dimension mismatch")
    net.theta += step_gamma * d


# --- checkpoint container -------------------------------------------------
#
# Layout: magic "EMGD" | u32 version | u32 header length | UTF-8 JSON header
# | little-endian float64 payload. The same container stores buffer
# snapshots, so the reader/writer pair is exposed.


def write_blob(path, header: dict, values: np.ndarray) -> None:
    payload = np.ascontiguousarray(values, dtype="<f8")
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(payload.tobytes())


def read_blob(path):
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}", offset=0)
    if len(raw) < 12:
        raise FormatError("truncated container", offset=len(raw))
    (version,) = struct.unpack("<I", raw[4:8])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    (hlen,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + hlen:
        raise FormatError("truncated header", offset=len(raw))
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"header is not UTF-8 JSON: {err}", offset=12) from None
    if not isinstance(header, dict):
        raise FormatError("header is not a JSON object", offset=12)
    payload = raw[12 + hlen :]
    whole = len(payload) - len(payload) % 8
    if whole != len(payload):
        raise FormatError(
            f"payload of {len(payload)} bytes is not whole float64 values",
            offset=12 + hlen + whole,
        )
    return header, np.frombuffer(payload, dtype="<f8")


def header_field(header, key: str, kind: type, where: str = ""):
    """``header[key]`` if it is a ``kind`` (a bool is no int), else FormatError."""
    value = header.get(key) if isinstance(header, dict) else None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"header field {where}{key} is missing or not {kind.__name__}",
                          offset=12)
    return value


def header_int_map(header: dict, key: str) -> dict:
    """``header[key]`` as a dict from integer keys to integers."""
    raw = header_field(header, key, dict)
    if not all(k.isdecimal() for k in raw):
        raise FormatError(f"header field {key} has a non-integer key", offset=12)
    return {int(k): header_field(raw, k, int, f"{key}.") for k in raw}


def save_checkpoint(net: Network, path) -> None:
    """Write ``theta`` then each head in task-id order as one flat blob, plus
    a JSON header with the widths and head class counts."""
    header = {
        "layer_sizes": list(net.layer_sizes),
        "heads": {str(t): int(net.head_classes(t)) for t in sorted(net.heads)},
    }
    heads = [net.heads[t] for t in sorted(net.heads)]
    write_blob(path, header, np.concatenate([net.theta, *heads]))


def load_checkpoint(path) -> Network:
    header, values = read_blob(path)
    sizes = header_field(header, "layer_sizes", list)
    if len(sizes) < 2 or not all(type(size) is int and size >= 1 for size in sizes):
        raise FormatError("header field layer_sizes needs >= 2 positive integers", offset=12)
    heads = header_int_map(header, "heads")
    for t in sorted(heads):
        if heads[t] < 1:
            raise FormatError(f"header field heads.{t} is {heads[t]}, needs >= 1", offset=12)
    # sized from the header alone, so a lying header allocates nothing
    counts = [_layout_size(sizes)] + [_layout_size((sizes[-1], heads[t])) for t in sorted(heads)]
    if values.size != sum(counts):
        raise FormatError(
            f"parameter count {values.size} != expected {sum(counts)}", offset=12
        )
    net = Network(sizes, seed=0)
    parts = np.split(values, np.cumsum(counts)[:-1])
    net.set_backbone_flat(parts[0])
    net.heads = {t: part.copy() for t, part in zip(sorted(heads), parts[1:])}
    return net
