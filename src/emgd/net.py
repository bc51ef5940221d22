"""Minimal dense network: shared backbone plus per-task classifier heads.

Everything runs in float64 so finite-difference checks are meaningful. The
backbone maps inputs to a feature vector through tanh layers; each head is a
linear map from the feature space to its task's class logits, trained with
mean softmax cross-entropy. Parameter gradients, input gradients and the
second-order editing direction are all computed here.
"""

from __future__ import annotations

import json
import struct
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


def _uniform_init(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Network:
    """Dense backbone with dynamically added task heads.

    ``layer_sizes`` gives the backbone widths, e.g. (32, 64, 16): input 32,
    one hidden layer of 64, feature dimension 16. Every backbone layer is
    followed by tanh; heads are linear.
    """

    def __init__(self, layer_sizes, seed: int = 0):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise InvalidInputError("layer_sizes needs >= 2 positive widths")
        rng = np.random.default_rng(seed)
        self.layer_sizes = tuple(sizes)
        self.backbone = [
            (
                _uniform_init(rng, sizes[i], (sizes[i], sizes[i + 1])),
                _uniform_init(rng, sizes[i], (sizes[i + 1],)),
            )
            for i in range(len(sizes) - 1)
        ]
        self.heads: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def feature_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def backbone_dim(self) -> int:
        return sum(W.size + b.size for W, b in self.backbone)

    def head_classes(self, task_id: int) -> int:
        return self.heads[task_id][0].shape[1]

    def flatten_backbone(self) -> np.ndarray:
        return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in self.backbone])

    def set_backbone_flat(self, flat: np.ndarray) -> None:
        if flat.shape != (self.backbone_dim,):
            raise InvalidInputError(
                f"expected {self.backbone_dim} backbone parameters, got {flat.shape}"
            )
        pos = 0
        for i, (W, b) in enumerate(self.backbone):
            n = W.size
            newW = flat[pos : pos + n].reshape(W.shape)
            pos += n
            newb = flat[pos : pos + b.size].copy()
            pos += b.size
            self.backbone[i] = (newW, newb)

    def flatten_head(self, task_id: int) -> np.ndarray:
        W, b = self.heads[task_id]
        return np.concatenate([W.ravel(), b])

    def set_head_flat(self, task_id: int, flat: np.ndarray) -> None:
        W, b = self.heads[task_id]
        if flat.shape != (W.size + b.size,):
            raise InvalidInputError("head parameter count mismatch")
        self.heads[task_id] = (flat[: W.size].reshape(W.shape), flat[W.size :].copy())


def add_head(net: Network, task_id: int, num_classes: int, seed: int) -> None:
    """Create a seeded linear head for a new task; existing parameters are
    left untouched."""
    if task_id in net.heads:
        raise TaskExistsError(f"task {task_id} already has a head")
    if num_classes < 1:
        raise InvalidInputError("num_classes must be >= 1")
    rng = np.random.default_rng(seed)
    fan_in = net.feature_dim
    net.heads[task_id] = (
        _uniform_init(rng, fan_in, (fan_in, num_classes)),
        _uniform_init(rng, fan_in, (num_classes,)),
    )


def _activations(net: Network, inputs: np.ndarray) -> list:
    """Inputs followed by every backbone layer's output; the last entry is
    the feature matrix."""
    if inputs.shape[1] != net.input_dim:
        raise InvalidInputError(
            f"input dim {inputs.shape[1]} != network input dim {net.input_dim}"
        )
    activations = [inputs]
    for W, b in net.backbone:
        activations.append(np.tanh(activations[-1] @ W + b))
    return activations


def _head(net: Network, task_id: int, labels: np.ndarray):
    """The task's head parameters, after checking the labels fit it."""
    if task_id not in net.heads:
        raise UnknownTaskError(f"no head for task {task_id}")
    W_h, b_h = net.heads[task_id]
    if np.any(labels < 0) or np.any(labels >= W_h.shape[1]):
        raise InvalidInputError("label out of range for the task head")
    return W_h, b_h


def _softmax_loss(logits: np.ndarray, labels: np.ndarray):
    """Class probabilities and mean cross-entropy of one group of rows."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    logp = shifted - np.log(expz.sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(labels.size), labels].mean())
    return probs, loss


def _dlogits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(logits)."""
    dlogits = probs.copy()
    dlogits[np.arange(labels.size), labels] -= 1.0
    dlogits /= labels.size
    return dlogits


def _head_pass(feats: np.ndarray, labels: np.ndarray, W_h: np.ndarray, b_h: np.ndarray):
    """dlogits, flat head gradient and mean loss of one head on features."""
    probs, loss = _softmax_loss(feats @ W_h + b_h, labels)
    dlogits = _dlogits(probs, labels)
    head_grad = np.concatenate([(feats.T @ dlogits).ravel(), dlogits.sum(axis=0)])
    return dlogits, head_grad, loss


def _backprop(net: Network, activations: list, delta: np.ndarray, want_input_grad: bool):
    """Push d(loss)/d(features) back through the tanh layers.

    Returns the flat backbone gradient, or with ``want_input_grad`` only
    d(loss)/d(inputs); neither mode computes what the other returns.
    """
    parts = []
    for i in range(len(net.backbone) - 1, -1, -1):
        a_out = activations[i + 1]
        dz = delta * (1.0 - a_out * a_out)  # tanh'
        if not want_input_grad:
            parts.append((activations[i].T @ dz, dz.sum(axis=0)))
        if want_input_grad or i > 0:
            delta = dz @ net.backbone[i][0].T
    if want_input_grad:
        return delta
    parts.reverse()
    return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in parts])


def forward(net: Network, batch: Batch):
    """Class probabilities and mean cross-entropy loss for one batch."""
    W_h, b_h = _head(net, batch.task_id, batch.labels)
    return _softmax_loss(_activations(net, batch.inputs)[-1] @ W_h + b_h, batch.labels)


def features(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Backbone output for raw inputs (no head, no loss)."""
    return _activations(net, np.atleast_2d(np.asarray(inputs, dtype=np.float64)))[-1]


def head_logits(net: Network, feats: np.ndarray, task_id: int) -> np.ndarray:
    """Raw logits of one head on precomputed features; lets callers compare
    scores across heads without per-head softmax renormalization."""
    if task_id not in net.heads:
        raise UnknownTaskError(f"no head for task {task_id}")
    W, b = net.heads[task_id]
    return feats @ W + b


def grouped_backward(net: Network, inputs, labels, groups, head_step: float = 0.0):
    """Gradients of the mean loss over all rows, each row scored by its
    group's head, from one backbone forward and one backbone backward.

    ``groups`` yields ``(task_id, rows)`` pairs, ``rows`` indexing
    ``inputs``; the groups must cover every row once. A group of n_g of the
    N rows enters with weight n_g / N. With ``head_step > 0`` each head
    first takes the step ``flat - head_step * weighted_grad`` in place; the
    head step leaves the features unchanged, so only the logits are
    recomputed, and the loss and all returned gradients are those after the
    step. Returns the flat backbone gradient, the loss and each task's
    weighted head gradient.
    """
    activations = _activations(net, inputs)
    feats = activations[-1]
    delta = np.empty_like(feats)
    head_grads: dict[int, np.ndarray] = {}
    loss = 0.0
    for task_id, rows in groups:
        group_labels = labels[rows]
        W_h, b_h = _head(net, task_id, group_labels)
        group_feats = feats[rows]
        weight = group_labels.size / labels.size
        dlogits, head_grad, group_loss = _head_pass(group_feats, group_labels, W_h, b_h)
        if head_step > 0:
            flat = net.flatten_head(task_id)
            net.set_head_flat(task_id, flat - head_step * (weight * head_grad))
            W_h, b_h = net.heads[task_id]
            dlogits, head_grad, group_loss = _head_pass(group_feats, group_labels, W_h, b_h)
        delta[rows] = (weight * dlogits) @ W_h.T
        head_grads[task_id] = weight * head_grad
        loss += weight * group_loss
    return _backprop(net, activations, delta, want_input_grad=False), float(loss), head_grads


def backward(net: Network, batch: Batch, head_step: float = 0.0) -> GradientReport:
    """Positive gradients of the mean batch loss for backbone and head.

    With ``head_step > 0`` the batch's head is first stepped in place by
    ``head_step`` times its gradient; the report then holds the loss and
    gradients at the stepped head. One backbone forward and one backbone
    backward either way.
    """
    backbone_grad, loss, head_grads = grouped_backward(
        net, batch.inputs, batch.labels, [(batch.task_id, slice(None))], head_step
    )
    return GradientReport(backbone_grad, head_grads[batch.task_id], loss)


def input_gradient(net: Network, batch: Batch) -> np.ndarray:
    """d(mean loss)/d(inputs), same shape as ``batch.inputs``."""
    W_h, b_h = _head(net, batch.task_id, batch.labels)
    activations = _activations(net, batch.inputs)
    probs, _ = _softmax_loss(activations[-1] @ W_h + b_h, batch.labels)
    delta = _dlogits(probs, batch.labels) @ W_h.T
    return _backprop(net, activations, delta, want_input_grad=True)


def directional_edit_gradient(input_grad_at, theta: np.ndarray, v: np.ndarray, eps: float):
    """Core of the editing direction: gradient of ||g(x) - d||^2 w.r.t. x.

    ``v = g(x) - d`` in the negative-gradient convention. Since
    dg/dx = -d2(loss)/dtheta dx, the chain rule gives
    grad_x ||v||^2 = 2 * (d2l/dtheta dx)^T (-v), evaluated by a central
    difference of the input gradient through a parameter perturbation along
    u = -v. ``input_grad_at(theta')`` must return the input gradient of the
    loss at parameters ``theta'``.
    """
    norm_v = float(np.linalg.norm(v))
    if norm_v < 1e-12:
        return None
    u = -v / norm_v
    plus = input_grad_at(theta + eps * u)
    minus = input_grad_at(theta - eps * u)
    return (plus - minus) * (norm_v / eps)


def edit_direction(net: Network, batch: Batch, target_d: np.ndarray, fd_eps: float = 1e-4):
    """Gradient of ||g(x) - d||^2 w.r.t. the batch inputs.

    ``g(x)`` is the negative backbone gradient of the batch's mean loss and
    ``target_d`` is the combined update direction, both in the stored
    convention. Returns the zero matrix when the batch gradient already
    matches the target. The second-order term is approximated by a
    directional central difference through the backbone parameters (one
    extra forward-backward pair), scaled relative to the parameter
    magnitude.
    """
    target_d = np.asarray(target_d, dtype=np.float64)
    if target_d.shape != (net.backbone_dim,):
        raise InvalidInputError(
            f"target direction must have backbone dimension {net.backbone_dim}"
        )
    if fd_eps <= 0:
        raise InvalidInputError("fd_eps must be positive")
    report = backward(net, batch)
    v = -report.backbone_grad - target_d
    theta = net.flatten_backbone()
    eps = fd_eps * (1.0 + float(np.sqrt(np.mean(theta * theta))))

    def input_grad_at(theta_prime):
        net.set_backbone_flat(theta_prime)
        return input_gradient(net, batch)

    try:
        delta = directional_edit_gradient(input_grad_at, theta, v, eps)
    finally:
        net.set_backbone_flat(theta)
    if delta is None:
        return np.zeros_like(batch.inputs)
    return delta


def apply_update(
    net: Network,
    backbone_direction: np.ndarray,
    step_gamma: float,
    head_updates: dict | None = None,
) -> None:
    """theta <- theta + gamma * d for the backbone; each listed head is
    decremented by its own step times its gradient."""
    d = np.asarray(backbone_direction, dtype=np.float64)
    if d.shape != (net.backbone_dim,):
        raise InvalidInputError("backbone direction dimension mismatch")
    net.set_backbone_flat(net.flatten_backbone() + step_gamma * d)
    for task_id, (grad, step) in (head_updates or {}).items():
        if task_id not in net.heads:
            raise UnknownTaskError(f"no head for task {task_id}")
        grad = np.asarray(grad, dtype=np.float64)
        flat = net.flatten_head(task_id)
        if grad.shape != flat.shape:
            raise InvalidInputError(f"head {task_id} gradient dimension mismatch")
        net.set_head_flat(task_id, flat - step * grad)


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
    """Write the network as one flat parameter blob plus a JSON header."""
    header = {
        "layer_sizes": list(net.layer_sizes),
        "heads": {str(t): int(net.head_classes(t)) for t in sorted(net.heads)},
    }
    parts = [net.flatten_backbone()]
    parts += [net.flatten_head(t) for t in sorted(net.heads)]
    write_blob(path, header, np.concatenate(parts))


def load_checkpoint(path) -> Network:
    header, values = read_blob(path)
    sizes = header_field(header, "layer_sizes", list)
    if not all(type(size) is int for size in sizes):
        raise FormatError("header field layer_sizes holds a non-integer", offset=12)
    heads = header_int_map(header, "heads")
    net = Network(sizes, seed=0)
    expected = net.backbone_dim
    for t in sorted(heads):
        expected += (net.feature_dim + 1) * heads[t]
    if values.shape != (expected,):
        raise FormatError(
            f"parameter count {values.size} != expected {expected}", offset=12
        )
    pos = net.backbone_dim
    net.set_backbone_flat(values[:pos].copy())
    for t in sorted(heads):
        add_head(net, t, heads[t], seed=0)
        n = (net.feature_dim + 1) * heads[t]
        net.set_head_flat(t, values[pos : pos + n].copy())
        pos += n
    return net
