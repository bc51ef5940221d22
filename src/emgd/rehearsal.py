"""Class-balanced rehearsal memory with gradient-guided editing.

Finished tasks live on as stored samples replayed through their original
heads (the memory stream, task id 0). Insertion is per-class reservoir
sampling, so each class keeps a uniform subsample of everything it has
streamed. Editing rewrites stored inputs, never labels or task ids: the
elastic variant pushes the memory batch gradient toward the current combined
direction, the loss-difference variant is kept as a comparison arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyMemoryError, FormatError, InvalidInputError
from .net import (
    Batch,
    Network,
    backward,  # unused here, but perfbench/tracing.py SITES patches rehearsal.backward
    edit_direction,
    edit_objective,
    header_field,
    header_int_map,
    input_gradient,
    stream_gradients,
    task_slices,
    write_blob,
    read_blob,
)


@dataclass
class EditConfig:
    """Step size and schedule for memory editing."""

    eta_edit: float = 0.05
    iterations: int = 1
    clamp: bool = True

    def __post_init__(self):
        # named by the run config fields that feed them
        if not (0.0 <= self.eta_edit <= 1.0):
            raise InvalidInputError(f"run.eta_edit must lie in [0, 1], got {self.eta_edit!r}")
        if self.iterations < 0:
            raise InvalidInputError(f"run.edit_iterations must be >= 0, got {self.iterations!r}")


@dataclass
class MemoryBatch:
    """Samples drawn from the buffer, sorted by task id so that each task's
    rows are one contiguous slice (see ``net.task_slices``)."""

    inputs: np.ndarray
    labels: np.ndarray
    task_ids: np.ndarray
    class_ids: np.ndarray
    slot_indices: np.ndarray

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


class MemoryBuffer:
    """Fixed per-class capacity store of finished-task samples.

    Slot i is row i of ``x`` with ``label[i]``, ``task_id[i]`` and
    ``class_id[i]``; slots are numbered in insertion order and a reservoir
    replacement rewrites a slot in place.
    """

    def __init__(self, capacity_per_class: int):
        if capacity_per_class < 1:
            raise InvalidInputError("capacity_per_class must be >= 1")
        self.capacity_per_class = int(capacity_per_class)
        self.x = np.empty((0, 0))
        self.label = np.empty(0, dtype=np.int64)
        self.task_id = np.empty(0, dtype=np.int64)
        self.class_id = np.empty(0, dtype=np.int64)
        self.seen_counts: dict[int, int] = {}
        self._by_class: dict[int, list[int]] = {}

    @property
    def occupancy(self) -> int:
        return self.label.size


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def insert(buffer: MemoryBuffer, batch: Batch, class_ids, seed_or_rng) -> None:
    """Stream one batch into the buffer with per-class reservoir sampling.

    ``class_ids`` gives each sample's global class (the batch labels are
    local head indices). While a class has free slots samples are appended;
    afterwards each new sample replaces a uniformly random stored sample of
    its class with probability capacity / seen_count. The draws are made
    sample by sample; the rows are then written at once, a slot drawn twice
    taking the later sample.
    """
    rng = _as_rng(seed_or_rng)
    class_ids = np.asarray(class_ids, dtype=np.int64)
    if class_ids.shape[0] != batch.size:
        raise InvalidInputError("class_ids must match the batch size")
    width = batch.inputs.shape[1]
    if buffer.occupancy and width != buffer.x.shape[1]:
        raise InvalidInputError(
            f"batch rows have width {width}, the stored rows width {buffer.x.shape[1]}")
    cap, end = buffer.capacity_per_class, buffer.occupancy
    writes: dict[int, int] = {}  # slot -> batch row
    for i, c in enumerate(class_ids.tolist()):
        seen = buffer.seen_counts.get(c, 0) + 1
        buffer.seen_counts[c] = seen
        existing = buffer._by_class.setdefault(c, [])
        if len(existing) < cap:
            existing.append(end)
            writes[end] = i
            end += 1
        elif rng.random() < cap / seen:
            writes[existing[int(rng.integers(len(existing)))]] = i
    if end > buffer.occupancy:  # append the new slots; the writes below fill them
        new = end - buffer.occupancy
        buffer.x = np.concatenate([buffer.x.reshape(-1, width), np.empty((new, width))])
        buffer.label, buffer.task_id, buffer.class_id = (
            np.concatenate([a, np.empty(new, dtype=np.int64)])
            for a in (buffer.label, buffer.task_id, buffer.class_id))
    slots = np.fromiter(writes, dtype=np.int64, count=len(writes))
    rows = np.fromiter(writes.values(), dtype=np.int64, count=len(writes))
    buffer.x[slots] = batch.inputs[rows]
    buffer.label[slots] = batch.labels[rows]
    buffer.task_id[slots] = batch.task_id
    buffer.class_id[slots] = class_ids[rows]


def sample_memory(buffer: MemoryBuffer, batch_size: int, seed_or_rng) -> MemoryBatch:
    """Uniform sample of stored slots (without replacement when possible),
    stably sorted by task id."""
    if buffer.occupancy == 0:
        raise EmptyMemoryError("rehearsal buffer is empty")
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")
    rng = _as_rng(seed_or_rng)
    replace = batch_size > buffer.occupancy
    picks = rng.choice(buffer.occupancy, size=batch_size, replace=replace)
    picks = picks[np.argsort(buffer.task_id[picks], kind="stable")]
    return MemoryBatch(
        inputs=buffer.x[picks],
        labels=buffer.label[picks],
        task_ids=buffer.task_id[picks],
        class_ids=buffer.class_id[picks],
        slot_indices=picks,
    )


def memory_gradient(net: Network, mem: MemoryBatch, head_step: float = 0.0):
    """Backbone gradient, loss and per-head gradients of the memory loss, the
    mean per-sample loss over the batch (so each task group weighs group
    size / batch size): a one-stream ``stream_gradients`` pass."""
    stream = (mem.inputs, mem.labels, mem.task_ids, head_step)
    grads, losses, head_grads = stream_gradients(net, [stream])
    return grads[0], losses[0], head_grads


def editing_objective(net: Network, inputs, mem: MemoryBatch, direction_d) -> float:
    """Sum over task groups of ||g_group(x) - d||^2 at the given inputs."""
    return edit_objective(net, inputs, mem.labels, task_slices(mem.task_ids), direction_d)


def _write_back(buffer: MemoryBuffer, mem: MemoryBatch, inputs, clamp: bool) -> None:
    if clamp:
        inputs = np.clip(inputs, 0.0, 1.0)
    # a slot sampled twice (replacement) takes its last row
    slots = mem.slot_indices
    last = slots.size - 1 - np.unique(slots[::-1], return_index=True)[1]
    buffer.x[slots[last]] = inputs[last]
    mem.inputs = inputs


def _edit_loop(buffer: MemoryBuffer, net: Network, mem: MemoryBatch, d: np.ndarray,
               cfg: EditConfig, step) -> float:
    """The editing loop both editors share. Each iteration moves the batch's
    rows by ``-eta_edit`` times ``step(inputs, labels, groups)``'s first
    result over its ``(task_id, slice)`` groups, then clamps; the edited rows
    are written back. Returns the editing objective before the edit: a
    step's second result on its first call, or else one ``edit_objective``
    pass once the loop is done."""
    groups = task_slices(mem.task_ids)
    inputs, labels = mem.inputs.copy(), mem.labels
    objective = None
    for _ in range(cfg.iterations if cfg.eta_edit > 0.0 else 0):
        delta, value = step(inputs, labels, groups)
        objective = value if objective is None else objective
        inputs -= cfg.eta_edit * delta
        if cfg.clamp:
            np.clip(inputs, 0.0, 1.0, out=inputs)
    if objective is None:
        objective = edit_objective(net, mem.inputs, labels, groups, d)
    _write_back(buffer, mem, inputs, cfg.clamp)
    return objective


def edit_memory_emgd(
    buffer: MemoryBuffer,
    net: Network,
    mem: MemoryBatch,
    direction_d,
    cfg: EditConfig,
) -> float:
    """Move sampled inputs down the gradient of ||g(x) - d||^2.

    Each task group is edited against the shared target direction; inputs
    are clamped back into [0, 1]. Labels, task ids and network parameters
    are never touched. Every edit iteration is one ``edit_direction`` pass
    over the batch. Returns the editing objective before the edit.
    """
    d = np.asarray(direction_d, dtype=np.float64)
    return _edit_loop(buffer, net, mem, d, cfg,
                      lambda inputs, labels, groups: edit_direction(net, inputs, labels, groups, d))


def edit_memory_gmed(
    buffer: MemoryBuffer,
    net: Network,
    mem: MemoryBatch,
    direction_d,
    cfg: EditConfig,
) -> float:
    """Loss-difference editing baseline.

    A look-ahead parameter set theta' = theta + eta * d (one virtual update)
    defines each task group's interference score (L(x, theta) - L(x, theta'))^2
    with L the group's mean loss; inputs step down its exact input gradient
    2 (L - L') (grad_x L - grad_x L'). Every edit iteration is two grouped
    ``input_gradient`` passes over the batch, one per parameter set. Returns
    the editing objective ||g(x) - d||^2 (see ``editing_objective``) before
    the edit.
    """
    d = np.asarray(direction_d, dtype=np.float64)
    if d.shape != (net.backbone_dim,):
        raise InvalidInputError("direction dimension mismatch")
    theta = net.flatten_backbone()
    ahead = theta + cfg.eta_edit * d

    def step(inputs, labels, groups):
        # the look-ahead first, so each step leaves the network at theta
        net.set_backbone_flat(ahead)
        gx_ahead, loss_ahead = input_gradient(net, inputs, labels, groups)
        net.set_backbone_flat(theta)
        delta, loss_now = input_gradient(net, inputs, labels, groups)
        delta -= gx_ahead
        for (_, rows), now, later in zip(groups, loss_now, loss_ahead):
            delta[rows] *= 2.0 * (now - later)
        return delta, None

    try:
        return _edit_loop(buffer, net, mem, d, cfg, step)
    finally:
        net.set_backbone_flat(theta)


def save_buffer_snapshot(buffer: MemoryBuffer, path) -> None:
    """Write slot inputs plus a JSON slot manifest in the checkpoint format."""
    header = {
        "kind": "memory-buffer",
        "capacity_per_class": buffer.capacity_per_class,
        "dim": buffer.x.shape[1] if buffer.occupancy else 0,
        "seen_counts": {str(c): n for c, n in sorted(buffer.seen_counts.items())},
        "slots": [
            {"task": t, "class": c, "label": label}
            for label, t, c in zip(buffer.label.tolist(), buffer.task_id.tolist(),
                                   buffer.class_id.tolist())
        ],
    }
    write_blob(path, header, buffer.x.ravel() if buffer.occupancy else np.zeros(0))


def _check_count(value: int, where: str) -> int:
    """A snapshot id or count; the buffer relies on none being negative."""
    if value < 0:
        raise FormatError(f"header field {where} is {value}, needs >= 0", offset=12)
    return value


def load_buffer_snapshot(path) -> MemoryBuffer:
    header, values = read_blob(path)
    if header.get("kind") != "memory-buffer":
        raise InvalidInputError(f"not a buffer snapshot: {path}")
    buffer = MemoryBuffer(header_field(header, "capacity_per_class", int))
    dim = header_field(header, "dim", int)
    if dim < 0:
        raise FormatError(f"snapshot dim {dim!r} is not a non-negative integer", offset=12)
    slots = header_field(header, "slots", list)
    expected = len(slots) * dim
    if values.size != expected:
        # read_blob guarantees whole float64s, so the payload ends the file
        payload_start = Path(path).stat().st_size - 8 * values.size
        raise FormatError(
            f"{values.size} stored values != {len(slots)} slots x dim {dim}",
            offset=payload_start + 8 * min(values.size, expected),
        )
    buffer.seen_counts = header_int_map(header, "seen_counts")
    for c, seen in buffer.seen_counts.items():
        _check_count(seen, f"seen_counts.{c}")
    meta = []
    for i, fields in enumerate(slots):
        meta.append([_check_count(header_field(fields, key, int, f"slots.{i}."),
                                  f"slots.{i}.{key}") for key in ("label", "task", "class")])
        cls = meta[-1][2]
        stored = buffer._by_class.setdefault(cls, [])
        stored.append(i)
        if len(stored) > buffer.capacity_per_class:  # insert keeps this bound
            raise FormatError(f"header field slots.{i}.class {cls} overfills capacity_per_class "
                              f"{buffer.capacity_per_class}", offset=12)
        if buffer.seen_counts.get(cls, -1) < len(stored):  # keeps insert's odds cap/seen <= 1
            raise FormatError(f"header field seen_counts.{cls} is missing or below the "
                              f"{len(stored)} stored slots of that class", offset=12)
    buffer.x = values.reshape(len(slots), dim).copy()
    columns = np.array(meta, dtype=np.int64).reshape(-1, 3).T.copy()
    buffer.label, buffer.task_id, buffer.class_id = columns
    return buffer
