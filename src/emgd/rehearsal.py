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
    write_blob,
    read_blob,
)


@dataclass
class Slot:
    x: np.ndarray
    label: int
    task_id: int
    class_id: int


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
    """Samples drawn from the buffer; per-sample task routing for heads."""

    inputs: np.ndarray
    labels: np.ndarray
    task_ids: np.ndarray
    class_ids: np.ndarray
    slot_indices: np.ndarray

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


class MemoryBuffer:
    """Fixed per-class capacity store of finished-task samples."""

    def __init__(self, capacity_per_class: int):
        if capacity_per_class < 1:
            raise InvalidInputError("capacity_per_class must be >= 1")
        self.capacity_per_class = int(capacity_per_class)
        self.slots: list[Slot] = []
        self.seen_counts: dict[int, int] = {}
        self._by_class: dict[int, list[int]] = {}

    @property
    def occupancy(self) -> int:
        return len(self.slots)


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def insert(buffer: MemoryBuffer, batch: Batch, class_ids, seed_or_rng) -> None:
    """Stream one batch into the buffer with per-class reservoir sampling.

    ``class_ids`` gives each sample's global class (the batch labels are
    local head indices). While a class has free slots samples are appended;
    afterwards each new sample replaces a uniformly random stored sample of
    its class with probability capacity / seen_count.
    """
    rng = _as_rng(seed_or_rng)
    class_ids = np.asarray(class_ids, dtype=np.int64)
    if class_ids.shape[0] != batch.size:
        raise InvalidInputError("class_ids must match the batch size")
    cap = buffer.capacity_per_class
    for i in range(batch.size):
        c = int(class_ids[i])
        seen = buffer.seen_counts.get(c, 0) + 1
        buffer.seen_counts[c] = seen
        existing = buffer._by_class.setdefault(c, [])
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


def sample_memory(buffer: MemoryBuffer, batch_size: int, seed_or_rng) -> MemoryBatch:
    """Uniform sample of stored slots (without replacement when possible)."""
    if buffer.occupancy == 0:
        raise EmptyMemoryError("rehearsal buffer is empty")
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")
    rng = _as_rng(seed_or_rng)
    replace = batch_size > buffer.occupancy
    picks = rng.choice(buffer.occupancy, size=batch_size, replace=replace)
    slots = [buffer.slots[int(i)] for i in picks]
    return MemoryBatch(
        inputs=np.stack([s.x for s in slots]),
        labels=np.array([s.label for s in slots], dtype=np.int64),
        task_ids=np.array([s.task_id for s in slots], dtype=np.int64),
        class_ids=np.array([s.class_id for s in slots], dtype=np.int64),
        slot_indices=np.asarray(picks, dtype=np.int64),
    )


def memory_gradient(net: Network, mem: MemoryBatch, head_step: float = 0.0):
    """Backbone gradient, loss and per-head gradients of the memory loss, the
    mean per-sample loss over the batch (so each task group weighs group
    size / batch size): a one-stream ``stream_gradients`` pass."""
    stream = (mem.inputs, mem.labels, mem.task_ids, head_step)
    grads, losses, head_grads = stream_gradients(net, [stream])
    return grads[0], losses[0], head_grads


def _sorted_groups(task_ids: np.ndarray):
    """A stable order that sorts the rows by task id, and each task's
    ``(task_id, slice)`` of contiguous rows in that order."""
    order = np.argsort(task_ids, kind="stable")
    sorted_ids = task_ids[order]
    bounds = [0, *(np.flatnonzero(np.diff(sorted_ids)) + 1).tolist(), sorted_ids.size]
    return order, [(int(sorted_ids[lo]), slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def editing_objective(net: Network, inputs, mem: MemoryBatch, direction_d) -> float:
    """Sum over task groups of ||g_group(x) - d||^2 at the given inputs."""
    order, groups = _sorted_groups(mem.task_ids)
    return edit_objective(net, inputs[order], mem.labels[order], groups, direction_d)


def _write_back(buffer: MemoryBuffer, mem: MemoryBatch, inputs, clamp: bool) -> None:
    if clamp:
        inputs = np.clip(inputs, 0.0, 1.0)
    # a slot sampled twice (replacement) simply takes the last write
    for row, slot_idx in enumerate(mem.slot_indices):
        buffer.slots[int(slot_idx)].x = inputs[row].copy()
    mem.inputs = inputs


def _edit_loop(buffer: MemoryBuffer, net: Network, mem: MemoryBatch, d: np.ndarray,
               cfg: EditConfig, step) -> float:
    """The editing loop both editors share. The rows are sorted by task once;
    each iteration moves them by ``-eta_edit`` times ``step(inputs, labels,
    groups)``'s first result over ``(task_id, slice)`` groups, then clamps.
    The edited rows are unsorted and written back. Returns the editing
    objective before the edit: a step's second result on its first call, or
    else one ``editing_objective`` pass once the loop is done."""
    order, groups = _sorted_groups(mem.task_ids)
    inputs, labels = mem.inputs[order], mem.labels[order]
    objective = None
    for _ in range(cfg.iterations if cfg.eta_edit > 0.0 else 0):
        delta, value = step(inputs, labels, groups)
        objective = value if objective is None else objective
        inputs -= cfg.eta_edit * delta
        if cfg.clamp:
            np.clip(inputs, 0.0, 1.0, out=inputs)
    if objective is None:
        objective = editing_objective(net, mem.inputs, mem, d)
    edited = np.empty_like(inputs)
    edited[order] = inputs
    _write_back(buffer, mem, edited, cfg.clamp)
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
        "dim": int(buffer.slots[0].x.size) if buffer.slots else 0,
        "seen_counts": {str(c): n for c, n in sorted(buffer.seen_counts.items())},
        "slots": [
            {"task": s.task_id, "class": s.class_id, "label": s.label}
            for s in buffer.slots
        ],
    }
    values = (
        np.concatenate([s.x.ravel() for s in buffer.slots])
        if buffer.slots
        else np.zeros(0)
    )
    write_blob(path, header, values)


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
    for i, meta in enumerate(slots):
        label, task, cls = (_check_count(header_field(meta, key, int, f"slots.{i}."),
                                         f"slots.{i}.{key}")
                            for key in ("label", "task", "class"))
        x = values[i * dim : (i + 1) * dim].copy()
        buffer.slots.append(Slot(x, label, task, cls))
        stored = buffer._by_class.setdefault(cls, [])
        stored.append(i)
        if len(stored) > buffer.capacity_per_class:  # insert keeps this bound
            raise FormatError(f"header field slots.{i}.class {cls} overfills capacity_per_class "
                              f"{buffer.capacity_per_class}", offset=12)
        if buffer.seen_counts.get(cls, -1) < len(stored):  # keeps insert's odds cap/seen <= 1
            raise FormatError(f"header field seen_counts.{cls} is missing or below the "
                              f"{len(stored)} stored slots of that class", offset=12)
    return buffer
