"""Class-balanced rehearsal memory with gradient-guided editing.

Finished tasks live on as stored samples replayed through their original
heads (the memory stream, task id 0). Insertion is per-class reservoir
sampling, so each class keeps a uniform subsample of everything it has
streamed. Editing rewrites stored inputs, never labels or task ids: it
pushes the memory batch gradient toward the current combined direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError
from .net import (
    Network,
    backward,
    edit_direction,
    editing_objective,
    input_gradient,  # unused here, but perfbench/tracing.py SITES patches rehearsal.input_gradient
    task_slices,
)

if TYPE_CHECKING:
    from .streams import TaskSpec


@dataclass
class MemoryBatch:
    """Samples drawn from the buffer, sorted by task id so that each task's
    rows are one contiguous slice (see ``net.task_slices``)."""

    inputs: np.ndarray
    labels: np.ndarray
    task_ids: np.ndarray
    slot_indices: np.ndarray


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

    @property
    def occupancy(self) -> int:
        return self.label.size


def insert(buffer: MemoryBuffer, spec: TaskSpec, rng: np.random.Generator) -> None:
    """Stream a task's training partition into the buffer with per-class
    reservoir sampling.

    The partition's rows stream in ``spec.train_rows`` order, each under its
    global class. While a class has free slots samples are appended;
    afterwards each new sample replaces a uniformly random stored sample of
    its class with probability capacity / seen_count. The draws are made
    sample by sample; only the rows kept are then gathered from
    ``spec.dataset`` and written at once, a slot drawn twice taking the
    later sample.
    """
    width = spec.dataset.input_dim
    if buffer.occupancy and width != buffer.x.shape[1]:
        raise InvalidInputError(
            f"task {spec.task_id}'s rows have width {width}, the stored rows width "
            f"{buffer.x.shape[1]}")
    class_ids = spec.train_labels  # each partition row's global class
    cap, end = buffer.capacity_per_class, buffer.occupancy
    by_class: dict[int, list[int]] = {}  # class -> its slots, in slot order
    for slot, c in enumerate(buffer.class_id.tolist()):
        by_class.setdefault(c, []).append(slot)
    writes: dict[int, int] = {}  # slot -> partition row
    for i, c in enumerate(class_ids.tolist()):
        seen = buffer.seen_counts.get(c, 0) + 1
        buffer.seen_counts[c] = seen
        existing = by_class.setdefault(c, [])
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
    buffer.x[slots] = spec.dataset.train_inputs[spec.train_rows[rows]]
    buffer.label[slots] = spec.train_local[rows]
    buffer.task_id[slots] = spec.task_id
    buffer.class_id[slots] = class_ids[rows]


def sample_memory(buffer: MemoryBuffer, batch_size: int,
                  rng: np.random.Generator) -> MemoryBatch:
    """Uniform sample of stored slots (without replacement when possible),
    stably sorted by task id."""
    if buffer.occupancy == 0:
        raise InvalidInputError("rehearsal buffer is empty")
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")
    replace = batch_size > buffer.occupancy
    picks = rng.choice(buffer.occupancy, size=batch_size, replace=replace)
    picks = picks[np.argsort(buffer.task_id[picks], kind="stable")]
    return MemoryBatch(
        inputs=buffer.x[picks],
        labels=buffer.label[picks],
        task_ids=buffer.task_id[picks],
        slot_indices=picks,
    )


def memory_gradient(net: Network, mem: MemoryBatch, head_step: float = 0.0):
    """Backbone gradient, loss and per-head gradients of the memory loss, the
    mean per-sample loss over the batch (so each task group weighs group
    size / batch size): one ``net.backward`` pass over the batch."""
    return backward(net, mem.inputs, mem.labels, mem.task_ids, head_step)


def _write_back(buffer: MemoryBuffer, mem: MemoryBatch, inputs) -> None:
    """Store the edited rows in their slots; a slot sampled twice
    (replacement) takes its last row. ``mem`` keeps the rows as sampled."""
    slots = mem.slot_indices
    last = slots.size - 1 - np.unique(slots[::-1], return_index=True)[1]
    buffer.x[slots[last]] = inputs[last]


def edit_memory_emgd(
    buffer: MemoryBuffer,
    net: Network,
    mem: MemoryBatch,
    direction_d,
    eta_edit: float,
) -> tuple:
    """Move sampled inputs down the gradient of ||g(x) - d||^2 by a step of
    ``eta_edit``.

    Each task group is edited against the shared target direction. The step
    is one ``edit_direction`` pass over the batch's ``(task_id, slice)``
    groups; the moved rows are clamped into [0, 1] (the ``Dataset`` contract)
    and written back. Labels, task ids and network parameters are never
    touched. Returns the editing objective before the edit (from the step's
    pass) and after it (one ``editing_objective`` pass at the written-back
    rows).
    """
    d = np.asarray(direction_d, dtype=np.float64)
    groups = task_slices(mem.task_ids)
    delta, before = edit_direction(net, mem.inputs, mem.labels, groups, d)
    inputs = mem.inputs - eta_edit * delta
    np.clip(inputs, 0.0, 1.0, out=inputs)
    _write_back(buffer, mem, inputs)
    return before, editing_objective(net, inputs, mem.labels, groups, d)
