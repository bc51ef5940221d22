"""Parallel-split task streams: label sets, timelines, batching and loaders.

A run is described by a list of task specs (each owning a train and test
partition of some dataset restricted to its label set) and a timeline of
integer access windows (s_t, e_t), one tick per optimization step. Tasks are
accessed in order and the timeline never has a dead tick, so serial
continual learning falls out as the degenerate case s_t = e_{t-1} + 1.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    FormatError,
    InvalidInputError,
    StreamEnd,
    load_json_object,
    read_field,
    section,
)
from .net import Batch

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def substream(seed: int, *names) -> np.random.Generator:
    """Named random substream so components replay independently."""
    material = [int(seed) & 0xFFFFFFFF]
    for name in names:
        if isinstance(name, str):
            material.extend(name.encode("utf-8"))
        else:
            material.append(int(name) & 0xFFFFFFFF)
    return np.random.default_rng(material)


def derive_seed(seed: int, *names) -> int:
    """Stable integer seed derived from a named substream."""
    return int(substream(seed, *names).integers(0, 2**63 - 1))


@dataclass
class Dataset:
    """Train and test inputs in [0, 1] with integer global class labels."""

    train_inputs: np.ndarray
    train_labels: np.ndarray
    test_inputs: np.ndarray
    test_labels: np.ndarray

    def __post_init__(self):
        self.train_inputs = np.atleast_2d(np.asarray(self.train_inputs, dtype=np.float64))
        self.test_inputs = np.atleast_2d(np.asarray(self.test_inputs, dtype=np.float64))
        self.train_labels = np.asarray(self.train_labels, dtype=np.int64)
        self.test_labels = np.asarray(self.test_labels, dtype=np.int64)
        if self.train_inputs.shape[0] != self.train_labels.shape[0]:
            raise InvalidInputError("train inputs/labels count mismatch")
        if self.test_inputs.shape[0] != self.test_labels.shape[0]:
            raise InvalidInputError("test inputs/labels count mismatch")
        if self.test_inputs.shape[1] != self.train_inputs.shape[1]:
            raise InvalidInputError(f"test inputs have width {self.test_inputs.shape[1]}, "
                                    f"train inputs width {self.train_inputs.shape[1]}")

    @property
    def num_classes(self) -> int:
        if self.train_labels.size == 0:
            return 0
        return int(self.train_labels.max()) + 1

    @property
    def input_dim(self) -> int:
        return self.train_inputs.shape[1]


@dataclass
class TaskTimeline:
    """Sorted (task_id, start_tick, end_tick) access windows."""

    entries: list

    def __post_init__(self):
        self.entries = [(int(t), int(s), int(e)) for t, s, e in self.entries]
        self.validate()

    def validate(self) -> None:
        if not self.entries:
            raise InvalidInputError("timeline must contain at least one task")
        prev_start = None
        max_end = None
        for t, s, e in self.entries:
            if s > e:
                raise InvalidInputError(f"task {t}: start {s} > end {e}")
            if prev_start is not None:
                if not (prev_start <= s <= 1 + max_end):
                    raise InvalidInputError(
                        f"task {t}: start {s} outside [{prev_start}, {1 + max_end}]"
                    )
            prev_start = s
            max_end = e if max_end is None else max(max_end, e)
        # the ordering constraint already forbids dead ticks; check directly
        covered = np.zeros(self.final_tick - self.first_tick + 1, dtype=bool)
        for _, s, e in self.entries:
            covered[s - self.first_tick : e - self.first_tick + 1] = True
        if not covered.all():
            raise InvalidInputError("timeline has ticks with no active stream")

    @property
    def first_tick(self) -> int:
        return min(s for _, s, _ in self.entries)

    @property
    def final_tick(self) -> int:
        return max(e for _, _, e in self.entries)

    def window(self, task_id: int):
        for t, s, e in self.entries:
            if t == task_id:
                return s, e
        raise InvalidInputError(f"task {task_id} not on the timeline")

    def finish_ticks(self) -> dict:
        return {t: e for t, _, e in self.entries}


@dataclass
class TaskSpec:
    """One task's label set and its train/test partitions (global labels)."""

    task_id: int
    label_set: tuple
    train_inputs: np.ndarray
    train_labels: np.ndarray
    test_inputs: np.ndarray
    test_labels: np.ndarray

    def __post_init__(self):
        self.label_set = tuple(int(c) for c in self.label_set)
        if len(set(self.label_set)) != len(self.label_set):
            raise InvalidInputError("label set contains duplicates")
        self._local = {c: i for i, c in enumerate(self.label_set)}
        self.train_local = self.to_local(self.train_labels)
        self.test_local = self.to_local(self.test_labels)

    @property
    def class_count(self) -> int:
        return len(self.label_set)

    @property
    def train_size(self) -> int:
        return self.train_inputs.shape[0]

    def to_local(self, global_labels: np.ndarray) -> np.ndarray:
        """Each global label's index in ``label_set``."""
        try:
            return np.array([self._local[c] for c in np.asarray(global_labels).tolist()],
                            dtype=np.int64)
        except KeyError as err:
            raise InvalidInputError(f"label {err.args[0]} is not in task {self.task_id}'s "
                                    f"label set {list(self.label_set)}") from None


def _draw_centers(rng, classes: int, dim: int, min_gap: float) -> np.ndarray:
    # rejection-sample until all pairwise distances reach the separation bound
    for _ in range(200):
        centers = rng.uniform(0.25, 0.75, size=(classes, dim))
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= min_gap:
            return centers
    raise ConfigError(
        f"could not place {classes} centers {min_gap:.3f} apart in dim {dim}"
    )


def _blob_samples(rng, centers, per_class, noise_sigma):
    xs, ys = [], []
    for c, center in enumerate(centers):
        pts = center + noise_sigma * rng.standard_normal((per_class, centers.shape[1]))
        xs.append(np.clip(pts, 0.0, 1.0))
        ys.append(np.full(per_class, c, dtype=np.int64))
    return np.vstack(xs), np.concatenate(ys)


def synthetic_dataset(num_classes: int, input_dim: int, samples_per_class: int,
                      test_per_class: int, noise_sigma: float, seed: int) -> Dataset:
    """Deterministic Gaussian-blob dataset over ``num_classes`` global classes.

    Centers are drawn at least 4 * noise_sigma apart, so the classes stay
    Bayes-separable; samples are clipped into [0, 1].
    """
    counts = {"num_classes": num_classes, "input_dim": input_dim,
              "samples_per_class": samples_per_class, "test_per_class": test_per_class}
    for name, count in counts.items():
        if count < 1:
            raise ConfigError(f"dataset.synthetic.{name} must be >= 1, got {count!r}")
    if not 0 <= noise_sigma < math.inf:
        raise ConfigError(
            f"dataset.synthetic.noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    centers = _draw_centers(
        substream(seed, "centers"), num_classes, input_dim, 4.0 * noise_sigma
    )
    train_x, train_y = _blob_samples(
        substream(seed, "train"), centers, samples_per_class, noise_sigma
    )
    test_x, test_y = _blob_samples(
        substream(seed, "test"), centers, test_per_class, noise_sigma
    )
    return Dataset(train_x, train_y, test_x, test_y)


def _check_steps(batch_size: int, epochs: int, where: str = "") -> None:
    """ConfigError naming ``where`` + each of batch_size and epochs below 1."""
    low = [f"{where}{name} {value!r}" for name, value in
           (("batch_size", batch_size), ("epochs", epochs)) if value < 1]
    if low:
        raise ConfigError(f"batch_size and epochs must be >= 1, got {', '.join(low)}")


def _task_spec(dataset: Dataset, task_id: int, labels: tuple, where: str) -> TaskSpec:
    """The task's train and test rows of ``dataset``; ``where`` names the
    label set when no training row carries one of its labels."""
    train_mask = np.isin(dataset.train_labels, labels)
    if not train_mask.any():
        raise ConfigError(f"{where} {list(labels)} has no training data")
    test_mask = np.isin(dataset.test_labels, labels)
    return TaskSpec(task_id, labels, dataset.train_inputs[train_mask],
                    dataset.train_labels[train_mask], dataset.test_inputs[test_mask],
                    dataset.test_labels[test_mask])


def task_duration(train_size: int, batch_size: int, epochs: int) -> int:
    # one tick per optimization step; the final short batch still costs a tick
    _check_steps(batch_size, epochs)
    return max(1, epochs * math.ceil(train_size / batch_size))


def build_parallel_split(
    dataset: Dataset,
    num_tasks: int,
    label_bounds=(2, 15),
    seed: int = 1234,
    overlap_fraction: float = 0.0,
    batch_size: int = 128,
    epochs: int = 1,
    serial: bool = False,
):
    """Random label sets and a random timeline over ``dataset``.

    Label sets are disjoint unless ``overlap_fraction`` > 0, in which case
    each task re-samples ceil(overlap * set size) labels from its
    predecessor. Task t starts uniformly inside the legal window
    [s_{t-1}, 1 + max previous end]; ``serial`` collapses that to
    back-to-back scheduling. Identical inputs reproduce identical splits.
    Range errors name the ``split`` config field that feeds each argument.
    """
    if num_tasks < 1:
        raise ConfigError(f"split.num_tasks must be >= 1, got {num_tasks!r}")
    if len(label_bounds) != 2 or not 1 <= label_bounds[0] <= label_bounds[1]:
        raise ConfigError(
            f"split.label_bounds must be [lo, hi] with 1 <= lo <= hi, got {label_bounds!r}")
    lo, hi = int(label_bounds[0]), int(label_bounds[1])
    if not (0.0 <= overlap_fraction < 1.0):
        raise ConfigError(f"split.overlap must lie in [0, 1), got {overlap_fraction!r}")
    _check_steps(batch_size, epochs, "split.")
    num_classes = dataset.num_classes
    rng = substream(seed, "split")

    sizes = [int(rng.integers(lo, hi + 1)) for _ in range(num_tasks)]
    overlaps = [0] + [
        min(math.ceil(overlap_fraction * sizes[t]), sizes[t - 1], sizes[t] - 1)
        if overlap_fraction > 0
        else 0
        for t in range(1, num_tasks)
    ]
    fresh_needed = sum(sizes) - sum(overlaps)
    if fresh_needed > num_classes:
        raise ConfigError(
            f"label bounds need {fresh_needed} distinct classes, dataset has {num_classes}"
        )

    pool = list(rng.permutation(num_classes))
    label_sets = []
    cursor = 0
    for t in range(num_tasks):
        take = sizes[t] - overlaps[t]
        fresh = pool[cursor : cursor + take]
        cursor += take
        shared = []
        if overlaps[t]:
            prev = list(label_sets[-1])
            shared = list(rng.choice(prev, size=overlaps[t], replace=False))
        label_sets.append(tuple(sorted(int(c) for c in fresh + shared)))

    specs = [_task_spec(dataset, t, labels, f"task {t} label set")
             for t, labels in enumerate(label_sets, start=1)]

    rng_timeline = substream(seed, "timeline")
    entries = []
    start, max_end = 0, None
    for spec in specs:
        dur = task_duration(spec.train_size, batch_size, epochs)
        if max_end is None:
            s = 0
        elif serial:
            s = max_end + 1
        else:
            s = int(rng_timeline.integers(start, max_end + 2))
        e = s + dur - 1
        entries.append((spec.task_id, s, e))
        start = s
        max_end = e if max_end is None else max(max_end, e)
    return specs, TaskTimeline(entries)


def active_tasks(timeline: TaskTimeline, tick: int, any_finished: bool = True) -> set:
    """Task ids with open windows at ``tick``; includes the memory stream 0
    when a task has already finished (pass ``any_finished=False`` to
    suppress it, e.g. while the rehearsal buffer is still empty)."""
    if not (timeline.first_tick <= tick <= timeline.final_tick):
        raise InvalidInputError(
            f"tick {tick} outside [{timeline.first_tick}, {timeline.final_tick}]"
        )
    active = {t for t, s, e in timeline.entries if s <= tick <= e}
    if any_finished and any(e < tick for _, _, e in timeline.entries):
        active.add(0)
    return active


@dataclass
class TaskCursor:
    """Position in a seeded shuffle of one task's training samples."""

    spec: TaskSpec
    epochs: int
    seed: int
    epoch: int = 0
    pos: int = 0
    order: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.rng = substream(self.seed, "shuffle", self.spec.task_id)
        self.order = self.rng.permutation(self.spec.train_size)


def next_batch(spec: TaskSpec, batch_size: int, cursor: TaskCursor) -> Batch:
    """Sequential non-overlapping batches; labels remapped to [0, C_t).

    Raises StreamEnd once every sample has been served ``epochs`` times.
    """
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")
    if cursor.pos >= spec.train_size:
        cursor.epoch += 1
        if cursor.epoch >= cursor.epochs:
            raise StreamEnd(f"task {spec.task_id} exhausted")
        cursor.order = cursor.rng.permutation(spec.train_size)
        cursor.pos = 0
    idx = cursor.order[cursor.pos : cursor.pos + batch_size]
    cursor.pos += len(idx)
    return Batch(
        inputs=spec.train_inputs[idx],
        labels=spec.train_local[idx],
        task_id=spec.task_id,
    )


# --- IDX binary format ------------------------------------------------------


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as err:
        raise ConfigError(f"cannot read IDX file {path}: {err.strerror}") from None


def _read_be32(raw: bytes, offset: int, what: str) -> int:
    if len(raw) < offset + 4:
        raise FormatError(f"truncated file reading {what}", offset=len(raw))
    return struct.unpack(">I", raw[offset : offset + 4])[0]


def load_idx(images_path, labels_path):
    """Load an IDX image/label pair as ([0,1]-scaled rows, labels).

    Big-endian layout: u32 magic (0x00000803 images, 0x00000801 labels),
    dimension sizes as u32, then raw unsigned bytes, images flattened
    row-major.
    """
    raw = _read_bytes(images_path)
    magic = _read_be32(raw, 0, "image magic")
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}", offset=0)
    count = _read_be32(raw, 4, "image count")
    rows = _read_be32(raw, 8, "row count")
    cols = _read_be32(raw, 12, "column count")
    if rows * cols > np.iinfo(np.intp).max // 8:  # a float64 row must be addressable
        raise FormatError(f"image of {rows} x {cols} pixels is too large", offset=8)
    need = count * rows * cols
    if len(raw) < 16 + need:
        raise FormatError(
            f"image payload needs {need} bytes, found {len(raw) - 16}", offset=len(raw)
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, count=need, offset=16)
    images = (pixels.reshape(count, rows * cols) if count else
              np.zeros((0, rows * cols))).astype(np.float64) / 255.0

    raw_l = _read_bytes(labels_path)
    magic_l = _read_be32(raw_l, 0, "label magic")
    if magic_l != IDX_LABEL_MAGIC:
        raise FormatError(f"bad label magic 0x{magic_l:08x}", offset=0)
    count_l = _read_be32(raw_l, 4, "label count")
    if len(raw_l) < 8 + count_l:
        raise FormatError(
            f"label payload needs {count_l} bytes, found {len(raw_l) - 8}",
            offset=len(raw_l),
        )
    labels = np.frombuffer(raw_l, dtype=np.uint8, count=count_l, offset=8).astype(np.int64)
    if count != count_l:
        raise FormatError(
            f"image count {count} != label count {count_l}", offset=4
        )
    return images, labels


# --- split manifests --------------------------------------------------------


def split_manifest(specs, timeline: TaskTimeline, seed: int, batch_size: int,
                   epochs: int, dataset_info: dict | None = None) -> dict:
    """JSON-serializable description of a built split."""
    windows = timeline.finish_ticks()
    starts = {t: s for t, s, _ in timeline.entries}
    return {
        "seed": int(seed),
        "batch_size": int(batch_size),
        "epochs": int(epochs),
        "dataset": dataset_info or {},
        "tasks": [
            {
                "id": spec.task_id,
                "labels": list(spec.label_set),
                "s": starts[spec.task_id],
                "e": windows[spec.task_id],
            }
            for spec in specs
        ],
    }


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def read_manifest(path) -> dict:
    return load_json_object(path, "split manifest")


_MANIFEST_TASK = {"id": int, "labels": list, "s": int, "e": int}


def specs_from_manifest(manifest: dict, dataset: Dataset):
    """Rebuild task specs and the timeline from a manifest over ``dataset``.

    Returns (specs, timeline, batch_size, epochs).
    """
    tasks = manifest.get("tasks")
    if not isinstance(tasks, list):
        raise ConfigError(f"field manifest.tasks must be a list of task objects, got {tasks!r}")
    specs, entries = [], []
    for i, entry in enumerate(tasks):
        task = section(entry, f"manifest.tasks[{i}]", _MANIFEST_TASK)
        specs.append(_task_spec(dataset, task["id"], tuple(task["labels"]),
                                f"manifest.tasks[{i}].labels"))
        entries.append((task["id"], task["s"], task["e"]))
    timeline = TaskTimeline(entries)
    batch_size = read_field(manifest, "batch_size", 128, "manifest")
    epochs = read_field(manifest, "epochs", 1, "manifest")
    _check_steps(batch_size, epochs, "manifest.")
    for spec in specs:
        s, e = timeline.window(spec.task_id)
        expect = task_duration(spec.train_size, batch_size, epochs)
        if e - s + 1 != expect:
            raise ConfigError(
                f"task {spec.task_id}: window [{s}, {e}] does not match "
                f"{expect} steps from {spec.train_size} samples"
            )
    return specs, timeline, batch_size, epochs
