"""Parallel-split task streams: label sets, timelines, batching and loaders.

A run is described by a list of task specs (each owning a train and test
partition of some dataset restricted to its label set) and a timeline of
integer access windows (s_t, e_t), one tick per optimization step on one
batch of the timeline's batch size. Tasks are accessed in order and the
timeline never has a dead tick, so serial continual learning falls out as the
degenerate case s_t = e_{t-1} + 1. A split is its manifest document:
``build_parallel_split`` draws one, and ``specs_from_manifest`` turns a built
or loaded one into specs and the timeline, whose windows hold the epochs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InvalidInputError, section

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
MAX_FLOAT64S = np.iinfo(np.intp).max // 8  # the float64 values one array can address
INT64_MAX = int(np.iinfo(np.int64).max)


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
    def input_dim(self) -> int:
        return self.train_inputs.shape[1]


@dataclass
class TaskTimeline:
    """Sorted (task_id, start_tick, end_tick) access windows, the size of the
    batch each open window serves per tick, and the first and final ticks."""

    entries: list
    batch_size: int
    first_tick: int = field(init=False)
    final_tick: int = field(init=False)

    def __post_init__(self):
        self.entries = [(int(t), int(s), int(e)) for t, s, e in self.entries]
        if not self.entries:
            raise InvalidInputError("timeline must contain at least one task")
        # the first window opens the run: each later start lies in [previous start, 1 + max end]
        self.first_tick = prev_start = self.entries[0][1]
        max_end, ids = prev_start - 1, set()
        for t, s, e in self.entries:
            if t < 1:
                raise InvalidInputError(f"task {t}: task ids must be >= 1 (0 is the memory stream)")
            if t in ids:
                raise InvalidInputError(f"task {t} appears twice on the timeline")
            ids.add(t)
            if s > e:
                raise InvalidInputError(f"task {t}: start {s} > end {e}")
            if not (prev_start <= s <= 1 + max_end):
                raise InvalidInputError(
                    f"task {t}: start {s} outside [{prev_start}, {1 + max_end}]")
            prev_start, max_end = s, max(max_end, e)
        self.final_tick = max_end


@dataclass
class TaskSpec:
    """One task's label set and the row indices of its train and test
    partitions in ``dataset``; the inputs stay in the dataset."""

    task_id: int
    label_set: tuple
    dataset: Dataset = field(repr=False)
    train_rows: np.ndarray
    test_rows: np.ndarray

    def __post_init__(self):
        self.label_set = tuple(int(c) for c in self.label_set)
        self._local = {c: i for i, c in enumerate(self.label_set)}
        self.train_local = self.to_local(self.train_labels)
        self.test_local = self.to_local(self.test_labels)

    @property
    def class_count(self) -> int:
        return len(self.label_set)

    @property
    def train_size(self) -> int:
        return self.train_rows.size

    # each read gathers the partition's rows out of the dataset afresh
    @property
    def train_labels(self) -> np.ndarray:
        return self.dataset.train_labels[self.train_rows]

    @property
    def test_inputs(self) -> np.ndarray:
        return self.dataset.test_inputs[self.test_rows]

    @property
    def test_labels(self) -> np.ndarray:
        return self.dataset.test_labels[self.test_rows]

    def to_local(self, global_labels: np.ndarray) -> np.ndarray:
        """Each global label's index in ``label_set``."""
        try:
            return np.array([self._local[c] for c in np.asarray(global_labels).tolist()],
                            dtype=np.int64)
        except KeyError as err:
            raise InvalidInputError(f"label {err.args[0]} is not in task {self.task_id}'s "
                                    f"label set {list(self.label_set)}") from None


def _draw_centers(rng, classes: int, dim: int, min_gap: float) -> np.ndarray:
    # rejection-sample until all pairwise distances reach the separation bound,
    # one center's distances to the later ones at a time
    for _ in range(200):
        centers = rng.uniform(0.25, 0.75, size=(classes, dim))
        for i in range(classes - 1):
            diff = centers[i] - centers[i + 1:]
            if np.sqrt((diff * diff).sum(axis=1)).min() < min_gap:
                break
        else:
            return centers
    raise ConfigError(
        f"could not place {classes} centers {min_gap:.3f} apart in dim {dim}"
    )


def _blob_samples(rng, centers, per_class, noise_sigma):
    classes, dim = centers.shape
    xs = np.empty((classes * per_class, dim))
    for c, center in enumerate(centers):
        pts = rng.standard_normal((per_class, dim))
        pts *= noise_sigma
        pts += center
        np.clip(pts, 0.0, 1.0, out=xs[c * per_class:(c + 1) * per_class])
    return xs, np.repeat(np.arange(classes, dtype=np.int64), per_class)


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
    rows = num_classes * max(samples_per_class, test_per_class)
    if rows * input_dim > MAX_FLOAT64S:
        raise ConfigError(f"dataset.synthetic: {rows} rows of input_dim {input_dim} are more "
                          "float64 values than one array can address")
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


def _check_steps(batch_size: int, epochs: int, where: str) -> None:
    """ConfigError naming ``where`` + each of batch_size and epochs below 1."""
    low = [f"{where}{name} {value!r}" for name, value in
           (("batch_size", batch_size), ("epochs", epochs)) if value < 1]
    if low:
        raise ConfigError(f"batch_size and epochs must be >= 1, got {', '.join(low)}")


def _task_spec(dataset: Dataset, task_id: int, labels: tuple, where: str) -> TaskSpec:
    """The task's train and test row indices in ``dataset``; ``where`` names
    the label set when it repeats a label, when one of its labels has no
    training row (its head column would be a phantom class), or when no test
    row carries any of its labels (the task would score an accuracy of nothing)."""
    seen = set()
    for c in labels:
        if c in seen:
            raise ConfigError(f"{where} {list(labels)} repeats label {c}")
        seen.add(c)
    train_rows = np.flatnonzero(np.isin(dataset.train_labels, labels))
    present = set(dataset.train_labels[train_rows].tolist())
    missing = [c for c in labels if c not in present]
    if missing:
        raise ConfigError(f"{where} {list(labels)} has no training data for label {missing[0]}")
    test_rows = np.flatnonzero(np.isin(dataset.test_labels, labels))
    if not test_rows.size:
        raise ConfigError(f"{where} {list(labels)} has no test data")
    return TaskSpec(task_id, labels, dataset, train_rows, test_rows)


def task_duration(train_size: int, batch_size: int, epochs: int) -> int:
    # one tick per optimization step; the final short batch still costs a tick.
    # Both callers have checked batch_size and epochs under their own names.
    return max(1, epochs * math.ceil(train_size / batch_size))


def build_parallel_split(dataset: Dataset, seed: int, *, num_tasks: int, label_bounds,
                         overlap: float, serial: bool, batch_size: int, epochs: int) -> dict:
    """The manifest of a random split of ``dataset``: ``seed``, ``batch_size``,
    ``epochs`` and ``tasks``, each task's ``id``, ``labels`` and window ``s``, ``e``.

    The keyword arguments are the fields of a config's ``split`` section, whose
    defaults the CLI holds. Label sets are disjoint unless ``overlap`` > 0, in
    which case each task re-samples ceil(overlap * set size) labels from its
    predecessor. Task t starts uniformly inside the legal window
    [s_{t-1}, 1 + max previous end]; ``serial`` collapses that to
    back-to-back scheduling. Identical inputs reproduce identical splits.
    Range errors name the ``split`` field.
    """
    if num_tasks < 1:
        raise ConfigError(f"split.num_tasks must be >= 1, got {num_tasks!r}")
    if len(label_bounds) != 2 or not 1 <= label_bounds[0] <= label_bounds[1] <= INT64_MAX:
        # the set sizes are drawn as int64
        raise ConfigError(f"split.label_bounds must be [lo, hi] with 1 <= lo <= hi <= {INT64_MAX}, "
                          f"got {label_bounds!r}")
    lo, hi = int(label_bounds[0]), int(label_bounds[1])
    if not (0.0 <= overlap < 1.0):
        raise ConfigError(f"split.overlap must lie in [0, 1), got {overlap!r}")
    _check_steps(batch_size, epochs, "split.")
    # only classes with training rows are drawn (np.unique would import numpy.ma, 1.7 MiB)
    classes = np.array(sorted(set(dataset.train_labels.tolist())), dtype=np.int64)
    if num_tasks > classes.size:  # each task takes a fresh class; checked before sizes are drawn
        raise ConfigError(f"split.num_tasks {num_tasks} needs as many distinct classes, "
                          f"dataset has {classes.size}")
    rng = substream(seed, "split")

    sizes = [int(rng.integers(lo, hi + 1)) for _ in range(num_tasks)]
    overlaps = [0] + [min(math.ceil(overlap * sizes[t]), sizes[t - 1], sizes[t] - 1)
                      for t in range(1, num_tasks)]
    fresh_needed = sum(sizes) - sum(overlaps)
    if fresh_needed > classes.size:
        raise ConfigError(
            f"label bounds need {fresh_needed} distinct classes, dataset has {classes.size}"
        )

    pool = list(rng.permutation(classes))
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

    # the specs check the label sets and size them; a run reads its own from the manifest
    train_sizes = [_task_spec(dataset, t, labels, f"task {t} label set").train_size
                   for t, labels in enumerate(label_sets, start=1)]
    durations = [task_duration(size, batch_size, epochs) for size in train_sizes]
    if sum(durations) > INT64_MAX:  # the windows' ticks are drawn as int64
        raise ConfigError(f"split.epochs {epochs} gives task windows of {sum(durations)} ticks "
                          "in all, past int64")
    rng_timeline = substream(seed, "timeline")
    tasks, s, max_end = [], 0, -1
    for t, (labels, dur) in enumerate(zip(label_sets, durations), start=1):
        if t > 1:  # the first task starts at tick 0 without a draw
            s = max_end + 1 if serial else int(rng_timeline.integers(s, max_end + 2))
        e = s + dur - 1
        tasks.append({"id": t, "labels": list(labels), "s": s, "e": e})
        max_end = max(max_end, e)
    return {"seed": int(seed), "batch_size": int(batch_size), "epochs": int(epochs),
            "tasks": tasks}


def active_tasks(timeline: TaskTimeline, tick: int) -> set:
    """Task ids with open windows at ``tick``."""
    if not (timeline.first_tick <= tick <= timeline.final_tick):
        raise InvalidInputError(
            f"tick {tick} outside [{timeline.first_tick}, {timeline.final_tick}]"
        )
    return {t for t, s, e in timeline.entries if s <= tick <= e}


@dataclass
class TaskCursor:
    """Position in a seeded shuffle of one task's training samples."""

    spec: TaskSpec
    seed: int
    pos: int = field(default=0, init=False)
    order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.rng = substream(self.seed, "shuffle", self.spec.task_id)
        self.order = self.rng.permutation(self.spec.train_size)


def next_batch(cursor: TaskCursor, batch_size: int) -> tuple:
    """The next batch of the cursor's task, ``(inputs, labels)``: sequential
    non-overlapping batches with labels remapped to [0, C_t). Each pass over
    the samples ends in a short batch when ``batch_size`` does not divide
    them, and the next pass serves a fresh shuffle; a task's window spans
    its epochs.
    """
    spec = cursor.spec
    if batch_size < 1:
        raise InvalidInputError("batch_size must be >= 1")
    if cursor.pos >= spec.train_size:
        cursor.order = cursor.rng.permutation(spec.train_size)
        cursor.pos = 0
    idx = cursor.order[cursor.pos : cursor.pos + batch_size]
    cursor.pos += len(idx)
    return spec.dataset.train_inputs[spec.train_rows[idx]], spec.train_local[idx]


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


def _check_payload(raw: bytes, header: int, need: int, what: str) -> None:
    """The file must hold exactly ``need`` bytes after its ``header``: a short
    file is cut, and a long one's header understates its contents."""
    found = len(raw) - header
    if found != need:
        gap = f"{need - found} short" if found < need else f"{found - need} extra"
        raise FormatError(f"{what} payload needs {need} bytes, found {found} ({gap})",
                          offset=header + min(found, need))


def load_idx(images_path, labels_path):
    """Load an IDX image/label pair as ([0,1]-scaled rows, labels).

    Big-endian layout: u32 magic (0x00000803 images, 0x00000801 labels),
    dimension sizes as u32, then raw unsigned bytes, images flattened
    row-major. Each file is exactly its header's size.
    """
    raw = _read_bytes(images_path)
    magic = _read_be32(raw, 0, "image magic")
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}", offset=0)
    count = _read_be32(raw, 4, "image count")
    rows = _read_be32(raw, 8, "row count")
    cols = _read_be32(raw, 12, "column count")
    if rows * cols > MAX_FLOAT64S:  # a float64 row must be addressable
        raise FormatError(f"image of {rows} x {cols} pixels is too large", offset=8)
    need = count * rows * cols
    _check_payload(raw, 16, need, "image")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=need, offset=16)
    images = (pixels.reshape(count, rows * cols) if count else
              np.zeros((0, rows * cols))).astype(np.float64)
    images /= 255.0  # in place, so the conversion holds one float64 array

    raw_l = _read_bytes(labels_path)
    magic_l = _read_be32(raw_l, 0, "label magic")
    if magic_l != IDX_LABEL_MAGIC:
        raise FormatError(f"bad label magic 0x{magic_l:08x}", offset=0)
    count_l = _read_be32(raw_l, 4, "label count")
    _check_payload(raw_l, 8, count_l, "label")
    labels = np.frombuffer(raw_l, dtype=np.uint8, count=count_l, offset=8).astype(np.int64)
    if count != count_l:
        raise FormatError(
            f"image count {count} != label count {count_l}", offset=4
        )
    return images, labels


# --- split manifests --------------------------------------------------------


# the fields of a manifest besides "tasks", a list of task objects read on their own;
# build_parallel_split writes the required ones, and build-splits adds "dataset", its
# config's dataset section, which a run's config must match (the seeds may differ)
_MANIFEST = {"seed": int, "batch_size": int, "epochs": int, "dataset": {}}
_MANIFEST_TASK = {"id": int, "labels": list, "s": int, "e": int}


def specs_from_manifest(manifest: dict, dataset: Dataset):
    """Task specs and the timeline of a manifest over ``dataset``, one built
    by ``build_parallel_split`` or one loaded from a file.

    Returns (specs, timeline); the timeline carries the batch size, and each
    window spans its task's ``epochs`` passes.
    """
    tasks = manifest.get("tasks")
    if not isinstance(tasks, list):
        raise ConfigError(f"field manifest.tasks must be a list of task objects, got {tasks!r}")
    doc = section({k: v for k, v in manifest.items() if k != "tasks"}, "manifest", _MANIFEST)
    specs, entries = [], []
    for i, entry in enumerate(tasks):
        task = section(entry, f"manifest.tasks[{i}]", _MANIFEST_TASK)
        if task["id"] > INT64_MAX:  # the rehearsal buffer stores task ids as int64
            raise ConfigError(f"field manifest.tasks[{i}].id must be at most {INT64_MAX}, "
                              f"got {task['id']}")
        specs.append(_task_spec(dataset, task["id"], tuple(task["labels"]),
                                f"manifest.tasks[{i}].labels"))
        entries.append((task["id"], task["s"], task["e"]))
    timeline = TaskTimeline(entries, doc["batch_size"])
    batch_size, epochs = doc["batch_size"], doc["epochs"]
    _check_steps(batch_size, epochs, "manifest.")
    for i, (spec, (_, s, e)) in enumerate(zip(specs, timeline.entries)):
        expect = task_duration(spec.train_size, batch_size, epochs)
        if e - s + 1 != expect:
            raise ConfigError(
                f"task {spec.task_id}: window [{s}, {e}] does not match "
                f"{expect} steps from {spec.train_size} samples"
            )
        if e > INT64_MAX:  # a run steps through every tick up to it
            raise ConfigError(f"field manifest.tasks[{i}].e: task {spec.task_id}'s window "
                              f"[{s}, {e}] ends past int64 (manifest.epochs {epochs})")
    return specs, timeline
