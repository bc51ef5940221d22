import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emgd.cli import _write_json
from emgd.errors import ConfigError, FormatError, InvalidInputError, load_json_object
from emgd.net import Network, add_head, apply_update, backward
from emgd.streams import (
    Dataset,
    _draw_centers,
    TaskCursor,
    TaskSpec,
    TaskTimeline,
    active_tasks,
    load_idx,
    next_batch,
    specs_from_manifest,
    substream,
    synthetic_dataset,
    task_duration,
)
from oracles import Batch, forward, make_split


def train_inputs(spec):
    return spec.dataset.train_inputs[spec.train_rows]


def built_split(dataset, **fields):
    """The specs and timeline of a built split, read as a run reads them."""
    return specs_from_manifest(make_split(dataset, **fields), dataset)


def toy_dataset(num_classes=12, per_class=10, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    inputs = rng.uniform(0, 1, size=(labels.size, dim))
    t_labels = np.repeat(np.arange(num_classes), 3)
    t_inputs = rng.uniform(0, 1, size=(t_labels.size, dim))
    return Dataset(inputs, labels, t_inputs, t_labels)


class TestDataset:
    def test_rejects_train_and_test_of_different_widths(self):
        with pytest.raises(InvalidInputError, match="width 9.*width 4"):
            Dataset(np.zeros((2, 4)), [0, 1], np.zeros((2, 9)), [0, 1])


class TestTimeline:
    def test_rejects_gap(self):
        with pytest.raises(InvalidInputError):
            TaskTimeline([(1, 0, 3), (2, 5, 8)], batch_size=4)

    def test_rejects_out_of_order_start(self):
        with pytest.raises(InvalidInputError):
            TaskTimeline([(1, 4, 8), (2, 2, 9)], batch_size=4)

    def test_rejects_inverted_window(self):
        with pytest.raises(InvalidInputError):
            TaskTimeline([(1, 3, 1)], batch_size=4)

    def test_rejects_repeated_task_id(self):
        with pytest.raises(InvalidInputError, match="task 1 appears twice on the timeline"):
            TaskTimeline([(1, 0, 3), (1, 2, 5)], batch_size=4)

    @pytest.mark.parametrize("task_id", [0, -1])
    def test_rejects_task_id_below_one(self, task_id):
        with pytest.raises(InvalidInputError, match=rf"task {task_id}: task ids must be >= 1 "):
            TaskTimeline([(task_id, 0, 3)], batch_size=4)

    def test_serial_is_valid(self):
        tl = TaskTimeline([(1, 0, 4), (2, 5, 7), (3, 8, 8)], batch_size=4)
        assert tl.final_tick == 8

    def test_bounds_are_set_when_built(self):
        # the final tick is the largest end, not the last window's
        tl = TaskTimeline([(1, 2, 5), (2, 3, 9), (3, 6, 7)], batch_size=4)
        assert (tl.first_tick, tl.final_tick) == (2, 9)
        assert vars(tl) == {"entries": [(1, 2, 5), (2, 3, 9), (3, 6, 7)], "batch_size": 4,
                            "first_tick": 2, "final_tick": 9}

    @given(st.lists(st.tuples(st.integers(-2, 6), st.integers(-1, 5)), min_size=1, max_size=6))
    def test_accepted_timelines_have_no_dead_tick(self, steps):
        # each window starts a signed step after the last start and runs a length
        entries, start = [], 0
        for t, (step, length) in enumerate(steps, start=1):
            start += step
            entries.append((t, start, start + length))
        try:
            tl = TaskTimeline(entries, batch_size=4)
        except InvalidInputError:
            return
        covered = {tick for _, s, e in tl.entries for tick in range(s, e + 1)}
        assert covered == set(range(tl.first_tick, tl.final_tick + 1))


class TestBuildParallelSplit:
    def test_single_task_takes_whole_window(self):
        ds = toy_dataset(num_classes=4)
        specs, tl = built_split(ds, num_tasks=1, label_bounds=(2, 4), seed=7, batch_size=8)
        assert len(specs) == 1
        [(_, s, e)] = tl.entries
        assert s == 0
        assert e == task_duration(specs[0].train_size, 8, 1) - 1

    def test_deterministic(self):
        ds = toy_dataset()
        a = make_split(ds, num_tasks=3, label_bounds=(2, 4), seed=1234, batch_size=8)
        b = make_split(ds, num_tasks=3, label_bounds=(2, 4), seed=1234, batch_size=8)
        assert a == b

    def test_five_tasks_disjoint_and_bounded(self):
        ds = toy_dataset(num_classes=62, per_class=4, dim=3)
        specs, _ = built_split(ds, num_tasks=5, label_bounds=(2, 15), seed=1234, batch_size=16)
        seen = set()
        for spec in specs:
            assert 2 <= spec.class_count <= 15
            assert not (set(spec.label_set) & seen)
            seen |= set(spec.label_set)

    def test_timeline_invariants_across_seeds(self):
        ds = toy_dataset(num_classes=20, per_class=6)
        for seed in range(100):
            _, tl = built_split(ds, num_tasks=4, label_bounds=(2, 5), seed=seed, batch_size=4)
            TaskTimeline(tl.entries, tl.batch_size)  # raises on violation
            starts = [s for _, s, _ in tl.entries]
            assert starts == sorted(starts)

    def test_serial_flag(self):
        ds = toy_dataset()
        _, tl = built_split(
            ds, num_tasks=3, label_bounds=(2, 4), seed=3, batch_size=8, serial=True
        )
        for (_, _, e_prev), (_, s, _) in zip(tl.entries, tl.entries[1:]):
            assert s == e_prev + 1

    def test_overlap_shares_labels(self):
        ds = toy_dataset(num_classes=30)
        specs, _ = built_split(
            ds, num_tasks=3, label_bounds=(4, 4), seed=5, overlap=0.5, batch_size=8
        )
        for prev, cur in zip(specs, specs[1:]):
            shared = set(prev.label_set) & set(cur.label_set)
            assert len(shared) == 2  # ceil(0.5 * 4)

    def test_infeasible_bounds(self):
        ds = toy_dataset(num_classes=4)
        with pytest.raises(ConfigError):
            make_split(ds, num_tasks=3, label_bounds=(2, 3), seed=0, batch_size=8)

    @pytest.mark.parametrize("bounds", [(4,), (2, 3, 4), ()])
    def test_label_bounds_must_be_a_pair(self, bounds):
        with pytest.raises(ConfigError, match="label_bounds"):
            make_split(toy_dataset(), num_tasks=2, label_bounds=bounds, seed=0, batch_size=8)

    @pytest.mark.parametrize("batch_size, epochs", [(0, 1), (-1, 1), (8, 0)])
    def test_batch_size_and_epochs_below_one_rejected(self, batch_size, epochs):
        with pytest.raises(ConfigError, match="batch_size and epochs"):
            make_split(toy_dataset(), num_tasks=2, label_bounds=(2, 3), seed=0,
                       batch_size=batch_size, epochs=epochs)

    def test_timeline_past_int64_named(self):
        # each task of 20 rows takes 3 batches of 8 per epoch: 6 * 2**62 ticks in all
        with pytest.raises(ConfigError, match="split.epochs 4611686018427387904 gives task "
                                              "windows of 27670116110564327424 ticks in all, "
                                              "past int64"):
            make_split(toy_dataset(), num_tasks=2, label_bounds=(2, 2), seed=0, batch_size=8,
                       epochs=2**62)


class TestActiveTasks:
    def test_before_second_task(self):
        tl = TaskTimeline([(1, 0, 9), (2, 4, 12)], batch_size=4)
        assert active_tasks(tl, 2) == {1}

    def test_a_finished_window_is_not_active(self):
        # the memory stream is the run's, opened by its buffer (TestRunPcl)
        tl = TaskTimeline([(1, 0, 3), (2, 2, 8)], batch_size=4)
        assert active_tasks(tl, 5) == {2}

    def test_out_of_range(self):
        tl = TaskTimeline([(1, 0, 3)], batch_size=4)
        with pytest.raises(InvalidInputError):
            active_tasks(tl, 4)

    def test_matches_interval_scan(self):
        ds = toy_dataset(num_classes=24, per_class=5)
        for seed in range(30):  # seed variety comes from the split builder
            _, tl = built_split(ds, num_tasks=4, label_bounds=(2, 5), seed=seed, batch_size=4)
            assert tl.first_tick == min(s for _, s, _ in tl.entries)
            assert tl.final_tick == max(e for _, _, e in tl.entries)
            for tick in range(tl.first_tick, tl.final_tick + 1):
                expect = {t for t, s, e in tl.entries if s <= tick <= e}
                assert active_tasks(tl, tick) == expect


class TestNextBatch:
    def make_spec(self, n=10, seed=0):
        ds = toy_dataset(num_classes=2, per_class=n // 2, dim=3, seed=seed)
        specs, _ = built_split(ds, num_tasks=1, label_bounds=(2, 2), seed=seed, batch_size=4)
        return specs[0]

    def test_single_batch_covers_everything(self):
        # and the next batch starts the next pass, over everything again
        spec = self.make_spec(n=6)
        cursor = TaskCursor(spec, seed=1)
        for _ in range(3):
            inputs, _ = next_batch(cursor, 100)
            np.testing.assert_array_equal(np.sort(inputs, axis=0),
                                          np.sort(train_inputs(spec), axis=0))

    @pytest.mark.parametrize("state", [{"order": np.arange(3)}, {"pos": 4}])
    def test_position_and_order_are_not_arguments(self, state):
        # both are the cursor's own state: the shuffle is drawn from the seed, from row 0
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{next(iter(state))}'"):
            TaskCursor(self.make_spec(), 0, **state)
        cursor = TaskCursor(self.make_spec(), 0)
        assert cursor.pos == 0

    def test_epoch_batch_sizes(self):
        # each pass over the 10 rows ends in a short batch, then the cursor cycles
        spec = self.make_spec(n=10)
        cursor = TaskCursor(spec, seed=1)
        sizes = [next_batch(cursor, 3)[1].size for _ in range(8)]
        assert sizes == [3, 3, 3, 1, 3, 3, 3, 1]

    def test_epoch_is_a_permutation(self):
        # each pass serves every row once, in the shuffle drawn for that pass
        spec = self.make_spec(n=10)
        cursor = TaskCursor(spec, seed=9)
        shuffles = substream(9, "shuffle", spec.task_id)
        for _ in range(3):
            order = shuffles.permutation(spec.train_size)
            served = np.vstack([next_batch(cursor, 3)[0] for _ in range(4)])
            np.testing.assert_array_equal(served, train_inputs(spec)[order])

    def test_labels_are_local(self):
        spec = self.make_spec()
        cursor = TaskCursor(spec, seed=2)
        _, labels = next_batch(cursor, 100)
        assert set(np.unique(labels)) <= set(range(spec.class_count))

    def test_batch_labels_index_the_local_labels_computed_at_construction(self):
        spec = self.make_spec()
        np.testing.assert_array_equal(np.asarray(spec.label_set)[spec.train_local],
                                      spec.train_labels)
        np.testing.assert_array_equal(np.asarray(spec.label_set)[spec.test_local],
                                      spec.test_labels)
        cursor = TaskCursor(spec, seed=2)
        rows = cursor.order[:4]
        np.testing.assert_array_equal(next_batch(cursor, 4)[1], spec.train_local[rows])


class TestTaskSpec:
    def spec(self, train_labels=(9, 2, 5, 5), test_labels=(2,)):
        # each partition misses one dataset row, whose label is outside the set
        data = Dataset(np.arange(2 * len(train_labels) + 2).reshape(-1, 2), (0, *train_labels),
                       np.arange(2 * len(test_labels) + 2).reshape(-1, 2), (*test_labels, 7))
        return TaskSpec(1, (5, 2, 9), data, np.arange(1, len(train_labels) + 1),
                        np.arange(len(test_labels)))

    def test_to_local_follows_the_label_set_order(self):
        spec = self.spec()
        np.testing.assert_array_equal(spec.train_local, [2, 1, 0, 0])
        np.testing.assert_array_equal(spec.test_local, [1])
        np.testing.assert_array_equal(spec.to_local(np.array([9, 9, 5])), [2, 2, 0])

    def test_partitions_are_read_through_the_row_indices(self):
        spec = self.spec()
        np.testing.assert_array_equal(train_inputs(spec), [[2, 3], [4, 5], [6, 7], [8, 9]])
        np.testing.assert_array_equal(spec.train_labels, [9, 2, 5, 5])
        np.testing.assert_array_equal(spec.test_inputs, [[0, 1]])
        np.testing.assert_array_equal(spec.test_labels, [2])
        assert spec.train_size == 4

    def test_to_local_names_a_label_outside_the_set(self):
        with pytest.raises(InvalidInputError, match="label 7 is not in task 1's label set"):
            self.spec().to_local(np.array([2, 7, 3]))

    @pytest.mark.parametrize("train, test", [((9, 4), (2,)), ((9,), (2, 0))])
    def test_a_partition_label_outside_the_set_is_rejected_at_construction(self, train, test):
        with pytest.raises(InvalidInputError, match="is not in task 1's label set"):
            self.spec(train, test)


def tensor_distances(centers):
    """Pairwise center distances from the classes x classes x dim difference
    tensor, inf on the diagonal."""
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return dist


def tensor_centers(rng, classes, dim, min_gap):
    """``_draw_centers`` by ``tensor_distances``, and the attempt that placed
    the centers (None, 200 when none did)."""
    for attempt in range(1, 201):
        centers = rng.uniform(0.25, 0.75, size=(classes, dim))
        if tensor_distances(centers).min() >= min_gap:
            return centers, attempt
    return None, 200


class TestDrawCenters:
    @pytest.mark.parametrize("classes, dim, min_gap, seed, attempts", [
        (1, 5, 0.1, 0, 1), (7, 3, 0.05, 1, 1), (40, 64, 1.2, 2, 1),
        (8, 2, 0.1, 0, 29),  # placed on a retry
        (8, 2, 0.12, 3, 200),  # never placed
    ])
    def test_matches_the_difference_tensor(self, classes, dim, min_gap, seed, attempts):
        expect, tried = tensor_centers(np.random.default_rng(seed), classes, dim, min_gap)
        assert tried == attempts
        if expect is None:
            with pytest.raises(ConfigError, match=f"could not place {classes} centers"):
                _draw_centers(np.random.default_rng(seed), classes, dim, min_gap)
        else:
            got = _draw_centers(np.random.default_rng(seed), classes, dim, min_gap)
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("classes, dim", [(5, 3), (12, 50), (30, 784)])
    def test_accepts_and_rejects_at_the_tensor_minimum_bit_for_bit(self, classes, dim):
        # a gap equal to the first draw's least distance places it; one ulp more
        # rejects it, so the least distance the rows compute rounds as the tensor's
        rng = np.random.default_rng(classes)
        first = rng.uniform(0.25, 0.75, size=(classes, dim))
        gap = tensor_distances(first).min()
        got = _draw_centers(np.random.default_rng(classes), classes, dim, gap)
        np.testing.assert_array_equal(got, first)
        above = np.nextafter(gap, np.inf)
        expect, _ = tensor_centers(np.random.default_rng(classes), classes, dim, above)
        got = _draw_centers(np.random.default_rng(classes), classes, dim, above)
        assert not np.array_equal(got, first)
        np.testing.assert_array_equal(got, expect)


class TestSynthetic:
    def test_tiny_noise_sticks_to_centers(self):
        data = synthetic_dataset(3, 5, 4, 4, noise_sigma=1e-12, seed=3)
        for c in range(3):
            for inputs, labels in ((data.train_inputs, data.train_labels),
                                   (data.test_inputs, data.test_labels)):
                rows = inputs[labels == c]
                assert np.ptp(rows, axis=0).max() <= 1e-9

    def test_classifier_separates_blobs(self):
        data = synthetic_dataset(4, 8, 30, 20, noise_sigma=0.05, seed=21)
        net = Network((8, 16), seed=0)
        add_head(net, 1, 4, seed=1)
        batch = Batch(data.train_inputs, data.train_labels, 1)
        for _ in range(300):
            grad, _, heads = backward(net, *batch)
            apply_update(net, -grad, 0.5)
            net.heads[1] -= 0.5 * heads[1]
        probs, _ = forward(net, batch)
        acc = float((probs.argmax(axis=1) == batch.labels).mean())
        assert acc >= 0.99

    @pytest.mark.parametrize("index, name", [
        (0, "num_classes"), (1, "input_dim"), (2, "samples_per_class"), (3, "test_per_class")])
    @pytest.mark.parametrize("count", [0, -1])
    def test_counts_below_one_rejected(self, index, name, count):
        args = [3, 4, 5, 2]
        args[index] = count
        with pytest.raises(ConfigError, match=name):
            synthetic_dataset(*args, noise_sigma=0.1, seed=0)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="noise_sigma"):
            synthetic_dataset(3, 4, 5, 2, noise_sigma=sigma, seed=0)

    def test_dataset_variant_deterministic(self):
        a = synthetic_dataset(6, 8, 5, 2, 0.1, seed=4)
        b = synthetic_dataset(6, 8, 5, 2, 0.1, seed=4)
        np.testing.assert_array_equal(a.train_inputs, b.train_inputs)
        np.testing.assert_array_equal(a.test_inputs, b.test_inputs)
        np.testing.assert_array_equal(np.unique(a.train_labels), np.arange(6))


def write_idx_pair(tmp_path, images, labels, *, image_magic=0x803, label_magic=0x801,
                   truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape if images.size else (0, 3, 3)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    payload = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        payload = payload[:-truncate_images]
    img_path.write_bytes(payload)
    lab_path.write_bytes(struct.pack(">II", label_magic, labels.size) + labels.tobytes())
    return img_path, lab_path


class TestLoadIdx:
    def test_exact_pixels(self, tmp_path):
        images = np.array(
            [
                [[0, 51, 102], [153, 204, 255], [10, 20, 30]],
                [[255, 0, 255], [0, 255, 0], [1, 2, 3]],
            ],
            dtype=np.uint8,
        )
        img, lab = write_idx_pair(tmp_path, images, [4, 7])
        inputs, labels = load_idx(img, lab)
        assert inputs.shape == (2, 9)
        np.testing.assert_allclose(inputs[0], images[0].ravel() / 255.0)
        np.testing.assert_allclose(inputs[1], images[1].ravel() / 255.0)
        np.testing.assert_array_equal(labels, [4, 7])

    def test_empty_count_ok(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((0, 3, 3), np.uint8), [])
        inputs, labels = load_idx(img, lab)
        assert inputs.shape == (0, 9)
        assert labels.size == 0

    def test_bad_magic_names_offset_zero(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 3, 3), np.uint8), [0],
                                  image_magic=0xDEAD)
        with pytest.raises(FormatError, match=r"\(at byte offset 0\)$"):
            load_idx(img, lab)

    def test_truncated_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1],
                                  truncate_images=5)
        with pytest.raises(FormatError):
            load_idx(img, lab)

    # a header that understates the payload would load shifted rows and drop the rest
    @pytest.mark.parametrize("header, payload, message, offset", [
        ((0x803, 5, 4, 3), 80, "image payload needs 60 bytes, found 80 (20 extra)", 76),
        ((0x803, 2, 3, 3), 17, "image payload needs 18 bytes, found 17 (1 short)", 33),
        ((0x801, 2), 3, "label payload needs 2 bytes, found 3 (1 extra)", 10),
    ])
    def test_length_must_equal_the_header(self, tmp_path, header, payload, message, offset):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1])
        path = img if header[0] == 0x803 else lab
        path.write_bytes(struct.pack(f">{len(header)}I", *header) + bytes(payload))
        with pytest.raises(FormatError,
                           match=re.escape(f"{message} (at byte offset {offset})") + "$"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1, 2])
        with pytest.raises(FormatError):
            load_idx(img, lab)


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak of the memory it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def nbytes(*arrays):
    return sum(a.nbytes for a in arrays)


class TestHeldOnce:
    """A dataset's rows are held once: specs index them, and generation and
    IDX loading allocate their output without a second full-size copy."""

    SLACK = 64 * 1024

    def dataset(self):
        return synthetic_dataset(12, 128, 100, 20, 0.05, seed=5)

    @pytest.mark.parametrize("from_manifest", [False, True])
    def test_specs_allocate_under_five_percent_of_the_inputs(self, from_manifest):
        data = self.dataset()
        manifest = make_split(data, num_tasks=4, label_bounds=(3, 3), seed=1, batch_size=8)
        if from_manifest:
            def make():
                return specs_from_manifest(manifest, data)[0]
        else:  # building the split and reading it
            def make():
                return built_split(data, num_tasks=4, label_bounds=(3, 3), seed=1, batch_size=8)[0]
        specs, peak = traced_peak(make)
        assert sum(spec.train_size for spec in specs) == data.train_labels.size  # every row
        assert peak < 0.05 * nbytes(data.train_inputs, data.test_inputs)

    def test_synthetic_dataset_holds_its_output_and_one_class_block(self):
        args = (10, 200, 500, 100, 0.1)
        synthetic_dataset(*args, seed=0)
        data, peak = traced_peak(synthetic_dataset, *args, seed=1)
        output = nbytes(data.train_inputs, data.train_labels, data.test_inputs, data.test_labels)
        assert peak < output + 500 * 200 * 8 + self.SLACK

    def test_load_idx_holds_the_file_and_one_float64_array(self, tmp_path):
        # under 256 KiB numpy does not reuse the temporary of astype(...) / 255.0
        count = 40
        images = np.random.default_rng(0).integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, np.arange(count) % 10)
        load_idx(img, lab)
        (inputs, labels), peak = traced_peak(load_idx, img, lab)
        np.testing.assert_array_equal(inputs, images.reshape(count, -1).astype(np.float64) / 255.0)
        files = img.stat().st_size + lab.stat().st_size
        assert peak < files + nbytes(inputs, labels) + self.SLACK

    def test_next_batch_reads_only_the_batch_rows(self):
        data = self.dataset()
        spec = built_split(data, num_tasks=1, label_bounds=(12, 12), seed=1, batch_size=8)[0][0]
        cursor = TaskCursor(spec, seed=0)
        next_batch(cursor, 8)
        (inputs, _), peak = traced_peak(next_batch, cursor, 8)
        np.testing.assert_array_equal(inputs, train_inputs(spec)[cursor.order[8:16]])
        assert peak < 0.05 * nbytes(train_inputs(spec))


class TestManifest:
    def test_roundtrip(self, tmp_path):
        ds = toy_dataset()
        manifest = make_split(ds, num_tasks=3, label_bounds=(2, 4), seed=1234, batch_size=8,
                              epochs=2)
        assert sorted(manifest) == ["batch_size", "epochs", "seed", "tasks"]
        assert [sorted(task) for task in manifest["tasks"]] == [["e", "id", "labels", "s"]] * 3
        path = tmp_path / "split.json"
        _write_json(manifest, path)
        back = load_json_object(path, "split manifest")
        assert back == manifest
        specs, tl = specs_from_manifest(manifest, ds)
        specs2, tl2 = specs_from_manifest(back, ds)
        assert (tl2.entries, tl2.batch_size) == (tl.entries, tl.batch_size) == (
            [(t["id"], t["s"], t["e"]) for t in manifest["tasks"]], 8)
        for spec, spec2 in zip(specs, specs2, strict=True):
            assert (spec2.task_id, spec2.label_set) == (spec.task_id, spec.label_set)
            np.testing.assert_array_equal(spec2.train_rows, spec.train_rows)
            np.testing.assert_array_equal(spec2.test_rows, spec.test_rows)

    def test_window_validation(self, tmp_path):
        ds = toy_dataset()
        manifest = make_split(ds, num_tasks=2, label_bounds=(2, 3), seed=5, batch_size=8)
        manifest["batch_size"] = 2  # inconsistent with the recorded windows
        with pytest.raises(ConfigError):
            specs_from_manifest(manifest, ds)

    def test_manifest_batch_size_zero_rejected(self):
        ds = toy_dataset()
        manifest = make_split(ds, num_tasks=2, label_bounds=(2, 3), seed=5, batch_size=8)
        manifest["batch_size"] = 0
        with pytest.raises(ConfigError, match="batch_size"):
            specs_from_manifest(manifest, ds)

    @pytest.mark.parametrize("epochs, first_start, late", [
        (2**62, 0, 0),  # 3 * 2**62 ticks a window: the first ends past int64
        (1, 2**63 - 4, 1),  # 3-tick windows from near 2**63: the second ends past it
    ], ids=["epochs", "offset"])
    def test_final_tick_past_int64_named(self, epochs, first_start, late):
        # windows that match their epochs but end past int64: a run over them
        # would never end, so the manifest is rejected before any tick, naming
        # the window end at fault
        ds = toy_dataset()
        manifest = make_split(ds, num_tasks=2, label_bounds=(2, 2), seed=0, batch_size=8,
                              serial=True)
        steps = 3 * epochs  # ceil(20 rows / 8) per epoch
        manifest["epochs"] = epochs
        for i, task in enumerate(manifest["tasks"]):
            task["s"], task["e"] = first_start + i * steps, first_start + (i + 1) * steps - 1
        task = manifest["tasks"][late]
        with pytest.raises(ConfigError, match=re.escape(
                f"field manifest.tasks[{late}].e: task {task['id']}'s window "
                f"[{task['s']}, {task['e']}] ends past int64 (manifest.epochs {epochs})")):
            specs_from_manifest(manifest, ds)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_json_object(tmp_path / "nope.json", "split manifest")


class TestSubstream:
    def test_named_streams_differ_and_replay(self):
        a = substream(7, "split").integers(0, 1 << 30, 5)
        b = substream(7, "split").integers(0, 1 << 30, 5)
        c = substream(7, "timeline").integers(0, 1 << 30, 5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
