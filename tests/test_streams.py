import struct

import numpy as np
import pytest

from emgd.errors import ConfigError, FormatError, InvalidInputError, StreamEnd
from emgd.net import Batch, Network, add_head, apply_update, backward, forward
from emgd.streams import (
    Dataset,
    TaskCursor,
    TaskSpec,
    TaskTimeline,
    active_tasks,
    build_parallel_split,
    load_idx,
    next_batch,
    read_manifest,
    specs_from_manifest,
    split_manifest,
    substream,
    synthetic_dataset,
    task_duration,
    write_manifest,
)


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
            TaskTimeline([(1, 0, 3), (2, 5, 8)])

    def test_rejects_out_of_order_start(self):
        with pytest.raises(InvalidInputError):
            TaskTimeline([(1, 4, 8), (2, 2, 9)])

    def test_rejects_inverted_window(self):
        with pytest.raises(InvalidInputError):
            TaskTimeline([(1, 3, 1)])

    def test_serial_is_valid(self):
        tl = TaskTimeline([(1, 0, 4), (2, 5, 7), (3, 8, 8)])
        assert tl.final_tick == 8


class TestBuildParallelSplit:
    def test_single_task_takes_whole_window(self):
        ds = toy_dataset(num_classes=4)
        specs, tl = build_parallel_split(ds, 1, label_bounds=(2, 4), seed=7, batch_size=8)
        assert len(specs) == 1
        s, e = tl.window(1)
        assert s == 0
        assert e == task_duration(specs[0].train_size, 8, 1) - 1

    def test_deterministic(self):
        ds = toy_dataset()
        a = build_parallel_split(ds, 3, label_bounds=(2, 4), seed=1234, batch_size=8)
        b = build_parallel_split(ds, 3, label_bounds=(2, 4), seed=1234, batch_size=8)
        assert [s.label_set for s in a[0]] == [s.label_set for s in b[0]]
        assert a[1].entries == b[1].entries
        for sa, sb in zip(a[0], b[0]):
            np.testing.assert_array_equal(sa.train_inputs, sb.train_inputs)

    def test_five_tasks_disjoint_and_bounded(self):
        ds = toy_dataset(num_classes=62, per_class=4, dim=3)
        specs, _ = build_parallel_split(ds, 5, label_bounds=(2, 15), seed=1234, batch_size=16)
        seen = set()
        for spec in specs:
            assert 2 <= spec.class_count <= 15
            assert not (set(spec.label_set) & seen)
            seen |= set(spec.label_set)

    def test_timeline_invariants_across_seeds(self):
        ds = toy_dataset(num_classes=20, per_class=6)
        for seed in range(100):
            _, tl = build_parallel_split(ds, 4, label_bounds=(2, 5), seed=seed, batch_size=4)
            tl.validate()  # raises on violation
            starts = [s for _, s, _ in tl.entries]
            assert starts == sorted(starts)

    def test_serial_flag(self):
        ds = toy_dataset()
        _, tl = build_parallel_split(
            ds, 3, label_bounds=(2, 4), seed=3, batch_size=8, serial=True
        )
        for (_, _, e_prev), (_, s, _) in zip(tl.entries, tl.entries[1:]):
            assert s == e_prev + 1

    def test_overlap_shares_labels(self):
        ds = toy_dataset(num_classes=30)
        specs, _ = build_parallel_split(
            ds, 3, label_bounds=(4, 4), seed=5, overlap_fraction=0.5, batch_size=8
        )
        for prev, cur in zip(specs, specs[1:]):
            shared = set(prev.label_set) & set(cur.label_set)
            assert len(shared) == 2  # ceil(0.5 * 4)

    def test_infeasible_bounds(self):
        ds = toy_dataset(num_classes=4)
        with pytest.raises(ConfigError):
            build_parallel_split(ds, 3, label_bounds=(2, 3), seed=0, batch_size=8)

    @pytest.mark.parametrize("bounds", [(4,), (2, 3, 4), ()])
    def test_label_bounds_must_be_a_pair(self, bounds):
        with pytest.raises(ConfigError, match="label_bounds"):
            build_parallel_split(toy_dataset(), 2, label_bounds=bounds, seed=0, batch_size=8)

    @pytest.mark.parametrize("batch_size, epochs", [(0, 1), (-1, 1), (8, 0)])
    def test_batch_size_and_epochs_below_one_rejected(self, batch_size, epochs):
        with pytest.raises(ConfigError, match="batch_size and epochs"):
            task_duration(10, batch_size, epochs)
        with pytest.raises(ConfigError, match="batch_size and epochs"):
            build_parallel_split(toy_dataset(), 2, label_bounds=(2, 3), seed=0,
                                 batch_size=batch_size, epochs=epochs)


class TestActiveTasks:
    def test_before_second_task(self):
        tl = TaskTimeline([(1, 0, 9), (2, 4, 12)])
        assert active_tasks(tl, 2) == {1}

    def test_memory_joins_after_first_finish(self):
        tl = TaskTimeline([(1, 0, 3), (2, 2, 8)])
        assert active_tasks(tl, 5) == {0, 2}

    def test_memory_suppressed(self):
        tl = TaskTimeline([(1, 0, 3), (2, 2, 8)])
        assert active_tasks(tl, 5, any_finished=False) == {2}

    def test_out_of_range(self):
        tl = TaskTimeline([(1, 0, 3)])
        with pytest.raises(InvalidInputError):
            active_tasks(tl, 4)

    def test_matches_interval_scan(self):
        rng = np.random.default_rng(44)
        ds = toy_dataset(num_classes=24, per_class=5)
        for seed in range(30):
            _, tl = build_parallel_split(ds, 4, label_bounds=(2, 5), seed=seed, batch_size=4)
            for tick in range(tl.first_tick, tl.final_tick + 1):
                expect = {t for t, s, e in tl.entries if s <= tick <= e}
                if any(e < tick for _, _, e in tl.entries):
                    expect.add(0)
                assert active_tasks(tl, tick) == expect
        _ = rng  # seed variety comes from the split builder


class TestNextBatch:
    def make_spec(self, n=10, seed=0):
        ds = toy_dataset(num_classes=2, per_class=n // 2, dim=3, seed=seed)
        specs, _ = build_parallel_split(ds, 1, label_bounds=(2, 2), seed=seed, batch_size=4)
        return specs[0]

    def test_single_batch_covers_everything(self):
        spec = self.make_spec(n=6)
        cursor = TaskCursor(spec, epochs=1, seed=1)
        batch = next_batch(spec, 100, cursor)
        assert batch.size == spec.train_size
        with pytest.raises(StreamEnd):
            next_batch(spec, 100, cursor)

    def test_epoch_batch_sizes(self):
        spec = self.make_spec(n=10)
        cursor = TaskCursor(spec, epochs=2, seed=1)
        sizes = []
        while True:
            try:
                sizes.append(next_batch(spec, 3, cursor).size)
            except StreamEnd:
                break
        assert sizes == [3, 3, 3, 1, 3, 3, 3, 1]

    def test_epoch_is_a_permutation(self):
        spec = self.make_spec(n=10)
        cursor = TaskCursor(spec, epochs=1, seed=9)
        rows = []
        try:
            while True:
                rows.append(next_batch(spec, 3, cursor).inputs)
        except StreamEnd:
            pass
        served = np.vstack(rows)
        expect = np.sort(spec.train_inputs, axis=0)
        np.testing.assert_array_equal(np.sort(served, axis=0), expect)

    def test_labels_are_local(self):
        spec = self.make_spec()
        cursor = TaskCursor(spec, epochs=1, seed=2)
        batch = next_batch(spec, 100, cursor)
        assert set(np.unique(batch.labels)) <= set(range(spec.class_count))

    def test_batch_labels_index_the_local_labels_computed_at_construction(self):
        spec = self.make_spec()
        np.testing.assert_array_equal(np.asarray(spec.label_set)[spec.train_local],
                                      spec.train_labels)
        np.testing.assert_array_equal(np.asarray(spec.label_set)[spec.test_local],
                                      spec.test_labels)
        cursor = TaskCursor(spec, epochs=1, seed=2)
        rows = cursor.order[:4]
        np.testing.assert_array_equal(next_batch(spec, 4, cursor).labels, spec.train_local[rows])


class TestTaskSpec:
    def spec(self, train_labels=(9, 2, 5, 5), test_labels=(2,)):
        return TaskSpec(1, (5, 2, 9), np.zeros((len(train_labels), 2)), np.array(train_labels),
                        np.zeros((len(test_labels), 2)), np.array(test_labels))

    def test_to_local_follows_the_label_set_order(self):
        spec = self.spec()
        np.testing.assert_array_equal(spec.train_local, [2, 1, 0, 0])
        np.testing.assert_array_equal(spec.test_local, [1])
        np.testing.assert_array_equal(spec.to_local(np.array([9, 9, 5])), [2, 2, 0])

    def test_to_local_names_a_label_outside_the_set(self):
        with pytest.raises(InvalidInputError, match="label 7 is not in task 1's label set"):
            self.spec().to_local(np.array([2, 7, 3]))

    @pytest.mark.parametrize("train, test", [((9, 4), (2,)), ((9,), (2, 0))])
    def test_a_partition_label_outside_the_set_is_rejected_at_construction(self, train, test):
        with pytest.raises(InvalidInputError, match="is not in task 1's label set"):
            self.spec(train, test)


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
            rep = backward(net, batch)
            apply_update(net, -rep.backbone_grad, 0.5)
            net.heads[1] -= 0.5 * rep.head_grad
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
        assert a.num_classes == 6


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
        with pytest.raises(FormatError) as err:
            load_idx(img, lab)
        assert err.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1],
                                  truncate_images=5)
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), [0, 1, 2])
        with pytest.raises(FormatError):
            load_idx(img, lab)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        ds = toy_dataset()
        specs, tl = build_parallel_split(ds, 3, label_bounds=(2, 4), seed=1234, batch_size=8)
        manifest = split_manifest(specs, tl, seed=1234, batch_size=8, epochs=1)
        path = tmp_path / "split.json"
        write_manifest(manifest, path)
        back = read_manifest(path)
        specs2, tl2, _, _ = specs_from_manifest(back, ds)
        assert tl2.entries == tl.entries
        assert [s.label_set for s in specs2] == [s.label_set for s in specs]

    def test_window_validation(self, tmp_path):
        ds = toy_dataset()
        specs, tl = build_parallel_split(ds, 2, label_bounds=(2, 3), seed=5, batch_size=8)
        manifest = split_manifest(specs, tl, seed=5, batch_size=8, epochs=1)
        manifest["batch_size"] = 2  # inconsistent with the recorded windows
        with pytest.raises(ConfigError):
            specs_from_manifest(manifest, ds)

    def test_manifest_batch_size_zero_rejected(self):
        ds = toy_dataset()
        specs, tl = build_parallel_split(ds, 2, label_bounds=(2, 3), seed=5, batch_size=8)
        manifest = split_manifest(specs, tl, seed=5, batch_size=0, epochs=1)
        with pytest.raises(ConfigError, match="batch_size"):
            specs_from_manifest(manifest, ds)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_manifest(tmp_path / "nope.json")


class TestSubstream:
    def test_named_streams_differ_and_replay(self):
        a = substream(7, "split").integers(0, 1 << 30, 5)
        b = substream(7, "split").integers(0, 1 << 30, 5)
        c = substream(7, "timeline").integers(0, 1 << 30, 5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
