import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import emgd.net
from emgd.errors import InvalidInputError
from emgd.experiment import RunConfig
from emgd.net import (
    Network,
    _factored,
    add_head,
    backward,
    edit_direction,
    editing_objective,
    stream_gradients,
    task_slices,
)
from emgd.rehearsal import (
    MemoryBatch,
    MemoryBuffer,
    _write_back,
    edit_memory_emgd,
    insert,
    memory_gradient,
    sample_memory,
)
from emgd.streams import Dataset, TaskSpec
from oracles import (Batch, SlotListBuffer, directional_edit_gradient, forward,
                     group_stream_edit, slot_list_insert)
from test_streams import nbytes, traced_peak

CHI2_99_DF5 = 15.086
CHI2_99_DF7 = 18.475


def class_batch(rng, n, dim=6, task=1, classes=4, label=None, span=(0.0, 1.0)):
    labels = np.full(n, label, dtype=np.int64) if label is not None else rng.integers(0, classes, n)
    return Batch(rng.uniform(*span, (n, dim)), labels, task)


def task_spec(batch, class_ids):
    """``batch`` as a task whose training partition is its rows in order, each
    under its global class in ``class_ids``; the label set puts each class at
    its rows' head-local label (and a negative filler at a label no row has)."""
    class_ids = np.asarray(class_ids, dtype=np.int64)
    label_set = [-1 - i for i in range(int(batch.labels.max()) + 1)]
    for local, c in zip(batch.labels.tolist(), class_ids.tolist()):
        label_set[local] = c
    data = Dataset(batch.inputs, class_ids, batch.inputs[:0], class_ids[:0])
    spec = TaskSpec(batch.task_id, label_set, data, np.arange(class_ids.size), np.arange(0))
    np.testing.assert_array_equal(spec.train_local, batch.labels)
    return spec


ETA_EDIT = RunConfig().eta_edit  # the run default


def make_net(seed=0, dim=6, heads=((1, 4), (2, 3))):
    net = Network((dim, 8, 5), seed=seed)
    for task, classes in heads:
        add_head(net, task, classes, seed=seed + task)
    return net


def class_counts(buf):
    return Counter(buf.class_id.tolist())


def filled_buffer(rng, capacity=3, tasks=(1, 2), per_task=6, dim=6, span=(0.0, 1.0)):
    buf = MemoryBuffer(capacity)
    for t in tasks:
        batch = class_batch(rng, per_task, dim=dim, task=t, classes=3, span=span)
        insert(buf, task_spec(batch, 10 * t + batch.labels), rng)
    return buf


# Rows drawn here stay inside the unit cube after a small edit, so the
# editors' clamp is idle and a test can read the unclamped step.
INNER = (0.25, 0.75)


def assert_clamp_idle(inputs):
    assert 0.0 < inputs.min() and inputs.max() < 1.0


class TestInsert:
    def test_under_capacity_keeps_everything(self):
        rng = np.random.default_rng(0)
        buf = MemoryBuffer(5)
        batch = class_batch(rng, 3, label=0)
        insert(buf, task_spec(batch, [7, 7, 7]), default_rng(1))
        assert buf.occupancy == 3
        assert class_counts(buf) == {7: 3}

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(1)
        buf = MemoryBuffer(4)
        for _ in range(20):
            batch = class_batch(rng, 8, classes=3)
            insert(buf, task_spec(batch, batch.labels), rng)
        assert all(n <= 4 for n in class_counts(buf).values())
        assert buf.occupancy == sum(class_counts(buf).values())

    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 4),
           stream=st.lists(st.tuples(st.integers(1, 3),
                                     st.lists(st.integers(0, 3), min_size=1, max_size=12)),
                           min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_each_class_holds_its_capacity_or_its_seen_count(self, capacity, stream, seed):
        # tasks 1 to 3 share classes 0 to 3, so a class's reservoir takes rows of several
        rng = np.random.default_rng(seed)
        buf = MemoryBuffer(capacity)
        for task, labels in stream:
            batch = Batch(rng.uniform(0.0, 1.0, (len(labels), 3)), labels, task)
            insert(buf, task_spec(batch, batch.labels), rng)
            assert class_counts(buf) == {c: min(capacity, n) for c, n in buf.seen_counts.items()}
            # x has one row per slot
            assert buf.x.shape == (buf.occupancy, 3)
            assert buf.task_id.size == buf.class_id.size == buf.occupancy

    def test_inserting_one_class_never_evicts_another(self):
        rng = np.random.default_rng(2)
        buf = MemoryBuffer(2)
        b_batch = class_batch(rng, 2, label=1)
        insert(buf, task_spec(b_batch, [5, 5]), default_rng(3))
        before = buf.x[buf.class_id == 5]
        for _ in range(50):
            a_batch = class_batch(rng, 4, label=0)
            insert(buf, task_spec(a_batch, [9, 9, 9, 9]), rng)
        after = buf.x[buf.class_id == 5]
        assert len(after) == 2
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)

    def test_reservoir_inclusion_is_uniform(self):
        # capacity 1, stream 8 samples: survivor index should be uniform
        n, trials = 8, 10000
        counts = np.zeros(n)
        base = np.random.default_rng(99)
        inputs = base.uniform(0, 1, (n, 4))
        spec = task_spec(Batch(inputs, np.zeros(n, dtype=np.int64), 1), np.zeros(n))
        for trial in range(trials):
            buf = MemoryBuffer(1)
            insert(buf, spec, default_rng(trial))
            survivor = buf.x[0]
            counts[int(np.argmax((inputs == survivor).all(axis=1)))] += 1
        expected = trials / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_99_DF7

    def test_rejects_a_task_of_another_width(self):
        rng = np.random.default_rng(3)
        buf = MemoryBuffer(2)
        insert(buf, task_spec(Batch(rng.uniform(0, 1, (3, 6)), [0, 1, 2], 1), [0, 1, 2]),
               default_rng(0))
        with pytest.raises(InvalidInputError, match="width 5"):
            insert(buf, task_spec(Batch(rng.uniform(0, 1, (2, 5)), [0, 1], 1), [0, 1]),
                   default_rng(0))
        assert buf.occupancy == 3 and buf.x.shape == (3, 6)

    def test_gathers_only_the_kept_rows(self):
        # a 20,000 x 64 partition (two of the dataset's three classes) into
        # two slots per class
        rng = np.random.default_rng(31)
        labels = np.repeat(np.arange(3), 10_000)
        data = Dataset(rng.uniform(0, 1, (labels.size, 64)), labels, np.zeros((0, 64)), [])
        rows = np.flatnonzero(labels > 0)
        spec = TaskSpec(1, (1, 2), data, rows, np.arange(0))
        buf = MemoryBuffer(2)
        _, peak = traced_peak(insert, buf, spec, default_rng(0))
        assert buf.occupancy == 4 and buf.seen_counts == {1: 10_000, 2: 10_000}
        for slot, c in enumerate(buf.class_id.tolist()):
            assert (data.train_inputs[labels == c] == buf.x[slot]).all(axis=1).any()
        assert peak < 0.05 * nbytes(data.train_inputs[rows])


def assert_matches_slot_list(buf, ref):
    assert buf.seen_counts == ref.seen_counts
    assert buf.occupancy == len(ref.slots)
    for i, slot in enumerate(ref.slots):
        np.testing.assert_array_equal(buf.x[i], slot.x)
        assert (buf.label[i], buf.task_id[i], buf.class_id[i]) == (
            slot.label, slot.task_id, slot.class_id)


class TestInsertMatchesSlotList:
    """The array buffer against the list-of-slots insert it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 4),
           stream=st.lists(st.tuples(st.integers(1, 3),
                                     st.lists(st.integers(0, 3), min_size=1, max_size=12)),
                           min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_same_slots_counts_and_draws(self, capacity, stream, seed):
        data = np.random.default_rng(seed)
        buf, ref = MemoryBuffer(capacity), SlotListBuffer(capacity)
        draws, ref_draws = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        for task, labels in stream:
            batch = Batch(data.uniform(0.0, 1.0, (len(labels), 3)), labels, task)
            class_ids = 10 * task + batch.labels
            insert(buf, task_spec(batch, class_ids), draws)
            slot_list_insert(ref, batch, class_ids, ref_draws)
            assert_matches_slot_list(buf, ref)
        assert draws.random() == ref_draws.random()  # the same reservoir draws were made

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_a_victim_drawn_twice_keeps_the_later_row(self, capacity):
        rng = np.random.default_rng(30)
        n, seed = 40, 7
        buf, ref = MemoryBuffer(capacity), SlotListBuffer(capacity)
        batch = Batch(rng.uniform(0.0, 1.0, (n, 4)), np.zeros(n, dtype=np.int64), 1)
        insert(buf, task_spec(batch, np.zeros(n)), default_rng(seed))
        slot_list_insert(ref, batch, np.zeros(n), default_rng(seed))
        # replay the draws: the rows after the first ``capacity`` that land
        draws, victims = np.random.default_rng(seed), []
        for seen in range(capacity + 1, n + 1):
            if draws.random() < capacity / seen:
                victims.append((int(draws.integers(capacity)), seen - 1))
        slots = [v for v, _ in victims]
        assert len(slots) > len(set(slots))  # one batch hits a victim twice
        for slot in set(slots):
            last_row = [row for v, row in victims if v == slot][-1]
            np.testing.assert_array_equal(buf.x[slot], batch.inputs[last_row])
        assert_matches_slot_list(buf, ref)


class TestSampleMemory:
    def test_empty_buffer_raises(self):
        with pytest.raises(InvalidInputError, match="rehearsal buffer is empty"):
            sample_memory(MemoryBuffer(2), 4, default_rng(0))

    def test_single_slot(self):
        rng = np.random.default_rng(4)
        buf = MemoryBuffer(1)
        batch = class_batch(rng, 1, label=2)
        insert(buf, task_spec(batch, [3]), default_rng(0))
        mem = sample_memory(buf, 1, default_rng(5))
        np.testing.assert_array_equal(mem.inputs[0], batch.inputs[0])
        assert mem.task_ids[0] == 1

    def test_full_draw_is_exact_multiset(self):
        rng = np.random.default_rng(5)
        buf = filled_buffer(rng)
        mem = sample_memory(buf, buf.occupancy, default_rng(7))
        assert sorted(mem.slot_indices.tolist()) == list(range(buf.occupancy))

    def test_oversized_draw_uses_replacement(self):
        rng = np.random.default_rng(6)
        buf = MemoryBuffer(1)
        insert(buf, task_spec(class_batch(rng, 1, label=0), [0]), default_rng(0))
        mem = sample_memory(buf, 5, default_rng(8))
        assert len(mem.labels) == 5

    def test_draw_frequency_uniform(self):
        rng = np.random.default_rng(7)
        buf = filled_buffer(rng, capacity=3, per_task=3)  # 6 slots
        counts = np.zeros(buf.occupancy)
        draws = np.random.default_rng(123)
        for _ in range(10000):
            mem = sample_memory(buf, 1, draws)
            counts[int(mem.slot_indices[0])] += 1
        expected = 10000 / buf.occupancy
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_99_DF5

    @pytest.mark.parametrize("size", [1, 5, 12, 30])  # 30 > 12 slots: with replacement
    def test_batch_is_task_sorted_and_rows_follow_their_slots(self, size):
        rng = np.random.default_rng(24)
        buf = filled_buffer(rng, capacity=2, tasks=(2, 1, 3), per_task=6)  # slots by task 2, 1, 3
        for seed in range(5):
            mem = sample_memory(buf, size, default_rng(seed))
            picks = np.random.default_rng(seed).choice(buf.occupancy, size=size,
                                                       replace=size > buf.occupancy)
            assert np.all(np.diff(mem.task_ids) >= 0)
            order = np.argsort(buf.task_id[picks], kind="stable")
            np.testing.assert_array_equal(mem.slot_indices, picks[order])
            np.testing.assert_array_equal(mem.inputs, buf.x[mem.slot_indices])
            np.testing.assert_array_equal(mem.labels, buf.label[mem.slot_indices])
            np.testing.assert_array_equal(mem.task_ids, buf.task_id[mem.slot_indices])


class TestInterleavedBatch:
    """Memory batches are task-sorted at sampling; the gradient pass and
    the editor read each task's rows as one slice and reject a batch
    whose task ids interleave, before touching the buffer or the net."""

    def interleaved(self, buf):
        mem = sample_memory(buf, buf.occupancy, default_rng(0))
        ones, twos = np.flatnonzero(mem.task_ids == 1), np.flatnonzero(mem.task_ids == 2)
        rows = [ones[0], twos[0], ones[1]]
        return MemoryBatch(mem.inputs[rows], mem.labels[rows], mem.task_ids[rows],
                           mem.slot_indices[rows])

    @pytest.mark.parametrize("call", [
        lambda net, buf, mem, d: stream_gradients(
            net, [(mem.inputs, mem.labels, mem.task_ids)], 0.3),
        lambda net, buf, mem, d: memory_gradient(net, mem, 0.3),
        lambda net, buf, mem, d: edit_memory_emgd(buf, net, mem, d, ETA_EDIT),
    ], ids=["stream_gradients", "memory_gradient", "edit_memory_emgd"])
    def test_rejected_with_a_named_error(self, call):
        rng = np.random.default_rng(25)
        net, buf = make_net(), filled_buffer(rng)
        mem = self.interleaved(buf)
        assert np.any(np.diff(mem.task_ids) < 0)
        x, theta = buf.x.copy(), net.theta.copy()
        heads = {t: h.copy() for t, h in net.heads.items()}
        with pytest.raises(InvalidInputError, match="sorted by task"):
            call(net, buf, mem, rng.normal(size=net.backbone_dim))
        np.testing.assert_array_equal(buf.x, x)
        np.testing.assert_array_equal(net.theta, theta)
        for t, h in heads.items():
            np.testing.assert_array_equal(net.heads[t], h)


class TestMemoryGradient:
    def test_single_task_matches_backward(self):
        rng = np.random.default_rng(8)
        net = make_net()
        buf = filled_buffer(rng, tasks=(1,), per_task=4)
        mem = sample_memory(buf, buf.occupancy, default_rng(1))
        backbone, loss, heads = memory_gradient(net, mem)
        one_backbone, one_loss, one_heads = backward(net, mem.inputs, mem.labels, 1)
        np.testing.assert_allclose(backbone, one_backbone, atol=1e-14)
        assert loss == pytest.approx(one_loss, abs=1e-14)
        np.testing.assert_allclose(heads[1], one_heads[1], atol=1e-14)

    def test_mixed_batch_weights_by_group_size(self):
        rng = np.random.default_rng(9)
        net = make_net()
        buf = filled_buffer(rng, tasks=(1, 2), per_task=3)
        mem = sample_memory(buf, buf.occupancy, default_rng(2))
        backbone, loss, heads = memory_gradient(net, mem)
        total = np.zeros_like(backbone)
        check_loss = forward_loss = 0.0
        for t in (1, 2):
            mask = mem.task_ids == t
            if not mask.any():
                continue
            group = Batch(mem.inputs[mask], mem.labels[mask], t)
            group_backbone, group_loss, group_heads = backward(net, *group)
            w = mask.sum() / len(mem.labels)
            total += w * group_backbone
            check_loss += w * group_loss
            forward_loss += w * forward(net, group)[1]
            np.testing.assert_allclose(heads[t], w * group_heads[t], atol=1e-14)
        np.testing.assert_allclose(backbone, total, atol=1e-14)
        assert loss == pytest.approx(check_loss, abs=1e-14)
        assert forward_loss == pytest.approx(loss, abs=1e-14)

    @pytest.mark.parametrize("head_step", [0.0, 0.4])
    def test_batched_pass_matches_per_group_reference(self, head_step):
        rng = np.random.default_rng(23)
        heads = ((1, 3), (2, 3), (3, 3))
        net, ref = make_net(heads=heads), make_net(heads=heads)
        buf = filled_buffer(rng, tasks=(1, 2, 3), per_task=7)
        for draw in range(3):
            # the last draw is larger than the buffer, so rows repeat
            size = buf.occupancy + 4 if draw == 2 else 6
            mem = sample_memory(buf, size, default_rng(draw))
            backbone, loss, head_grads = memory_gradient(net, mem, head_step=head_step)
            ref_backbone, ref_loss, ref_heads = per_group_memory_gradient(ref, mem, head_step)
            rel = np.abs(backbone - ref_backbone).max() / np.abs(ref_backbone).max()
            assert rel <= 1e-12
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            assert set(head_grads) == set(ref_heads)
            for t in ref_heads:
                np.testing.assert_allclose(head_grads[t], ref_heads[t], rtol=1e-12, atol=0)
                np.testing.assert_allclose(
                    net.heads[t], ref.heads[t], rtol=1e-12, atol=0
                )
            np.testing.assert_array_equal(net.theta.copy(), ref.theta.copy())


def per_group_memory_gradient(net, mem, head_step):
    """Reference memory gradient: one backward per task group, with the
    head step as a separate backward and head update before it."""
    groups = [(int(t), mem.task_ids == t) for t in np.unique(mem.task_ids)]

    def group_batch(t, mask):
        return Batch(mem.inputs[mask], mem.labels[mask], t)

    if head_step > 0:
        steps = {
            t: mask.sum() / len(mem.labels) * backward(net, *group_batch(t, mask))[2][t]
            for t, mask in groups
        }
        for t, grad in steps.items():
            net.heads[t] -= head_step * grad
    backbone = np.zeros(net.backbone_dim)
    heads, loss = {}, 0.0
    for t, mask in groups:
        w = mask.sum() / len(mem.labels)
        group_backbone, group_loss, group_heads = backward(net, *group_batch(t, mask))
        backbone += w * group_backbone
        heads[t] = w * group_heads[t]
        loss += w * group_loss
    return backbone, loss, heads


def snapshot(buf, net):
    slots = list(zip(buf.x.copy(), buf.label.tolist(), buf.task_id.tolist(),
                     buf.class_id.tolist()))
    return slots, net.theta.copy(), {
        t: net.heads[t].copy() for t in net.heads
    }


class TestEditEmgd:
    def test_aligned_direction_changes_nothing(self):
        rng = np.random.default_rng(10)
        net = make_net()
        buf = filled_buffer(rng, tasks=(1,), per_task=3)
        mem = sample_memory(buf, buf.occupancy, default_rng(3))
        g, _, _ = memory_gradient(net, mem)
        before = buf.x.copy()
        edit_memory_emgd(buf, net, mem, -g, ETA_EDIT)
        for x, y in zip(before, buf.x):
            np.testing.assert_array_equal(x, y)

    def test_objective_does_not_increase(self):
        rng = np.random.default_rng(12)
        hits, trials = 0, 40
        for trial in range(trials):
            net = make_net(seed=trial)
            buf = filled_buffer(rng, capacity=2, per_task=4, span=INNER)
            mem = sample_memory(buf, 4, default_rng(trial))
            other = class_batch(rng, 4, task=1, classes=4)
            d = -backward(net, *other)[0]
            before = editing_objective(net, mem.inputs, mem.labels, task_slices(mem.task_ids), d)
            edit_memory_emgd(buf, net, mem, d, 1e-3)
            edited = buf.x[mem.slot_indices]
            assert_clamp_idle(edited)
            after = editing_objective(net, edited, mem.labels, task_slices(mem.task_ids), d)
            if after <= before + 1e-6:
                hits += 1
        assert hits >= 0.95 * trials

    def test_clamp_pins_to_unit_interval(self):
        rng = np.random.default_rng(13)
        net = make_net()
        buf = MemoryBuffer(2)
        batch = Batch(np.zeros((2, 6)), [0, 1], 1)  # already at the boundary
        insert(buf, task_spec(batch, [0, 1]), default_rng(0))
        mem = sample_memory(buf, 2, default_rng(1))
        edit_memory_emgd(buf, net, mem, rng.normal(size=net.backbone_dim) * 10,
                         1.0)
        for x in buf.x:
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_sorted_slices_equal_one_call_per_group(self):
        # three tasks, and more rows than slots, so rows repeat
        rng = np.random.default_rng(20)
        net = make_net(heads=((1, 4), (2, 3), (3, 3)))
        buf = filled_buffer(rng, capacity=2, tasks=(1, 2, 3), per_task=5, span=INNER)
        mem = sample_memory(buf, buf.occupancy + 5, default_rng(6))
        assert len(set(mem.slot_indices.tolist())) < len(mem.labels)
        assert np.all(np.diff(mem.task_ids) >= 0)  # sorted by task at sampling
        assert len(np.unique(mem.task_ids)) >= 2
        d = rng.normal(size=net.backbone_dim)
        x0, eta = mem.inputs.copy(), 0.5
        expected, objective = x0.copy(), 0.0
        for t in np.unique(mem.task_ids):
            mask = mem.task_ids == t
            delta, value = edit_direction(net, x0[mask], mem.labels[mask],
                                          [(int(t), slice(None))], d)
            expected[mask] = x0[mask] - eta * delta
            objective += value
        before, after = edit_memory_emgd(buf, net, mem, d, eta)
        edited = buf.x[mem.slot_indices]  # a repeated slot's rows edit alike
        assert_clamp_idle(edited)
        np.testing.assert_allclose(edited, expected, rtol=1e-12, atol=1e-15)
        assert before == pytest.approx(objective, rel=1e-12)
        assert before == editing_objective(net, x0, mem.labels, task_slices(mem.task_ids), d)
        assert after == editing_objective(net, edited, mem.labels, task_slices(mem.task_ids), d)
        np.testing.assert_array_equal(mem.inputs, x0)  # the batch keeps its sampled rows

    def test_write_back_keeps_the_last_row_of_a_repeated_slot(self):
        rng = np.random.default_rng(26)
        buf = filled_buffer(rng, tasks=(1, 2, 3))
        mem = sample_memory(buf, buf.occupancy + 9, default_rng(4))
        assert len(set(mem.slot_indices.tolist())) < len(mem.labels)
        edited = rng.uniform(0.0, 1.0, mem.inputs.shape)  # repeated slots get different rows
        _write_back(buf, mem, edited)
        for slot in set(mem.slot_indices.tolist()):
            last = np.flatnonzero(mem.slot_indices == slot)[-1]
            np.testing.assert_array_equal(buf.x[slot], edited[last])

    def test_returns_objective_before_the_edit(self):
        # and after it, at the rows written back
        rng = np.random.default_rng(21)
        net = make_net()
        buf = filled_buffer(rng)
        mem = sample_memory(buf, 4, default_rng(5))
        d = rng.normal(size=net.backbone_dim)
        for eta in (ETA_EDIT, 0.5):
            x0 = buf.x[mem.slot_indices]  # each edit starts from the rows the last one stored
            mem = MemoryBatch(x0, mem.labels, mem.task_ids, mem.slot_indices)
            expected = editing_objective(net, x0, mem.labels, task_slices(mem.task_ids), d)
            before, after = edit_memory_emgd(buf, net, mem, d, eta)
            edited = buf.x[mem.slot_indices]
            assert before == expected
            assert after == editing_objective(net, edited, mem.labels,
                                              task_slices(mem.task_ids), d)
            assert (after == before) == np.array_equal(edited, x0)

    def test_edits_touch_only_inputs(self):
        rng = np.random.default_rng(14)
        net = make_net()
        buf = filled_buffer(rng)
        mem = sample_memory(buf, 4, default_rng(2))
        slots_before, backbone_before, heads_before = snapshot(buf, net)
        edit_memory_emgd(buf, net, mem, rng.normal(size=net.backbone_dim), ETA_EDIT)
        np.testing.assert_array_equal(net.theta.copy(), backbone_before)
        for t, flat in heads_before.items():
            np.testing.assert_array_equal(net.heads[t], flat)
        for (x0, label, task, cls), *now in zip(slots_before, buf.label, buf.task_id,
                                                 buf.class_id):
            assert tuple(now) == (label, task, cls)

    def test_matches_scalar_finite_difference(self):
        # oracle: central difference of the editing objective in one input entry
        # at a time, over a two-task batch
        rng = np.random.default_rng(16)
        net = make_net()
        buf = filled_buffer(rng, capacity=2, per_task=4, span=INNER)
        mem = sample_memory(buf, 6, default_rng(4))
        groups = task_slices(mem.task_ids)
        assert len(groups) == 2 and len(set(mem.slot_indices.tolist())) == 6
        d = -backward(net, *class_batch(rng, 3, task=1, classes=4))[0]
        eta = 0.05
        x0 = mem.inputs.copy()
        edit_memory_emgd(buf, net, mem, d, eta)
        edited = buf.x[mem.slot_indices]
        assert_clamp_idle(edited)
        applied = (x0 - edited) / eta  # recovered gradient
        h = 1e-6
        for _ in range(12):
            i = int(rng.integers(x0.shape[0]))
            j = int(rng.integers(x0.shape[1]))
            xp = x0.copy()
            xp[i, j] += h
            up = editing_objective(net, xp, mem.labels, groups, d)
            xp[i, j] -= 2 * h
            down = editing_objective(net, xp, mem.labels, groups, d)
            assert applied[i, j] == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("eta, span", [(0.02, INNER), (0.5, (0.99, 1.0))],
                             ids=["inside", "clamped"])
    def test_matches_per_group_oracle(self, eta, span):
        # three tasks in the batch, drawn with replacement so slots repeat; the
        # oracle edits one task group at a time through a stream of its own,
        # clamps the same way and writes back the last row of a repeated slot
        rng = np.random.default_rng(22)
        buf = filled_buffer(rng, tasks=(1, 2, 3), span=span)
        mem = sample_memory(buf, buf.occupancy + 9, default_rng(6))
        assert len(set(mem.slot_indices.tolist())) < len(mem.labels)
        net = make_net(heads=((1, 4), (2, 3), (3, 5)))
        d = rng.normal(size=net.backbone_dim) * 5
        groups = task_slices(mem.task_ids)
        assert len(groups) == 3
        expected, objective = mem.inputs.copy(), 0.0
        for task_id, rows in groups:
            delta, value = group_stream_edit(net, mem.inputs[rows], mem.labels[rows],
                                             [(task_id, slice(None))], d)
            expected[rows] = np.clip(mem.inputs[rows] - eta * delta, 0.0, 1.0)
            objective += value
        oracle = copy.deepcopy(buf)
        _write_back(oracle, mem, expected)
        before, after = edit_memory_emgd(buf, net, mem, d, eta)
        edited = buf.x[mem.slot_indices]
        assert before == pytest.approx(objective, rel=1e-12)
        assert after == editing_objective(net, edited, mem.labels, groups, d)
        assert not np.array_equal(edited, mem.inputs)  # the edit moved rows
        if span == INNER:
            assert_clamp_idle(edited)
        else:
            assert np.any(edited == 1.0)  # the clamp binds
        np.testing.assert_allclose(buf.x, oracle.x, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tasks", [(1,), (1, 2, 3)])
    @pytest.mark.parametrize("eta", [0.05, 1.0])
    def test_never_writes_the_backbone(self, tasks, eta):
        # a read-only backbone gives the same edit as a writable one, at the
        # default step and at the largest allowed one, on either editing kernel
        rng = np.random.default_rng(23)
        buf = filled_buffer(rng, tasks=tasks)
        mem = sample_memory(buf, 8, default_rng(7))
        assert len(np.unique(mem.task_ids)) == len(tasks)
        nets = [make_net(heads=((1, 4), (2, 3), (3, 5))) for _ in range(2)]
        frozen = nets[0]
        for array in (frozen.theta, *(v for layer in frozen.backbone for v in layer)):
            array.flags.writeable = False
        d = rng.normal(size=frozen.backbone_dim)
        bufs = [copy.deepcopy(buf) for _ in range(2)]
        results = [edit_memory_emgd(b, net, mem, d, eta) for b, net in zip(bufs, nets)]
        assert results[0] == results[1]
        np.testing.assert_array_equal(bufs[0].x, bufs[1].x)
        np.testing.assert_array_equal(frozen.theta, nets[1].theta)
        assert not np.array_equal(bufs[0].x[mem.slot_indices], mem.inputs)


@pytest.mark.parametrize("offset", [-1, 1], ids=["short", "long"])
def test_editor_rejects_a_direction_of_another_dimension(offset):
    # a two-task batch takes the factored editing kernel, a one-task batch the explicit one
    net = make_net()
    sizes = net.layer_sizes
    for tasks, factored in (((1, 2), True), ((1,), False)):
        rng = np.random.default_rng(29)
        buf = filled_buffer(rng, tasks=tasks)
        mem = sample_memory(buf, 4, default_rng(1))
        assert len(np.unique(mem.task_ids)) == len(tasks)
        kernels = [_factored(4, len(tasks), fi, fo) for fi, fo in zip(sizes, sizes[1:])]
        assert kernels == [factored] * 2
        before = buf.x.copy()
        with pytest.raises(InvalidInputError, match="dimension"):
            edit_memory_emgd(buf, net, mem, np.zeros(net.backbone_dim + offset), ETA_EDIT)
        np.testing.assert_array_equal(buf.x, before)


class TestEditPasses:
    """The editor's passes over the memory batch, counted as backbone forwards."""

    @staticmethod
    def count_forwards(monkeypatch) -> list:
        calls, activations = [], emgd.net._activations

        def counted(net, inputs):
            calls.append(len(inputs))
            return activations(net, inputs)

        monkeypatch.setattr(emgd.net, "_activations", counted)
        return calls

    @pytest.mark.parametrize("tasks", [(1,), (1, 2), (1, 2, 3)],
                             ids=["one-task", "two-task", "three-task"])
    def test_one_step_and_one_pass_after(self, monkeypatch, tasks):
        # one edit_direction, also giving the objective before the edit, and
        # one editing_objective pass after it, whichever kernel the batch takes
        rng = np.random.default_rng(27)
        net = make_net(heads=((1, 4), (2, 3), (3, 5)))
        buf = filled_buffer(rng, tasks=tasks)
        mem = sample_memory(buf, 8, default_rng(3))
        assert len(np.unique(mem.task_ids)) == len(tasks)
        d = rng.normal(size=net.backbone_dim)
        expected = editing_objective(net, mem.inputs, mem.labels, task_slices(mem.task_ids), d)
        calls = self.count_forwards(monkeypatch)
        before, after = edit_memory_emgd(buf, net, mem, d, 0.2)
        assert calls == [len(mem.labels)] * 2
        assert before == expected
        assert after != before


class TestQuadraticEditingOracle:
    def test_descends_to_the_analytic_minimizer(self):
        # loss(theta, x) = (theta x)^2 / 2: iterating the editing rule on
        # ||g(x) - d||^2 converges to theta x^2 = -d, and the directional
        # core reproduces the analytic gradient trajectory step for step
        theta, d = 1.5, -2.0
        x_analytic = x_core = 0.5
        target = np.sqrt(-d / theta)
        for _ in range(200):
            x_analytic -= 0.02 * 4 * theta * x_analytic * (theta * x_analytic**2 + d)
            v = np.array([-theta * x_core**2 - d])
            step = directional_edit_gradient(
                lambda th: th**2 * x_core, np.array([theta]), v, eps=1e-5
            )
            if step is None:  # converged: g(x) already matches d
                continue
            x_core -= 0.02 * float(step[0])
        assert x_analytic == pytest.approx(target, abs=1e-6)
        assert x_core == pytest.approx(x_analytic, abs=1e-6)


def shared_class_buffer(rng, capacity=4, tasks=(1, 2, 3), per_task=20, dim=6):
    """Tasks whose head-local label ``l`` is global class ``(l + task) % 4``:
    every class is streamed by several tasks, each under its own label."""
    buf = MemoryBuffer(capacity)
    for t in tasks:
        batch = class_batch(rng, per_task, dim=dim, task=t, classes=4)
        insert(buf, task_spec(batch, (batch.labels + t) % 4), rng)
    return buf


def buffer_in_state(state):
    if state == "empty":
        return MemoryBuffer(3)
    rng = np.random.default_rng(21)
    buf = shared_class_buffer(rng)
    assert sum(buf.seen_counts.values()) > buf.occupancy  # reservoir replaced slots
    if state == "edited":
        net = make_net(heads=((1, 4), (2, 4), (3, 4)))
        before = buf.x.copy()
        mem = sample_memory(buf, 6, default_rng(3))
        edit_memory_emgd(buf, net, mem, rng.normal(size=net.backbone_dim) * 10, 1.0)
        assert not np.array_equal(buf.x, before)
        assert ((buf.x == 0.0) | (buf.x == 1.0)).any()  # the step reached the clamp
    return buf


def slots_per_class(buf) -> Counter:
    return Counter(buf.class_id.tolist())


def non_negative_int(value) -> bool:
    return type(value) is int and value >= 0


def slot_field(a) -> bool:
    return a.dtype == np.int64 and a.ndim == 1 and bool((a >= 0).all())


# What holds of every buffer: after construction, after reservoir
# replacements, and after an editor has rewritten sampled rows.
BUFFER_INVARIANTS = {
    "capacity": lambda b: type(b.capacity_per_class) is int and b.capacity_per_class >= 1,
    "rows-are-2d-floats": lambda b: b.x.ndim == 2 and b.x.dtype == np.float64,
    "seen-counts": lambda b: all(non_negative_int(c) and non_negative_int(n) and n >= 1
                                 for c, n in b.seen_counts.items()),
    "slot-fields": lambda b: all(map(slot_field, (b.label, b.task_id, b.class_id))),
    "slots-fit-capacity": lambda b: all(n <= b.capacity_per_class
                                        for n in slots_per_class(b).values()),
    "slots-fit-seen-counts": lambda b: all(n <= b.seen_counts.get(c, 0)
                                           for c, n in slots_per_class(b).items()),
    "one-row-per-slot": lambda b: b.x.shape[0] == b.occupancy
    == b.task_id.size == b.class_id.size,
    "one-label-per-task-class": lambda b: len(set(zip(b.task_id.tolist(), b.class_id.tolist())))
    == len(set(zip(b.task_id.tolist(), b.class_id.tolist(), b.label.tolist()))),
    "rows-in-unit-cube": lambda b: bool(((b.x >= 0.0) & (b.x <= 1.0)).all()),
}


class TestBufferInvariants:
    @pytest.mark.parametrize("name", list(BUFFER_INVARIANTS))
    @pytest.mark.parametrize("state", ["empty", "replaced", "edited"])
    def test_every_state_keeps_the_invariant(self, state, name):
        assert BUFFER_INVARIANTS[name](buffer_in_state(state))

    def test_a_shared_class_keeps_rows_of_several_tasks(self):
        # the "replaced" state above is not vacuous for the per-task labels
        buf = buffer_in_state("replaced")
        tasks_of = {c: set(buf.task_id[buf.class_id == c].tolist())
                    for c in set(buf.class_id.tolist())}
        assert max(map(len, tasks_of.values())) >= 2
