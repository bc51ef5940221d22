import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgd.errors import EmptyMemoryError, FormatError, InvalidInputError
from emgd.net import (
    Batch,
    Network,
    add_head,
    backward,
    edit_direction,
    forward,
    stream_gradients,
)
from emgd.rehearsal import (
    EditConfig,
    MemoryBatch,
    MemoryBuffer,
    _write_back,
    edit_memory_emgd,
    edit_memory_gmed,
    editing_objective,
    insert,
    load_buffer_snapshot,
    memory_gradient,
    sample_memory,
    save_buffer_snapshot,
)
from oracles import (SlotListBuffer, directional_edit_gradient, per_group_gmed,
                     slot_list_insert)

CHI2_99_DF5 = 15.086
CHI2_99_DF7 = 18.475


def class_batch(rng, n, dim=6, task=1, classes=4, label=None):
    labels = np.full(n, label, dtype=np.int64) if label is not None else rng.integers(0, classes, n)
    return Batch(rng.uniform(0, 1, (n, dim)), labels, task)


def make_net(seed=0, dim=6, heads=((1, 4), (2, 3))):
    net = Network((dim, 8, 5), seed=seed)
    for task, classes in heads:
        add_head(net, task, classes, seed=seed + task)
    return net


def class_counts(buf):
    return Counter(buf.class_id.tolist())


def filled_buffer(rng, capacity=3, tasks=(1, 2), per_task=6, dim=6):
    buf = MemoryBuffer(capacity)
    for t in tasks:
        batch = class_batch(rng, per_task, dim=dim, task=t, classes=3)
        insert(buf, batch, class_ids=10 * t + batch.labels, seed_or_rng=rng)
    return buf


class TestInsert:
    def test_under_capacity_keeps_everything(self):
        rng = np.random.default_rng(0)
        buf = MemoryBuffer(5)
        batch = class_batch(rng, 3, label=0)
        insert(buf, batch, class_ids=[7, 7, 7], seed_or_rng=1)
        assert buf.occupancy == 3
        assert class_counts(buf) == {7: 3}

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(1)
        buf = MemoryBuffer(4)
        for _ in range(20):
            batch = class_batch(rng, 8, classes=3)
            insert(buf, batch, class_ids=batch.labels, seed_or_rng=rng)
        assert all(n <= 4 for n in class_counts(buf).values())
        assert buf.occupancy == sum(class_counts(buf).values())

    def test_inserting_one_class_never_evicts_another(self):
        rng = np.random.default_rng(2)
        buf = MemoryBuffer(2)
        b_batch = class_batch(rng, 2, label=1)
        insert(buf, b_batch, class_ids=[5, 5], seed_or_rng=3)
        before = buf.x[buf.class_id == 5]
        for _ in range(50):
            a_batch = class_batch(rng, 4, label=0)
            insert(buf, a_batch, class_ids=[9, 9, 9, 9], seed_or_rng=rng)
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
        for trial in range(trials):
            buf = MemoryBuffer(1)
            batch = Batch(inputs, np.zeros(n, dtype=np.int64), 1)
            insert(buf, batch, class_ids=np.zeros(n), seed_or_rng=trial)
            survivor = buf.x[0]
            counts[int(np.argmax((inputs == survivor).all(axis=1)))] += 1
        expected = trials / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_99_DF7

    def test_rejects_a_batch_of_another_width(self):
        rng = np.random.default_rng(3)
        buf = MemoryBuffer(2)
        insert(buf, class_batch(rng, 3, dim=6), class_ids=[0, 1, 2], seed_or_rng=0)
        with pytest.raises(InvalidInputError, match="width 5"):
            insert(buf, class_batch(rng, 2, dim=5), class_ids=[0, 1], seed_or_rng=0)
        assert buf.occupancy == 3 and buf.x.shape == (3, 6)


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
            insert(buf, batch, class_ids, draws)
            slot_list_insert(ref, batch, class_ids, ref_draws)
            assert_matches_slot_list(buf, ref)
        assert draws.random() == ref_draws.random()  # the same reservoir draws were made

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_a_victim_drawn_twice_keeps_the_later_row(self, capacity):
        rng = np.random.default_rng(30)
        n, seed = 40, 7
        buf, ref = MemoryBuffer(capacity), SlotListBuffer(capacity)
        batch = Batch(rng.uniform(0.0, 1.0, (n, 4)), np.zeros(n, dtype=np.int64), 1)
        insert(buf, batch, np.zeros(n), seed)
        slot_list_insert(ref, batch, np.zeros(n), seed)
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
        with pytest.raises(EmptyMemoryError):
            sample_memory(MemoryBuffer(2), 4, 0)

    def test_single_slot(self):
        rng = np.random.default_rng(4)
        buf = MemoryBuffer(1)
        batch = class_batch(rng, 1, label=2)
        insert(buf, batch, class_ids=[3], seed_or_rng=0)
        mem = sample_memory(buf, 1, 5)
        np.testing.assert_array_equal(mem.inputs[0], batch.inputs[0])
        assert mem.task_ids[0] == 1

    def test_full_draw_is_exact_multiset(self):
        rng = np.random.default_rng(5)
        buf = filled_buffer(rng)
        mem = sample_memory(buf, buf.occupancy, 7)
        assert sorted(mem.slot_indices.tolist()) == list(range(buf.occupancy))

    def test_oversized_draw_uses_replacement(self):
        rng = np.random.default_rng(6)
        buf = MemoryBuffer(1)
        insert(buf, class_batch(rng, 1, label=0), class_ids=[0], seed_or_rng=0)
        mem = sample_memory(buf, 5, 8)
        assert mem.size == 5

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
            mem = sample_memory(buf, size, seed)
            picks = np.random.default_rng(seed).choice(buf.occupancy, size=size,
                                                       replace=size > buf.occupancy)
            assert np.all(np.diff(mem.task_ids) >= 0)
            order = np.argsort(buf.task_id[picks], kind="stable")
            np.testing.assert_array_equal(mem.slot_indices, picks[order])
            np.testing.assert_array_equal(mem.inputs, buf.x[mem.slot_indices])
            np.testing.assert_array_equal(mem.labels, buf.label[mem.slot_indices])
            np.testing.assert_array_equal(mem.task_ids, buf.task_id[mem.slot_indices])
            np.testing.assert_array_equal(mem.class_ids, buf.class_id[mem.slot_indices])


class TestInterleavedBatch:
    """Memory batches are task-sorted at sampling; the gradient pass and
    both editors read each task's rows as one slice and reject a batch
    whose task ids interleave, before touching the buffer or the net."""

    def interleaved(self, buf):
        mem = sample_memory(buf, buf.occupancy, 0)
        ones, twos = np.flatnonzero(mem.task_ids == 1), np.flatnonzero(mem.task_ids == 2)
        rows = [ones[0], twos[0], ones[1]]
        return MemoryBatch(mem.inputs[rows], mem.labels[rows], mem.task_ids[rows],
                           mem.class_ids[rows], mem.slot_indices[rows])

    @pytest.mark.parametrize("call", [
        lambda net, buf, mem, d: stream_gradients(
            net, [(mem.inputs, mem.labels, mem.task_ids, 0.3)]),
        lambda net, buf, mem, d: edit_memory_emgd(buf, net, mem, d, EditConfig()),
        lambda net, buf, mem, d: edit_memory_gmed(buf, net, mem, d, EditConfig()),
    ], ids=["stream_gradients", "edit_memory_emgd", "edit_memory_gmed"])
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
        mem = sample_memory(buf, buf.occupancy, 1)
        backbone, loss, heads = memory_gradient(net, mem)
        rep = backward(net, Batch(mem.inputs, mem.labels, 1))
        np.testing.assert_allclose(backbone, rep.backbone_grad, atol=1e-14)
        assert loss == pytest.approx(rep.loss, abs=1e-14)
        np.testing.assert_allclose(heads[1], rep.head_grad, atol=1e-14)

    def test_mixed_batch_weights_by_group_size(self):
        rng = np.random.default_rng(9)
        net = make_net()
        buf = filled_buffer(rng, tasks=(1, 2), per_task=3)
        mem = sample_memory(buf, buf.occupancy, 2)
        backbone, loss, heads = memory_gradient(net, mem)
        total = np.zeros_like(backbone)
        check_loss = forward_loss = 0.0
        for t in (1, 2):
            mask = mem.task_ids == t
            if not mask.any():
                continue
            group = Batch(mem.inputs[mask], mem.labels[mask], t)
            rep = backward(net, group)
            w = mask.sum() / mem.size
            total += w * rep.backbone_grad
            check_loss += w * rep.loss
            forward_loss += w * forward(net, group)[1]
            np.testing.assert_allclose(heads[t], w * rep.head_grad, atol=1e-14)
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
            mem = sample_memory(buf, size, draw)
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
            np.testing.assert_array_equal(net.flatten_backbone(), ref.flatten_backbone())


def per_group_memory_gradient(net, mem, head_step):
    """Reference memory gradient: one backward per task group, with the
    head step as a separate backward and head update before it."""
    groups = [(int(t), mem.task_ids == t) for t in np.unique(mem.task_ids)]

    def group_batch(t, mask):
        return Batch(mem.inputs[mask], mem.labels[mask], t)

    if head_step > 0:
        steps = {
            t: (mask.sum() / mem.size * backward(net, group_batch(t, mask)).head_grad, head_step)
            for t, mask in groups
        }
        for t, (grad, step) in steps.items():
            net.heads[t] -= step * grad
    backbone = np.zeros(net.backbone_dim)
    heads, loss = {}, 0.0
    for t, mask in groups:
        w = mask.sum() / mem.size
        rep = backward(net, group_batch(t, mask))
        backbone += w * rep.backbone_grad
        heads[t] = w * rep.head_grad
        loss += w * rep.loss
    return backbone, loss, heads


def snapshot(buf, net):
    slots = list(zip(buf.x.copy(), buf.label.tolist(), buf.task_id.tolist(),
                     buf.class_id.tolist()))
    return slots, net.flatten_backbone().copy(), {
        t: net.heads[t].copy() for t in net.heads
    }


class TestEditEmgd:
    def test_aligned_direction_changes_nothing(self):
        rng = np.random.default_rng(10)
        net = make_net()
        buf = filled_buffer(rng, tasks=(1,), per_task=3)
        mem = sample_memory(buf, buf.occupancy, 3)
        g, _, _ = memory_gradient(net, mem)
        before = buf.x.copy()
        edit_memory_emgd(buf, net, mem, -g, EditConfig())
        for x, y in zip(before, buf.x):
            np.testing.assert_array_equal(x, y)

    def test_zero_eta_is_bit_exact_noop(self):
        rng = np.random.default_rng(11)
        net = make_net()
        buf = filled_buffer(rng)
        mem = sample_memory(buf, 4, 4)
        before = buf.x.copy()
        edit_memory_emgd(buf, net, mem, rng.normal(size=net.backbone_dim), EditConfig(eta_edit=0.0))
        for x, y in zip(before, buf.x):
            np.testing.assert_array_equal(x, y)

    def test_objective_does_not_increase(self):
        rng = np.random.default_rng(12)
        hits, trials = 0, 40
        for trial in range(trials):
            net = make_net(seed=trial)
            buf = filled_buffer(rng, capacity=2, per_task=4)
            mem = sample_memory(buf, 4, trial)
            other = class_batch(rng, 4, task=1, classes=4)
            d = -backward(net, other).backbone_grad
            before = editing_objective(net, mem.inputs, mem, d)
            edit_memory_emgd(buf, net, mem, d, EditConfig(eta_edit=1e-3, clamp=False))
            after = editing_objective(net, mem.inputs, mem, d)
            if after <= before + 1e-6:
                hits += 1
        assert hits >= 0.95 * trials

    def test_clamp_pins_to_unit_interval(self):
        rng = np.random.default_rng(13)
        net = make_net()
        buf = MemoryBuffer(2)
        batch = Batch(np.zeros((2, 6)), [0, 1], 1)  # already at the boundary
        insert(buf, batch, class_ids=[0, 1], seed_or_rng=0)
        mem = sample_memory(buf, 2, 1)
        edit_memory_emgd(buf, net, mem, rng.normal(size=net.backbone_dim) * 10,
                         EditConfig(eta_edit=1.0))
        for x in buf.x:
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_sorted_slices_equal_one_call_per_group(self):
        # three tasks, and more rows than slots, so rows repeat
        rng = np.random.default_rng(20)
        net = make_net(heads=((1, 4), (2, 3), (3, 3)))
        buf = filled_buffer(rng, capacity=2, tasks=(1, 2, 3), per_task=5)
        mem = sample_memory(buf, buf.occupancy + 5, 6)
        assert len(set(mem.slot_indices.tolist())) < mem.size
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
        before = edit_memory_emgd(buf, net, mem, d, EditConfig(eta_edit=eta, clamp=False))
        np.testing.assert_allclose(mem.inputs, expected, rtol=1e-12, atol=1e-15)
        assert before == pytest.approx(objective, rel=1e-12)
        assert before == editing_objective(net, x0, mem, d)
        for slot in set(mem.slot_indices.tolist()):  # the last row of a slot wins
            last = np.flatnonzero(mem.slot_indices == slot)[-1]
            np.testing.assert_array_equal(buf.x[slot], mem.inputs[last])

    def test_write_back_keeps_the_last_row_of_a_repeated_slot(self):
        rng = np.random.default_rng(26)
        buf = filled_buffer(rng, tasks=(1, 2, 3))
        mem = sample_memory(buf, buf.occupancy + 9, 4)
        assert len(set(mem.slot_indices.tolist())) < mem.size
        edited = rng.uniform(0.0, 1.0, mem.inputs.shape)  # repeated slots get different rows
        _write_back(buf, mem, edited, clamp=False)
        for slot in set(mem.slot_indices.tolist()):
            last = np.flatnonzero(mem.slot_indices == slot)[-1]
            np.testing.assert_array_equal(buf.x[slot], edited[last])

    def test_returns_objective_before_the_edit(self):
        rng = np.random.default_rng(21)
        net = make_net()
        buf = filled_buffer(rng)
        mem = sample_memory(buf, 4, 5)
        d = rng.normal(size=net.backbone_dim)
        for edit, cfg in ((edit_memory_emgd, EditConfig(iterations=0)),
                          (edit_memory_emgd, EditConfig(eta_edit=0.0)),
                          (edit_memory_emgd, EditConfig(eta_edit=0.5, iterations=3)),
                          (edit_memory_gmed, EditConfig())):
            expected = editing_objective(net, mem.inputs, mem, d)
            assert edit(buf, net, mem, d, cfg) == expected

    def test_edits_touch_only_inputs(self):
        rng = np.random.default_rng(14)
        net = make_net()
        buf = filled_buffer(rng)
        mem = sample_memory(buf, 4, 2)
        slots_before, backbone_before, heads_before = snapshot(buf, net)
        edit_memory_emgd(buf, net, mem, rng.normal(size=net.backbone_dim), EditConfig())
        np.testing.assert_array_equal(net.flatten_backbone(), backbone_before)
        for t, flat in heads_before.items():
            np.testing.assert_array_equal(net.heads[t], flat)
        for (x0, label, task, cls), *now in zip(slots_before, buf.label, buf.task_id,
                                                 buf.class_id):
            assert tuple(now) == (label, task, cls)


class TestEditGmed:
    def test_zero_direction_zero_edit(self):
        rng = np.random.default_rng(15)
        net = make_net()
        buf = filled_buffer(rng)
        mem = sample_memory(buf, 4, 3)
        before = buf.x.copy()
        edit_memory_gmed(buf, net, mem, np.zeros(net.backbone_dim), EditConfig())
        for x, y in zip(before, buf.x):
            np.testing.assert_array_equal(x, y)

    def test_matches_scalar_finite_difference(self):
        # oracle: central difference of (loss(x,theta) - loss(x,theta'))^2
        rng = np.random.default_rng(16)
        net = make_net()
        buf = filled_buffer(rng, tasks=(1,), capacity=2, per_task=2)
        mem = sample_memory(buf, 2, 4)
        d = -backward(net, class_batch(rng, 3, task=1, classes=4)).backbone_grad
        eta = 0.05
        theta = net.flatten_backbone().copy()
        theta_ahead = theta + eta * d

        def squared_diff(inputs):
            batch = Batch(inputs, mem.labels, 1)
            net.set_backbone_flat(theta)
            _, l_now = forward(net, batch)
            net.set_backbone_flat(theta_ahead)
            _, l_ahead = forward(net, batch)
            net.set_backbone_flat(theta)
            return (l_now - l_ahead) ** 2

        x0 = mem.inputs.copy()
        edit_memory_gmed(buf, net, mem, d, EditConfig(eta_edit=eta, clamp=False))
        applied = (x0 - mem.inputs) / eta  # recovered gradient estimate
        h = 1e-6
        for _ in range(10):
            i = int(rng.integers(x0.shape[0]))
            j = int(rng.integers(x0.shape[1]))
            xp = x0.copy()
            xp[i, j] += h
            up = squared_diff(xp)
            xp[i, j] -= 2 * h
            down = squared_diff(xp)
            fd = (up - down) / (2 * h)
            assert applied[i, j] == pytest.approx(fd, rel=1e-3, abs=1e-8)

    def test_clamp_behavior_matches_emgd_editing(self):
        rng = np.random.default_rng(17)
        net = make_net()
        buf = MemoryBuffer(2)
        insert(buf, Batch(np.zeros((2, 6)), [0, 1], 1), class_ids=[0, 1], seed_or_rng=0)
        mem = sample_memory(buf, 2, 1)
        edit_memory_gmed(buf, net, mem, rng.normal(size=net.backbone_dim) * 10,
                         EditConfig(eta_edit=1.0))
        for x in buf.x:
            assert x.min() >= 0.0 and x.max() <= 1.0

    @pytest.mark.parametrize("cfg", [EditConfig(eta_edit=0.5, iterations=3, clamp=False),
                                     EditConfig(eta_edit=0.2, iterations=2)])
    def test_matches_per_group_oracle(self, cfg):
        # three tasks in the batch, drawn with replacement so slots repeat;
        # the oracle edits one task group at a time
        rng = np.random.default_rng(22)
        buf = filled_buffer(rng, tasks=(1, 2, 3))
        mem = sample_memory(buf, buf.occupancy + 9, 6)
        assert len(set(mem.slot_indices.tolist())) < mem.size
        assert np.all(np.diff(mem.task_ids) >= 0)  # sorted by task at sampling
        assert len(np.unique(mem.task_ids)) >= 2
        nets = [make_net(heads=((1, 4), (2, 3), (3, 5))) for _ in range(2)]
        d = rng.normal(size=nets[0].backbone_dim) * 5
        bufs = [copy.deepcopy(buf) for _ in range(2)]
        mems = [copy.deepcopy(mem) for _ in range(2)]
        got = edit_memory_gmed(bufs[0], nets[0], mems[0], d, cfg)
        expected = per_group_gmed(bufs[1], nets[1], mems[1], d, cfg)
        assert got == expected
        assert not np.array_equal(mems[0].inputs, mem.inputs)  # the edit moved rows
        np.testing.assert_allclose(mems[0].inputs, mems[1].inputs, rtol=1e-12, atol=0)
        for a, b in zip(bufs[0].x, bufs[1].x):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(nets[0].theta, nets[1].theta)

    @pytest.mark.parametrize("tasks", [(1,), (1, 2, 3)])
    @pytest.mark.parametrize("iterations", [0, 1, 3])
    def test_writes_backbone_twice_per_iteration(self, monkeypatch, tasks, iterations):
        rng = np.random.default_rng(23)
        net = make_net(heads=((1, 4), (2, 3), (3, 5)))
        buf = filled_buffer(rng, tasks=tasks)
        mem = sample_memory(buf, 8, 7)
        assert len(np.unique(mem.task_ids)) == len(tasks)
        calls = []
        set_flat = Network.set_backbone_flat
        monkeypatch.setattr(Network, "set_backbone_flat",
                            lambda self, flat: calls.append(1) or set_flat(self, flat))
        edit_memory_gmed(buf, net, mem, rng.normal(size=net.backbone_dim),
                         EditConfig(iterations=iterations))
        assert len(calls) == 2 * iterations + 1

    def test_restores_parameters(self):
        rng = np.random.default_rng(18)
        net = make_net()
        buf = filled_buffer(rng)
        mem = sample_memory(buf, 3, 9)
        before = net.flatten_backbone().copy()
        edit_memory_gmed(buf, net, mem, rng.normal(size=net.backbone_dim), EditConfig())
        np.testing.assert_array_equal(net.flatten_backbone(), before)


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


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        buf = filled_buffer(rng)
        path = tmp_path / "buffer.bin"
        save_buffer_snapshot(buf, path)
        back = load_buffer_snapshot(path)
        assert back.occupancy == buf.occupancy
        assert back.capacity_per_class == buf.capacity_per_class
        assert back.seen_counts == buf.seen_counts
        for i in range(buf.occupancy):
            np.testing.assert_array_equal(buf.x[i], back.x[i])
            assert ((buf.label[i], buf.task_id[i], buf.class_id[i])
                    == (back.label[i], back.task_id[i], back.class_id[i]))

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(20)
        buf = filled_buffer(rng)
        path = tmp_path / "buffer.bin"
        save_buffer_snapshot(buf, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])  # one float64 short: the last slot would lose a dim
        with pytest.raises(FormatError) as err:
            load_buffer_snapshot(path)
        assert err.value.offset == len(raw) - 8

    @pytest.mark.parametrize("dim", ["6", -1, 1.5])
    def test_rejects_bad_dim(self, tmp_path, dim):
        from emgd.net import write_blob

        path = tmp_path / "buffer.bin"
        header = {"kind": "memory-buffer", "capacity_per_class": 2, "dim": dim,
                  "seen_counts": {}, "slots": []}
        write_blob(path, header, np.zeros(0))
        with pytest.raises(FormatError, match="dim"):
            load_buffer_snapshot(path)

    @pytest.mark.parametrize("field, change", [
        ("capacity_per_class", {"capacity_per_class": None}),
        ("dim", {"dim": None}),
        ("slots", {"slots": None}),
        ("seen_counts", {"seen_counts": None}),
        ("capacity_per_class", {"capacity_per_class": 2.0}),
        ("slots", {"slots": {"0": 1}}),
        ("seen_counts", {"seen_counts": [1]}),
        ("seen_counts", {"seen_counts": {"x": 1}}),
        ("seen_counts.0", {"seen_counts": {"0": "1"}}),
        ("slots.0.label", {"slots": [{"task": 1, "class": 0}]}),
        ("slots.0.class", {"slots": [{"task": 1, "class": "0", "label": 0}]}),
        ("slots.0.label", {"slots": [7]}),
        ("slots.0.label", {"slots": [{"task": 1, "class": 0, "label": -7}]}),
        ("slots.0.task", {"slots": [{"task": -1, "class": 0, "label": 0}]}),
        ("slots.0.class", {"slots": [{"task": 1, "class": -2, "label": 0}]}),
        ("seen_counts.0", {"seen_counts": {"0": -5}}),
    ])
    def test_missing_or_ill_typed_header_field(self, tmp_path, field, change):
        from emgd.net import write_blob

        header = {"kind": "memory-buffer", "capacity_per_class": 2, "dim": 3,
                  "seen_counts": {"0": 1},
                  "slots": [{"task": 1, "class": 0, "label": 0}]}
        header.update(change)
        header = {k: v for k, v in header.items() if v is not None}
        path = tmp_path / "buffer.bin"
        write_blob(path, header, np.zeros(3))
        with pytest.raises(FormatError, match=field) as err:
            load_buffer_snapshot(path)
        assert err.value.offset == 12

    @pytest.mark.parametrize("field, change", [
        # three class-0 slots under capacity 1 used to load with occupancy 3
        ("slots.1.class", {"capacity_per_class": 1,
                           "slots": [{"task": 1, "class": 0, "label": 0}] * 3}),
        ("seen_counts.0", {"slots": [{"task": 1, "class": 0, "label": 0}] * 2}),
        ("seen_counts.0", {"seen_counts": {"1": 4}}),  # class 0 stored, never seen
    ])
    def test_slot_counts_must_fit_capacity_and_seen_counts(self, tmp_path, field, change):
        from emgd.net import write_blob

        header = {"kind": "memory-buffer", "capacity_per_class": 2, "dim": 3,
                  "seen_counts": {"0": 1},
                  "slots": [{"task": 1, "class": 0, "label": 0}]}
        header.update(change)
        path = tmp_path / "buffer.bin"
        write_blob(path, header, np.zeros(3 * len(header["slots"])))
        with pytest.raises(FormatError, match=field) as err:
            load_buffer_snapshot(path)
        assert err.value.offset == 12

    def test_rejects_other_blobs(self, tmp_path):
        from emgd.net import write_blob

        path = tmp_path / "other.bin"
        write_blob(path, {"kind": "something-else"}, np.zeros(3))
        with pytest.raises(InvalidInputError):
            load_buffer_snapshot(path)


class TestEditConfig:
    def test_rejects_oversized_step(self):
        with pytest.raises(InvalidInputError):
            EditConfig(eta_edit=1.5)

    def test_rejects_bad_eps(self):
        # the editing gradient is exact: no finite-difference step to set
        with pytest.raises(TypeError, match="fd_eps"):
            EditConfig(fd_eps=0.0)
