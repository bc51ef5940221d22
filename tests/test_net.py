import math

import numpy as np
import pytest

from emgd.errors import InvalidInputError
from emgd.net import (
    Network,
    _edit_terms,
    _factored,
    _layers,
    _pass,
    add_head,
    apply_update,
    backward,
    edit_direction,
    editing_objective,
    features,
    head_logits,
    input_gradient,
    stream_gradients,
    task_slices,
)
from emgd.rehearsal import MemoryBatch, memory_gradient
from oracles import (Batch, _head_pass, central_difference_edit, directional_edit_gradient,
                     explicit_edit, forward, group_stream_edit, per_stream_gradients)


def make_net(rng_seed=1234, layers=(6, 10, 5), heads=((1, 4),)):
    net = Network(layers, seed=rng_seed)
    for task, classes in heads:
        add_head(net, task, classes, seed=rng_seed + task)
    return net


def make_batch(rng, net, task=1, size=4):
    classes = net.head_classes(task)
    return Batch(
        inputs=rng.uniform(0.0, 1.0, size=(size, net.input_dim)),
        labels=rng.integers(0, classes, size=size),
        task_id=task,
    )


def zero_net(layers=(6, 10, 5), heads=((1, 4),)):
    net = make_net(layers=layers, heads=heads)
    net.set_backbone_flat(np.zeros(net.backbone_dim))
    for task, classes in heads:
        net.heads[task][...] = 0.0
    return net


class TestForward:
    def test_zero_net_uniform_probabilities(self):
        net = zero_net()
        batch = Batch(np.zeros((3, 6)), [0, 1, 2], task_id=1)
        probs, loss = forward(net, batch)
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_rows_sum_to_one_and_loss_matches_direct(self):
        rng = np.random.default_rng(2)
        net = make_net()
        batch = make_batch(rng, net, size=7)
        probs, loss = forward(net, batch)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        direct = -np.log(probs[np.arange(7), batch.labels]).mean()
        assert loss == pytest.approx(direct, abs=1e-12)
        assert loss >= 0.0

    def test_forced_one_hot_drives_loss_to_zero(self):
        net = zero_net(layers=(2, 3), heads=((1, 2),))
        # bias-only head: a huge bias gap forces the probability onto class 0
        for gap in (5.0, 20.0, 50.0):
            flat = np.zeros((net.feature_dim + 1) * 2)
            flat[-2] = gap
            net.heads[1][...] = flat
            _, loss = forward(net, Batch(np.zeros((1, 2)), [0], task_id=1))
            assert loss <= math.exp(-gap) * 1.1 + 1e-12

    def test_missing_head(self):
        net = make_net()
        with pytest.raises(InvalidInputError, match="no head for task 9"):
            forward(net, Batch(np.zeros((1, 6)), [0], task_id=9))

    def test_label_out_of_range(self):
        net = make_net()
        with pytest.raises(InvalidInputError):
            forward(net, Batch(np.zeros((1, 6)), [4], task_id=1))

    def test_deterministic_replay(self):
        rng = np.random.default_rng(1234)
        net = make_net(rng_seed=1234)
        batch = make_batch(rng, net)
        _, loss_a = forward(net, batch)
        _, loss_b = forward(net, batch)
        assert loss_a == loss_b
        net2 = make_net(rng_seed=1234)
        _, loss_c = forward(net2, batch)
        assert loss_a == loss_c

    def test_logits_consistent_with_probabilities(self):
        rng = np.random.default_rng(6)
        net = make_net()
        batch = make_batch(rng, net, size=5)
        probs, _ = forward(net, batch)
        logits = head_logits(net, features(net, batch.inputs), 1)
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(z / z.sum(axis=1, keepdims=True), probs, atol=1e-14)
        with pytest.raises(InvalidInputError, match="no head for task 99"):
            head_logits(net, features(net, batch.inputs), 99)


def fd_param_gradient(net, batch, flat, coord, h=1e-5):
    saved = flat.copy()
    flat2 = saved.copy()
    flat2[coord] += h
    net.set_backbone_flat(flat2)
    _, up = forward(net, batch)
    flat2[coord] -= 2 * h
    net.set_backbone_flat(flat2)
    _, down = forward(net, batch)
    net.set_backbone_flat(saved)
    return (up - down) / (2 * h)


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            widths = (int(rng.integers(2, 8)), int(rng.integers(3, 12)), int(rng.integers(2, 6)))
            net = make_net(rng_seed=int(rng.integers(10_000)), layers=widths)
            batch = make_batch(rng, net, size=int(rng.integers(1, 6)))
            grad = backward(net, *batch)[0]
            flat = net.theta.copy()
            for coord in rng.choice(net.backbone_dim, size=10, replace=False):
                fd = fd_param_gradient(net, batch, flat, int(coord))
                assert grad[coord] == pytest.approx(
                    fd, rel=1e-4, abs=1e-9
                )

    def test_head_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        net = make_net()
        batch = make_batch(rng, net, size=3)
        head_grad = backward(net, *batch)[2][1]
        flat = net.heads[1].copy()
        h = 1e-5
        for coord in rng.choice(flat.size, size=8, replace=False):
            mod = flat.copy()
            mod[coord] += h
            net.heads[1][...] = mod
            _, up = forward(net, batch)
            mod[coord] -= 2 * h
            net.heads[1][...] = mod
            _, down = forward(net, batch)
            net.heads[1][...] = flat
            assert head_grad[coord] == pytest.approx(
                (up - down) / (2 * h), rel=1e-4, abs=1e-9
            )

    def test_zero_gradient_at_constructed_minimum(self):
        # zero parameters with a class-balanced batch: uniform probabilities
        # cancel against the one-hot targets in every gradient term
        net = zero_net()
        batch = Batch(np.zeros((4, 6)), [0, 1, 2, 3], task_id=1)
        grad, _, heads = backward(net, *batch)
        assert np.linalg.norm(grad) <= 1e-8
        assert np.linalg.norm(heads[1]) <= 1e-8

    def test_duplicating_samples_keeps_mean_gradient(self):
        rng = np.random.default_rng(10)
        net = make_net()
        batch = make_batch(rng, net, size=3)
        doubled = Batch(
            np.vstack([batch.inputs, batch.inputs]),
            np.concatenate([batch.labels, batch.labels]),
            task_id=1,
        )
        a_grad, a_loss, _ = backward(net, *batch)
        b_grad, b_loss, _ = backward(net, *doubled)
        np.testing.assert_allclose(a_grad, b_grad, atol=1e-14)
        assert a_loss == pytest.approx(b_loss, abs=1e-14)


class TestHeadStep:
    """``backward(..., head_step=s)`` folds backward, head update and a
    second backward into one pass."""

    @pytest.mark.parametrize("step", [0.05, 0.7])
    def test_equals_backward_step_backward_bitwise(self, step):
        rng = np.random.default_rng(11)
        heads = ((1, 4), (2, 3))
        ref = make_net(heads=heads)
        net = make_net(heads=heads)
        for _ in range(3):  # repeated steps, as over consecutive ticks
            batch = make_batch(rng, net, size=5)
            ref.heads[1] -= step * backward(ref, *batch)[2][1]
            expect_grad, expect_loss, expect_heads = backward(ref, *batch)
            grad, loss, got_heads = backward(net, *batch, head_step=step)
            np.testing.assert_array_equal(grad, expect_grad)
            np.testing.assert_array_equal(got_heads[1], expect_heads[1])
            assert loss == expect_loss
            for task, _ in heads:
                np.testing.assert_array_equal(net.heads[task], ref.heads[task])
            np.testing.assert_array_equal(net.theta.copy(), ref.theta.copy())

    def test_zero_step_leaves_head_unchanged(self):
        rng = np.random.default_rng(12)
        net = make_net()
        batch = make_batch(rng, net)
        head = net.heads[1].copy()
        heads = backward(net, *batch, head_step=0.0)[2]
        np.testing.assert_array_equal(net.heads[1], head)
        np.testing.assert_array_equal(heads[1], backward(net, *batch)[2][1])

    def test_step_lowers_batch_loss(self):
        rng = np.random.default_rng(13)
        net = make_net()
        batch = make_batch(rng, net, size=6)
        before = forward(net, batch)[1]
        loss = backward(net, *batch, head_step=0.1)[1]
        assert loss < before
        assert loss == forward(net, batch)[1]

    # stream_gradients returns no head gradients, so backward forms its own
    # from the pass; pin it to the closed form feats^T (p - onehot) / n
    @pytest.mark.parametrize("step", [0.0, 0.4])
    @pytest.mark.parametrize("seed", range(4))
    def test_head_gradient_is_the_closed_form_after_the_step(self, step, seed):
        rng = np.random.default_rng(300 + seed)
        classes = int(rng.integers(2, 7))
        net = make_net(rng_seed=seed, heads=((1, 3), (2, classes)))
        batch = make_batch(rng, net, task=2, size=int(rng.integers(1, 9)))
        feats = features(net, batch.inputs)
        W, b = net.head(2)
        _, before, _ = _head_pass(feats, batch.labels, W, b)
        expect_head = net.heads[2] - step * before
        other = net.heads[1].copy()
        _, got_loss, heads = backward(net, *batch, head_step=step)
        np.testing.assert_allclose(net.heads[2], expect_head, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(net.heads[1], other)
        W, b = net.head(2)
        _, after, loss = _head_pass(feats, batch.labels, W, b)
        assert list(heads) == [2]
        np.testing.assert_allclose(heads[2], after, rtol=1e-12, atol=1e-15)
        assert got_loss == pytest.approx(loss, rel=1e-12)


def random_tick(rng, same_classes, min_rows=2, layers=(8, 16, 6)):
    """Two identical nets and one tick's streams: a task-sorted memory batch
    over 1-6 heads with repeated rows, then 0-4 task batches, each on its own head.
    Every stream has at least ``min_rows`` rows."""
    mem_heads, tasks = int(rng.integers(1, 7)), int(rng.integers(0, 5))
    heads = [(t, 5 if same_classes else int(rng.integers(3, 10)))
             for t in range(1, mem_heads + tasks + 1)]
    net, ref = make_net(layers=layers, heads=heads), make_net(layers=layers, heads=heads)
    classes = dict(heads)
    size = max(min_rows, mem_heads + int(rng.integers(0, 12)))
    task_ids = np.concatenate([np.arange(1, mem_heads + 1),
                               rng.integers(1, mem_heads + 1, size - mem_heads)])
    rng.shuffle(task_ids)
    inputs = rng.uniform(0.0, 1.0, (size, layers[0]))
    labels = np.array([rng.integers(0, classes[t]) for t in task_ids])
    for _ in range(size // 3):  # repeated rows, as sampling with replacement gives
        i, j = rng.integers(0, size, 2)
        inputs[j], labels[j], task_ids[j] = inputs[i], labels[i], task_ids[i]
    order = np.argsort(task_ids, kind="stable")  # sampled memory comes sorted by task
    streams = [(inputs[order], labels[order], task_ids[order])]
    for t in range(mem_heads + 1, mem_heads + tasks + 1):
        streams.append(make_batch(rng, net, task=t, size=int(rng.integers(min_rows, 9))))
    return net, ref, streams


class TestStreamGradients:
    """``stream_gradients`` against the per-stream path it replaced
    (``grouped_backward`` per stream, then ``np.stack``), negated: the pass
    returns the bundle's negative gradients, and negation is exact. Bitwise
    when every head has the same class count and every stream at least two
    rows; a narrower head's padded softmax row, or a one-row stream (a
    vector-matrix product in the per-stream path), changes only the rounding.
    One head step serves the whole pass; at 0.0 every head stays put."""

    @pytest.mark.parametrize("head_step", [0.3, 0.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_same_class_counts_bitwise(self, seed, head_step):
        net, ref, streams = random_tick(np.random.default_rng(seed), True)
        for _ in range(2):  # a second tick reads the stepped heads
            grads, losses = stream_gradients(net, streams, head_step)
            ref_grads, ref_losses, ref_heads = per_stream_gradients(ref, streams, head_step)
            np.testing.assert_array_equal(grads, -ref_grads)
            assert losses == ref_losses
            for t in ref_heads:
                np.testing.assert_array_equal(net.heads[t], ref.heads[t])

    @pytest.mark.parametrize("head_step", [0.3, 0.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_class_counts_within_rounding(self, seed, head_step):
        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        net, ref, streams = random_tick(np.random.default_rng(100 + seed), False, min_rows=1)
        for _ in range(2):
            grads, losses = stream_gradients(net, streams, head_step)
            ref_grads, ref_losses, ref_heads = per_stream_gradients(ref, streams, head_step)
            assert all(close(g, -r) for g, r in zip(grads, ref_grads))
            assert losses == pytest.approx(ref_losses, rel=1e-12)
            for t in ref_heads:
                assert close(net.heads[t], ref.heads[t])

    def test_head_serving_two_streams_is_rejected(self):
        rng = np.random.default_rng(5)
        net = make_net(heads=((1, 4), (2, 3)))
        mem = make_batch(rng, net, task=1, size=4)
        task = make_batch(rng, net, task=2, size=3)
        heads = {t: h.copy() for t, h in net.heads.items()}
        mem_ids = np.array([1, 1, 1, 2])  # task 2's head also routes a memory row
        with pytest.raises(InvalidInputError, match="task 2"):
            stream_gradients(net, [(mem.inputs, np.zeros(4, dtype=np.int64), mem_ids), task],
                             0.3)
        for t, h in heads.items():
            np.testing.assert_array_equal(net.heads[t], h)


    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("per_row_ids", [False, True])
    def test_stream_with_no_rows_is_named(self, position, per_row_ids):
        rng = np.random.default_rng(6)
        net = make_net(heads=((1, 4), (2, 3)))
        task = make_batch(rng, net, task=2, size=3)
        empty = (np.zeros((0, task.inputs.shape[1])), np.zeros(0, dtype=np.int64),
                 np.zeros(0, dtype=np.int64) if per_row_ids else 1)
        streams = [task]
        streams.insert(position, empty)
        heads = {t: h.copy() for t, h in net.heads.items()}
        with pytest.raises(InvalidInputError, match=f"stream {position} has no rows"):
            stream_gradients(net, streams, 0.3)
        for t, h in heads.items():
            np.testing.assert_array_equal(net.heads[t], h)


class TestRowsAndLabels:
    """Every pass names inputs and labels that disagree on the row count,
    before any head steps; unchecked, the head stage indexes past the rows
    or the backward chain reads rows that have no label."""

    ENTRIES = {
        "stream_gradients": lambda net, x, y, d: stream_gradients(net, [(x, y, 1)], 0.3),
        "second_stream": lambda net, x, y, d: stream_gradients(
            net, [(x[:2], y[:2], 1), (x[2:], y[2:], 2)], 0.3),
        "backward": lambda net, x, y, d: backward(net, x, y, 1, head_step=0.3),
        "memory_gradient": lambda net, x, y, d: memory_gradient(
            net, MemoryBatch(x, y, np.repeat([1, 2], [2, len(y) - 2]), np.arange(len(y))), 0.3),
        "input_gradient": lambda net, x, y, d: input_gradient(net, x, y, [(1, slice(None))]),
        "edit_direction": lambda net, x, y, d: edit_direction(net, x, y, [(1, slice(None))], d),
        "editing_objective": lambda net, x, y, d: editing_objective(
            net, x, y, [(1, slice(None))], d),
    }

    @pytest.mark.parametrize("rows", [3, 5])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_mismatch_is_named(self, entry, rows):
        rng = np.random.default_rng(42)
        net = make_net(layers=(4, 5, 3), heads=((1, 3), (2, 3)))
        theta, heads = net.theta.copy(), {t: h.copy() for t, h in net.heads.items()}
        inputs, labels = rng.uniform(0.0, 1.0, (rows, 4)), rng.integers(0, 3, 4)
        # the second stream's first 2 rows are whole, the rest hold the mismatch
        match = (f"stream 1 has {rows - 2} input rows for 2 labels" if entry == "second_stream"
                 else f"{rows} input rows for 4 labels")
        with pytest.raises(InvalidInputError, match=match):
            self.ENTRIES[entry](net, inputs, labels, rng.normal(size=net.backbone_dim))
        np.testing.assert_array_equal(net.theta, theta)
        for t, h in heads.items():
            np.testing.assert_array_equal(net.heads[t], h)

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_inputs_that_are_not_rows_are_named(self, entry):
        # one flat vector of 4 values for 4 labels: the counts agree
        rng = np.random.default_rng(44)
        net = make_net(layers=(4, 5, 3), heads=((1, 3), (2, 3)))
        heads = {t: h.copy() for t, h in net.heads.items()}
        with pytest.raises(InvalidInputError, match=r"inputs of shape \(\d+,\) are not rows"):
            self.ENTRIES[entry](net, rng.uniform(0.0, 1.0, 4), rng.integers(0, 3, 4),
                                rng.normal(size=net.backbone_dim))
        for t, h in heads.items():
            np.testing.assert_array_equal(net.heads[t], h)

    def test_streams_whose_counts_offset_are_named(self):
        # one row too many in stream 0 and one too few in stream 1: the
        # stacked counts agree, so only a check per stream sees it
        rng = np.random.default_rng(43)
        net = make_net(layers=(4, 5, 3), heads=((1, 3), (2, 3)))
        streams = [(rng.uniform(0.0, 1.0, (4, 4)), rng.integers(0, 3, 3), 1),
                   (rng.uniform(0.0, 1.0, (2, 4)), rng.integers(0, 3, 3), 2)]
        with pytest.raises(InvalidInputError, match="stream 0 has 4 input rows for 3 labels"):
            stream_gradients(net, streams, 0.3)


class TestInputGradient:
    def test_zero_backbone_gives_zero_input_gradient(self):
        net = zero_net()
        batch = Batch(np.full((2, 6), 0.3), [0, 1], task_id=1)
        grad, _ = input_gradient(net, batch.inputs, batch.labels,
                              [(batch.task_id, slice(None))])
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        net = make_net()
        batch = make_batch(rng, net, size=3)
        grad, _ = input_gradient(net, batch.inputs, batch.labels,
                              [(batch.task_id, slice(None))])
        assert grad.shape == batch.inputs.shape
        h = 1e-5
        for _ in range(12):
            i = int(rng.integers(len(batch.labels)))
            j = int(rng.integers(net.input_dim))
            x = batch.inputs.copy()
            x[i, j] += h
            _, up = forward(net, Batch(x, batch.labels, 1))
            x[i, j] -= 2 * h
            _, down = forward(net, Batch(x, batch.labels, 1))
            assert grad[i, j] == pytest.approx((up - down) / (2 * h), rel=1e-4, abs=1e-9)

    def test_mean_loss_scales_per_sample_gradient(self):
        rng = np.random.default_rng(13)
        net = make_net()
        single = make_batch(rng, net, size=1)
        grad1, _ = input_gradient(net, single.inputs, single.labels,
                               [(single.task_id, slice(None))])
        doubled = Batch(
            np.vstack([single.inputs, single.inputs]),
            np.concatenate([single.labels, single.labels]),
            task_id=1,
        )
        grad2, _ = input_gradient(net, doubled.inputs, doubled.labels,
                               [(doubled.task_id, slice(None))])
        np.testing.assert_allclose(grad2[0], grad1[0] / 2.0, atol=1e-14)


    @staticmethod
    def grouped_batch(rng, net, sizes):
        """Three task groups of the given sizes stacked as ``(task_id, slice)``."""
        batches = [make_batch(rng, net, task=t, size=n) for t, n in zip((1, 2, 3), sizes)]
        bounds = np.cumsum([0, *sizes])
        groups = [(b.task_id, slice(lo, hi)) for b, lo, hi in zip(batches, bounds, bounds[1:])]
        inputs = np.concatenate([b.inputs for b in batches])
        return batches, inputs, np.concatenate([b.labels for b in batches]), groups

    def test_grouped_matches_central_differences(self):
        # each row gets the gradient of its own group's mean loss, under heads
        # of different widths
        rng = np.random.default_rng(30)
        net = make_net(heads=((1, 4), (2, 2), (3, 5)))
        batches, inputs, labels, groups = self.grouped_batch(rng, net, (3, 1, 4))
        grad, losses = input_gradient(net, inputs, labels, groups)
        assert grad.shape == inputs.shape and losses.shape == (3,)
        h = 1e-5
        for batch, (_, rows), loss in zip(batches, groups, losses):
            assert loss == pytest.approx(forward(net, batch)[1], rel=1e-13)
            for _ in range(8):
                i = int(rng.integers(len(batch.labels)))
                j = int(rng.integers(net.input_dim))
                x = batch.inputs.copy()
                x[i, j] += h
                _, up = forward(net, Batch(x, batch.labels, batch.task_id))
                x[i, j] -= 2 * h
                _, down = forward(net, Batch(x, batch.labels, batch.task_id))
                assert grad[rows][i, j] == pytest.approx((up - down) / (2 * h),
                                                         rel=1e-4, abs=1e-9)

    def test_grouped_matches_one_group_calls(self):
        rng = np.random.default_rng(31)
        net = make_net(heads=((1, 4), (2, 2), (3, 5)))
        batches, inputs, labels, groups = self.grouped_batch(rng, net, (2, 5, 3))
        grad, losses = input_gradient(net, inputs, labels, groups)
        for batch, (_, rows), loss in zip(batches, groups, losses):
            alone, (alone_loss,) = input_gradient(net, batch.inputs, batch.labels,
                                               [(batch.task_id, slice(None))])
            np.testing.assert_allclose(grad[rows], alone, rtol=1e-12, atol=1e-17)
            assert loss == pytest.approx(alone_loss, rel=1e-13)


class TestEditDirection:
    def test_zero_when_already_aligned(self):
        rng = np.random.default_rng(14)
        net = make_net()
        batch = make_batch(rng, net)
        g = -backward(net, *batch)[0]
        delta, _ = edit_direction(net, batch.inputs, batch.labels, [(1, slice(None))], g)
        np.testing.assert_allclose(delta, 0.0)

    def test_quadratic_model_analytic_oracle(self):
        # loss(theta, x) = (theta * x)^2 / 2 with scalar theta and x:
        # g(x) = -theta x^2, grad_x ||g - d||^2 = 4 theta x (theta x^2 + d)
        rng = np.random.default_rng(15)
        for _ in range(50):
            theta = float(rng.uniform(-2, 2))
            x = float(rng.uniform(-2, 2))
            d = float(rng.uniform(-2, 2))
            v = np.array([-theta * x * x - d])
            analytic = 4.0 * theta * x * (theta * x * x + d)
            if abs(np.linalg.norm(v)) < 1e-12:
                continue
            got = directional_edit_gradient(
                lambda th: th**2 * x,
                np.array([theta]),
                v,
                eps=1e-4,
            )
            assert float(got[0]) == pytest.approx(analytic, rel=1e-3, abs=1e-9)

    def test_matches_scalar_objective_finite_difference(self):
        rng = np.random.default_rng(16)
        net = make_net(layers=(5, 8, 4), heads=((1, 3),))
        batch = make_batch(rng, net, size=2)
        other = make_batch(rng, net, size=3)
        target = -backward(net, *other)[0]

        def objective(x):
            v = -backward(net, x, batch.labels, 1)[0] - target
            return float(v @ v)

        delta, _ = edit_direction(net, batch.inputs, batch.labels, [(1, slice(None))], target)
        h = 1e-5
        checked = 0
        while checked < 20:
            i = int(rng.integers(len(batch.labels)))
            j = int(rng.integers(net.input_dim))
            x = batch.inputs.copy()
            x[i, j] += h
            up = objective(x)
            x[i, j] -= 2 * h
            down = objective(x)
            fd = (up - down) / (2 * h)
            if abs(fd) < 1e-6:
                continue
            checked += 1
            assert delta[i, j] == pytest.approx(fd, rel=5e-3, abs=1e-8)

    def test_step_decreases_objective(self):
        rng = np.random.default_rng(17)
        decreased = 0
        trials = 60
        for _ in range(trials):
            net = make_net(rng_seed=int(rng.integers(10_000)))
            batch = make_batch(rng, net, size=3)
            other = make_batch(rng, net, size=3)
            target = -backward(net, *other)[0]

            def objective(x):
                v = -backward(net, x, batch.labels, 1)[0] - target
                return float(v @ v)

            before = objective(batch.inputs)
            delta, _ = edit_direction(net, batch.inputs, batch.labels, [(1, slice(None))],
                                      target)
            after = objective(batch.inputs - 1e-3 * delta)
            if after <= before + 1e-12:
                decreased += 1
        assert decreased >= 0.95 * trials

    @pytest.mark.parametrize("layers, sizes", [
        ((6, 10, 5), {1: 3, 2: 1, 3: 4}),  # a one-row group
        ((5, 7, 9, 4), {1: 2, 2: 5}),  # two hidden layers
        ((12, 16, 6), {1: 1, 2: 1, 3: 1, 4: 6}),
    ])
    def test_matches_central_difference_oracle(self, layers, sizes):
        rng = np.random.default_rng(30 + len(layers))
        net = make_net(layers=layers, heads=[(t, 2 + t % 3) for t in sizes])
        rows, batches, start = [], {}, 0
        for t, n in sizes.items():
            batch = make_batch(rng, net, task=t, size=n)
            if n > 2:  # repeated rows: the last row repeats the first
                batch.inputs[-1], batch.labels[-1] = batch.inputs[0], batch.labels[0]
            batches[t] = batch
            rows.append((t, slice(start, start + n)))
            start += n
        inputs = np.vstack([b.inputs for b in batches.values()])
        labels = np.concatenate([b.labels for b in batches.values()])
        target = -backward(net, *make_batch(rng, net, task=1, size=5))[0]
        theta, heads = net.theta.copy(), {t: h.copy() for t, h in net.heads.items()}
        got, objective = edit_direction(net, inputs, labels, rows, target)
        np.testing.assert_array_equal(net.theta, theta)
        for t, h in heads.items():
            np.testing.assert_array_equal(net.heads[t], h)
        assert got.shape == inputs.shape
        expected_objective = 0.0
        for t, sl in rows:
            ref = central_difference_edit(net, batches[t], target, fd_eps=1e-4)
            assert np.linalg.norm(got[sl] - ref) <= 1e-6 * np.linalg.norm(ref)
            v = backward(net, *batches[t])[0] + target
            expected_objective += float(v @ v)
        assert objective == pytest.approx(expected_objective, rel=1e-12)
        task_ids = np.repeat(list(sizes), list(sizes.values()))
        assert editing_objective(net, inputs, labels, task_slices(task_ids), target) == objective

    def test_dimension_check(self):
        net = make_net()
        with pytest.raises(InvalidInputError):
            edit_direction(net, np.zeros((1, 6)), np.zeros(1, dtype=np.int64),
                           [(1, slice(None))], np.zeros(3))


def grouped_rows(rng, net, sizes):
    """Rows of tasks 1, 2, ... stacked with the given group sizes, as inputs,
    labels and ``(task_id, slice)`` groups."""
    batches = [make_batch(rng, net, task=t, size=n) for t, n in enumerate(sizes, 1)]
    bounds = np.cumsum([0, *sizes])
    groups = [(t, slice(lo, hi)) for t, lo, hi in zip(range(1, len(sizes) + 1), bounds, bounds[1:])]
    return (np.concatenate([b.inputs for b in batches]),
            np.concatenate([b.labels for b in batches]), groups)


class TestEditKernels:
    """``_edit_terms``' factored and explicit kernels against each group's
    explicitly formed gradient U_g = grad_theta L_g + d (``explicit_edit``)."""

    @staticmethod
    def kernels(net, n, groups) -> list:
        """True for each layer that takes the factored kernel."""
        sizes = net.layer_sizes
        return [_factored(n, groups, fi, fo) for fi, fo in zip(sizes, sizes[1:])]

    @pytest.mark.parametrize("layers, sizes, factored, widths", [
        ((16, 32, 16), (2, 3, 1, 2), [True, True], None),
        ((6, 10, 5), (3, 4), [False, False], None),
        ((784, 100, 64), (10, 9, 9, 9, 9, 9, 9), [True, False], None),  # N = 64, G = 7
        ((5, 7, 9, 4), (2, 2, 2), [True, True, True], None),
        ((12, 16, 6), (1, 1, 1, 1), [True, True], None),  # one-row groups
        ((2, 2, 2), (1,) * 7, [False, False], None),
        ((16, 32, 16), (8,), [False, False], None),  # a single group
        ((6, 10, 5), (1,), [False, False], None),
        ((8, 8, 8), (3, 3, 2), [True, True], None),  # the rule's boundary: 64 * 16 == 8 * 2 * 64
        ((8, 8, 8), (3, 3, 3), [False, False], None),  # one row past it
        # 9 columns: the head tangent's row sums over the zero-padded width-2
        # rows take numpy's unrolled pairwise form
        ((16, 32, 16), (3, 5), [True, True], (2, 9)),
    ])
    def test_matches_explicit_group_gradients(self, monkeypatch, layers, sizes, factored, widths):
        rng = np.random.default_rng(sum(layers) + len(sizes))
        widths = widths or [2 + t % 3 for t in range(1, len(sizes) + 1)]
        net = make_net(layers=layers, heads=list(enumerate(widths, 1)))
        inputs, labels, groups = grouped_rows(rng, net, sizes)
        assert self.kernels(net, len(labels), len(groups)) == factored
        target = -backward(net, *make_batch(rng, net, size=5))[0]
        delta, objective = edit_direction(net, inputs, labels, groups, target)
        want_delta, want_objective = explicit_edit(net, inputs, labels, groups, target)
        assert abs(objective - want_objective) <= 1e-12 * want_objective
        assert np.linalg.norm(delta - want_delta) <= 1e-12 * np.linalg.norm(want_delta)
        # one objective implementation: every editing pass gives the same bits
        task_ids = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        assert editing_objective(net, inputs, labels, task_slices(task_ids), target) == objective
        # and the bits of the route the pre-grouped pass replaced, under heads
        # of different widths
        old_delta, old_objective = group_stream_edit(net, inputs, labels, groups, target)
        np.testing.assert_array_equal(delta, old_delta)
        assert objective == old_objective
        # every array the pass allocates unfilled is written before it is read,
        # a narrow head's padded head-tangent columns too: NaN at allocation,
        # the bits hold
        def poisoned(allocate):
            def allocate_nan(*args, **kwargs):
                out = allocate(*args, **kwargs)
                if out.dtype.kind == "f":
                    out.fill(np.nan)
                return out
            return allocate_nan

        for name in ("empty", "empty_like"):
            monkeypatch.setattr(np, name, poisoned(getattr(np, name)))
        poisoned_delta, poisoned_objective = edit_direction(net, inputs, labels, groups, target)
        np.testing.assert_array_equal(poisoned_delta, delta)
        assert poisoned_objective == objective

    def test_factored_zero_when_already_aligned(self):
        # four task groups, each the same two rows under the same head
        # parameters, so every group's gradient is g; at d = -g each U_g is 0.
        # The factored kernel never forms U_g, so each of its terms is a sum
        # of at most K = N + max(fan_in, fan_out) + 2 products whose exact
        # value is 0 up to the rounding already in g: by the standard bound
        # (Higham 2002, eq. 3.5) it is at most 2 gamma_K = 2 K u / (1 - K u)
        # times the sum of those products' absolute values, which the test
        # forms from |A|, |Z| and |d|.
        rng = np.random.default_rng(14)
        net = make_net(heads=[(t, 4) for t in (1, 2, 3, 4)])
        for t in (2, 3, 4):
            net.heads[t][...] = net.heads[1]
        batch = make_batch(rng, net, size=2)
        groups = [(t, slice(2 * t - 2, 2 * t)) for t in (1, 2, 3, 4)]
        inputs, labels = np.tile(batch.inputs, (4, 1)), np.tile(batch.labels, 4)
        assert self.kernels(net, 8, 4) == [True, True]
        target = -backward(net, *batch)[0]
        p = _pass(net, inputs, labels, groups)
        _, terms = _edit_terms(net, p, target, True)
        ids = np.repeat(np.arange(4), 2)
        same = ids[:, None] == ids
        u = np.finfo(np.float64).eps / 2
        k = 8 + max(net.layer_sizes) + 2
        gamma = 2 * k * u / (1 - k * u)
        for a, dz, (dW, db), (fwd, bwd) in zip(p.activations, p.dzs,
                                               _layers(np.abs(target), net.layer_sizes), terms):
            a, dz = np.abs(a), np.abs(dz)
            fwd_bound = (same * (a @ a.T + 1.0)) @ dz + a @ dW + db
            bwd_bound = (same * (dz @ dz.T)) @ a + dz @ dW.T
            assert np.all(np.abs(fwd) <= gamma * fwd_bound)
            assert np.all(np.abs(bwd) <= gamma * bwd_bound)
        # the step is linear in the terms: it is held to the same factor
        # against the step at d = 0, whose terms are those products uncancelled
        delta, _ = edit_direction(net, inputs, labels, groups, target)
        away, _ = edit_direction(net, inputs, labels, groups, np.zeros_like(target))
        assert np.linalg.norm(delta) <= gamma * np.linalg.norm(away)

    @pytest.mark.parametrize("layers, sizes", [((16, 32, 16), (2, 3, 1, 2)),
                                               ((6, 10, 5), (3, 4))], ids=["factored", "explicit"])
    def test_wrong_target_length_is_named(self, layers, sizes):
        rng = np.random.default_rng(40)
        net = make_net(layers=layers, heads=[(t, 3) for t in range(1, len(sizes) + 1)])
        inputs, labels, groups = grouped_rows(rng, net, sizes)
        for wrong in (np.zeros(net.backbone_dim - 1), np.zeros(net.backbone_dim + 1)):
            with pytest.raises(InvalidInputError, match="dimension"):
                edit_direction(net, inputs, labels, groups, wrong)
            with pytest.raises(InvalidInputError, match="dimension"):
                editing_objective(net, inputs, labels, groups, wrong)

    @pytest.mark.parametrize("fault", ["negative", "past_its_head", "past_every_head",
                                       "unknown_task"])
    def test_bad_label_or_task_is_named(self, fault):
        # every pass, editing and training alike, checks every label against
        # its own group's head: unchecked, a negative label would wrap around
        # to the last class, and one past the narrow head's width would read a
        # -inf logit. The training pass raises before any head steps.
        rng = np.random.default_rng(41)
        net = make_net(heads=[(1, 4), (2, 2), (3, 3)])
        inputs, labels, groups = grouped_rows(rng, net, (3, 2))
        task_ids = np.repeat([1, 2], [3, 2])
        if fault == "negative":
            labels[4] = -1
        elif fault == "past_its_head":
            labels[4] = 3  # inside head 1's 4 classes, past head 2's 2
        elif fault == "past_every_head":
            labels[0] = 4
        else:
            groups[1], task_ids[3:] = (9, groups[1][1]), 9
        target = rng.normal(size=net.backbone_dim)
        task = make_batch(rng, net, task=3, size=3)
        heads = {t: h.copy() for t, h in net.heads.items()}
        match = "no head for task 9" if fault == "unknown_task" else "label out of range"
        for call in (lambda: edit_direction(net, inputs, labels, groups, target),
                     lambda: input_gradient(net, inputs, labels, groups),
                     lambda: editing_objective(net, inputs, labels, groups, target),
                     lambda: stream_gradients(net, [(inputs, labels, task_ids), task], 0.3)):
            with pytest.raises(InvalidInputError, match=match):
                call()
        for t, h in heads.items():
            np.testing.assert_array_equal(net.heads[t], h)


class TestHeads:
    def test_add_then_forward(self):
        net = make_net()
        add_head(net, 2, 3, seed=5)
        probs, _ = forward(net, Batch(np.zeros((1, 6)), [2], task_id=2))
        assert probs.shape == (1, 3)

    def test_duplicate_rejected(self):
        net = make_net()
        with pytest.raises(InvalidInputError, match="task 1 already has a head"):
            add_head(net, 1, 4, seed=0)

    def test_same_seed_identical(self):
        a, b = make_net(), make_net()
        add_head(a, 2, 3, seed=99)
        add_head(b, 2, 3, seed=99)
        np.testing.assert_array_equal(a.heads[2], b.heads[2])

    def test_adding_head_leaves_other_gradients_unchanged(self):
        rng = np.random.default_rng(20)
        net = make_net()
        batch = make_batch(rng, net)
        before_grad, before_loss, _ = backward(net, *batch)
        add_head(net, 3, 7, seed=123)
        after_grad, after_loss, _ = backward(net, *batch)
        np.testing.assert_array_equal(before_grad, after_grad)
        assert before_loss == after_loss


class TestApplyUpdate:
    def test_zero_step_is_noop(self):
        net = make_net()
        saved = net.theta.copy()
        apply_update(net, np.ones(net.backbone_dim), 0.0)
        np.testing.assert_array_equal(net.theta.copy(), saved)

    def test_two_updates_equal_summed_update(self):
        rng = np.random.default_rng(21)
        net_a, net_b = make_net(), make_net()
        d1 = rng.normal(size=net_a.backbone_dim)
        d2 = rng.normal(size=net_a.backbone_dim)
        apply_update(net_a, d1, 0.1)
        apply_update(net_a, d2, 0.1)
        apply_update(net_b, d1 + d2, 0.1)
        np.testing.assert_allclose(
            net_a.theta.copy(), net_b.theta.copy(), atol=1e-15
        )

    def test_head_update_direction(self):
        rng = np.random.default_rng(22)
        net = make_net()
        batch = make_batch(rng, net)
        head_grad = backward(net, *batch)[2][1]
        flat_before = net.heads[1].copy()
        net.heads[1] -= 0.5 * head_grad
        np.testing.assert_allclose(
            net.heads[1], flat_before - 0.5 * head_grad, atol=1e-15
        )

    def test_single_task_step_equals_plain_descent(self):
        rng = np.random.default_rng(23)
        net_a, net_b = make_net(), make_net()
        batch = make_batch(rng, net_a)
        grad = backward(net_a, *batch)[0]
        # combined direction for one task is g = -grad, applied as theta + gamma*g
        apply_update(net_a, -grad, 0.05)
        net_b.set_backbone_flat(net_b.theta.copy() - 0.05 * grad)
        np.testing.assert_array_equal(net_a.theta.copy(), net_b.theta.copy())

    def test_dimension_mismatch(self):
        net = make_net()
        with pytest.raises(InvalidInputError):
            apply_update(net, np.zeros(3), 0.1)


class TestLayout:
    """The backbone and each head are flat vectors; (W, b) are views."""

    def test_flatten_roundtrip_bit_exact(self):
        net = make_net()
        flat = net.theta.copy()
        net.set_backbone_flat(flat.copy())
        np.testing.assert_array_equal(net.theta.copy(), flat)

    def test_backbone_layers_are_views_of_theta(self):
        net = make_net(layers=(6, 10, 7, 5))
        for W, b in net.backbone:
            assert np.shares_memory(W, net.theta) and np.shares_memory(b, net.theta)
        W_h, b_h = net.head(1)
        assert np.shares_memory(W_h, net.heads[1]) and np.shares_memory(b_h, net.heads[1])
        W0 = net.backbone[0][0]
        net.theta[0] = 7.0
        assert W0[0, 0] == 7.0

    def test_updates_keep_the_arrays(self):
        rng = np.random.default_rng(30)
        net = make_net()
        theta, head = net.theta, net.heads[1]
        apply_update(net, rng.normal(size=net.backbone_dim), 0.1)
        backward(net, *make_batch(rng, net), head_step=0.5)
        assert net.theta is theta and net.heads[1] is head
        assert all(np.shares_memory(W, theta) for W, _ in net.backbone)

    def test_set_backbone_flat_copies_in_place(self):
        net = make_net()
        theta = net.theta
        flat = np.arange(net.backbone_dim, dtype=float)
        net.set_backbone_flat(flat)
        flat[0] = -1.0
        assert net.theta is theta and net.theta[0] == 0.0
        with pytest.raises(InvalidInputError):
            net.set_backbone_flat(np.zeros(net.backbone_dim + 1))
