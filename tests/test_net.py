import math

import numpy as np
import pytest

from emgd.errors import (
    FormatError,
    InvalidInputError,
    TaskExistsError,
    UnknownTaskError,
)
from emgd.net import (
    Batch,
    Network,
    add_head,
    apply_update,
    backward,
    edit_direction,
    edit_objective,
    features,
    forward,
    head_logits,
    input_gradient,
    load_checkpoint,
    read_blob,
    save_checkpoint,
    stream_gradients,
    write_blob,
)
from oracles import central_difference_edit, directional_edit_gradient, per_stream_gradients


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
        with pytest.raises(UnknownTaskError):
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
        with pytest.raises(UnknownTaskError):
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
            report = backward(net, batch)
            flat = net.flatten_backbone()
            for coord in rng.choice(net.backbone_dim, size=10, replace=False):
                fd = fd_param_gradient(net, batch, flat, int(coord))
                assert report.backbone_grad[coord] == pytest.approx(
                    fd, rel=1e-4, abs=1e-9
                )

    def test_head_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        net = make_net()
        batch = make_batch(rng, net, size=3)
        report = backward(net, batch)
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
            assert report.head_grad[coord] == pytest.approx(
                (up - down) / (2 * h), rel=1e-4, abs=1e-9
            )

    def test_zero_gradient_at_constructed_minimum(self):
        # zero parameters with a class-balanced batch: uniform probabilities
        # cancel against the one-hot targets in every gradient term
        net = zero_net()
        batch = Batch(np.zeros((4, 6)), [0, 1, 2, 3], task_id=1)
        report = backward(net, batch)
        assert np.linalg.norm(report.backbone_grad) <= 1e-8
        assert np.linalg.norm(report.head_grad) <= 1e-8

    def test_duplicating_samples_keeps_mean_gradient(self):
        rng = np.random.default_rng(10)
        net = make_net()
        batch = make_batch(rng, net, size=3)
        doubled = Batch(
            np.vstack([batch.inputs, batch.inputs]),
            np.concatenate([batch.labels, batch.labels]),
            task_id=1,
        )
        a = backward(net, batch)
        b = backward(net, doubled)
        np.testing.assert_allclose(a.backbone_grad, b.backbone_grad, atol=1e-14)
        assert a.loss == pytest.approx(b.loss, abs=1e-14)


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
            first = backward(ref, batch)
            ref.heads[1] -= step * first.head_grad
            expect = backward(ref, batch)
            got = backward(net, batch, head_step=step)
            np.testing.assert_array_equal(got.backbone_grad, expect.backbone_grad)
            np.testing.assert_array_equal(got.head_grad, expect.head_grad)
            assert got.loss == expect.loss
            for task, _ in heads:
                np.testing.assert_array_equal(net.heads[task], ref.heads[task])
            np.testing.assert_array_equal(net.flatten_backbone(), ref.flatten_backbone())

    def test_zero_step_leaves_head_unchanged(self):
        rng = np.random.default_rng(12)
        net = make_net()
        batch = make_batch(rng, net)
        head = net.heads[1].copy()
        report = backward(net, batch, head_step=0.0)
        np.testing.assert_array_equal(net.heads[1], head)
        np.testing.assert_array_equal(report.head_grad, backward(net, batch).head_grad)

    def test_step_lowers_batch_loss(self):
        rng = np.random.default_rng(13)
        net = make_net()
        batch = make_batch(rng, net, size=6)
        before = forward(net, batch)[1]
        report = backward(net, batch, head_step=0.1)
        assert report.loss < before
        assert report.loss == forward(net, batch)[1]


def random_tick(rng, same_classes, mem_step, min_rows=2, task_step=0.3, layers=(8, 16, 6)):
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
    streams = [(inputs[order], labels[order], task_ids[order], mem_step)]
    for t in range(mem_heads + 1, mem_heads + tasks + 1):
        batch = make_batch(rng, net, task=t, size=int(rng.integers(min_rows, 9)))
        streams.append((batch.inputs, batch.labels, t, task_step))
    return net, ref, streams


class TestStreamGradients:
    """``stream_gradients`` against the per-stream path it replaced
    (``grouped_backward`` per stream, then ``np.stack``). Bitwise when every
    head has the same class count and every stream at least two rows; a
    narrower head's padded softmax row, or a one-row stream (a vector-matrix
    product in the per-stream path), changes only the rounding."""

    @pytest.mark.parametrize("mem_step", [0.3, 0.0])  # 0.0: freeze_finished_heads
    @pytest.mark.parametrize("seed", range(10))
    def test_same_class_counts_bitwise(self, seed, mem_step):
        net, ref, streams = random_tick(np.random.default_rng(seed), True, mem_step)
        for _ in range(2):  # a second tick reads the stepped heads
            grads, losses, head_grads = stream_gradients(net, streams)
            ref_grads, ref_losses, ref_heads = per_stream_gradients(ref, streams)
            np.testing.assert_array_equal(grads, ref_grads)
            assert losses == ref_losses
            assert head_grads.keys() == ref_heads.keys()
            for t in ref_heads:
                np.testing.assert_array_equal(head_grads[t], ref_heads[t])
                np.testing.assert_array_equal(net.heads[t], ref.heads[t])

    @pytest.mark.parametrize("mem_step", [0.3, 0.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_class_counts_within_rounding(self, seed, mem_step):
        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        net, ref, streams = random_tick(np.random.default_rng(100 + seed), False, mem_step,
                                        min_rows=1)
        for _ in range(2):
            grads, losses, head_grads = stream_gradients(net, streams)
            ref_grads, ref_losses, ref_heads = per_stream_gradients(ref, streams)
            assert all(close(g, r) for g, r in zip(grads, ref_grads))
            assert losses == pytest.approx(ref_losses, rel=1e-12)
            assert head_grads.keys() == ref_heads.keys()
            for t in ref_heads:
                assert close(head_grads[t], ref_heads[t])
                assert close(net.heads[t], ref.heads[t])

    def test_head_serving_two_streams_is_rejected(self):
        rng = np.random.default_rng(5)
        net = make_net(heads=((1, 4), (2, 3)))
        mem = make_batch(rng, net, task=1, size=4)
        task = make_batch(rng, net, task=2, size=3)
        heads = {t: h.copy() for t, h in net.heads.items()}
        mem_ids = np.array([1, 1, 1, 2])  # task 2's head also routes a memory row
        with pytest.raises(InvalidInputError, match="task 2"):
            stream_gradients(net, [(mem.inputs, np.zeros(4, dtype=np.int64), mem_ids, 0.3),
                                   (task.inputs, task.labels, 2, 0.3)])
        for t, h in heads.items():
            np.testing.assert_array_equal(net.heads[t], h)


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
            i = int(rng.integers(batch.size))
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
                i = int(rng.integers(batch.size))
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
        g = -backward(net, batch).backbone_grad
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
        target = -backward(net, other).backbone_grad

        def objective(x):
            rep = backward(net, Batch(x, batch.labels, 1))
            v = -rep.backbone_grad - target
            return float(v @ v)

        delta, _ = edit_direction(net, batch.inputs, batch.labels, [(1, slice(None))], target)
        h = 1e-5
        checked = 0
        while checked < 20:
            i = int(rng.integers(batch.size))
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
            target = -backward(net, other).backbone_grad

            def objective(x):
                rep = backward(net, Batch(x, batch.labels, 1))
                v = -rep.backbone_grad - target
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
        target = -backward(net, make_batch(rng, net, task=1, size=5)).backbone_grad
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
            v = backward(net, batches[t]).backbone_grad + target
            expected_objective += float(v @ v)
        assert objective == pytest.approx(expected_objective, rel=1e-12)
        assert edit_objective(net, inputs, labels, rows, target) == objective

    def test_dimension_check(self):
        net = make_net()
        with pytest.raises(InvalidInputError):
            edit_direction(net, np.zeros((1, 6)), np.zeros(1, dtype=np.int64),
                           [(1, slice(None))], np.zeros(3))


class TestHeads:
    def test_add_then_forward(self):
        net = make_net()
        add_head(net, 2, 3, seed=5)
        probs, _ = forward(net, Batch(np.zeros((1, 6)), [2], task_id=2))
        assert probs.shape == (1, 3)

    def test_duplicate_rejected(self):
        net = make_net()
        with pytest.raises(TaskExistsError):
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
        before = backward(net, batch)
        add_head(net, 3, 7, seed=123)
        after = backward(net, batch)
        np.testing.assert_array_equal(before.backbone_grad, after.backbone_grad)
        assert before.loss == after.loss


class TestApplyUpdate:
    def test_zero_step_is_noop(self):
        net = make_net()
        saved = net.flatten_backbone().copy()
        apply_update(net, np.ones(net.backbone_dim), 0.0)
        np.testing.assert_array_equal(net.flatten_backbone(), saved)

    def test_two_updates_equal_summed_update(self):
        rng = np.random.default_rng(21)
        net_a, net_b = make_net(), make_net()
        d1 = rng.normal(size=net_a.backbone_dim)
        d2 = rng.normal(size=net_a.backbone_dim)
        apply_update(net_a, d1, 0.1)
        apply_update(net_a, d2, 0.1)
        apply_update(net_b, d1 + d2, 0.1)
        np.testing.assert_allclose(
            net_a.flatten_backbone(), net_b.flatten_backbone(), atol=1e-15
        )

    def test_head_update_direction(self):
        rng = np.random.default_rng(22)
        net = make_net()
        batch = make_batch(rng, net)
        report = backward(net, batch)
        flat_before = net.heads[1].copy()
        net.heads[1] -= 0.5 * report.head_grad
        np.testing.assert_allclose(
            net.heads[1], flat_before - 0.5 * report.head_grad, atol=1e-15
        )

    def test_single_task_step_equals_plain_descent(self):
        rng = np.random.default_rng(23)
        net_a, net_b = make_net(), make_net()
        batch = make_batch(rng, net_a)
        rep = backward(net_a, batch)
        # combined direction for one task is g = -grad, applied as theta + gamma*g
        apply_update(net_a, -rep.backbone_grad, 0.05)
        net_b.set_backbone_flat(net_b.flatten_backbone() - 0.05 * rep.backbone_grad)
        np.testing.assert_array_equal(net_a.flatten_backbone(), net_b.flatten_backbone())

    def test_dimension_mismatch(self):
        net = make_net()
        with pytest.raises(InvalidInputError):
            apply_update(net, np.zeros(3), 0.1)


class TestCheckpoint:
    def test_flatten_roundtrip_bit_exact(self):
        net = make_net()
        flat = net.flatten_backbone()
        net.set_backbone_flat(flat.copy())
        np.testing.assert_array_equal(net.flatten_backbone(), flat)

    def test_save_load_roundtrip(self, tmp_path):
        net = make_net(heads=((1, 4), (3, 2)))
        path = tmp_path / "model.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.flatten_backbone(), net.flatten_backbone())
        for task in (1, 3):
            np.testing.assert_array_equal(loaded.heads[task], net.heads[task])
        rng = np.random.default_rng(1)
        batch = make_batch(rng, net)
        assert forward(loaded, batch)[1] == forward(net, batch)[1]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError) as err:
            read_blob(path)
        assert err.value.offset == 0

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(b"EMGD\x01\x00\x00\x00\xff\x00\x00\x00ab")
        with pytest.raises(FormatError):
            read_blob(path)

    def test_partial_float_payload(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_blob(path, {"kind": "test"}, np.arange(3, dtype=float))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError) as err:
            read_blob(path)
        assert err.value.offset == len(raw) - 8  # start of the cut float64

    def test_header_not_utf8_json(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_blob(path, {"kind": "test"}, np.zeros(2))
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFF  # first header byte
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_blob(path)
        assert err.value.offset == 12
        raw[12] = ord("x")  # valid UTF-8, invalid JSON
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_blob(path)
        write_blob(path, [1, 2], np.zeros(2))  # JSON, but not an object
        with pytest.raises(FormatError):
            read_blob(path)

    @pytest.mark.parametrize("field, change", [
        ("layer_sizes", {"layer_sizes": None}),
        ("heads", {"heads": None}),
        ("layer_sizes", {"layer_sizes": "3,2"}),
        ("layer_sizes", {"layer_sizes": [3, "2"]}),
        ("layer_sizes", {"layer_sizes": [3, 2.0]}),
        ("heads", {"heads": [2]}),
        ("heads", {"heads": {"x": 2}}),
        ("heads.1", {"heads": {"1": "2"}}),
    ])
    def test_checkpoint_missing_or_ill_typed_header_field(self, tmp_path, field, change):
        net = make_net(heads=((1, 2),))
        path = tmp_path / "model.bin"
        save_checkpoint(net, path)
        header, values = read_blob(path)
        header.update(change)
        header = {k: v for k, v in header.items() if v is not None}
        write_blob(path, header, values)
        with pytest.raises(FormatError, match=field) as err:
            load_checkpoint(path)
        assert err.value.offset == 12

    @pytest.mark.parametrize("field, change", [
        ("layer_sizes", {"layer_sizes": [6]}),
        ("layer_sizes", {"layer_sizes": [6, 0, 5]}),
        ("heads.1", {"heads": {"1": -3}}),
        ("heads.1", {"heads": {"1": 0}}),
        ("parameter count", {"layer_sizes": [60000, 60000]}),
    ])
    def test_header_checked_before_allocating(self, tmp_path, monkeypatch, field, change):
        net = make_net(heads=((1, 2),))
        path = tmp_path / "model.bin"
        save_checkpoint(net, path)
        header, values = read_blob(path)
        write_blob(path, header | change, values[:1])

        def no_network(*args, **kwargs):
            raise AssertionError("network allocated before the header was checked")

        monkeypatch.setattr("emgd.net.Network", no_network)
        with pytest.raises(FormatError, match=field) as err:
            load_checkpoint(path)
        assert err.value.offset == 12

    def test_blob_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        values = np.arange(5, dtype=float)
        write_blob(path, {"kind": "test"}, values)
        header, back = read_blob(path)
        assert header == {"kind": "test"}
        np.testing.assert_array_equal(back, values)


class TestLayout:
    """The backbone and each head are flat vectors; (W, b) are views."""

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
        backward(net, make_batch(rng, net), head_step=0.5)
        assert net.theta is theta and net.heads[1] is head
        assert all(np.shares_memory(W, theta) for W, _ in net.backbone)

    def test_flatten_backbone_is_a_copy(self):
        net = make_net()
        saved = net.theta.copy()
        flat = net.flatten_backbone()
        flat += 1.0
        np.testing.assert_array_equal(net.theta, saved)

    def test_set_backbone_flat_copies_in_place(self):
        net = make_net()
        theta = net.theta
        flat = np.arange(net.backbone_dim, dtype=float)
        net.set_backbone_flat(flat)
        flat[0] = -1.0
        assert net.theta is theta and net.theta[0] == 0.0
        with pytest.raises(InvalidInputError):
            net.set_backbone_flat(np.zeros(net.backbone_dim + 1))

    def test_checkpoint_payload_order(self, tmp_path):
        net = make_net(layers=(6, 10, 7, 5), heads=((3, 2), (1, 4)))
        path = tmp_path / "model.bin"
        save_checkpoint(net, path)
        header, values = read_blob(path)
        expect = [part for W, b in net.backbone for part in (W.ravel(), b)]
        expect += [part for t in (1, 3) for part in (net.head(t)[0].ravel(), net.head(t)[1])]
        np.testing.assert_array_equal(values, np.concatenate(expect))
        assert header == {"layer_sizes": [6, 10, 7, 5], "heads": {"1": 4, "3": 2}}
