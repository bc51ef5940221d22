import math
import re
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from emgd import experiment, solver
from emgd.errors import ConfigError, InvalidInputError
from emgd.experiment import (
    EDITING,
    RunConfig,
    ToyRow,
    ToyTrace,
    _evaluate,
    compute_metrics,
    metrics_document,
    run_pcl,
    run_toy,
    tick_log_csv,
    toy_f1,
    toy_f2,
    toy_grad_f1,
    toy_grad_f2,
    toy_summary,
    toy_trace_csv,
)
from emgd.net import Network, add_head, backward, apply_update
from emgd.solver import ElasticState, GradientBundle, combine
from emgd.streams import (
    TaskCursor,
    derive_seed,
    next_batch,
    specs_from_manifest,
    synthetic_dataset,
)
from oracles import make_split


class TestToyFunctions:
    def test_f1_start_value(self):
        # closed form at (3, 3) evaluated with scalar math functions
        expect = math.log(10.0) + 0.8 * (1.0 - math.exp(3.0) * math.sin(3.0)) ** 2
        assert toy_f1(3.0, 3.0) == pytest.approx(expect, rel=1e-12)
        assert toy_f1(3.0, 3.0) == pytest.approx(4.9949, abs=1e-3)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for f, g in ((toy_f1, toy_grad_f1), (toy_f2, toy_grad_f2)):
            for _ in range(20):
                x, y = rng.uniform(-2.0, 3.0, size=2)
                fdx = (f(x + h, y) - f(x - h, y)) / (2 * h)
                fdy = (f(x, y + h) - f(x, y - h)) / (2 * h)
                grad = g(x, y)
                assert grad[0] == pytest.approx(fdx, rel=1e-5, abs=1e-7)
                assert grad[1] == pytest.approx(fdy, rel=1e-5, abs=1e-7)


@pytest.fixture(scope="module")
def traces():
    return {m: run_toy(method=m) for m in ("emgd_gs", "emgd_gmc", "mgda", "avg_grad")}


class TestRunToy:
    def test_row_count_and_join(self, traces):
        tr = traces["emgd_gs"]
        assert len(tr.rows) == 1500
        assert len(tr.rows[499].lam) == 1
        assert len(tr.rows[500].lam) == 2

    def test_emgd_never_worsens_old_task(self, traces):
        for m in ("emgd_gs", "emgd_gmc"):
            rows = traces[m].rows  # tick t is rows[t - 1]
            assert rows[1499].f1 <= rows[499].f1 + 1e-9
            assert rows[1499].f2 < rows[499].f2

    def test_avg_grad_regresses_more(self, traces):
        avg = traces["avg_grad"].rows
        for m in ("emgd_gs", "emgd_gmc"):
            rows = traces[m].rows
            assert avg[1499].f1 - avg[499].f1 > rows[1499].f1 - rows[499].f1

    def test_per_tick_descent_margin(self, traces):
        for m in ("emgd_gs", "emgd_gmc", "mgda"):
            for row in traces[m].rows:
                assert row.margin >= -1e-12

    @pytest.mark.parametrize("method", ["emgd_gs", "emgd_gmc", "mgda", "avg_grad"])
    def test_two_point_solves_trace_as_the_loop_does(self, traces, monkeypatch, method):
        # every step after the join solves two points; Wolfe's loop in place of
        # the closed form moves the trace by rounding only, and not the factors
        monkeypatch.setattr(solver, "_two_points", solver._wolfe)
        loop = run_toy(method=method)
        for row, ref in zip(traces[method].rows, loop.rows, strict=True):
            assert row.sigma == ref.sigma
            np.testing.assert_allclose([row.x, row.y, row.f1, row.f2, row.d_norm],
                                       [ref.x, ref.y, ref.f1, ref.f2, ref.d_norm], rtol=1e-13)
            np.testing.assert_allclose(row.lam, ref.lam, rtol=1e-9, atol=1e-15)

    def test_gs_factors_are_exact_halves_past_the_join(self, traces):
        rows = traces["emgd_gs"].rows
        assert {row.sigma for row in rows[:500]} == {(1.0,)}
        assert {row.sigma for row in rows[500:]} == {(0.5, 0.5)}

    @pytest.mark.parametrize("method", ["emgd_gs", "emgd_gmc", "mgda", "avg_grad"])
    def test_one_task_steps_before_the_join(self, traces, method):
        # one task alone: factor 1, weight 1, so d = g and <g, d> - ||d||^2 is exactly 0
        for row in traces[method].rows[:500]:
            assert (row.lam, row.sigma, row.margin) == ((1.0,), (1.0,), 0.0)

    def test_short_run_row_count(self):
        assert len(run_toy(method="mgda", iterations=10).rows) == 10

    def test_deterministic(self):
        a = run_toy(method="emgd_gmc", iterations=50)
        b = run_toy(method="emgd_gmc", iterations=50)
        assert toy_trace_csv(a) == toy_trace_csv(b)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            run_toy(method="gradnorm")

    @pytest.mark.parametrize("kwargs, name", [
        ({"iterations": 0}, "iterations=0"),
        ({"start": (0.0, float("nan"))}, "start=(0.0, nan)"),
    ])
    def test_out_of_range_arguments_named(self, kwargs, name):
        with pytest.raises(ConfigError, match=re.escape(name)):
            run_toy(**kwargs)

    def test_csv_and_summary_shapes(self, traces):
        csv = toy_trace_csv(traces["emgd_gs"])
        assert csv.count("\n") == 1501  # header + one row per iteration
        assert "np." not in csv  # plain float reprs only
        summary = toy_summary(traces["emgd_gs"])
        assert summary["f1_final"] <= summary["f1_at_join"] + 1e-9

    def test_summary_counts_the_trace_rows(self, monkeypatch):
        monkeypatch.setattr(experiment, "TOY_JOIN_TICK", 3)
        trace = run_toy(iterations=7)
        assert toy_summary(trace)["iterations"] == len(trace.rows) == 7
        trace.rows.pop()  # a trace cut short reports the rows it holds
        assert toy_summary(trace)["iterations"] == 6


class TestToySummary:
    def test_toy_run_converges(self, traces):
        tr = traces["emgd_gs"]
        summary = toy_summary(tr)
        assert summary["final_direction_norm"] == tr.rows[-1].d_norm < tr.rows[0].d_norm
        assert summary["min_direction_norm"] == min(r.d_norm for r in tr.rows)
        assert summary["loss_nonincrease_fraction"] == 1.0

    def test_join_row_is_the_join_tick(self, traces):
        tr = traces["emgd_gs"]
        summary = toy_summary(tr)
        join = tr.rows[experiment.TOY_JOIN_TICK - 1]
        assert join.tick == experiment.TOY_JOIN_TICK == summary["join_tick"]
        assert (summary["f1_at_join"], summary["f2_at_join"]) == (join.f1, join.f2)
        short = toy_summary(run_toy(iterations=experiment.TOY_JOIN_TICK - 1))
        assert (short["f1_at_join"], short["f2_at_join"]) == (None, None)

    def test_pareto_critical_start_has_zero_direction(self):
        # opposed equal gradients: the combined direction vanishes at tick 1
        g = np.array([1.0, -2.0, 0.5])
        res, _ = combine("mgda", GradientBundle((1, 2), np.stack([g, -g])), ElasticState())
        trace = ToyTrace("mgda", (0.0, 0.0), f1_init=1.0, f2_init=1.0, rows=[
            ToyRow(tick, 0.0, 0.0, 1.0, 1.0, d_norm, (), (), 0.0)
            for tick, d_norm in ((1, float(np.linalg.norm(res.direction))), (2, 0.0))
        ])
        summary = toy_summary(trace)
        assert summary["min_direction_norm"] <= 1e-6
        assert trace.rows[0].d_norm <= 1e-6

    def test_second_loss_counts_only_after_the_join(self, monkeypatch):
        # f2 rises 5 -> 9 across the join (not yet shared) and 9 -> 10 after it
        monkeypatch.setattr(experiment, "TOY_JOIN_TICK", 1)
        trace = ToyTrace("emgd_gs", (0.0, 0.0), f1_init=1.0, f2_init=5.0, rows=[
            ToyRow(tick, 0.0, 0.0, 1.0, f2, 1.0, (), (), 0.0)
            for tick, f2 in ((1, 5.0), (2, 9.0), (3, 10.0))
        ])
        assert toy_summary(trace)["loss_nonincrease_fraction"] == 0.5

    def test_first_loss_counts_at_every_step(self):
        # f1 rises on the second of two steps, all before the join
        trace = ToyTrace("emgd_gs", (0.0, 0.0), f1_init=1.0, f2_init=1.0, rows=[
            ToyRow(tick, 0.0, 0.0, f1, 9.0 - tick, 1.0, (), (), 0.0)
            for tick, f1 in ((1, 3.0), (2, 2.0), (3, 2.5))
        ])
        assert toy_summary(trace)["loss_nonincrease_fraction"] == 0.5

    def test_one_row_has_no_step_to_rise(self):
        assert toy_summary(run_toy(iterations=1))["loss_nonincrease_fraction"] == 1.0


class TestMetrics:
    def test_hand_fixture(self):
        # task 1 at 0.9 on finishing, 0.8 at the end; task 2 finishes at the end at 0.7
        a, f = compute_metrics([(0.9, 0.8), (0.7, 0.7)])
        assert a == 0.75
        assert f == pytest.approx(-0.05, abs=1e-15)

    def test_constant_accuracies(self):
        a, f = compute_metrics([(0.42, 0.42)] * 3)
        assert a == pytest.approx(0.42, abs=1e-15)
        assert f == 0.0

    def test_random_pairs_against_direct_recomputation(self):
        rng = np.random.default_rng(5)
        pairs = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))) for _ in range(5)]
        # independent arithmetic with plain Python floats
        a_direct = sum(final for _, final in pairs) / 5
        f_direct = sum(final - at_finish for at_finish, final in pairs) / 5
        a, f = compute_metrics(pairs)
        assert abs(a - a_direct) <= 1e-12
        assert abs(f - f_direct) <= 1e-12

    def test_no_tasks_is_named(self):
        with pytest.raises(InvalidInputError, match="no task accuracies"):
            compute_metrics([])


def pcl_setup(num_tasks=3, seed=1234, serial=False, dim=8, per_class=12,
              batch_size=8, hidden=16, feature=8, epochs=1, overlap=0.0):
    ds = synthetic_dataset(4 * num_tasks, dim, per_class, 6, 0.08, seed=seed)
    specs, tl = specs_from_manifest(make_split(
        ds, num_tasks=num_tasks, label_bounds=(4, 4), seed=seed, batch_size=batch_size,
        serial=serial, epochs=epochs, overlap=overlap,
    ), ds)
    net = Network((dim, hidden, feature), seed=derive_seed(seed, "net-init"))
    return specs, tl, net


def task_pairs(result, mode=0):
    """Each task's (at finish, final) accuracies, task-incremental (mode 0)
    or class-incremental (mode 1), in task order."""
    return [(result.at_finish[t][mode], result.final[t][mode]) for t in sorted(result.final)]


def quick_cfg(**kw):
    base = dict(gamma=0.3, gamma_heads=0.3, seed=1234)
    base.update(kw)
    return RunConfig(**base)


class TestRunPcl:
    def test_single_task_equals_plain_descent(self):
        specs, tl, net = pcl_setup(num_tasks=1)
        cfg = quick_cfg(method="emgd_gmc")
        result = run_pcl(specs, tl, net, cfg)
        losses = [row["losses"][1] for row in result.tick_rows]

        # replay: plain descent with the same head seed and batch order
        ref = Network((8, 16, 8), seed=derive_seed(1234, "net-init"))
        add_head(ref, 1, specs[0].class_count, derive_seed(1234, "head", 1))
        cursor = TaskCursor(specs[0], cfg.seed)
        ref_losses = []
        for _ in range(tl.final_tick + 1):
            inputs, labels = next_batch(cursor, tl.batch_size)
            ref.heads[1] -= cfg.gamma_heads * backward(ref, inputs, labels, 1)[2][1]
            grad, loss, _ = backward(ref, inputs, labels, 1)
            apply_update(ref, -grad, cfg.gamma)
            ref_losses.append(loss)
        assert losses == ref_losses  # bitwise identical trajectories

    @pytest.mark.parametrize("serial", [True, False], ids=["serial", "parallel"])
    def test_the_first_finish_opens_the_memory_stream(self, serial):
        # the first finish tick fills the buffer, so from the next tick on the
        # memory stream 0 leads the open windows; serial avg_grad is then
        # experience replay
        overlapping = 0
        for seed in range(4):
            specs, tl, net = pcl_setup(num_tasks=4, seed=seed, serial=serial)
            result = run_pcl(specs, tl, net, quick_cfg(method="avg_grad", seed=seed))
            first_finish = min(e for _, _, e in tl.entries)
            assert [row["tick"] for row in result.tick_rows] == list(
                range(tl.first_tick, tl.final_tick + 1))
            for row in result.tick_rows:
                tick = row["tick"]
                open_windows = sorted(t for t, s, e in tl.entries if s <= tick <= e)
                memory = [0] if tick > first_finish else []
                assert list(row["active"]) == memory + open_windows
                overlapping += len(open_windows) > 1
        assert (overlapping > 0) != serial  # only parallel windows overlap

    def test_a_head_the_net_already_holds_is_named(self):
        # every task of the run gets a fresh head; the net brings none of them
        specs, tl, net = pcl_setup(num_tasks=2)
        add_head(net, 1, specs[0].class_count, seed=0)
        with pytest.raises(InvalidInputError, match="^task 1 already has a head$"):
            run_pcl(specs, tl, net, quick_cfg())

    def test_deterministic_replay(self):
        for editing in EDITING:
            specs_a, tl_a, net_a = pcl_setup()
            specs_b, tl_b, net_b = pcl_setup()
            cfg = quick_cfg(method="emgd_gs", editing=editing)
            ra = run_pcl(specs_a, tl_a, net_a, cfg)
            rb = run_pcl(specs_b, tl_b, net_b, cfg)
            assert tick_log_csv(ra.tick_rows) == tick_log_csv(rb.tick_rows)
            assert metrics_document(ra, cfg) == metrics_document(rb, cfg)

    def test_memory_stream_steps_finished_heads(self):
        # task 1's head keeps training through the memory stream after it finishes
        specs, tl, net = pcl_setup(num_tasks=2, serial=True)
        cfg = quick_cfg(method="emgd_gs")
        run_pcl(specs, tl, net, cfg)

        solo_specs, solo_tl, solo_net = pcl_setup(num_tasks=2, serial=True)
        solo_tl = type(solo_tl)([solo_tl.entries[0]], solo_tl.batch_size)
        run_pcl([solo_specs[0]], solo_tl, solo_net, cfg)
        assert not np.array_equal(net.heads[1], solo_net.heads[1])

    @pytest.mark.parametrize("epochs, serial", [(1, False), (3, False), (2, True)])
    def test_serves_each_training_row_epochs_times(self, monkeypatch, epochs, serial):
        # a batch of 5 leaves a short batch at the end of each pass over a
        # task's 48 rows; each window serves exactly ``epochs`` passes, each a
        # permutation of the task's rows
        import emgd.experiment as exp

        real_next, served = exp.streams.next_batch, {}

        def recording_next(cursor, batch_size):
            batch = real_next(cursor, batch_size)
            rows = cursor.order[cursor.pos - len(batch[1]):cursor.pos]
            served.setdefault(cursor.spec.task_id, []).append(cursor.spec.train_rows[rows])
            return batch

        monkeypatch.setattr(exp.streams, "next_batch", recording_next)
        specs, tl, net = pcl_setup(num_tasks=3, serial=serial, batch_size=5, epochs=epochs)
        run_pcl(specs, tl, net, quick_cfg())
        for spec, (t, s, e) in zip(specs, tl.entries):
            assert len(served[t]) == e - s + 1  # one batch per tick of the window
            rows, n = np.concatenate(served[t]), spec.train_size
            assert rows.size == epochs * n and n == 48
            for k in range(epochs):
                np.testing.assert_array_equal(np.sort(rows[k * n:(k + 1) * n]), spec.train_rows)

    def test_editing_keeps_buffer_in_unit_cube(self):
        specs, tl, net = pcl_setup(num_tasks=3)
        cfg = quick_cfg(method="emgd_gs", editing="emgd", eta_edit=0.2, capacity_per_class=3)
        result = run_pcl(specs, tl, net, cfg)
        for x in result.buffer.x:
            assert x.min() >= 0.0 and x.max() <= 1.0
        edited_rows = [r for r in result.tick_rows if r["edit_objective"]]
        assert edited_rows  # editing actually ran

    def test_learns_separable_blobs(self):
        specs, tl, net = pcl_setup(num_tasks=3, epochs=5)
        cfg = quick_cfg(method="emgd_gs", gamma=0.2, gamma_heads=1.0)
        result = run_pcl(specs, tl, net, cfg)
        a_final, _ = compute_metrics(task_pairs(result))
        assert a_final > 0.7  # well above the 0.25 chance level

    def test_metrics_document_schema(self):
        specs, tl, net = pcl_setup(num_tasks=2)
        cfg = quick_cfg()
        doc = metrics_document(run_pcl(specs, tl, net, cfg), cfg)
        # the top level is the task-incremental block, plus the run it scores
        assert set(doc) == {"A_final", "F_final", "per_task", "method", "editing", "seed",
                            "modes"}
        assert set(doc["modes"]) == {"task", "class"}
        assert {key: doc[key] for key in doc["modes"]["task"]} == doc["modes"]["task"]
        assert (doc["method"], doc["editing"], doc["seed"]) == (cfg.method, cfg.editing, cfg.seed)

    def test_task_incremental_beats_class_incremental(self):
        specs, tl, net = pcl_setup(num_tasks=3)
        cfg = quick_cfg(method="avg_grad")
        result = run_pcl(specs, tl, net, cfg)
        a_task, _ = compute_metrics(task_pairs(result))
        a_class, _ = compute_metrics(task_pairs(result, mode=1))
        assert a_task >= a_class

    @pytest.mark.parametrize("overlap, shared", [(0.5, True), (0.0, False)])
    def test_a_class_two_tasks_share_keeps_rows_of_both(self, overlap, shared):
        # at overlap 0.5 each task re-samples two of its predecessor's four
        # classes, so one class's reservoir takes rows from two tasks; label
        # sets are disjoint at overlap 0
        specs, tl, net = pcl_setup(num_tasks=3, overlap=overlap)
        buffer = run_pcl(specs, tl, net, quick_cfg()).buffer
        tasks_of = {}
        for c, t in zip(buffer.class_id.tolist(), buffer.task_id.tolist()):
            tasks_of.setdefault(c, set()).add(t)
        assert any(len(tasks) == 2 for tasks in tasks_of.values()) == shared

    def test_mismatched_specs_rejected(self):
        specs, tl, net = pcl_setup(num_tasks=2)
        with pytest.raises(ConfigError):
            run_pcl(specs[:1], tl, net, quick_cfg())

    def test_memory_batch_larger_than_buffer(self, monkeypatch):
        # the sampled memory rows repeat; editing writes a repeated slot twice
        import emgd.experiment as exp

        real_sample = exp.rehearsal.sample_memory
        draws = []

        def recording_sample(buffer, batch_size, rng):
            mem = real_sample(buffer, batch_size, rng)
            draws.append((buffer.occupancy, mem))
            return mem

        monkeypatch.setattr(exp.rehearsal, "sample_memory", recording_sample)
        specs, tl, net = pcl_setup(num_tasks=3)
        cfg = quick_cfg(method="emgd_gs", editing="emgd", memory_batch_size=40,
                        capacity_per_class=2)
        result = run_pcl(specs, tl, net, cfg)
        assert draws
        for occupancy, mem in draws:
            assert len(mem.labels) == 40 > occupancy
        memory_rows = [r for r in result.tick_rows if 0 in r["active"]]
        assert len(memory_rows) == len(draws)
        assert all(np.isfinite(r["losses"][0]) for r in memory_rows)
        for x in result.buffer.x:
            assert x.min() >= 0.0 and x.max() <= 1.0

    # 1: one task group per edit; 40: more rows than slots, so rows repeat
    @pytest.mark.parametrize("memory_batch_size", [0, 1, 40])
    def test_editing_passes_take_the_batch_grouped(self, monkeypatch, memory_batch_size):
        # task_slices runs once per sampled batch in the training pass and
        # once per edit, and _route exactly once per pass, training and
        # editing alike; the editing passes take the grouped rows as they
        # are, and give the bits of the route they replaced, a stream per group
        import emgd.experiment as exp
        import emgd.net
        import emgd.rehearsal
        from oracles import group_stream_edit, group_stream_objective

        calls, compared, state = Counter(), Counter(), {"training": False, "oracle": False}
        sampled = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if not state["oracle"]:
                    calls[name, state["training"]] += 1
                return fn(*args, **kwargs)
            return wrapper

        @contextmanager
        def flag(name):
            state[name] = True
            try:
                yield
            finally:
                state[name] = False

        real_gradients, real_sample = exp.stream_gradients, exp.rehearsal.sample_memory
        real_edit, real_objective = emgd.rehearsal.edit_direction, emgd.rehearsal.editing_objective

        def stream_gradients(net, streams, head_step):
            with flag("training"):
                return counted("stream_gradients", real_gradients)(net, streams, head_step)

        def edit_direction(net, inputs, labels, groups, d):
            delta, objective = real_edit(net, inputs, labels, groups, d)
            with flag("oracle"):
                want_delta, want_objective = group_stream_edit(net, inputs, labels, groups, d)
            np.testing.assert_array_equal(delta, want_delta)
            assert objective == want_objective
            compared["edit_direction"] += 1
            return delta, objective

        def editing_objective(net, inputs, labels, groups, d):
            objective = real_objective(net, inputs, labels, groups, d)
            with flag("oracle"):
                mem = sampled[-1]
                assert labels is mem.labels and groups == emgd.net.task_slices(mem.task_ids)
                assert objective == group_stream_objective(net, inputs, labels, groups, d)
            compared["editing_objective"] += 1
            return objective

        monkeypatch.setattr(exp, "stream_gradients", stream_gradients)
        def sample_memory(*args):
            sampled.append(counted("sample", real_sample)(*args))
            return sampled[-1]

        monkeypatch.setattr(exp.rehearsal, "sample_memory", sample_memory)
        monkeypatch.setattr(emgd.rehearsal, "edit_direction", edit_direction)
        monkeypatch.setattr(emgd.rehearsal, "editing_objective", editing_objective)
        monkeypatch.setattr(emgd.net, "_route", counted("_route", emgd.net._route))
        monkeypatch.setattr(emgd.net, "_pass", counted("_pass", emgd.net._pass))
        for module in (emgd.net, emgd.rehearsal):
            monkeypatch.setattr(module, "task_slices", counted("task_slices", module.task_slices))
        specs, tl, net = pcl_setup(num_tasks=3)
        cfg = quick_cfg(editing="emgd", memory_batch_size=memory_batch_size,
                        capacity_per_class=2)
        run_pcl(specs, tl, net, cfg)
        samples = calls["sample", False]
        assert samples > 0
        assert calls["task_slices", False] == samples and calls["task_slices", True] == samples
        # one _route per pass: per training stream_gradients call, and per
        # edit_direction and editing_objective pass
        editing_passes = compared["edit_direction"] + compared["editing_objective"]
        assert calls["_route", True] == calls["_pass", True] == calls["stream_gradients", True] > 0
        assert calls["_route", False] == calls["_pass", False] == editing_passes
        assert compared["editing_objective"] == compared["edit_direction"] == samples

    def test_evaluates_each_task_at_its_finish_and_final_tick(self, monkeypatch):
        # the metrics read a task's accuracy at its finish tick and at the
        # final tick; no other accuracy is computed
        import emgd.experiment as exp

        real_features, calls = exp.features, []

        def counting_features(net, inputs):
            calls.append(inputs.shape[0])
            return real_features(net, inputs)

        monkeypatch.setattr(exp, "features", counting_features)
        for serial in (False, True):
            calls.clear()
            specs, tl, net = pcl_setup(num_tasks=4, serial=serial)
            result = run_pcl(specs, tl, net, quick_cfg())
            finish = {t: e for t, _, e in tl.entries}
            assert set(result.at_finish) == set(result.final) == set(finish)
            expected = set(finish.items()) | {(t, tl.final_tick) for t in finish}
            assert len(calls) == len(expected)  # one test-set forward per scored (task, tick)

    def test_editing_rewrites_the_stored_rows(self):
        specs, tl, _ = pcl_setup(num_tasks=3)

        def memory(**knobs):
            net = Network((8, 16, 8), seed=derive_seed(1234, "net-init"))
            result = run_pcl(specs, tl, net, quick_cfg(**knobs))
            return result.buffer.x.copy()

        assert not np.array_equal(memory(editing="emgd"), memory())

    def test_every_tick_direction_is_pareto_descent(self, monkeypatch):
        # record each tick's solve and re-check the certificate on the
        # sampled-batch gradients the solver actually saw
        import emgd.experiment as exp
        from emgd.solver import solve_emgd as real_solve
        from oracles import pareto_descent_check

        calls = []

        def recording_solve(bundle, sigma):
            result = real_solve(bundle, sigma)
            calls.append((bundle, sigma, result))
            return result

        monkeypatch.setattr(exp.solver, "solve_emgd", recording_solve)
        specs, tl, net = pcl_setup(num_tasks=3)
        run_pcl(specs, tl, net, quick_cfg(method="emgd_gs"))
        assert calls
        for bundle, sigma, result in calls:
            assert pareto_descent_check(bundle, sigma, result, 1e-8)


class TestEvaluate:
    """The stacked-head evaluation against the per-head one it replaced."""

    @pytest.mark.parametrize("seed", [1234, 7, 8])
    def test_equals_per_head_evaluation(self, seed):
        from oracles import per_head_evaluate

        def check(net, seen, scored):
            # class-incremental accuracy still takes its argmax over every seen head
            task_acc, class_acc = per_head_evaluate(net, specs_by_id, seen)
            got = _evaluate(net, specs_by_id, seen, scored)
            assert got == {t: (task_acc[t], class_acc[t]) for t in scored}

        specs, tl, net = pcl_setup(num_tasks=4, seed=seed)
        specs_by_id = {spec.task_id: spec for spec in specs}
        run_pcl(specs, tl, net, quick_cfg(seed=seed))
        for seen in ([1], [2, 1], [1, 2, 3, 4], [3, 1, 4]):
            check(net, seen, seen)
            check(net, seen, seen[-1:])
        check(net, [1, 2, 3, 4], [4, 2])
        check(net, [3, 1, 4], [])
        fresh = Network((8, 16, 8), seed=seed)  # untrained heads too
        for spec in specs:
            add_head(fresh, spec.task_id, spec.class_count, seed=seed + spec.task_id)
        seen = [spec.task_id for spec in specs]
        check(fresh, seen, seen)
        check(fresh, seen, [3])


class TestRunConfig:
    @pytest.mark.parametrize("name", ["gamma", "gamma_heads", "temperature", "eta_edit"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_rejects_nonfinite_or_nonpositive(self, name, value):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("name", ["memory_batch_size"])
    def test_rejects_negative_counts(self, name):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: -1})

    @pytest.mark.parametrize("editing", ["gmed", "EMGD", " none"])
    def test_editing_is_none_or_emgd(self, editing):
        # emgd is the one memory editor; any other name, gmed included, is unknown,
        # and names are matched as written
        with pytest.raises(ConfigError, match=rf"^unknown run.editing {re.escape(repr(editing))}, "
                                              r"pick one of \('none', 'emgd'\)$"):
            RunConfig(editing=editing)

    @pytest.mark.parametrize("knobs, name", [
        ({"eta_edit": 1.5}, "eta_edit"),
        ({"fd_eps": 0.0}, "fd_eps"),
        ({"edit_iterations": 1}, "edit_iterations"),
        ({"clamp": True}, "clamp"),
        ({"freeze_finished_heads": False}, "freeze_finished_heads"),
        ({"tol": 1e-8}, "tol"),
        ({"max_iter": 250}, "max_iter"),
        ({"batch_size": 8}, "batch_size"),
        ({"epochs": 5}, "epochs"),
    ])
    def test_edit_knobs_checked_at_construction(self, knobs, name):
        # the editing gradient is exact, the edit is one clamped step, the
        # solver keeps its own budget and the split owns the batch size and the
        # epochs, so these names are no RunConfig fields at all
        error = ConfigError if name == "eta_edit" else TypeError
        with pytest.raises(error, match=name):
            RunConfig(**knobs)
