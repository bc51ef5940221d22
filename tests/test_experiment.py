import math

import numpy as np
import pytest

from emgd.errors import ConfigError, IncompleteMatrixError, InvalidInputError
from emgd.experiment import (
    AccuracyMatrix,
    RunConfig,
    ToyRow,
    ToyTrace,
    _evaluate,
    compute_metrics,
    convergence_probe,
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
from emgd.rehearsal import MemoryBuffer
from emgd.solver import ElasticState, GradientBundle, combine
from emgd.streams import (
    TaskCursor,
    build_parallel_split,
    derive_seed,
    next_batch,
    synthetic_dataset,
)


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
            tr = traces[m]
            assert tr.f1_at(1500) <= tr.f1_at(500) + 1e-9
            assert tr.f2_at(1500) < tr.f2_at(500)

    def test_avg_grad_regresses_more(self, traces):
        for m in ("emgd_gs", "emgd_gmc"):
            emgd_reg = traces[m].f1_at(1500) - traces[m].f1_at(500)
            avg_reg = traces["avg_grad"].f1_at(1500) - traces["avg_grad"].f1_at(500)
            assert avg_reg > emgd_reg

    def test_per_tick_descent_margin(self, traces):
        for m in ("emgd_gs", "emgd_gmc", "mgda"):
            for row in traces[m].rows:
                assert row.margin >= -1e-12

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
        ({"join_tick": -5, "iterations": 3}, "join_tick=-5"),
        ({"step": 0.0}, "step=0.0"),
        ({"step": float("nan")}, "step=nan"),
        ({"step": float("inf")}, "step=inf"),
    ])
    def test_out_of_range_arguments_named(self, kwargs, name):
        with pytest.raises(ConfigError, match=name):
            run_toy(**kwargs)

    def test_csv_and_summary_shapes(self, traces):
        csv = toy_trace_csv(traces["emgd_gs"])
        assert csv.count("\n") == 1501  # header + one row per iteration
        assert "np." not in csv  # plain float reprs only
        summary = toy_summary(traces["emgd_gs"], 1500)
        assert summary["f1_final"] <= summary["f1_at_join"] + 1e-9


class TestConvergenceProbe:
    def test_toy_trace_probe(self):
        tr = run_toy(method="emgd_gs")
        probe = convergence_probe(tr)
        assert probe.final_direction_norm < tr.rows[0].d_norm
        assert probe.nonincrease_fraction == 1.0

    def test_pareto_critical_start_has_zero_direction(self):
        # opposed equal gradients: the combined direction vanishes at tick 1
        g = np.array([1.0, -2.0, 0.5])
        res, _ = combine("mgda", GradientBundle((1, 2), np.stack([g, -g])), ElasticState())
        trace = ToyTrace("mgda", (0.0, 0.0), join_tick=0, f1_init=1.0, f2_init=1.0, rows=[
            ToyRow(tick, 0.0, 0.0, 1.0, 1.0, d_norm, (), (), 0.0)
            for tick, d_norm in ((1, float(np.linalg.norm(res.direction))), (2, 0.0))
        ])
        probe = convergence_probe(trace)
        assert probe.min_direction_norm <= 1e-6
        assert trace.rows[0].d_norm <= 1e-6

    def test_second_loss_counts_only_after_the_join(self):
        # f2 rises 5 -> 9 across the join (not yet shared) and 9 -> 10 after it
        trace = ToyTrace("emgd_gs", (0.0, 0.0), join_tick=1, f1_init=1.0, f2_init=5.0, rows=[
            ToyRow(tick, 0.0, 0.0, 1.0, f2, 1.0, (), (), 0.0)
            for tick, f2 in ((1, 5.0), (2, 9.0), (3, 10.0))
        ])
        assert convergence_probe(trace).nonincrease_fraction == 0.5


class TestMetrics:
    def make_matrix(self):
        m = AccuracyMatrix(finish_ticks={1: 5, 2: 9}, final_tick=9)
        m.record(1, 5, 0.9)
        m.record(1, 9, 0.8)
        m.record(2, 9, 0.7)
        return m

    def test_hand_fixture(self):
        a, f = compute_metrics(self.make_matrix())
        assert a == 0.75
        assert f == pytest.approx(-0.05, abs=1e-15)

    def test_constant_matrix(self):
        m = AccuracyMatrix(finish_ticks={1: 2, 2: 4, 3: 6}, final_tick=6)
        for t, e in m.finish_ticks.items():
            m.record(t, e, 0.42)
            m.record(t, 6, 0.42)
        a, f = compute_metrics(m)
        assert a == pytest.approx(0.42, abs=1e-15)
        assert f == 0.0

    def test_random_matrix_against_direct_recomputation(self):
        rng = np.random.default_rng(5)
        finish = {t: 3 * t for t in range(1, 6)}
        m = AccuracyMatrix(finish_ticks=finish, final_tick=15)
        vals = {}
        for t, e in finish.items():
            vals[(t, e)] = float(rng.uniform(0, 1))
            vals[(t, 15)] = float(rng.uniform(0, 1))
            m.record(t, e, vals[(t, e)])
            m.record(t, 15, vals[(t, 15)])
        # independent arithmetic with plain Python floats
        a_direct = sum(vals[(t, 15)] for t in finish) / 5
        f_direct = sum(vals[(t, 15)] - vals[(t, finish[t])] for t in finish) / 5
        a, f = compute_metrics(m)
        assert abs(a - a_direct) <= 1e-12
        assert abs(f - f_direct) <= 1e-12

    def test_missing_entry(self):
        m = AccuracyMatrix(finish_ticks={1: 5}, final_tick=9)
        m.record(1, 5, 0.5)
        with pytest.raises(IncompleteMatrixError):
            compute_metrics(m)


def pcl_setup(num_tasks=3, seed=1234, serial=False, dim=8, per_class=12,
              batch_size=8, hidden=16, feature=8, epochs=1):
    ds = synthetic_dataset(4 * num_tasks, dim, per_class, 6, 0.08, seed=seed)
    specs, tl = build_parallel_split(
        ds, num_tasks, label_bounds=(4, 4), seed=seed, batch_size=batch_size,
        serial=serial, epochs=epochs,
    )
    net = Network((dim, hidden, feature), seed=derive_seed(seed, "net-init"))
    return specs, tl, net


def quick_cfg(**kw):
    base = dict(batch_size=8, gamma=0.3, gamma_heads=0.3, seed=1234)
    base.update(kw)
    return RunConfig(**base)


class TestRunPcl:
    def test_single_task_equals_plain_descent(self):
        specs, tl, net = pcl_setup(num_tasks=1)
        cfg = quick_cfg(method="emgd_gmc")
        result = run_pcl(specs, tl, net, MemoryBuffer(cfg.capacity_per_class), cfg)
        losses = [row["losses"][1] for row in result.tick_rows]

        # replay: plain descent with the same head seed and batch order
        ref = Network((8, 16, 8), seed=derive_seed(1234, "net-init"))
        add_head(ref, 1, specs[0].class_count, derive_seed(1234, "head", 1))
        cursor = TaskCursor(specs[0], cfg.epochs, cfg.seed)
        ref_losses = []
        for _ in range(tl.final_tick + 1):
            batch = next_batch(specs[0], cfg.batch_size, cursor)
            rep = backward(ref, batch)
            ref.heads[1] -= cfg.gamma_heads * rep.head_grad
            rep = backward(ref, batch)
            apply_update(ref, -rep.backbone_grad, cfg.gamma)
            ref_losses.append(rep.loss)
        assert losses == ref_losses  # bitwise identical trajectories

    def test_serial_avg_grad_behaves_like_experience_replay(self):
        specs, tl, net = pcl_setup(num_tasks=3, serial=True)
        cfg = quick_cfg(method="avg_grad")
        result = run_pcl(specs, tl, net, MemoryBuffer(cfg.capacity_per_class), cfg)
        finish = tl.finish_ticks()
        first_finish = min(finish.values())
        for row in result.tick_rows:
            tick = row["tick"]
            expect = {t for t, s, e in tl.entries if s <= tick <= e}
            if tick > first_finish:
                expect.add(0)  # memory stream joins right after the first finish
            assert set(row["active"]) == expect

    def test_deterministic_replay(self):
        for editing in ("none", "emgd", "gmed"):
            specs_a, tl_a, net_a = pcl_setup()
            specs_b, tl_b, net_b = pcl_setup()
            cfg = quick_cfg(method="emgd_gs", editing=editing)
            ra = run_pcl(specs_a, tl_a, net_a, MemoryBuffer(5), cfg)
            rb = run_pcl(specs_b, tl_b, net_b, MemoryBuffer(5), cfg)
            assert tick_log_csv(ra.tick_rows) == tick_log_csv(rb.tick_rows)
            assert metrics_document(ra, cfg) == metrics_document(rb, cfg)

    def test_frozen_finished_heads_stay_bit_identical(self):
        specs, tl, net = pcl_setup(num_tasks=2, serial=True)
        cfg = quick_cfg(method="emgd_gs", freeze_finished_heads=True)
        result = run_pcl(specs, tl, net, MemoryBuffer(5), cfg)

        solo_specs, solo_tl, solo_net = pcl_setup(num_tasks=2, serial=True)
        solo = run_pcl([solo_specs[0]],
                       type(solo_tl)([solo_tl.entries[0]]),
                       solo_net, MemoryBuffer(5), cfg)
        np.testing.assert_array_equal(
            result.net.heads[1], solo.net.heads[1]
        )

    def test_unfrozen_heads_move(self):
        specs, tl, net = pcl_setup(num_tasks=2, serial=True)
        cfg = quick_cfg(method="emgd_gs", freeze_finished_heads=False)
        result = run_pcl(specs, tl, net, MemoryBuffer(5), cfg)

        solo_specs, solo_tl, solo_net = pcl_setup(num_tasks=2, serial=True)
        solo = run_pcl([solo_specs[0]],
                       type(solo_tl)([solo_tl.entries[0]]),
                       solo_net, MemoryBuffer(5), cfg)
        assert not np.array_equal(
            result.net.heads[1], solo.net.heads[1]
        )

    def test_editing_keeps_buffer_in_unit_cube(self):
        for editing in ("emgd", "gmed"):
            specs, tl, net = pcl_setup(num_tasks=3)
            cfg = quick_cfg(method="emgd_gs", editing=editing, eta_edit=0.2)
            result = run_pcl(specs, tl, net, MemoryBuffer(3), cfg)
            for x in result.buffer.x:
                assert x.min() >= 0.0 and x.max() <= 1.0
            edited_rows = [r for r in result.tick_rows if r["edit_objective"]]
            assert edited_rows  # editing actually ran

    def test_learns_separable_blobs(self):
        specs, tl, net = pcl_setup(num_tasks=3, epochs=5)
        cfg = quick_cfg(method="emgd_gs", epochs=5, gamma=0.2, gamma_heads=1.0)
        result = run_pcl(specs, tl, net, MemoryBuffer(5), cfg)
        a_final, _ = compute_metrics(result.matrix_task)
        assert a_final > 0.7  # well above the 0.25 chance level

    def test_metrics_document_schema(self):
        specs, tl, net = pcl_setup(num_tasks=2)
        cfg = quick_cfg(eval_mode="task")
        result = run_pcl(specs, tl, net, MemoryBuffer(5), cfg)
        doc = metrics_document(result, cfg)
        assert set(doc) >= {"A_final", "F_final", "per_task", "method", "seed"}
        assert set(doc["modes"]) == {"task", "class"}
        class_doc = metrics_document(result, quick_cfg(eval_mode="class"))
        assert class_doc["A_final"] == doc["modes"]["class"]["A_final"]

    def test_task_incremental_beats_class_incremental(self):
        specs, tl, net = pcl_setup(num_tasks=3)
        cfg = quick_cfg(method="avg_grad")
        result = run_pcl(specs, tl, net, MemoryBuffer(5), cfg)
        a_task, _ = compute_metrics(result.matrix_task)
        a_class, _ = compute_metrics(result.matrix_class)
        assert a_task >= a_class

    def test_mismatched_specs_rejected(self):
        specs, tl, net = pcl_setup(num_tasks=2)
        with pytest.raises(ConfigError):
            run_pcl(specs[:1], tl, net, MemoryBuffer(5), quick_cfg())

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
        result = run_pcl(specs, tl, net, MemoryBuffer(cfg.capacity_per_class), cfg)
        assert draws
        for occupancy, mem in draws:
            assert mem.size == 40 > occupancy
        memory_rows = [r for r in result.tick_rows if 0 in r["active"]]
        assert len(memory_rows) == len(draws)
        assert all(np.isfinite(r["losses"][0]) for r in memory_rows)
        for x in result.buffer.x:
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_eval_every_adds_evaluation_ticks(self):
        specs, tl, _ = pcl_setup(num_tasks=2)
        ticks = {}
        for every in (0, 2):
            net = Network((8, 16, 8), seed=derive_seed(1234, "net-init"))
            result = run_pcl(specs, tl, net, MemoryBuffer(5), quick_cfg(eval_every=every))
            ticks[every] = {tick for _, tick in result.matrix_task.entries}
        base = set(tl.finish_ticks().values())
        assert ticks[0] == base
        assert ticks[2] == base | set(range(tl.first_tick, tl.final_tick + 1, 2))

    def test_edit_iterations_sets_the_number_of_edit_steps(self):
        specs, tl, _ = pcl_setup(num_tasks=3)

        def memory(**knobs):
            net = Network((8, 16, 8), seed=derive_seed(1234, "net-init"))
            result = run_pcl(specs, tl, net, MemoryBuffer(5), quick_cfg(**knobs))
            return result.buffer.x.copy()

        unedited = memory()
        np.testing.assert_array_equal(memory(editing="emgd", edit_iterations=0), unedited)
        once = memory(editing="emgd", edit_iterations=1)
        twice = memory(editing="emgd", edit_iterations=2)
        assert not np.array_equal(once, unedited)
        assert not np.array_equal(twice, once)

    def test_every_tick_direction_is_pareto_descent(self, monkeypatch):
        # record each tick's solve and re-check the certificate on the
        # sampled-batch gradients the solver actually saw
        import emgd.experiment as exp
        from emgd.solver import solve_emgd as real_solve
        from oracles import pareto_descent_check

        calls = []

        def recording_solve(bundle, sigma, tol, max_iter):
            result = real_solve(bundle, sigma, tol, max_iter)
            calls.append((bundle, sigma, result))
            return result

        monkeypatch.setattr(exp.solver, "solve_emgd", recording_solve)
        specs, tl, net = pcl_setup(num_tasks=3)
        run_pcl(specs, tl, net, MemoryBuffer(5), quick_cfg(method="emgd_gs"))
        assert calls
        for bundle, sigma, result in calls:
            assert pareto_descent_check(bundle, sigma, result, 1e-8)


class TestEvaluate:
    """The stacked-head evaluation against the per-head one it replaced."""

    @pytest.mark.parametrize("seed", [1234, 7, 8])
    def test_equals_per_head_evaluation(self, seed):
        from oracles import per_head_evaluate

        specs, tl, net = pcl_setup(num_tasks=4, seed=seed)
        specs_by_id = {spec.task_id: spec for spec in specs}
        result = run_pcl(specs, tl, net, MemoryBuffer(5), quick_cfg(seed=seed))
        for seen in ([1], [2, 1], [1, 2, 3, 4], [3, 1, 4]):
            got = _evaluate(result.net, specs_by_id, seen)
            assert got == per_head_evaluate(result.net, specs_by_id, seen)
        fresh = Network((8, 16, 8), seed=seed)  # untrained heads too
        for spec in specs:
            add_head(fresh, spec.task_id, spec.class_count, seed=seed + spec.task_id)
        seen = [spec.task_id for spec in specs]
        assert _evaluate(fresh, specs_by_id, seen) == per_head_evaluate(fresh, specs_by_id, seen)


class TestRunConfig:
    @pytest.mark.parametrize("name", ["gamma", "gamma_heads", "temperature", "tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_rejects_nonfinite_or_nonpositive(self, name, value):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_max_iter_below_one(self, value):
        with pytest.raises(ConfigError, match="max_iter"):
            RunConfig(max_iter=value)

    @pytest.mark.parametrize("name", ["eval_every", "memory_batch_size"])
    def test_rejects_negative_counts(self, name):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: -1})

    def test_eval_mode_aliases_resolved(self):
        assert RunConfig(eval_mode="class-incremental").eval_mode == "class"
        assert RunConfig(eval_mode="task-incremental").eval_mode == "task"
        with pytest.raises(ConfigError, match="eval_mode"):
            RunConfig(eval_mode="both")

    @pytest.mark.parametrize("knobs, name", [
        ({"eta_edit": 1.5}, "eta_edit"),
        ({"edit_iterations": -1}, "iterations"),
        ({"fd_eps": 0.0}, "fd_eps"),
    ])
    def test_edit_knobs_checked_at_construction(self, knobs, name):
        # the editing gradient is exact, so fd_eps is no RunConfig field at all
        error = TypeError if name == "fd_eps" else InvalidInputError
        with pytest.raises(error, match=name):
            RunConfig(**knobs)
