import io
import json
import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emgd.cli import main


def run_cli(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    return main(argv)


def pcl_config(tmp_path, **overrides):
    doc = {
        "seed": 1234,
        "dataset": {
            "synthetic": {
                "num_classes": 8,
                "input_dim": 8,
                "samples_per_class": 12,
                "test_per_class": 6,
                "noise_sigma": 0.08,
            }
        },
        "split": {"num_tasks": 2, "label_bounds": [4, 4], "batch_size": 8, "epochs": 2},
        "run": {"method": "emgd_gs", "gamma": 0.2, "gamma_heads": 1.0},
        "net": {"hidden": [16], "feature_dim": 8},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestSolve:
    def test_singleton(self, monkeypatch, capsys):
        code = run_cli(
            ["solve"],
            '{"grads": [[1.0, 0.0]], "sigma_mode": "fixed", "sigma": [1.0]}',
            monkeypatch,
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["lambda"] == pytest.approx([1.0])

    def test_piecewise_fixture(self, monkeypatch, capsys):
        code = run_cli(
            ["solve"],
            '{"grads": [[2.0, 0.0], [1.0, 0.0]], "sigma_mode": "fixed", "sigma": [0.5, 0.5]}',
            monkeypatch,
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["lambda"] == pytest.approx([0.0, 2.0], abs=1e-10)
        assert out["direction"] == pytest.approx([2.0, 0.0], abs=1e-10)

    def test_unequal_dimensions_exit_1(self, monkeypatch, capsys):
        code = run_cli(["solve"], '{"grads": [[1.0, 0.0], [1.0]]}', monkeypatch)
        captured = capsys.readouterr()
        assert code == 1
        assert "grads" in captured.err

    def test_malformed_json_exit_1(self, monkeypatch, capsys):
        code = run_cli(["solve"], "{not json", monkeypatch)
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_field_named(self, monkeypatch, capsys):
        code = run_cli(["solve"], '{"grads": [[1.0]], "bogus": 2}', monkeypatch)
        captured = capsys.readouterr()
        assert code == 1
        assert "bogus" in captured.err

    @pytest.mark.parametrize("field, request_text", [
        ("grads", '{"grads": [["a", 1.0]]}'),
        ("temperature", '{"grads": [[1.0, 0.0]], "temperature": "x"}'),
        ("tol", '{"grads": [[1.0, 0.0]], "tol": "x"}'),
        ("max_iter", '{"grads": [[1.0, 0.0]], "max_iter": "x"}'),
        ("max_iter", '{"grads": [[1.0, 0.0]], "max_iter": 0}'),
    ])
    def test_malformed_value_exit_1(self, monkeypatch, capsys, field, request_text):
        code = run_cli(["solve"], request_text, monkeypatch)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and field in captured.err
        assert "Traceback" not in captured.err

    def test_underflowed_factor_is_named_without_a_warning(self, monkeypatch, capsys):
        # softmax of momenta 400 and 1 leaves sigma_2 ~ 1e-173, so sigma_2^2 is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["solve"], '{"grads": [[400.0, 0.0], [0.0, 1.0]], "sigma_mode": "gmc"}',
                           monkeypatch)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("error: elastic factor underflowed to zero; "
                                "raise the temperature\n")

    def test_gs_zero_gradient_uses_uniform_factors(self, monkeypatch, capsys):
        code = run_cli(["solve"], '{"grads": [[1.0, 0.0], [0.0, 0.0]], "sigma_mode": "gs"}',
                       monkeypatch)
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["direction"] == pytest.approx([0.0, 0.0], abs=1e-12)


NUMBERS = st.one_of(st.floats(width=64), st.integers(-3, 3),
                    st.sampled_from([0.0, 1e-300, 1e300, -1e300]))
JUNK = st.sampled_from(["x", True, None, [], {}, [1, "a"], {"a": 1}, [[1.0]]])
VECTORS = st.lists(st.one_of(NUMBERS, NUMBERS, JUNK), max_size=4)  # ragged or empty too
REQUESTS = st.one_of(JUNK, st.fixed_dictionaries({}, optional={
    "grads": st.one_of(st.lists(VECTORS, max_size=4), VECTORS, NUMBERS, JUNK),
    "sigma_mode": st.one_of(st.sampled_from(["fixed", "gs", "gmc", "bogus"]), JUNK),
    "sigma": st.one_of(st.lists(NUMBERS, max_size=5), JUNK),
    "temperature": st.one_of(NUMBERS, JUNK),
    "tol": st.one_of(NUMBERS, JUNK),
    # bounded, so a request that never converges still ends quickly
    "max_iter": st.one_of(st.integers(-2, 300), st.floats(-2.0, 300.0), JUNK,
                          st.sampled_from([float("nan"), float("inf")])),
    "bogus": NUMBERS,
}))


@given(REQUESTS)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_solve_request_exits_0_1_or_2(monkeypatch, capsys, request_doc):
    code = run_cli(["solve"], json.dumps(request_doc), monkeypatch)
    captured = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in captured.err
    if code == 1:
        assert captured.err.startswith("error:")
    else:
        assert set(json.loads(captured.out)) == {"lambda", "direction", "objective", "converged"}


class TestRunToy:
    def test_default_trace_has_1500_rows(self, tmp_path):
        assert main(["run-toy", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "toy_trace.csv").read_text().splitlines()
        assert len(lines) == 1501  # header + 1500 iterations
        summary = json.loads((tmp_path / "toy_summary.json").read_text())
        assert summary["iterations"] == 1500
        assert summary["join_tick"] == 500

    def test_short_run(self, tmp_path):
        assert main(["run-toy", "--iters", "10", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "toy_trace.csv").read_text().splitlines()) == 11

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run-toy", "--iters", "40", "--method", "emgd_gmc", "--out", str(a)])
        main(["run-toy", "--iters", "40", "--method", "emgd_gmc", "--out", str(b)])
        assert (a / "toy_trace.csv").read_bytes() == (b / "toy_trace.csv").read_bytes()
        assert (a / "toy_summary.json").read_bytes() == (b / "toy_summary.json").read_bytes()

    def test_invalid_method_exit_1(self, tmp_path, capsys):
        assert main(["run-toy", "--method", "sgd", "--out", str(tmp_path)]) == 1
        assert "method" in capsys.readouterr().err


class TestRunPcl:
    def test_minimal_run_writes_metrics(self, tmp_path):
        cfg = pcl_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run-pcl", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "A_final" in metrics and "F_final" in metrics
        assert (out / "tick_log.csv").exists()

    def test_methods_differ_in_lambda_columns(self, tmp_path):
        cfg = pcl_config(tmp_path)
        out_a, out_b = tmp_path / "avg", tmp_path / "gs"
        main(["run-pcl", "--config", str(cfg), "--method", "avg_grad", "--out", str(out_a)])
        main(["run-pcl", "--config", str(cfg), "--method", "emgd_gs", "--out", str(out_b)])
        log_a = (out_a / "tick_log.csv").read_text()
        log_b = (out_b / "tick_log.csv").read_text()
        lam_a = [line.split(",")[3] for line in log_a.splitlines()[1:]]
        lam_b = [line.split(",")[3] for line in log_b.splitlines()[1:]]
        assert lam_a != lam_b

    def test_eval_mode_ordering(self, tmp_path):
        cfg = pcl_config(tmp_path)
        out_t, out_c = tmp_path / "task", tmp_path / "class"
        main(["run-pcl", "--config", str(cfg), "--eval-mode", "task-incremental",
              "--out", str(out_t)])
        main(["run-pcl", "--config", str(cfg), "--eval-mode", "class-incremental",
              "--out", str(out_c)])
        a_task = json.loads((out_t / "metrics.json").read_text())["A_final"]
        a_class = json.loads((out_c / "metrics.json").read_text())["A_final"]
        assert a_task >= a_class
        assert json.loads((out_t / "metrics.json").read_text())["eval_mode"] == "task"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = pcl_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run-pcl", "--config", str(cfg), "--out", str(out_a)])
        main(["run-pcl", "--config", str(cfg), "--out", str(out_b)])
        assert (out_a / "tick_log.csv").read_bytes() == (out_b / "tick_log.csv").read_bytes()
        assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()

    def test_missing_manifest_exit_1(self, tmp_path, capsys):
        cfg = pcl_config(tmp_path, manifest=str(tmp_path / "missing.json"))
        assert main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "manifest" in capsys.readouterr().err

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = pcl_config(tmp_path, typo_key=1)
        assert main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_numeric_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # the float64 tanh net saturates instead of overflowing, so force the
        # failure path to pin the exit-code contract
        from emgd.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("non-finite update direction", tick=7)

        monkeypatch.setattr("emgd.cli.experiment.run_pcl", boom)
        cfg = pcl_config(tmp_path)
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 3
        assert "tick 7" in captured.err

    def test_snapshot_buffer_written(self, tmp_path):
        cfg = pcl_config(
            tmp_path,
            run={"method": "emgd_gs", "gamma": 0.2, "gamma_heads": 1.0,
                 "snapshot_buffer": True},
        )
        out = tmp_path / "snap"
        assert main(["run-pcl", "--config", str(cfg), "--out", str(out)]) == 0
        from emgd.rehearsal import load_buffer_snapshot

        buf = load_buffer_snapshot(out / "buffer_snapshot.bin")
        assert buf.occupancy > 0


class TestBuildSplits:
    def test_reproducible_manifest(self, tmp_path):
        cfg = pcl_config(tmp_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["build-splits", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["build-splits", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        manifest = json.loads(out_a.read_text())
        assert manifest["seed"] == 1234
        assert len(manifest["tasks"]) == 2

    def test_serial_flag(self, tmp_path):
        cfg = pcl_config(tmp_path)
        out = tmp_path / "serial.json"
        main(["build-splits", "--config", str(cfg), "--serial", "--out", str(out)])
        tasks = json.loads(out.read_text())["tasks"]
        for prev, cur in zip(tasks, tasks[1:]):
            assert cur["s"] == prev["e"] + 1

    def test_overlap_flag(self, tmp_path):
        cfg = pcl_config(tmp_path)
        out = tmp_path / "overlap.json"
        main(["build-splits", "--config", str(cfg), "--overlap", "0.5", "--out", str(out)])
        tasks = json.loads(out.read_text())["tasks"]
        shared = set(tasks[0]["labels"]) & set(tasks[1]["labels"])
        assert len(shared) == 2  # ceil(0.5 * 4)

    @pytest.mark.parametrize("command", ["build-splits", "run-pcl"])
    def test_out_of_range_overlap_flag_named(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr("emgd.experiment.run_pcl", never_train)
        cfg = pcl_config(tmp_path)  # its split.overlap is the default, 0.0
        code = main([command, "--config", str(cfg), "--overlap", "1.5",
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert_named_exit_1(code, captured, "--overlap must lie in [0, 1), got 1.5")
        assert "split.overlap" not in captured.err

    def test_infeasible_bounds_exit_1(self, tmp_path, capsys):
        cfg = pcl_config(
            tmp_path,
            split={"num_tasks": 5, "label_bounds": [4, 4], "batch_size": 8},
        )
        assert main(["build-splits", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
        assert "classes" in capsys.readouterr().err

    def test_manifest_feeds_run_pcl(self, tmp_path):
        cfg = pcl_config(tmp_path)
        manifest_path = tmp_path / "m.json"
        main(["build-splits", "--config", str(cfg), "--out", str(manifest_path)])
        cfg2 = pcl_config(tmp_path, manifest=str(manifest_path))
        out = tmp_path / "from-manifest"
        assert main(["run-pcl", "--config", str(cfg2), "--out", str(out)]) == 0
        assert (out / "metrics.json").exists()


class TestReport:
    def write_metrics(self, path, method, seed, a, f):
        path.write_text(json.dumps({
            "A_final": a, "F_final": f, "method": method, "editing": "none",
            "seed": seed,
        }))

    def test_single_file_single_row(self, tmp_path, capsys):
        self.write_metrics(tmp_path / "metrics.json", "emgd_gs", 1, 0.9, -0.01)
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "emgd_gs" in out
        assert (tmp_path / "report_summary.csv").exists()

    def test_three_seeds_mean_std(self, tmp_path, capsys):
        values = [0.8, 0.9, 1.0]
        for i, a in enumerate(values):
            self.write_metrics(tmp_path / f"metrics_{i}.json", "mgda", i, a, 0.0)
        assert main(["report", str(tmp_path)]) == 0
        _ = capsys.readouterr()
        summary = (tmp_path / "report_summary.csv").read_text().splitlines()
        _, _, n, a_mean, a_std, _, _ = summary[1].split(",")
        assert int(n) == 3
        assert float(a_mean) == pytest.approx(0.9)
        assert float(a_std) == pytest.approx(0.1)  # sample standard deviation

    def test_incomplete_file_named(self, tmp_path, capsys):
        (tmp_path / "metrics_bad.json").write_text('{"A_final": 0.5}')
        assert main(["report", str(tmp_path)]) == 1
        assert "metrics_bad.json" in capsys.readouterr().err

    def test_empty_dir_exit_1(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "no metrics" in capsys.readouterr().err


# One field of a valid config set to a malformed value. The expected text is
# the dotted field path for a value of the wrong type or an unknown key. Range
# errors name the dotted path too; the older rows check the field's name only,
# the rows at the end the dotted path.
CONFIG_MUTATIONS = [
    (("seed",), "x", "config.seed"),
    (("dataset",), {}, "dataset"),
    (("dataset", "synthetic", "input_dim"), True, "dataset.synthetic.input_dim"),
    (("dataset", "synthetic", "num_classes"), 0, "num_classes"),
    (("dataset", "synthetic", "noise_sigma"), -0.1, "noise_sigma"),
    (("split", "batch_size"), "x", "split.batch_size"),
    (("split", "batch_size"), 2.5, "split.batch_size"),
    (("split", "batch_size"), 0, "batch_size"),
    (("split", "epochs"), 0, "epochs"),
    (("split", "label_bounds"), [4], "label_bounds"),
    (("split", "label_bounds"), "x", "split.label_bounds"),
    (("split", "num_tasks"), 0, "num_tasks"),
    (("split", "serial"), "no", "split.serial"),
    (("run", "gamma"), "fast", "run.gamma"),
    (("run", "gamma"), float("nan"), "run.gamma"),
    (("run", "clamp"), "no", "run.clamp"),
    (("run", "method"), 3, "run.method"),
    (("run", "method"), "sgd", "method"),
    (("run", "eval_mode"), "both", "eval_mode"),
    (("run", "eval_every"), -1, "eval_every"),
    (("run", "eval_every"), 1.5, "run.eval_every"),
    (("run", "memory_batch_size"), -1, "memory_batch_size"),
    (("run", "memory_batch_size"), 0, None),  # 0 means the batch size
    (("run", "max_iter"), "x", "run.max_iter"),
    (("run", "edit_iterations"), -1, "iterations"),
    (("run", "eta_edit"), 2.0, "eta_edit"),
    (("run", "capacity_per_class"), 0, "capacity_per_class"),
    (("run", "typo"), 1, "run.typo"),
    (("net", "hidden"), 5, "net.hidden"),
    (("net", "hidden"), [16.5], "net.hidden"),
    (("net", "hidden"), [0], "net.hidden"),
    (("net", "feature_dim"), 0, "net.feature_dim"),
    (("run", "fd_eps"), 1e-4, "unknown field: run.fd_eps"),  # the editor has no step
    # range errors name the dotted path, as type errors do
    (("run", "max_iter"), 0, "run.max_iter must be >= 1, got 0"),
    (("run", "tol"), -1.0, "run.tol must be positive"),
    (("run", "temperature"), 0.0, "run.temperature must be positive"),
    (("run", "edit_iterations"), -1, "run.edit_iterations must be >= 0, got -1"),
    (("run", "eta_edit"), 2.0, "run.eta_edit must lie in [0, 1], got 2.0"),
    (("run", "capacity_per_class"), 0, "run.capacity_per_class must be >= 1, got 0"),
    (("split", "overlap"), 1.5, "split.overlap must lie in [0, 1), got 1.5"),
    (("split", "num_tasks"), 0, "split.num_tasks must be >= 1, got 0"),
    (("split", "label_bounds"), [4], "split.label_bounds must be [lo, hi]"),
    (("split", "batch_size"), 0, "must be >= 1, got split.batch_size 0"),
    (("split", "epochs"), 0, "must be >= 1, got split.epochs 0"),
    (("dataset", "synthetic", "num_classes"), 0, "dataset.synthetic.num_classes must be >= 1"),
    (("dataset", "synthetic", "input_dim"), 0, "dataset.synthetic.input_dim must be >= 1"),
    (("dataset", "synthetic", "samples_per_class"), 0,
     "dataset.synthetic.samples_per_class must be >= 1"),
    (("dataset", "synthetic", "test_per_class"), 0,
     "dataset.synthetic.test_per_class must be >= 1"),
    (("dataset", "synthetic", "noise_sigma"), -0.1,
     "dataset.synthetic.noise_sigma must be finite and >= 0"),
]


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def never_train(*args, **kwargs):
    raise AssertionError("training started")


def assert_named_exit_1(code, captured, name):
    assert code == 1
    assert captured.err.startswith("error:") and name in captured.err
    assert "Traceback" not in captured.err


class TestMalformedConfig:
    @pytest.mark.parametrize("path, value, name", CONFIG_MUTATIONS)
    def test_one_field_mutation(self, tmp_path, capsys, path, value, name):
        base = json.loads(pcl_config(tmp_path).read_text())
        cfg = tmp_path / "mutated.json"
        cfg.write_text(json.dumps(mutated(base, path, value)))
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        if name is None:
            assert code == 0
        else:
            assert_named_exit_1(code, capsys.readouterr(), name)

    @pytest.mark.parametrize("edit, name", [
        (lambda m: m["tasks"][0].pop("id"), "manifest.tasks[0].id"),
        (lambda m: m.update(tasks=5), "manifest.tasks"),
        (lambda m: m["tasks"][0].update(labels="x"), "manifest.tasks[0].labels"),
        (lambda m: m.update(batch_size="x"), "manifest.batch_size"),
        (lambda m: m.update(batch_size=0), "batch_size"),
        (None, "must be a JSON object"),  # the manifest is a list
        (lambda m: m.update(epochs=0), "must be >= 1, got manifest.epochs 0"),
        # a label set with no training rows, on a one-tick window that fits it
        (lambda m: m["tasks"][-1].update(labels=[99, 100], e=m["tasks"][-1]["s"]),
         "manifest.tasks[1].labels [99, 100] has no training data"),
    ])
    def test_manifest_mutation(self, tmp_path, capsys, edit, name):
        manifest_path = tmp_path / "m.json"
        main(["build-splits", "--config", str(pcl_config(tmp_path)), "--out", str(manifest_path)])
        manifest = json.loads(manifest_path.read_text())
        if edit is None:
            manifest = manifest["tasks"]
        else:
            edit(manifest)
        manifest_path.write_text(json.dumps(manifest))
        cfg = pcl_config(tmp_path, manifest=str(manifest_path))
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_named_exit_1(code, capsys.readouterr(), name)

    @pytest.mark.parametrize("keys, name", [
        (("train_images", "train_labels", "test_images"), "dataset.idx.test_labels"),
        (("train_images", "train_labels", "test_images", "test_labels"), "cannot read IDX file"),
    ])
    def test_idx_dataset_fault_named(self, tmp_path, capsys, keys, name):
        idx = {key: str(tmp_path / f"{key}.idx") for key in keys}
        cfg = pcl_config(tmp_path, dataset={"idx": idx})
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_named_exit_1(code, capsys.readouterr(), name)

    def test_idx_width_mismatch_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def write_idx(name, side, count=8):
            pixels = bytes(range(count * side * side))
            (tmp_path / f"{name}_images.idx").write_bytes(
                struct.pack(">IIII", 0x803, count, side, side) + pixels)
            (tmp_path / f"{name}_labels.idx").write_bytes(
                struct.pack(">II", 0x801, count) + bytes(i % 4 for i in range(count)))

        write_idx("train", 2)
        write_idx("test", 3)
        idx = {f"{name}_{kind}": str(tmp_path / f"{name}_{kind}.idx")
               for name in ("train", "test") for kind in ("images", "labels")}
        monkeypatch.setattr("emgd.cli.experiment.run_pcl", never_train)
        cfg = pcl_config(tmp_path, dataset={"idx": idx},
                         split={"num_tasks": 2, "label_bounds": [2, 2], "batch_size": 4})
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert_named_exit_1(code, captured, idx["test_images"])
        assert "width 9" in captured.err and "width 4" in captured.err

    def test_bad_eval_mode_fails_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("emgd.cli.experiment.run_pcl", never_train)
        code = main(["run-pcl", "--config", str(pcl_config(tmp_path)), "--eval-mode", "both",
                     "--out", str(tmp_path / "o")])
        assert_named_exit_1(code, capsys.readouterr(), "eval_mode")


def config_fields(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from config_fields(value, prefix + (key,))


FULL_CONFIG = {
    "seed": 1234,
    "dataset": {"synthetic": {"num_classes": 8, "input_dim": 8, "samples_per_class": 12,
                              "test_per_class": 6, "noise_sigma": 0.08}},
    "split": {"num_tasks": 2, "label_bounds": [4, 4], "overlap": 0.0, "serial": False,
              "batch_size": 8, "epochs": 2},
    "run": {"method": "emgd_gs", "editing": "emgd", "gamma": 0.2, "gamma_heads": 1.0,
            "temperature": 1.0, "eval_every": 3, "eval_mode": "task", "memory_batch_size": 4,
            "capacity_per_class": 2, "eta_edit": 0.05, "edit_iterations": 2, "clamp": True,
            "freeze_finished_heads": False, "tol": 1e-8, "max_iter": 50,
            "snapshot_buffer": False},
    "net": {"hidden": [16], "feature_dim": 8},
}


@given(st.sampled_from(list(config_fields(FULL_CONFIG))),
       st.sampled_from(["x", True, None, 2.5, float("nan"), [1, 2, 3], {}, -1]))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_field_mutation_exits_0_or_1(tmp_path, capsys, path, value):
    cfg = tmp_path / "mutated.json"
    cfg.write_text(json.dumps(mutated(FULL_CONFIG, path, value)))
    code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err


class TestRunToyRanges:
    @pytest.mark.parametrize("argv, name", [
        (["--join-tick", "-5", "--iters", "3"], "join_tick=-5"),
        (["--iters", "0"], "iterations=0"),
        (["--step", "inf"], "step=inf"),
        (["--step=-1e-5"], "step=-1e-05"),
        (["--temperature", "nan"], "temperature"),
    ])
    def test_out_of_range_exit_1(self, tmp_path, capsys, argv, name):
        code = main(["run-toy", *argv, "--out", str(tmp_path)])
        assert_named_exit_1(code, capsys.readouterr(), name)


class TestOutputPaths:
    """An output path the command cannot write exits 1 naming the path."""

    def test_run_toy_out_is_a_file(self, tmp_path, capsys):
        target = tmp_path / "afile"
        target.write_text("")
        code = main(["run-toy", "--iters", "3", "--out", str(target)])
        assert_named_exit_1(code, capsys.readouterr(), str(target))

    def test_run_pcl_out_is_a_file(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "afile"
        target.write_text("")
        monkeypatch.setattr("emgd.cli.experiment.run_pcl", never_train)
        code = main(["run-pcl", "--config", str(pcl_config(tmp_path)), "--out", str(target)])
        assert_named_exit_1(code, capsys.readouterr(), str(target))

    def test_build_splits_out_is_a_directory(self, tmp_path, capsys):
        code = main(["build-splits", "--config", str(pcl_config(tmp_path)),
                     "--out", str(tmp_path)])
        assert_named_exit_1(code, capsys.readouterr(), str(tmp_path))

    def test_report_csv_is_a_directory(self, tmp_path, capsys):
        TestReport().write_metrics(tmp_path / "metrics.json", "emgd_gs", 1, 0.9, -0.01)
        (tmp_path / "report_summary.csv").mkdir()
        code = main(["report", str(tmp_path)])
        assert_named_exit_1(code, capsys.readouterr(), "report_summary.csv")


class TestReportMalformed:
    @pytest.mark.parametrize("text, name", [
        ("{not json", "not valid JSON"),
        ('{"A_final": "x", "F_final": 0.0}', "A_final"),
        ("[1, 2]", "must be a JSON object"),
    ])
    def test_named_exit_1(self, tmp_path, capsys, text, name):
        (tmp_path / "metrics_bad.json").write_text(text)
        code = main(["report", str(tmp_path)])
        captured = capsys.readouterr()
        assert_named_exit_1(code, captured, name)
        assert "metrics_bad.json" in captured.err
