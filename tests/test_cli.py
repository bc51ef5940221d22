import inspect
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emgd
from emgd.cli import _SPLIT, build_parser, main
from emgd.experiment import METHODS, run_toy, toy_summary, toy_trace_csv
from emgd.streams import build_parallel_split
from oracles import SPLIT


def run_cli(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    return main(argv)


# the smallest split the CI runs: 3 tasks of 2 classes, each of 10 training rows
SYNTHETIC = {"num_classes": 6, "input_dim": 5, "samples_per_class": 10, "test_per_class": 3}
SMALL_SPLIT = {"num_tasks": 3, "label_bounds": [2, 2], "batch_size": 4}


def pcl_config(tmp_path, **overrides):
    """A run config; one that names a manifest has no split section unless
    ``overrides`` gives one."""
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
    if overrides.get("manifest"):
        del doc["split"]
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestCommandLine:
    """A malformed command line is an input error: exit 1, with the usage on stderr."""

    @pytest.mark.parametrize("argv, usage, message", [
        (["run-pcl", "--config", "c.json", "--bogus", "1"], "usage: emgd run-pcl",
         "unrecognized arguments: --bogus 1"),
        # run settings come from the config only
        (["run-pcl", "--config", "c.json", "--method", "mgda"], "usage: emgd run-pcl",
         "unrecognized arguments: --method mgda"),
        (["build-splits", "--config", "c.json", "--serial", "--out", "m.json"],
         "usage: emgd build-splits", "unrecognized arguments: --serial"),
        (["run-toy", "--iters", "3", "extra"], "usage: emgd run-toy",
         "unrecognized arguments: extra"),
        (["run-toy", "--iters", "abc"], "usage: emgd run-toy",
         "argument --iters: invalid int value: 'abc'"),
        (["build-splits", "--config", "c.json"], "usage: emgd build-splits",
         "the following arguments are required: --out"),
        ([], "usage: emgd [-h]", "the following arguments are required: command"),
        # the toy's step, join tick and temperature are fixed by run_toy
        (["run-toy", "--step", "1e-5"], "usage: emgd run-toy",
         "unrecognized arguments: --step 1e-5"),
    ])
    def test_malformed_command_line_exits_1(self, capsys, argv, usage, message):
        # the usage shown is that of the command named, so it lists that command's options
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(usage) and message in captured.err

    @pytest.mark.parametrize("command, options", [
        ("run-pcl", {"--config", "--seed", "--out"}),
        ("build-splits", {"--config", "--seed", "--out"}),
        ("run-toy", {"--method", "--iters", "--start", "--out"}),
    ])
    def test_help_exits_0_listing_the_options(self, capsys, command, options):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z-]+", out)) == options | {"--help"}


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
        ("temperature", '{"grads": [[1.0, 0.0]], "sigma_mode": "gs", "temperature": "x"}'),
        # every solve has the one budget, so a budget field is unknown whatever its value
        ("unknown field: tol", '{"grads": [[1.0, 0.0]], "tol": "x"}'),
        ("unknown field: tol", '{"grads": [[1.0, 0.0]], "tol": 0.0}'),
        ("unknown field: tol", '{"grads": [[1.0, 0.0]], "tol": -1.0}'),
        ("unknown field: max_iter", '{"grads": [[1.0, 0.0]], "max_iter": "x"}'),
        ("unknown field: max_iter", '{"grads": [[1.0, 0.0]], "max_iter": 0}'),
        ("unknown field: max_iter", '{"grads": [[1.0, 0.0]], "max_iter": -1}'),
    ])
    def test_malformed_value_exit_1(self, monkeypatch, capsys, field, request_text):
        code = run_cli(["solve"], request_text, monkeypatch)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and field in captured.err
        assert "Traceback" not in captured.err

    def test_stalled_solve_exits_2_with_its_answer(self, monkeypatch, capsys):
        # gmc factors of about (1, 5e-111, 6e-48) stall the solve (ROADMAP item 4,
        # step 3): it runs its whole budget and prints its best iterate, unconverged
        grads = (np.random.default_rng(3).normal(size=(3, 3)) * 100).tolist()
        code = run_cli(["solve"], json.dumps({"grads": grads, "sigma_mode": "gmc"}),
                       monkeypatch)
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        out = json.loads(captured.out)
        assert out["converged"] is False
        assert all(map(np.isfinite, out["lambda"] + out["direction"] + [out["objective"]]))

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

    def test_overflowing_direction_is_named_without_a_warning(self, monkeypatch, capsys):
        # the scaled points lie on both sides of 0, so the min-norm point is near 0;
        # but lambda = mu / sigma is about 1e120, and lambda @ grads cancels to a
        # rounding residue near -1e202, whose square overflows
        request = {"grads": [[-8.369242930825159e+97], [1.1473337060768428e+98]],
                   "sigma_mode": "fixed",
                   "sigma": [7.919153012950422e-141, 8.303111497428215e-121]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["solve"], json.dumps(request), monkeypatch)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: the combined direction's squared norm overflows float64\n"

    @pytest.mark.parametrize("mode", ["fixed", "gs", "gmc"])
    def test_subnormal_squared_norm_solves_without_a_warning(self, monkeypatch, capsys, mode):
        # ||g_1||^2 = 1e-320 is subnormal, so 1 / ||g_1||^2 overflows float64
        request = {"grads": [[1e-160, 0.0], [0.0, 1.0]], "sigma_mode": mode}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["solve"], json.dumps(request), monkeypatch)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        out = json.loads(captured.out)
        assert out["converged"] is True and out["lambda"][1] == 0.0

    @pytest.mark.parametrize("grads", [[[1.3e154, 0.0], [0.0, 1.3e154]],  # ||g||^2 near max
                                       [[1e-160, 0.0], [0.0, 2e-160]]])  # all subnormal
    def test_extreme_scale_converges_without_a_warning(self, monkeypatch, capsys, grads):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["solve"], json.dumps({"grads": grads}), monkeypatch)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        out = json.loads(captured.out)
        assert out["converged"] is True
        assert out["lambda"] == pytest.approx([0.5, 0.5] if grads[0][0] > 1 else [0.8, 0.2])

    def test_deeply_nested_request_exit_1(self, monkeypatch, capsys):
        code = run_cli(["solve"], "[" * 100_000, monkeypatch)
        assert_named_exit_1(code, capsys.readouterr(), "request nests too deeply")

    @pytest.mark.parametrize("request_text, where, value", [
        ('{"grads": [["1", 0], [0, 1]]}', "grads[0][0]", "'1'"),
        ('{"grads": [[true, 0], [0, 1]]}', "grads[0][0]", "True"),
        ('{"grads": [[1, 0], [0, false]]}', "grads[1][1]", "False"),
        ('{"grads": [[1, 0], [0, [1]]]}', "grads[1][1]", "[1]"),
        ('{"grads": [[1, 0], [0, 1]], "sigma": [true, 1]}', "sigma[0]", "True"),
        ('{"grads": [[1, 0], [0, 1]], "sigma": [1, "0.5"]}', "sigma[1]", "'0.5'"),
    ])
    def test_entry_that_is_not_a_number_named(self, monkeypatch, capsys, request_text, where,
                                              value):
        # np.asarray would read "1" and true as numbers; a bool is never a number
        code = run_cli(["solve"], request_text, monkeypatch)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: field {where} must be a number, got {value}\n"

    @pytest.mark.parametrize("mode", ["gs", "gmc"])
    def test_sigma_under_a_computed_mode_named(self, monkeypatch, capsys, mode):
        request = '{"grads": [[1, 0], [0, 1]], "sigma_mode": "%s", "sigma": "junk"}' % mode
        code = run_cli(["solve"], request, monkeypatch)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: field sigma is read only under sigma_mode 'fixed', "
                                f"not '{mode}'\n")

    @pytest.mark.parametrize("mode", ['"sigma_mode": "fixed", ', ""], ids=["fixed", "default"])
    @pytest.mark.parametrize("rest", ['"sigma": [0.5, 1.0], "temperature": 7',
                                      '"temperature": 1.0'], ids=["sigma", "mgda"])
    def test_temperature_under_fixed_named(self, monkeypatch, capsys, mode, rest):
        # fixed computes no factors, so a temperature there would be ignored
        request = '{"grads": [[1, 0], [0, 1]], %s%s}' % (mode, rest)
        code = run_cli(["solve"], request, monkeypatch)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: field temperature is read only under sigma_mode 'gs' "
                                "or 'gmc', not 'fixed'\n")

    def test_sigma_int_past_float64_named(self, monkeypatch, capsys):
        request = '{"grads": [[1, 0], [0, 1]], "sigma": [1%s, 1]}' % ("0" * 400)
        code = run_cli(["solve"], request, monkeypatch)
        assert_named_exit_1(code, capsys.readouterr(), "field sigma: int too large")

    def test_gs_zero_gradient_uses_uniform_factors(self, monkeypatch, capsys):
        code = run_cli(["solve"], '{"grads": [[1.0, 0.0], [0.0, 0.0]], "sigma_mode": "gs"}',
                       monkeypatch)
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["direction"] == pytest.approx([0.0, 0.0], abs=1e-12)


class TestLogLevel:
    @pytest.mark.parametrize("value", ["basic_format", "verbose", "warn"])
    def test_unknown_level_named(self, monkeypatch, capsys, value):
        monkeypatch.setenv("EMGD_LOG", value)
        code = run_cli(["solve"], '{"grads": [[2, 0], [1, 1]]}', monkeypatch)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: EMGD_LOG must be one of debug, info, warning, error, "
                                f"critical, got {value!r}\n")

    @pytest.mark.parametrize("value", ["debug", "INFO", "Warning", "error", "CRITICAL"])
    def test_level_names_accepted_in_any_case(self, monkeypatch, capsys, value):
        monkeypatch.setenv("EMGD_LOG", value)
        code = run_cli(["solve"], '{"grads": [[2, 0], [1, 1]]}', monkeypatch)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["lambda"] == [0.0, 1.0]


NUMBERS = st.one_of(st.floats(width=64), st.integers(-3, 3),
                    st.sampled_from([0.0, 1e-300, 1e-160, 1e300, -1e300]))
JUNK = st.sampled_from(["x", True, None, [], {}, [1, "a"], {"a": 1}, [[1.0]]])
VECTORS = st.lists(st.one_of(NUMBERS, NUMBERS, JUNK), max_size=4)  # ragged or empty too
REQUESTS = st.one_of(JUNK, st.fixed_dictionaries({}, optional={
    "grads": st.one_of(st.lists(VECTORS, max_size=4), VECTORS, NUMBERS, JUNK),
    "sigma_mode": st.one_of(st.sampled_from(["fixed", "gs", "gmc", "bogus"]), JUNK),
    "sigma": st.one_of(st.lists(NUMBERS, max_size=5), JUNK),
    "temperature": st.one_of(NUMBERS, JUNK),
    # no longer request fields: sent so that unknown ones are fuzzed too
    "tol": st.one_of(NUMBERS, JUNK),
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
    if isinstance(request_doc, dict) and {"tol", "max_iter"} & set(request_doc):
        assert code == 1 and captured.err.startswith("error: unknown field: ")
    if (isinstance(request_doc, dict) and "temperature" in request_doc
            and request_doc.get("sigma_mode", "fixed") == "fixed"):
        assert code == 1  # fixed reads no temperature
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

    @pytest.mark.parametrize("method", METHODS)
    def test_defaults_are_the_library_defaults(self, tmp_path, method):
        # the command line restates no default of run_toy's, so both run the same toy
        assert main(["run-toy", "--method", method, "--out", str(tmp_path)]) == 0
        trace = run_toy(method=method)
        assert (tmp_path / "toy_trace.csv").read_text() == toy_trace_csv(trace)
        assert json.loads((tmp_path / "toy_summary.json").read_text()) == toy_summary(trace)

    def test_run_toy_parameters_are_the_flags(self):
        # each run_toy parameter is a flag, and the step and join tick are the module's
        args = vars(build_parser().parse_args(
            ["run-toy", "--method", "mgda", "--iters", "3", "--start", "1", "2", "--out", "x"]))
        dests = [k for k in args if k not in ("command", "out", "func", "parser")]
        assert dests == list(inspect.signature(run_toy).parameters) == [
            "method", "iterations", "start"]

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

    @pytest.mark.parametrize("x, y", [("-1e-05", "1"), ("1", "-2.5e-07"), ("-0.5", "1"),
                                      ("-1E-3", "1"), ("1", "-2.5e+00"), ("-5.e-1", "-.5")])
    def test_negative_start_in_any_float_notation(self, tmp_path, x, y):
        # the benchmark formats a start with repr, which writes small numbers
        # in exponent notation; argparse alone reads "-1e-05" as an option
        assert main(["run-toy", "--iters", "3", "--start", x, y, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "toy_summary.json").read_text())
        assert summary["start"] == [float(x), float(y)]
        first = (tmp_path / "toy_trace.csv").read_text().splitlines()[1].split(",")
        step = 2e-5 * float(first[5])  # the default step times ||d||
        assert abs(float(first[3]) - float(x)) <= step and abs(float(first[4]) - float(y)) <= step


class TestRunPcl:
    def test_minimal_run_writes_metrics(self, tmp_path):
        cfg = pcl_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run-pcl", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "A_final" in metrics and "F_final" in metrics
        assert (out / "tick_log.csv").exists()

    def test_methods_differ_in_lambda_columns(self, tmp_path):
        out_a, out_b = tmp_path / "avg", tmp_path / "gs"
        for method, out in (("avg_grad", out_a), ("emgd_gs", out_b)):
            cfg = pcl_config(tmp_path, run={"method": method, "gamma": 0.2, "gamma_heads": 1.0})
            assert main(["run-pcl", "--config", str(cfg), "--out", str(out)]) == 0
        log_a = (out_a / "tick_log.csv").read_text()
        log_b = (out_b / "tick_log.csv").read_text()
        lam_a = [line.split(",")[3] for line in log_a.splitlines()[1:]]
        lam_b = [line.split(",")[3] for line in log_b.splitlines()[1:]]
        assert lam_a != lam_b

    def test_eval_mode_ordering(self, tmp_path):
        # one run scores both protocols; its top level is the task-incremental one
        out = tmp_path / "out"
        assert main(["run-pcl", "--config", str(pcl_config(tmp_path)), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["modes"]["task"]["A_final"] >= metrics["modes"]["class"]["A_final"]
        assert metrics["A_final"] == metrics["modes"]["task"]["A_final"]
        assert "eval_mode" not in metrics

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

    # a manifest is a built split: a split section beside it was never read, so
    # a malformed one ran as if it were not there
    @pytest.mark.parametrize("command", ["run-pcl", "build-splits"])
    @pytest.mark.parametrize("split", [{"typo": 1}, {"batch_size": -5}, {}],
                             ids=["typo", "negative", "empty"])
    def test_split_beside_a_manifest_named(self, tmp_path, capsys, command, split):
        manifest = tmp_path / "m.json"
        assert main(["build-splits", "--config", str(pcl_config(tmp_path)),
                     "--out", str(manifest)]) == 0
        cfg = pcl_config(tmp_path, split=split, manifest=str(manifest))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_named_exit_1(code, capsys.readouterr(),
                            "error: config needs at most one of: split, manifest")
        assert not (tmp_path / "o").exists()

    def test_an_empty_manifest_builds_the_split(self, tmp_path):
        # "" is the manifest default: the run builds its split from the split section
        for name, cfg in (("default", pcl_config(tmp_path)),
                          ("empty", pcl_config(tmp_path, manifest=""))):
            assert main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        for name in ("tick_log.csv", "metrics.json"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "empty" / name).read_bytes())

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = pcl_config(tmp_path, typo_key=1)
        assert main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_numeric_failure_exit_3(self, tmp_path, capsys):
        # a head step of 1e308 makes the first pass's gradients overflow: the
        # message names the tick, and the run writes no outputs
        cfg = pcl_config(tmp_path, seed=7, net={"hidden": [6], "feature_dim": 4},
                         dataset={"synthetic": SYNTHETIC}, split=SMALL_SPLIT,
                         run={"gamma_heads": 1e308})
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == ("error: numeric failure at tick 0: gram contains "
                                           "non-finite entries: a squared gradient norm "
                                           "overflows float64\n")
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_exit_3(self, tmp_path, capsys, monkeypatch, bad):
        # one bad entry in one stream's gradient stops the run at the tick
        # whose pass returned it: the gradient bundle names it
        import emgd.experiment as experiment

        real_gradients, real_active = experiment.stream_gradients, experiment.streams.active_tasks
        ticks = []

        def active_tasks(timeline, tick, **kwargs):
            ticks.append(tick)
            return real_active(timeline, tick, **kwargs)

        def stream_gradients(net, streams, head_step):
            grads, losses = real_gradients(net, streams, head_step)
            if len(ticks) == 3:
                grads[-1, grads.shape[1] // 2] = bad
            return grads, losses

        monkeypatch.setattr(experiment, "stream_gradients", stream_gradients)
        monkeypatch.setattr(experiment.streams, "active_tasks", active_tasks)
        cfg = pcl_config(tmp_path)
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 3
        assert len(ticks) == 3
        assert (f"numeric failure at tick {ticks[-1]}: gradient bundle contains non-finite "
                "entries") in captured.err


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(args, **threads):
    """``python args`` in a fresh process with emgd on its path, the BLAS thread
    variables unset except those given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    src = str(Path(emgd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**env, **threads}, check=True,
                          capture_output=True, text=True)


class TestBlasThreads:
    """One BLAS thread unless the environment names a count: some reductions
    over D sum in an order that depends on it."""

    def test_unset_reads_one_and_a_given_count_is_kept(self):
        show = ["-c", "import os, emgd; print(*(os.environ[v] for v in %r))" % (BLAS_THREADS,)]
        assert run_python(show).stdout.split() == ["1", "1", "1"]
        assert run_python(show, OPENBLAS_NUM_THREADS="2").stdout.split() == ["2", "1", "1"]

    def test_run_pcl_unset_matches_one_thread(self, tmp_path):
        # D = 65 * 128 + 129 * 64 = 16,576 >= 4096, and from tick 11 on two
        # streams, so the row-product Gram runs; at this size two threads
        # change tick_log.csv
        config = pcl_config(tmp_path, net={"hidden": [128], "feature_dim": 64}, dataset={
            "synthetic": {"num_classes": 8, "input_dim": 64, "samples_per_class": 12,
                          "test_per_class": 6, "noise_sigma": 0.08}})
        for out, threads in (("unset", {}), ("one", dict.fromkeys(BLAS_THREADS, "1"))):
            run_python(["-m", "emgd.cli", "run-pcl", "--config", str(config),
                        "--out", str(tmp_path / out)], **threads)
        log = (tmp_path / "one" / "tick_log.csv").read_text()
        assert any(";" in row.split(",")[1] for row in log.splitlines()[1:])  # two streams
        for name in ("tick_log.csv", "metrics.json"):
            unset, one = (tmp_path / out / name for out in ("unset", "one"))
            assert unset.read_bytes() == one.read_bytes()


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

    def test_serial_field(self, tmp_path):
        cfg = pcl_config(tmp_path, split={"num_tasks": 2, "label_bounds": [4, 4], "batch_size": 8,
                                          "epochs": 2, "serial": True})
        out = tmp_path / "serial.json"
        assert main(["build-splits", "--config", str(cfg), "--out", str(out)]) == 0
        tasks = json.loads(out.read_text())["tasks"]
        for prev, cur in zip(tasks, tasks[1:]):
            assert cur["s"] == prev["e"] + 1

    def test_overlap_field(self, tmp_path):
        cfg = pcl_config(tmp_path, split={"num_tasks": 2, "label_bounds": [4, 4], "batch_size": 8,
                                          "epochs": 2, "overlap": 0.5})
        out = tmp_path / "overlap.json"
        assert main(["build-splits", "--config", str(cfg), "--out", str(out)]) == 0
        tasks = json.loads(out.read_text())["tasks"]
        shared = set(tasks[0]["labels"]) & set(tasks[1]["labels"])
        assert len(shared) == 2  # ceil(0.5 * 4)

    def test_split_draws_only_classes_with_rows(self, tmp_path):
        # the IDX labels skip 3, so the five classes are 0, 1, 2, 4 and 5
        idx = {**write_idx(tmp_path, "train", 2, count=10), **write_idx(tmp_path, "test", 2)}
        for name, count in (("train_labels", 10), ("test_labels", 8)):
            labels = bytes([0, 1, 2, 4, 5] * 2)[:count]
            (tmp_path / f"{name}.idx").write_bytes(struct.pack(">II", 0x801, count) + labels)
        cfg = pcl_config(tmp_path, dataset={"idx": idx},
                         split={"num_tasks": 5, "label_bounds": [1, 1], "batch_size": 2})
        for seed in range(4):
            out = tmp_path / f"m{seed}.json"
            assert main(["build-splits", "--config", str(cfg), "--seed", str(seed),
                         "--out", str(out)]) == 0
            tasks = json.loads(out.read_text())["tasks"]
            assert sorted(label for task in tasks for label in task["labels"]) == [0, 1, 2, 4, 5]

    def test_infeasible_bounds_exit_1(self, tmp_path, capsys):
        cfg = pcl_config(
            tmp_path,
            split={"num_tasks": 5, "label_bounds": [4, 4], "batch_size": 8},
        )
        assert main(["build-splits", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
        assert "classes" in capsys.readouterr().err

    def test_split_parameters_are_the_split_fields(self):
        # the config reader holds the defaults; the library takes each field by name, none default
        params = list(inspect.signature(build_parallel_split).parameters.values())
        assert [p.name for p in params] == ["dataset", "seed", *_SPLIT]
        assert all(p.default is inspect.Parameter.empty for p in params)
        assert SPLIT == _SPLIT

    @pytest.mark.parametrize("key", ["seed", "batch_size", "epochs"])
    def test_manifest_keys_build_splits_writes_are_required(self, tmp_path, capsys, key):
        # each task of 2 classes x 10 rows takes one step at batch 20 and at 128, so the
        # window check cannot tell the batch sizes apart; the required key must
        synthetic = {"num_classes": 6, "input_dim": 5, "samples_per_class": 10,
                     "test_per_class": 3}
        cfg = pcl_config(tmp_path, dataset={"synthetic": synthetic},
                         split={"num_tasks": 3, "label_bounds": [2, 2], "batch_size": 20})
        manifest = tmp_path / "m.json"
        assert main(["build-splits", "--config", str(cfg), "--out", str(manifest)]) == 0
        doc = json.loads(manifest.read_text())
        del doc[key]
        manifest.write_text(json.dumps(doc))
        cfg = pcl_config(tmp_path, dataset={"synthetic": synthetic}, manifest=str(manifest))
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert_named_exit_1(code, capsys.readouterr(), f"missing field manifest.{key}")
        assert not (tmp_path / "run").exists()

    def test_a_manifest_is_not_rebuilt(self, tmp_path, capsys):
        # build-splits builds from the split section; it used to write the
        # default split over a config that names a built one
        manifest = tmp_path / "m.json"
        assert main(["build-splits", "--config", str(pcl_config(tmp_path)),
                     "--out", str(manifest)]) == 0
        cfg = pcl_config(tmp_path, manifest=str(manifest))
        code = main(["build-splits", "--config", str(cfg), "--out", str(tmp_path / "again.json")])
        assert_named_exit_1(code, capsys.readouterr(),
                            f"error: build-splits builds a split from the split section, but "
                            f"field manifest names a built one: '{manifest}'")
        assert not (tmp_path / "again.json").exists()

    # build-splits records its config's dataset section; a run over other data
    # used to train on rows the split was not drawn from
    @pytest.mark.parametrize("dataset, name", [
        ({"synthetic": {**SYNTHETIC, "noise_sigma": 0.05}},
         "its dataset.synthetic.noise_sigma is 0.1, the config's is 0.05"),
        ({"synthetic": {**SYNTHETIC, "test_per_class": 4}},
         "its dataset.synthetic.test_per_class is 3, the config's is 4"),
        ("idx", "its dataset is 'synthetic', the config's is 'idx'"),
    ], ids=["noise_sigma", "test_per_class", "kind"])
    def test_manifest_over_other_data_named(self, tmp_path, capsys, monkeypatch, dataset, name):
        manifest = tmp_path / "m.json"
        cfg = pcl_config(tmp_path, dataset={"synthetic": SYNTHETIC}, split=SMALL_SPLIT)
        assert main(["build-splits", "--config", str(cfg), "--out", str(manifest)]) == 0
        if dataset == "idx":
            dataset = {"idx": {**write_idx(tmp_path, "train", 2),
                               **write_idx(tmp_path, "test", 2)}}
        monkeypatch.setattr("emgd.cli.experiment.run_pcl", never_train)
        cfg = pcl_config(tmp_path, dataset=dataset, manifest=str(manifest))
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_named_exit_1(code, capsys.readouterr(),
                            f"error: split manifest {manifest} was built over other data: {name}")
        assert not (tmp_path / "o").exists()

    def test_manifest_over_other_idx_files_named(self, tmp_path, capsys):
        idx = {**write_idx(tmp_path, "train", 2), **write_idx(tmp_path, "test", 2)}
        manifest = tmp_path / "m.json"
        split = {"num_tasks": 2, "label_bounds": [2, 2], "batch_size": 2}
        cfg = pcl_config(tmp_path, dataset={"idx": idx}, split=split)
        assert main(["build-splits", "--config", str(cfg), "--out", str(manifest)]) == 0
        (tmp_path / "copy").mkdir()
        copy = write_idx(tmp_path / "copy", "test", 2)
        cfg = pcl_config(tmp_path, dataset={"idx": {**idx, **copy}}, manifest=str(manifest))
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_named_exit_1(code, capsys.readouterr(),
                            f"its dataset.idx.test_images is {idx['test_images']!r}, "
                            f"the config's is {copy['test_images']!r}")

    def test_manifest_over_the_same_data_runs(self, tmp_path):
        # defaults written out are the same data, the seed may differ, and a
        # manifest that records no dataset is not compared
        manifest = tmp_path / "m.json"
        cfg = pcl_config(tmp_path, dataset={"synthetic": SYNTHETIC}, split=SMALL_SPLIT)
        assert main(["build-splits", "--config", str(cfg), "--out", str(manifest)]) == 0
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({k: v for k, v in json.loads(manifest.read_text()).items()
                                    if k != "dataset"}))
        runs = {"plain": ({"synthetic": SYNTHETIC}, manifest),
                "written-out": ({"synthetic": {**SYNTHETIC, "noise_sigma": 0.1}}, manifest),
                "bare": ({"synthetic": {**SYNTHETIC, "noise_sigma": 0.05}}, bare)}
        for out, (dataset, path) in runs.items():
            cfg = pcl_config(tmp_path, dataset=dataset, manifest=str(path))
            assert main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        assert main(["run-pcl", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path / "seed")]) == 0
        for name in ("tick_log.csv", "metrics.json"):
            assert ((tmp_path / "plain" / name).read_bytes()
                    == (tmp_path / "written-out" / name).read_bytes())

    def test_manifest_feeds_run_pcl(self, tmp_path):
        cfg = pcl_config(tmp_path)
        manifest_path = tmp_path / "m.json"
        main(["build-splits", "--config", str(cfg), "--out", str(manifest_path)])
        cfg2 = pcl_config(tmp_path, manifest=str(manifest_path))
        out = tmp_path / "from-manifest"
        assert main(["run-pcl", "--config", str(cfg2), "--out", str(out)]) == 0
        assert (out / "metrics.json").exists()

    # a split section runs exactly as the manifest build-splits writes from it
    @pytest.mark.parametrize("split, run", [
        ({"overlap": 0.5, "epochs": 2}, {}),
        ({"serial": True}, {"editing": "emgd"}),
    ], ids=["overlap", "serial-emgd"])
    def test_split_section_runs_as_its_manifest(self, tmp_path, split, run):
        split = {"num_tasks": 2, "label_bounds": [4, 4], "batch_size": 8, "epochs": 2, **split}
        run = {"method": "emgd_gs", "gamma": 0.2, "gamma_heads": 1.0, **run}
        cfg = pcl_config(tmp_path, split=split, run=run)
        assert main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "split")]) == 0
        manifest = tmp_path / "m.json"
        assert main(["build-splits", "--config", str(cfg), "--out", str(manifest)]) == 0
        cfg = pcl_config(tmp_path, run=run, manifest=str(manifest))
        assert main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "manifest")]) == 0
        for name in ("tick_log.csv", "metrics.json"):
            assert ((tmp_path / "split" / name).read_bytes()
                    == (tmp_path / "manifest" / name).read_bytes()), name


class TestReport:
    def write_metrics(self, path, method, seed, a, f, class_a=0.25, **more):
        """A metrics file as run-pcl writes it: the task-incremental block at the
        top level, both blocks under ``modes``; the class block scores ``class_a``."""
        modes = {"task": {"A_final": a, "F_final": f}, "class": {"A_final": class_a, "F_final": f}}
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({
            "A_final": a, "F_final": f, "method": method, "editing": "none", "seed": seed,
            "modes": modes, **more,
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
        _, _, mode, n, a_mean, a_std, _, _ = summary[2].split(",")  # the class row sorts first
        assert mode == "task"
        assert int(n) == 3
        assert float(a_mean) == pytest.approx(0.9)
        assert float(a_std) == pytest.approx(0.1)  # sample standard deviation

    def test_eval_modes_get_their_own_rows(self, tmp_path, capsys):
        # one run scored task- and class-incremental is never averaged together
        self.write_metrics(tmp_path / "a" / "metrics.json", "emgd_gs", 0, 0.5, 0.0,
                           class_a=1 / 6)
        assert main(["report", str(tmp_path)]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].split()[:4] == ["method", "editing", "eval_mode", "n"]
        assert [line.split()[:4] for line in table[2:]] == [
            ["emgd_gs", "none", "class", "1"], ["emgd_gs", "none", "task", "1"]]
        summary = (tmp_path / "report_summary.csv").read_text().splitlines()
        assert summary == [
            "method,editing,eval_mode,n,A_mean,A_std,F_mean,F_std",
            f"emgd_gs,none,class,1,{1 / 6!r},0.0,0.0,0.0",
            "emgd_gs,none,task,1,0.5,0.0,0.0,0.0",
        ]
        assert (tmp_path / "report_rows.csv").read_text().splitlines() == [
            "method,editing,eval_mode,seed,A_final,F_final",
            "emgd_gs,none,task,0,0.5,0.0",
            f"emgd_gs,none,class,0,{1 / 6!r},0.0",
        ]

    def test_rows_are_each_files_task_then_class_row(self, tmp_path, capsys):
        self.write_metrics(tmp_path / "a" / "metrics.json", "mgda", 0, 0.9, 0.0, class_a=0.1)
        self.write_metrics(tmp_path / "b" / "metrics.json", "emgd_gs", 1, 0.8, 0.0, class_a=0.2)
        assert main(["report", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "report_rows.csv").read_text().splitlines()[1:] == [
            "mgda,none,task,0,0.9,0.0", "mgda,none,class,0,0.1,0.0",
            "emgd_gs,none,task,1,0.8,0.0", "emgd_gs,none,class,1,0.2,0.0"]

    def test_a_run_pcl_run_reports_both_modes(self, tmp_path, capsys):
        out = tmp_path / "runs" / "a"
        assert main(["run-pcl", "--config", str(pcl_config(tmp_path)), "--out", str(out)]) == 0
        modes = json.loads((out / "metrics.json").read_text())["modes"]
        assert main(["report", str(tmp_path / "runs")]) == 0
        table = capsys.readouterr().out.splitlines()
        assert [line.split()[2] for line in table[2:]] == ["class", "task"]
        assert (tmp_path / "runs" / "report_rows.csv").read_text().splitlines()[1:] == [
            f"emgd_gs,none,{mode},1234,{modes[mode]['A_final']!r},{modes[mode]['F_final']!r}"
            for mode in ("task", "class")]

    def test_a_file_with_a_class_top_level_reads_its_rows_from_modes(self, tmp_path, capsys):
        # a file written while the top level followed run.eval_mode "class"
        self.write_metrics(tmp_path / "metrics.json", "emgd_gs", 0, 0.5, 0.0, class_a=0.25)
        doc = json.loads((tmp_path / "metrics.json").read_text())
        doc.update(doc["modes"]["class"], eval_mode="class")
        (tmp_path / "metrics.json").write_text(json.dumps(doc))
        assert main(["report", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "report_rows.csv").read_text().splitlines()[1:] == [
            "emgd_gs,none,task,0,0.5,0.0", "emgd_gs,none,class,0,0.25,0.0"]

    @pytest.mark.parametrize("key", ["method", "editing", "seed", "modes"])
    def test_every_key_run_pcl_writes_is_required(self, tmp_path, capsys, key):
        # a file missing a key must not join the other file's row under a guessed value
        self.write_metrics(tmp_path / "a" / "metrics.json", "emgd_gs", 0, 0.9, 0.0)
        self.write_metrics(tmp_path / "b" / "metrics.json", "emgd_gs", 1, 0.3, 0.0)
        doc = json.loads((tmp_path / "b" / "metrics.json").read_text())
        del doc[key]
        (tmp_path / "b" / "metrics.json").write_text(json.dumps(doc))
        code = main(["report", str(tmp_path)])
        captured = capsys.readouterr()
        assert_named_exit_1(code, captured,
                            f"missing field {tmp_path / 'b' / 'metrics.json'}.{key}")
        assert captured.out == "" and not (tmp_path / "report_summary.csv").exists()

    @pytest.mark.parametrize("mode", ["task", "class"])
    @pytest.mark.parametrize("key", [None, "A_final", "F_final"])
    def test_every_score_of_both_modes_is_required(self, tmp_path, capsys, mode, key):
        self.write_metrics(tmp_path / "metrics.json", "emgd_gs", 0, 0.9, 0.0)
        doc = json.loads((tmp_path / "metrics.json").read_text())
        if key is None:
            del doc["modes"][mode]
        else:
            del doc["modes"][mode][key]
        (tmp_path / "metrics.json").write_text(json.dumps(doc))
        code = main(["report", str(tmp_path)])
        captured = capsys.readouterr()
        field = ".".join(filter(None, ("modes", mode, key)))
        assert_named_exit_1(code, captured, f"missing field {tmp_path / 'metrics.json'}.{field}")
        assert captured.out == "" and not (tmp_path / "report_summary.csv").exists()

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
    (("run", "method"), 3, "run.method"),
    (("run", "method"), "sgd", "method"),
    # run-pcl writes both protocols and no buffer snapshot, so these are unknown
    (("run", "eval_mode"), "task", "unknown field: run.eval_mode"),
    (("run", "snapshot_buffer"), True, "unknown field: run.snapshot_buffer"),
    # emgd is the one memory editor
    (("run", "editing"), "emgd", None),
    (("run", "editing"), "gmed", "error: unknown run.editing 'gmed', pick one of ('none', 'emgd')"),
    # evaluation follows the metrics, so the former cadence knob is unknown, default included
    (("run", "eval_every"), 3, "unknown field: run.eval_every"),
    (("run", "eval_every"), 0, "unknown field: run.eval_every"),
    (("run", "memory_batch_size"), -1, "memory_batch_size"),
    (("run", "memory_batch_size"), 0, None),  # 0 means the batch size
    (("run", "eta_edit"), 2.0, "eta_edit"),
    (("run", "capacity_per_class"), 0, "capacity_per_class"),
    (("run", "typo"), 1, "run.typo"),
    (("net", "hidden"), 5, "net.hidden"),
    (("net", "hidden"), [16.5], "net.hidden"),
    (("net", "hidden"), [0], "net.hidden"),
    (("net", "feature_dim"), 0, "net.feature_dim"),
    (("run", "fd_eps"), 1e-4, "unknown field: run.fd_eps"),  # the editor has no step
    # the editor takes one step and the solver its own budget, so these are unknown
    (("run", "edit_iterations"), 1, "unknown field: run.edit_iterations"),
    (("run", "clamp"), True, "unknown field: run.clamp"),
    (("run", "freeze_finished_heads"), False, "unknown field: run.freeze_finished_heads"),
    (("run", "tol"), 1e-8, "unknown field: run.tol"),
    (("run", "max_iter"), 250, "unknown field: run.max_iter"),
    # range errors name the dotted path, as type errors do
    (("run", "temperature"), 0.0, "run.temperature must be positive"),
    (("run", "eta_edit"), 2.0, "run.eta_edit must lie in (0, 1], got 2.0"),
    (("run", "eta_edit"), 0.0, "run.eta_edit must lie in (0, 1], got 0.0"),  # "none" skips editing
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
    # sizes past what one array can address are named before anything is allocated
    (("net", "hidden"), [2**62], "widths in fields net.hidden and net.feature_dim give more "
                                 "backbone parameters than one array can address"),
    (("net", "feature_dim"), 2**62, "net.feature_dim"),
    (("dataset", "synthetic", "input_dim"), 2**62,
     "dataset.synthetic: 96 rows of input_dim 4611686018427387904 are more float64 values"),
    (("dataset", "synthetic", "samples_per_class"), 2**62, "dataset.synthetic"),
    (("split", "num_tasks"), 2**62, "split.num_tasks 4611686018427387904 needs as many"),
    # a memory batch is sized before the first tick: 0 takes split.batch_size
    (("run", "memory_batch_size"), 2**62,
     "run.memory_batch_size 4611686018427387904 gives memory batches of 4611686018427387904 "
     "rows of input width 8, more float64 values than one array can address"),
    (("split", "batch_size"), 2**62,
     "run.memory_batch_size 0 gives memory batches of 4611686018427387904 rows"),
    # two tasks of 6 steps an epoch: 12 * 2**62 ticks, counted before a start tick is drawn
    (("split", "epochs"), 2**62, "split.epochs 4611686018427387904 gives task windows of "
                                 "55340232221128654848 ticks in all, past int64"),
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


def write_idx(tmp_path, name: str, side: int, count: int = 8, classes: int = 4) -> dict:
    """An IDX image/label pair of ``count`` side x side images, labels i % classes;
    returns the ``dataset.idx`` fields naming it."""
    pixels = bytes(range(count * side * side))
    (tmp_path / f"{name}_images.idx").write_bytes(
        struct.pack(">IIII", 0x803, count, side, side) + pixels)
    (tmp_path / f"{name}_labels.idx").write_bytes(
        struct.pack(">II", 0x801, count) + bytes(i % classes for i in range(count)))
    return {f"{name}_{kind}": str(tmp_path / f"{name}_{kind}.idx")
            for kind in ("images", "labels")}


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
        # the keys build-splits writes are the only ones allowed, each of its type
        (lambda m: m.update(epochz=3), "unknown field: manifest.epochz"),
        (lambda m: m.update(seed="x"), "field manifest.seed must be an integer, got 'x'"),
        (lambda m: m.update(dataset=[]), "field manifest.dataset must be a JSON object, got []"),
        # a label set with no training rows, on a one-tick window that fits it
        (lambda m: m["tasks"][-1].update(labels=[99, 100], e=m["tasks"][-1]["s"]),
         "manifest.tasks[1].labels [99, 100] has no training data for label 99"),
        # one label without rows would add a phantom column to the task's head
        (lambda m: m["tasks"][0]["labels"].append(99), "has no training data for label 99"),
        (lambda m: m["tasks"][1]["labels"].insert(0, -1), "has no training data for label -1"),
        (lambda m: m["tasks"][1]["labels"].append(10**30),
         f"has no training data for label {10**30}"),
        # a window far too long for its task, checked without allocating per tick
        (lambda m: m["tasks"][0].update(s=0, e=10**13),
         "task 1: window [0, 10000000000000] does not match "),
        # a repeated id would drop a task; id 0 is the memory stream
        (lambda m: m["tasks"][1].update(id=1), "task 1 appears twice on the timeline"),
        (lambda m: m["tasks"][0].update(id=0),
         "task 0: task ids must be >= 1 (0 is the memory stream)"),
        # a repeated label would give its task's head two columns for one class
        (lambda m: m["tasks"][0].update(labels=[0, 0]),
         "manifest.tasks[0].labels [0, 0] repeats label 0"),
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

    @pytest.mark.parametrize("task_id, code", [(2**63, 1), (2**63 - 1, 0)],
                             ids=["past int64", "int64 max"])
    def test_task_id_past_int64_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                       task_id, code):
        manifest_path = tmp_path / "m.json"
        main(["build-splits", "--config", str(pcl_config(tmp_path)), "--out", str(manifest_path)])
        manifest = json.loads(manifest_path.read_text())
        manifest["tasks"][0]["id"] = task_id
        manifest_path.write_text(json.dumps(manifest))
        if code:
            monkeypatch.setattr("emgd.cli.experiment.run_pcl", never_train)
        cfg = pcl_config(tmp_path, manifest=str(manifest_path))
        assert main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        if code:  # the buffer stores task ids as int64; past it the first finish tick overflowed
            assert_named_exit_1(code, capsys.readouterr(),
                                "error: field manifest.tasks[0].id must be at most "
                                "9223372036854775807, got 9223372036854775808")
        else:  # the largest int64 id trains and is scored under its own key
            metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
            assert str(task_id) in metrics["per_task"]

    @pytest.mark.parametrize("command", ["build-splits", "run-pcl"])
    @pytest.mark.parametrize("hi, name", [
        (2**63, "error: split.label_bounds must be [lo, hi] with 1 <= lo <= hi <= "
                "9223372036854775807, got [2, 9223372036854775808]"),
        # the largest int64 bound is drawn, and names the classes it would need
        (2**63 - 1, "error: label bounds need "),
    ], ids=["past int64", "int64 max"])
    def test_label_bounds_past_int64_named(self, tmp_path, capsys, command, hi, name):
        split = {"num_tasks": 2, "label_bounds": [2, hi], "batch_size": 8}
        cfg = pcl_config(tmp_path, split=split)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_named_exit_1(code, capsys.readouterr(), name)

    def test_idx_width_mismatch_fails_before_training(self, tmp_path, capsys, monkeypatch):
        idx = {**write_idx(tmp_path, "train", 2), **write_idx(tmp_path, "test", 3)}
        monkeypatch.setattr("emgd.cli.experiment.run_pcl", never_train)
        cfg = pcl_config(tmp_path, dataset={"idx": idx},
                         split={"num_tasks": 2, "label_bounds": [2, 2], "batch_size": 4})
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert_named_exit_1(code, captured, idx["test_images"])
        assert "width 9" in captured.err and "width 4" in captured.err

    # the test file holds classes 0 and 1 only, so a one-class task of class 2 or 3
    # has no test rows; it used to score an accuracy of 0.0 that A_final averaged in
    @pytest.mark.parametrize("via, name", [("build-splits", "label set ["),
                                           ("run-pcl", "label set ["),
                                           ("manifest", "manifest.tasks[")])
    def test_task_without_test_rows_named(self, tmp_path, capsys, via, name):
        train = write_idx(tmp_path, "train", 2)
        split = {"num_tasks": 4, "label_bounds": [1, 1], "batch_size": 2, "serial": True}
        two_class_test = {**train, **write_idx(tmp_path, "test", 2, classes=2)}
        if via == "build-splits":
            cfg = pcl_config(tmp_path, dataset={"idx": two_class_test}, split=split)
            code = main(["build-splits", "--config", str(cfg), "--out", str(tmp_path / "m.json")])
        elif via == "run-pcl":  # the run builds its own split
            cfg = pcl_config(tmp_path, dataset={"idx": two_class_test}, split=split)
            code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        else:  # a manifest built where every class has test rows
            every_class = {**train, "test_images": train["train_images"],
                           "test_labels": train["train_labels"]}
            cfg = pcl_config(tmp_path, dataset={"idx": every_class}, split=split)
            assert main(["build-splits", "--config", str(cfg),
                         "--out", str(tmp_path / "m.json")]) == 0
            # paired with other test files on purpose, so no dataset to compare
            manifest = json.loads((tmp_path / "m.json").read_text())
            del manifest["dataset"]
            (tmp_path / "m.json").write_text(json.dumps(manifest))
            cfg = pcl_config(tmp_path, dataset={"idx": two_class_test},
                             manifest=str(tmp_path / "m.json"))
            code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert_named_exit_1(code, captured, name)
        assert "has no test data" in captured.err

    @pytest.mark.parametrize("site, message", [
        ("emgd.cli.streams.synthetic_dataset",
         "Unable to allocate 80.0 TiB for an array with shape (96, 1099511627776)"),
        ("emgd.cli.Network", ""),
    ], ids=["dataset", "net"])
    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch, site, message):
        # an addressable size the machine cannot hold; no real allocation is attempted
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(site, exhausted)
        code = main(["run-pcl", "--config", str(pcl_config(tmp_path)), "--out",
                     str(tmp_path / "o")])
        assert_named_exit_1(code, capsys.readouterr(), f"error: {message or 'out of memory'}")

    def test_bad_eval_mode_fails_before_training(self, tmp_path, capsys, monkeypatch):
        # every run scores both protocols, so the former switch is unknown, its default included
        monkeypatch.setattr("emgd.cli.experiment.run_pcl", never_train)
        cfg = pcl_config(tmp_path, run={"eval_mode": "task"})
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert_named_exit_1(code, capsys.readouterr(), "error: unknown field: run.eval_mode")


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
            "temperature": 1.0, "memory_batch_size": 4, "capacity_per_class": 2,
            "eta_edit": 0.05},
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
        (["--iters", "0"], "iterations=0"),
        (["--start", "inf", "0"], "start=(inf, 0.0)"),
        (["--start", "0", "nan"], "start=(0.0, nan)"),
    ])
    def test_out_of_range_exit_1(self, tmp_path, capsys, argv, name):
        code = main(["run-toy", *argv, "--out", str(tmp_path)])
        assert_named_exit_1(code, capsys.readouterr(), name)

    @pytest.mark.parametrize("start", [(1000.0, 0.0), (300.0, 0.0)])
    def test_overflowing_start_exit_1(self, tmp_path, capsys, start):
        # the objectives overflow on the first step; pytest turns any numpy warning into an error
        argv = ["run-toy", "--start", *map(repr, start), "--iters", "5", "--out", str(tmp_path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert_named_exit_1(code, captured, f"tick 1 of the run from start {start!r}")
        assert captured.err.count("\n") == 1


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


class TestDeeplyNestedJson:
    """JSON nested past the parser's recursion limit is a named error at
    every reader, not a RecursionError traceback."""

    NESTED = "[" * 100_000

    @pytest.mark.parametrize("command", ["run-pcl", "build-splits"])
    def test_config(self, tmp_path, capsys, command):
        cfg = tmp_path / "config.json"
        cfg.write_text(self.NESTED)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert_named_exit_1(code, capsys.readouterr(), f"config {cfg} nests too deeply")

    def test_split_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(self.NESTED)
        cfg = pcl_config(tmp_path, manifest=str(manifest))
        code = main(["run-pcl", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert_named_exit_1(code, capsys.readouterr(), f"manifest {manifest} nests too deeply")

    def test_report_metrics(self, tmp_path, capsys):
        (tmp_path / "metrics.json").write_text(self.NESTED)
        code = main(["report", str(tmp_path)])
        assert_named_exit_1(code, capsys.readouterr(), "metrics.json nests too deeply")


class TestReportMalformed:
    @pytest.mark.parametrize("text, name", [
        ("{not json", "not valid JSON"),
        ('{"method": "mgda", "editing": "none", "seed": 0, "modes": {'
         '"task": {"A_final": "x", "F_final": 0.0}, "class": {"A_final": 0.5, "F_final": 0.0}}}',
         "metrics_bad.json.modes.task.A_final"),
        ("[1, 2]", "must be a JSON object"),
    ])
    def test_named_exit_1(self, tmp_path, capsys, text, name):
        (tmp_path / "metrics_bad.json").write_text(text)
        code = main(["report", str(tmp_path)])
        captured = capsys.readouterr()
        assert_named_exit_1(code, captured, name)
        assert "metrics_bad.json" in captured.err
