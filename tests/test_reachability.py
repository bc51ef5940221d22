"""Every function and method defined in ``src/emgd`` is reached by a command.

The commands run in process under ``sys.setprofile``: ``run-pcl`` with every
method and editing mode, from a split manifest and from an IDX dataset,
``run-toy`` with every method, ``build-splits``, ``report`` and ``solve``
requests, one of which makes the solver drop a working point. A function
that none of them calls is dead code, unless the benchmark's traced run
patches it (``SITES`` in ``perfbench/tracing.py``). Dunder methods are
exempt: dataclasses and exceptions call them.
"""

import inspect
import io
import json
import sys
from pathlib import Path

import emgd.cli
from emgd.experiment import EDITING, METHODS
from test_bench_sites import MODULES, SITES
from test_cli import write_idx

PACKAGE = Path(emgd.cli.__file__).resolve().parent

SOLVE_REQUESTS = [
    {"grads": [[2, 0], [1, 0]], "sigma_mode": "fixed", "sigma": [0.5, 0.5]},
    {"grads": [[1, 2], [3, -1], [0.5, 0.5]], "sigma_mode": "gs"},
    {"grads": [[1, 2], [3, -1], [0.5, 0.5]], "sigma_mode": "gmc"},
    # a minor cycle clips, drops a working point and clips again
    {"grads": [[1, 2, -4, -2], [4, 0, 3, -3], [-3, 1, -4, -4], [-3, 2, 0, 4], [3, 0, 0, -4]]},
]


def key(code) -> tuple:
    return Path(code.co_filename).name, code.co_firstlineno, code.co_name


def defined_functions() -> dict:
    """Every function and method compiled from the package's sources, by key,
    with its dotted name. Module and class bodies are not functions (their
    code is not CO_OPTIMIZED), nor are comprehensions."""
    found, stack = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        stack.append(compile(path.read_text(), str(path), "exec"))
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            name = code.co_name
            function = code.co_flags & inspect.CO_OPTIMIZED and name[0] != "<" or name == "<lambda>"
            if function and not (name.startswith("__") and name.endswith("__")):
                found[key(code)] = f"{path.stem}.{getattr(code, 'co_qualname', name)}"
    return found


def pinned_by_the_benchmark() -> set:
    pinned = set()
    for (home, attr), *_ in SITES.values():
        code = getattr(getattr(MODULES[home], attr), "__code__", None)  # None for a class
        if code is not None:
            pinned.add(key(code))
    return pinned


def run_every_command(tmp: Path, monkeypatch) -> None:
    def main(*argv):
        assert emgd.cli.main([str(a) for a in argv]) == 0, argv

    synthetic = {"synthetic": {"num_classes": 6, "input_dim": 4, "samples_per_class": 6,
                               "test_per_class": 2, "noise_sigma": 0.05}}
    # a config names a split section or a built split, its manifest
    base = {"seed": 3, "dataset": synthetic, "net": {"hidden": [5], "feature_dim": 3},
            "run": {"memory_batch_size": 4}}
    (tmp / "split.json").write_text(json.dumps(
        {**base, "split": {"num_tasks": 3, "label_bounds": [2, 2], "batch_size": 3}}))
    main("build-splits", "--config", tmp / "split.json", "--out", tmp / "manifest.json")
    for method in METHODS:
        for editing in EDITING:
            run = {**base["run"], "method": method, "editing": editing}
            (tmp / "run.json").write_text(json.dumps(
                {**base, "manifest": str(tmp / "manifest.json"), "run": run}))
            main("run-pcl", "--config", tmp / "run.json",
                 "--out", tmp / "runs" / f"{method}-{editing}")
    idx = {**write_idx(tmp, "train", 2, count=12), **write_idx(tmp, "test", 2)}
    split = {"num_tasks": 2, "label_bounds": [2, 2], "batch_size": 3,  # the IDX files hold 4 classes
             "serial": True}
    (tmp / "idx.json").write_text(json.dumps({**base, "dataset": {"idx": idx}, "split": split}))
    main("run-pcl", "--config", tmp / "idx.json", "--out", tmp / "runs" / "idx")
    for method in METHODS:
        # the second objective joins after tick 500
        main("run-toy", "--method", method, "--iters", 502, "--out", tmp / "toy" / method)
    main("report", tmp / "runs")
    for request in SOLVE_REQUESTS:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request)))
        main("solve")


def test_every_function_is_reached_by_a_command(tmp_path, monkeypatch, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_every_command(tmp_path, monkeypatch)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()  # the solve answers and the report table
    reached = {key(code) for code in called} | pinned_by_the_benchmark()
    unreached = sorted(name for k, name in defined_functions().items() if k not in reached)
    assert not unreached, f"no command reaches {unreached}"
