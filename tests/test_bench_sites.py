"""The traced benchmark patches every import site of a function listed in
``perfbench/tracing.py``'s ``SITES``; each site must still hold the function
its defining site holds, or the traced run stops with an error. The untraced
benchmark's ``Clock`` (``perfbench/workloads.py``) stamps each tick through
``streams.active_tasks`` and the loop's end through ``experiment.run_pcl``;
both must still be called through those module attributes. The solve_sweep
workload's own output checks (weights on the constraint set, the descent
certificate) run here on one unit of requests."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import emgd.cli
import emgd.experiment
import emgd.net
import emgd.rehearsal
import emgd.solver
import emgd.streams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# the module table perfbench/run.py hands to the tracer
MODULES = {"cli": emgd.cli, "experiment": emgd.experiment, "net": emgd.net,
           "rehearsal": emgd.rehearsal, "solver": emgd.solver, "streams": emgd.streams,
           "Network": emgd.net.Network}


def load_perfbench(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # for dataclasses
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports tracing by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def load_sites() -> dict:
    return load_perfbench("perfbench_tracing", TRACING).SITES


SITES = load_sites()


@pytest.mark.parametrize("name", sorted(SITES))
def test_every_site_holds_the_defining_function(name):
    (home, attr), *others = SITES[name]
    original = getattr(MODULES[home], attr)
    assert callable(original)
    for module, attr in others:
        assert getattr(MODULES[module], attr, None) is original, f"{module}.{attr}"


def test_clock_stamps_every_tick_and_the_loop_end(tmp_path):
    workloads = load_perfbench("perfbench_workloads", PERFBENCH / "workloads.py")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3,
        "dataset": {"synthetic": {"num_classes": 6, "input_dim": 5, "samples_per_class": 10,
                                  "test_per_class": 2, "noise_sigma": 0.1}},
        "split": {"num_tasks": 3, "label_bounds": [2, 2], "batch_size": 4},
        "run": {"editing": "emgd", "memory_batch_size": 3},
        "net": {"hidden": [6], "feature_dim": 4},
    }))
    clock = workloads.PclWorkload(MODULES, tmp_path, "emgd").clock()
    with clock:
        code, _, end = clock.call(emgd.cli.main, ["run-pcl", "--config", str(config),
                                                  "--out", str(tmp_path / "out")])
    assert code == 0
    ticks = len((tmp_path / "out" / "tick_log.csv").read_text().splitlines()) - 1
    assert ticks > 1 and len(clock.stamps) == ticks  # one active_tasks call per tick
    assert clock.stamps[-1] <= clock.loop_end <= end  # cli.main ran experiment.run_pcl


@pytest.mark.parametrize("seed", [0, 1])
def test_solve_sweep_unit_passes_its_output_checks(tmp_path, seed):
    workloads = load_perfbench("perfbench_workloads", PERFBENCH / "workloads.py")
    unit = workloads.SolveWorkload(MODULES, tmp_path).run_unit(0, None, seed)
    assert unit.ops == len(workloads.SOLVE_CASES)
    assert unit.failed == 0  # every request converged with its certificate
    assert unit.quality == 1.0
