"""Reduced-size smoke test of the benchmark runner: about one unit of work
per workload.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that an untraced run's attempted and failed counts repeat for a seed,
that traced self times plus the untraced remainder add up to the traced wall
time, and that the exact counts repeat across two traced runs.
"""

from __future__ import annotations

import json
import shutil

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MODULES = run.load_emgd()
SEED = 3
SECONDS = 0.1  # one block untraced; one unit each way when traced


@pytest.fixture
def work():
    path = run.OUT / "smoke"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_names_the_runner_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name, work):
    metrics, units, _ = run.timed_run(name, MODULES, work, SEED, SECONDS)
    assert _units(metrics) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert units and all(u.ops > 0 for u in units)


def test_untraced_failures_depend_on_the_seed_only(work):
    first = run.timed_run("solve_sweep", MODULES, work, SEED, 1.0)[1]
    second = run.timed_run("solve_sweep", MODULES, work, SEED, 1.0)[1]
    assert [(u.ops, u.failed) for u in first] == [(u.ops, u.failed) for u in second]
    assert sum(u.failed for u in first) > 0  # the known solver defect shows


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_adds_up_and_repeats(name, work):
    first, _, detail = run.traced_run(name, MODULES, work, SEED, SECONDS)
    second, _, _ = run.traced_run(name, MODULES, work, SEED, SECONDS)
    assert _units(first) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}

    remainder = detail["wall_s"] - detail["root_s"]
    assert remainder >= 0.0
    assert detail["min_self_s"] >= -1e-9  # rounding only
    assert detail["self_s"] + remainder == pytest.approx(detail["wall_s"], rel=1e-9)

    exact = [k for k, m in first.items() if m["unit"] == "count"]
    assert {"net.backward_per_tick", "rehearsal.memory_gradient_per_memory_tick",
            "solver.nonconverged"} <= set(exact)
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
