#!/usr/bin/env python3
"""Benchmark runner for emgd.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): pcl_wide, pcl_edit,
solve_sweep, toy. The runner imports emgd from the ``src`` directory next to
this one and drives its public entry points with inputs generated from
``--seed``: ``emgd.cli.main`` for ``run-pcl``, ``build-splits`` and
``run-toy``, and ``emgd.solver`` for the solve stream.

Both modes first run throwaway units for a tenth of S, so that timing starts
with the CPU at its steady speed.

``--trace 0`` runs a fixed number of units, about S seconds of work and
probes on the reference host, so that ``attempted`` and ``failed`` depend
on the seed only. The host probe of calibrate.py is timed before the first unit and
after every block of units (under half a second of work or one pcl run),
so its samples follow the host's speed through the run. Every time is then
multiplied by one factor, ``calibrate.NOMINAL_S`` over the mean probe time,
so the reported times are reference-host times and the host's drift
between runs cancels. The text lines print the unscaled wall-clock figures
too. Every workload reports the same set of metrics; an operation is a tick
(pcl_*), a solve request (solve_sweep) or a toy step (toy):

  setup_s      fresh-interpreter ``import emgd`` (median of 7, taken
               between blocks across the run) + input generation + the
               program's own set-up before its first operation (median
               over the units)
  ops_per_s    operations / time spent in them
               (pcl_*: first tick until run-pcl returns, outputs written;
               toy: likewise for run-toy; solve_sweep: bundle + factors +
               solve)
  op_ms_p50    median per-operation time; solve_sweep takes the median
               per (k, scale) case and reports the geometric mean of the
               12, see typical_op_ms
  peak_rss_mb  ru_maxrss of this process
  ok_frac      1 - failed / attempted
  quality      pcl_*: mean task-incremental A_final; toy: mean
               loss_nonincrease_fraction; solve_sweep: share of requests
               whose direction meets the scale-relative certificate

``--trace 1`` runs a fixed number of units, set by S, once untraced and
once traced (see tracing.py), and reports the per-layer metrics: call counts
and self times summed over the traced units, exact ratios and solver
counts, and ``trace.overhead_frac``. Spans are written to
``.perfbench_out/`` at the end.

Human-readable lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread: wall times are steadier and outputs are byte-comparable
# only at a fixed thread count. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("pcl_wide", "pcl_edit", "solve_sweep", "toy")
# Seconds per unit on the reference host. An untraced run does as many
# blocks of units, each followed by a host probe, as fit in --seconds; a
# traced run replays seconds / (2 * UNIT_SECONDS) units.
UNIT_SECONDS = {"pcl_wide": 1.2, "pcl_edit": 2.6, "solve_sweep": 0.22, "toy": 0.4}
# Units between two host probes.
BLOCK_UNITS = {"pcl_wide": 1, "pcl_edit": 1, "solve_sweep": 2, "toy": 1}
IMPORT_SAMPLES = 7
# Throwaway units run first, for this share of --seconds: on a shared host
# the CPU takes a few seconds under load to reach its steady speed.
WARMUP_SHARE = 0.1
WARMUP_INDEX = 10**6  # warm-up inputs never coincide with measured ones
REFERENCE_SEED = 0
# Per-workload names of the generic metrics, used in the text summary.
OP_NOUN = {"pcl_wide": "tick", "pcl_edit": "tick", "solve_sweep": "solve", "toy": "step"}
QUALITY_NAME = {"pcl_wide": "A_final", "pcl_edit": "A_final",
                "solve_sweep": "certified_frac", "toy": "loss_nonincrease_fraction"}

SELF_TIMED = (
    "cli.main", "experiment.run_pcl", "experiment.run_toy", "experiment.toy_trace_csv",
    "experiment.tick_log_csv", "experiment.metrics_document",
    "streams.synthetic_dataset", "streams.build_parallel_split", "streams.next_batch",
    "net.backward.task", "net.backward.memory", "net.edit_direction", "net.input_gradient",
    "net.apply_update", "net.features", "net.head_logits",
    "rehearsal.sample_memory", "rehearsal.insert", "rehearsal.memory_gradient",
    "rehearsal.editing_objective", "rehearsal.edit_memory_emgd",
    "solver.GradientBundle", "solver.elastic_factors_gs", "solver.solve_emgd",
)
COUNTED = (
    "streams.next_batch", "net.backward.task", "net.backward.memory", "net.edit_direction",
    "net.input_gradient", "net.set_backbone_flat", "net.apply_update",
    "rehearsal.memory_gradient", "rehearsal.editing_objective", "rehearsal.edit_memory_emgd",
    "solver.elastic_factors_gs", "solver.solve_emgd",
)


def load_emgd() -> dict:
    """Import emgd from this checkout's sources, never from elsewhere."""
    if not (SRC / "emgd" / "__init__.py").is_file():
        raise SystemExit(f"error: no emgd sources at {SRC / 'emgd'}")
    sys.path.insert(0, str(SRC))
    import emgd.cli
    import emgd.experiment
    import emgd.net
    import emgd.rehearsal
    import emgd.solver
    import emgd.streams

    if Path(emgd.__file__).resolve().parent != (SRC / "emgd").resolve():
        raise SystemExit(f"error: emgd was imported from {emgd.__file__}, not {SRC}")
    return {"cli": emgd.cli, "experiment": emgd.experiment, "net": emgd.net,
            "rehearsal": emgd.rehearsal, "solver": emgd.solver, "streams": emgd.streams,
            "Network": emgd.net.Network}


def fresh_import_s(samples: int = IMPORT_SAMPLES) -> float:
    """Median wall time of a new interpreter that imports emgd and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import emgd.cli"
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms intervals
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def clock_for(workload):
    clock = workload.clock()
    return clock if clock is not None else contextlib.nullcontext()


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def warm_up(workload, clock, probe, seed: int, seconds: float) -> None:
    start = time.perf_counter()
    index = WARMUP_INDEX
    probe.seconds()
    while time.perf_counter() - start < seconds:
        workload.run_unit(index, clock, seed)
        index += 1


def typical_op_ms(units) -> float:
    """Median operation time in ms.

    solve_sweep's 12 (k, scale) cases differ in cost by up to 20x, and a
    median over all requests falls in the gap between the sixth and seventh
    cheapest case, where it jumps with the share of non-converged solves.
    So the median is taken per case, and the cases are combined by their
    geometric mean. The other workloads have a single case.
    """
    by_case: dict = {}
    for unit in units:
        for case, t in zip(unit.op_cases or itertools.repeat(None), unit.op_times):
            by_case.setdefault(case, []).append(t)
    logs = [math.log(statistics.median(times)) for times in by_case.values()]
    return 1e3 * math.exp(statistics.fmean(logs))


def timed_run(name: str, modules: dict, work: Path, seed: int, seconds: float):
    """Untraced: a fixed number of units, probing the host between blocks.

    Returns (metrics, units, raw), where ``raw`` holds the unscaled
    wall-clock figures for the text summary.
    """
    block = BLOCK_UNITS[name]
    nblocks = max(1, round(seconds / (block * UNIT_SECONDS[name] + calibrate.NOMINAL_S)))
    # fresh-interpreter imports, spread over the run: after these blocks
    import_after = {b * nblocks // IMPORT_SAMPLES for b in range(IMPORT_SAMPLES)}
    workload = workloads.make(name, modules, work)
    workload.setup(seed)
    probe = calibrate.Probe()
    units, probes, imports = [], [], []
    with clock_for(workload) as clock:
        warm_up(workload, clock, probe, seed, WARMUP_SHARE * seconds)
        probes.append(probe.seconds())
        start = time.perf_counter()
        workload.setup(seed)
        inputs_s = time.perf_counter() - start
        for b in range(nblocks):
            units += [workload.run_unit(i, clock, seed) for i in range(b * block, (b + 1) * block)]
            if b in import_after:
                imports.append(fresh_import_s(1))
            probes.append(probe.seconds())
    # reference-host seconds per measured second
    scale = calibrate.NOMINAL_S / statistics.fmean(probes)
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    setup_s = statistics.median(imports) + inputs_s + statistics.median(u.setup_s for u in units)
    ops_per_s = attempted / sum(u.op_s for u in units)
    op_ms_p50 = typical_op_ms(units)
    metrics = {
        "setup_s": _metric(setup_s * scale, "s"),
        "ops_per_s": _metric(ops_per_s / scale, "1/s"),
        "op_ms_p50": _metric(op_ms_p50 * scale, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": _metric(1.0 - failed / attempted, "fraction"),
        "quality": _metric(statistics.fmean(u.quality for u in units), "fraction"),
    }
    op_ms_p95 = float(np.percentile([t for u in units for t in u.op_times], 95)) * 1e3
    raw = {"setup_s": setup_s, "ops_per_s": ops_per_s, "op_ms_p50": op_ms_p50,
           "op_ms_p95": op_ms_p95, "scale": scale, "probes": len(probes)}
    return metrics, units, raw


def merge_breakdown(units) -> dict:
    total = {}
    for unit in units:
        for case, counts in unit.breakdown.items():
            total[case] = [a + b for a, b in zip(total.get(case, [0, 0, 0]), counts)]
    return total


def traced_run(name: str, modules: dict, work: Path, seed: int, seconds: float):
    """The same units untraced, then traced; returns (metrics, units, detail)."""
    count = max(1, round(seconds / (2 * UNIT_SECONDS[name])))
    workload = workloads.make(name, modules, work)
    workload.setup(seed)
    with clock_for(workload) as clock:
        warm_up(workload, clock, calibrate.Probe(), seed, WARMUP_SHARE * seconds)
        import_s = fresh_import_s()
        plain = [workload.run_unit(i, clock, seed) for i in range(count)]
        with tracing.Tracer(modules) as tracer:
            start = time.perf_counter()
            workload.setup(seed)  # again, so that split building is traced
            traced = [workload.run_unit(i, clock, seed) for i in range(count)]
            wall = time.perf_counter() - start
    for a, b in zip(plain, traced):
        if a.hashes != b.hashes or a.breakdown != b.breakdown:
            raise workloads.CheckError("tracing changed the program's outputs")

    calls, self_s = tracing.span_totals(tracer)
    metrics = {"cli.import_s": _metric(import_s, "s")}
    for span in SELF_TIMED:
        metrics[f"{span}.self_s"] = _metric(self_s[span], "s")
    for span in COUNTED:
        metrics[f"{span}.calls"] = _metric(calls[span], "count")
    batches, memory_ticks = calls["streams.next_batch"], calls["rehearsal.sample_memory"]
    # task-stream backward passes per task batch, i.e. per stream and tick
    metrics["net.backward_per_tick"] = _metric(
        calls["net.backward.task"] / batches if batches else 0, "count")
    metrics["rehearsal.memory_gradient_per_memory_tick"] = _metric(
        calls["rehearsal.memory_gradient"] / memory_ticks if memory_ticks else 0, "count")
    metrics["rehearsal.memory_groups_per_batch"] = _metric(
        statistics.fmean(tracer.memory_groups) if tracer.memory_groups else 0, "count")
    metrics["rehearsal.occupancy_final"] = _metric(tracer.occupancy_final, "count")
    for k, _ in workloads.SOLVE_SHAPES:
        metrics[f"solver.solve_emgd.k{k}.self_s"] = _metric(self_s[f"solver.solve_emgd.k{k}"], "s")
    iterations = [s[1] for s in tracer.solves]
    metrics["solver.iterations_p50"] = _metric(
        statistics.median(iterations) if iterations else 0, "count")
    metrics["solver.iterations_max"] = _metric(max(iterations, default=0), "count")
    metrics["solver.nonconverged"] = _metric(sum(not s[2] for s in tracer.solves), "count")
    metrics["solver.cert_violations"] = _metric(
        sum(s[2] and s[3] < -tracing.CERT_TOL for s in tracer.solves), "count")
    breakdown = merge_breakdown(traced)
    for k, _, label, _ in workloads.SOLVE_CASES:
        case = workloads.case_name(k, label)
        _, nonconverged, violations = breakdown.get(case, [0, 0, 0])
        metrics[f"solver.nonconverged.{case}"] = _metric(nonconverged, "count")
        metrics[f"solver.cert_violations.{case}"] = _metric(violations, "count")
    metrics["trace.overhead_frac"] = _metric(
        1.0 - sum(u.wall_s for u in plain) / sum(u.wall_s for u in traced), "fraction")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{seed}.csv")
    detail = {"wall_s": wall, "root_s": tracer.root_time(),
              "self_s": float(np.sum(tracer.self_times())),
              "min_self_s": float(np.min(tracer.self_times()))}
    return metrics, traced, detail


def report(name: str, seed: int, units, metrics: dict, raw: dict | None) -> None:
    """Human-readable summary, using the per-workload metric names.

    ``raw`` holds an untraced run's unscaled figures; None for a traced run.
    """
    trace = raw is None
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    noun = OP_NOUN[name]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  units {len(units)}  "
          f"{noun}s {attempted}")
    renamed = {"ops_per_s": f"{noun}s_per_s", "op_ms_p50": f"{noun}_ms_p50",
               "quality": QUALITY_NAME[name]}
    for key, m in metrics.items():
        print(f"  {renamed.get(key, key):<44} {m['value']:.6g} {m['unit']}")
    if not trace:
        # printed, not gated: on a shared host the slowest ticks move with
        # neighbour load far more than the median does
        print(f"  {noun + '_ms_p95':<44} {raw['op_ms_p95'] * raw['scale']:.6g} ms "
              f"({attempted} samples)")
        print(f"  wall clock, unscaled: setup_s {raw['setup_s']:.6g} s, "
              f"{noun}s_per_s {raw['ops_per_s']:.6g} 1/s, {noun}_ms_p50 "
              f"{raw['op_ms_p50']:.6g} ms, {noun}_ms_p95 {raw['op_ms_p95']:.6g} ms; "
              f"scale {raw['scale']:.4g} over {raw['probes']} probes")
    print(f"  {'failed_frac':<44} {failed / attempted:.6g} fraction ({failed} of {attempted})")
    breakdown = merge_breakdown(units)
    if breakdown:
        print("  case            requests  nonconverged  cert_violations")
        for case, (n, nonconverged, violations) in breakdown.items():
            print(f"  {case:<15} {n:>8}  {nonconverged:>12}  {violations:>15}")
    if seed == REFERENCE_SEED and units[0].hashes:
        expected = json.loads((HERE / "reference.json").read_text())["workloads"][name]["hashes"]
        same = units[0].hashes == expected
        print(f"  output hashes of unit 0 {'match' if same else 'DIFFER from'} "
              "perfbench/reference.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    modules = load_emgd()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            metrics, units, _ = traced_run(args.workload, modules, work, args.seed, args.seconds)
            raw = None
        else:
            metrics, units, raw = timed_run(args.workload, modules, work, args.seed, args.seconds)
    except workloads.CheckError as err:
        print(f"error: output check failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args.workload, args.seed, units, metrics, raw)
    print(json.dumps({"correct": True, "attempted": sum(u.ops for u in units),
                      "failed": sum(u.failed for u in units), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
