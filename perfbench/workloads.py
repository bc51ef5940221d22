"""The benchmark workloads: seeded inputs, one unit of work, output checks.

A unit is the smallest piece of work the benchmark repeats: one ``run-pcl``
call, one ``run-toy`` call, or one round of solve requests covering every
(k, D, scale) case once. Units are numbered; unit ``i`` of seed ``s`` always
gets the same inputs, so a traced run can replay exactly the units that an
untraced run timed.

The program only ever sees generated inputs: config JSON and split manifests
on disk for the CLI, gradient arrays for the solver, start points for the
toy.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import CERT_TOL, certificate_margin

# pcl_*: 8 tasks x 5 classes drawn from a 40-class Gaussian-blob set in 64
# dims; backbone 64-256-64 (D = 33,088). noise_sigma 0.3 keeps A_final away
# from 1, so the arms differ and accuracy can move.
PCL_DATASET = {"synthetic": {"num_classes": 40, "input_dim": 64, "samples_per_class": 200,
                             "test_per_class": 50, "noise_sigma": 0.3}}
PCL_SPLIT = {"num_tasks": 8, "label_bounds": [5, 5], "batch_size": 32, "epochs": 1}
PCL_NET = {"hidden": [256], "feature_dim": 64}
# The label sets and the random parallel timeline are part of the workload
# definition, drawn once from this seed, so every --seed trains the same 153
# ticks with the same stream overlap; --seed varies the data, the
# initialisation, shuffling and memory sampling.
PCL_SPLIT_SEED = 2024

TOY_STEPS = 1500  # run-toy defaults: 1500 steps, second objective joins at 500

# solve_sweep: every (k, D) at three gradient scales. 1e-6 and 1e5 expose
# the solver's absolute duality-gap test; they stay even though they fail.
SOLVE_SHAPES = ((2, 33088), (8, 33088), (64, 4096), (256, 1024))
SOLVE_SCALES = (("1e-6", 1e-6), ("1", 1.0), ("1e5", 1e5))
SOLVE_CASES = [(k, dim, label, scale)
               for k, dim in SOLVE_SHAPES for label, scale in SOLVE_SCALES]


def case_name(k: int, scale_label: str) -> str:
    return f"k{k}_s{scale_label}"


class CheckError(Exception):
    """A program output failed the benchmark's correctness checks."""


@dataclass
class Unit:
    ops: int  # operations attempted: ticks, steps or requests
    failed: int
    op_s: float  # time spent in the operations themselves
    op_times: list  # seconds per operation
    setup_s: float  # program set-up inside the call, before the first operation
    wall_s: float  # the whole unit
    quality: float
    hashes: dict = field(default_factory=dict)
    # solve_sweep only: case -> [requests, non-converged, certificate violations]
    breakdown: dict = field(default_factory=dict)
    # solve_sweep only: the case of each operation, in op_times order
    op_cases: list = field(default_factory=list)


def unit_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def spread_points(seed: int, index: int, steps) -> np.ndarray:
    """Point ``index`` of a seeded additive recurrence in [0, 1)^len(steps).

    With irrational steps (the golden ratio in 1-D, Roberts' R2 in 2-D) any
    run of consecutive units covers the range evenly, so the share of costly
    inputs (near-orthogonal gradients, far start points) varies little
    between runs, while every seed still gives different inputs.
    """
    steps = np.asarray(steps)
    offset = np.random.default_rng([seed, 2**32 - 1]).random(steps.size)
    return (offset + index * steps) % 1.0


GOLDEN_STEP = 0.6180339887498949
R2_STEPS = (0.7548776662466927, 0.5698402909980532)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(text: str, where: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"non-finite value {text!r} in {where}")
    return value


class Clock:
    """Stamps the start of every tick (or toy step) and the end of the loop.

    This is the untraced run's only hook: one clock read per operation,
    which gives per-operation times and the end of the program's set-up.
    """

    def __init__(self, owner, tick_attr: str, loop_owner, loop_attr: str):
        self.stamps: list = []
        self.loop_end = 0.0
        self._sites = [(owner, tick_attr), (loop_owner, loop_attr)]
        self._originals = [getattr(o, a) for o, a in self._sites]

    def __enter__(self):
        tick_fn, loop_fn = self._originals
        stamps, clock = self.stamps, time.perf_counter

        def tick(*args, **kwargs):
            stamps.append(clock())
            return tick_fn(*args, **kwargs)

        def loop(*args, **kwargs):
            try:
                return loop_fn(*args, **kwargs)
            finally:
                self.loop_end = clock()

        for (owner, attr), fn in zip(self._sites, (tick, loop)):
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc):
        for (owner, attr), fn in zip(self._sites, self._originals):
            setattr(owner, attr, fn)
        return False

    def call(self, main, argv):
        """Run ``main(argv)``; return (exit code, call start, call end)."""
        self.stamps.clear()
        start = time.perf_counter()
        code = main(argv)
        return code, start, time.perf_counter()

    def op_times(self) -> list:
        return list(np.diff(self.stamps + [self.loop_end]))


class _WarningCounter(logging.Handler):
    """Counts the ticks whose combination solve hit max_iter."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "hit max_iter" in record.getMessage():
            self.count += 1


class PclWorkload:
    """``run-pcl`` through ``emgd.cli.main``; one unit is one training run."""

    def __init__(self, modules: dict, work: Path, editing: str):
        self.m = modules
        self.work = work
        self.editing = editing
        self.config = work / "config.json"
        self.manifest = work / "split.json"
        self.ticks = 0

    def clock(self) -> Clock:
        return Clock(self.m["streams"], "active_tasks", self.m["experiment"], "run_pcl")

    def setup(self, seed: int) -> None:
        """Write the config and build the fixed split with ``build-splits``."""
        split_doc = {"seed": PCL_SPLIT_SEED, "dataset": PCL_DATASET, "split": PCL_SPLIT}
        split_config = self.work / "split-config.json"
        split_config.write_text(json.dumps(split_doc))
        code = self.m["cli"].main(["build-splits", "--config", str(split_config),
                                   "--out", str(self.manifest)])
        if code != 0:
            raise CheckError(f"build-splits exited with {code}")
        entries = json.loads(self.manifest.read_text())["tasks"]
        self.ticks = max(e["e"] for e in entries) - min(e["s"] for e in entries) + 1
        doc = {"dataset": PCL_DATASET, "manifest": str(self.manifest),
               "net": PCL_NET, "run": {"method": "emgd_gs", "editing": self.editing}}
        self.config.write_text(json.dumps(doc))

    def run_unit(self, index: int, clock: Clock, seed: int) -> Unit:
        out = self.work / f"unit{index}"
        counter = _WarningCounter()
        logger = logging.getLogger("emgd")
        logger.addHandler(counter)
        try:
            code, start, end = clock.call(self.m["cli"].main, [
                "run-pcl", "--config", str(self.config),
                "--seed", str(unit_seed(seed, index)), "--out", str(out)])
        finally:
            logger.removeHandler(counter)
        if code == 3:  # NumericError: the failing tick and every later one fail
            done = len(clock.stamps) - 1
            return Unit(self.ticks, self.ticks - done + counter.count, end - clock.stamps[0],
                        clock.op_times(), clock.stamps[0] - start, end - start, 0.0)
        if code != 0:
            raise CheckError(f"run-pcl exited with {code}")
        rows = check_tick_log(out / "tick_log.csv")
        if rows != self.ticks or len(clock.stamps) != self.ticks:
            raise CheckError(f"expected {self.ticks} ticks, logged {rows}")
        a_final = check_metrics(out / "metrics.json")
        hashes = {name: sha256(out / name) for name in ("tick_log.csv", "metrics.json")}
        shutil.rmtree(out)
        return Unit(self.ticks, counter.count, end - clock.stamps[0], clock.op_times(),
                    clock.stamps[0] - start, end - start, a_final, hashes)


def check_tick_log(path: Path) -> int:
    """Every number in the tick log must be finite; returns the row count."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("tick,"):
        raise CheckError(f"{path.name}: missing header")
    for line in lines[1:]:
        tick, _, losses, lam, sigma, d_norm, edit = line.split(",")
        where = f"{path.name} tick {tick}"
        for item in losses.split(";"):
            _finite(item.split(":")[1], where)
        for text in lam.split(";") + sigma.split(";") + [d_norm]:
            _finite(text, where)
        if edit:
            for text in edit.split("->"):
                _finite(text, where)
    return len(lines) - 1


def check_metrics(path: Path) -> float:
    """metrics.json must carry finite A_final and F_final; returns A_final."""
    doc = json.loads(path.read_text())
    for key in ("A_final", "F_final"):
        if key not in doc:
            raise CheckError(f"{path.name}: missing {key}")
        _finite(repr(doc[key]), path.name)
    if not 0.0 <= doc["A_final"] <= 1.0:
        raise CheckError(f"{path.name}: A_final {doc['A_final']} outside [0, 1]")
    return float(doc["A_final"])


class ToyWorkload:
    """``run-toy --method emgd_gs`` from seeded start points in [-3, 3]^2."""

    def __init__(self, modules: dict, work: Path):
        self.m = modules
        self.work = work

    def clock(self) -> Clock:
        exp = self.m["experiment"]
        return Clock(exp, "toy_grad_f1", exp, "run_toy")

    def setup(self, seed: int) -> None:
        pass

    def run_unit(self, index: int, clock: Clock, seed: int) -> Unit:
        x, y = 6.0 * spread_points(seed, index, R2_STEPS) - 3.0
        out = self.work / f"unit{index}"
        code, start, end = clock.call(self.m["cli"].main, [
            "run-toy", "--method", "emgd_gs", "--start", repr(float(x)), repr(float(y)),
            "--out", str(out)])
        if code != 0:
            raise CheckError(f"run-toy exited with {code}")
        summary = json.loads((out / "toy_summary.json").read_text())
        nonincrease = summary["loss_nonincrease_fraction"]
        if nonincrease < 1.0:
            raise CheckError(f"toy from ({x}, {y}): loss_nonincrease_fraction {nonincrease} < 1")
        failed = check_toy_trace(out / "toy_trace.csv")
        hashes = {"toy_trace.csv": sha256(out / "toy_trace.csv")}
        shutil.rmtree(out)
        if len(clock.stamps) != TOY_STEPS:
            raise CheckError(f"expected {TOY_STEPS} toy steps, saw {len(clock.stamps)}")
        return Unit(TOY_STEPS, failed, end - clock.stamps[0], clock.op_times(),
                    clock.stamps[0] - start, end - start, nonincrease, hashes)


def check_toy_trace(path: Path) -> int:
    """Every number must be finite; returns the steps whose margin fails.

    A step fails when its logged certificate margin is below
    -CERT_TOL * d_norm^2.
    """
    lines = path.read_text().splitlines()
    if len(lines) != TOY_STEPS + 1:
        raise CheckError(f"{path.name}: {len(lines) - 1} rows, expected {TOY_STEPS}")
    failed = 0
    for line in lines[1:]:
        tick, f1, f2, x, y, d_norm, lam, sigma, margin = line.split(",")
        where = f"{path.name} tick {tick}"
        for text in [f1, f2, x, y, d_norm, margin] + lam.split(";") + sigma.split(";"):
            _finite(text, where)
        if float(margin) < -CERT_TOL * float(d_norm) ** 2:
            failed += 1
    return failed


def solve_request(rng: np.random.Generator, shared_weight: float, k: int, dim: int,
                  scale: float) -> np.ndarray:
    """k gradients: a shared component plus per-task noise, so cosines vary.

    ``shared_weight`` in [0, 1) sets how aligned the gradients are; the
    norms are drawn per task, then the whole bundle is multiplied by
    ``scale``.
    """
    shared = shared_weight * rng.standard_normal(dim)
    norms = np.exp(rng.uniform(-0.5, 0.5, size=(k, 1)))
    return (scale / math.sqrt(dim)) * norms * (shared + rng.standard_normal((k, dim)))


class SolveWorkload:
    """GradientBundle -> elastic_factors_gs -> solve_emgd, one round of cases
    per unit. Per-request time covers those three calls only; making the
    request and checking the answer are outside it."""

    def __init__(self, modules: dict, work: Path):
        self.m = modules

    def clock(self) -> Clock | None:
        return None

    def setup(self, seed: int) -> None:
        pass

    def run_unit(self, index: int, clock, seed: int) -> Unit:
        solver = self.m["solver"]
        rng = np.random.default_rng(unit_seed(seed, index))
        weights = spread_points(seed, index, [GOLDEN_STEP] * len(SOLVE_CASES))
        times, breakdown, certified = [], {}, 0
        unit_start = time.perf_counter()
        for (k, dim, label, scale), weight in zip(SOLVE_CASES, weights):
            grads = solve_request(rng, weight, k, dim, scale)
            start = time.perf_counter()
            bundle = solver.GradientBundle(tuple(range(1, k + 1)), grads)
            factors = solver.elastic_factors_gs(bundle)
            result = solver.solve_emgd(bundle, factors)
            times.append(time.perf_counter() - start)
            lam, sigma = result.lam, factors.sigma
            if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(result.direction))):
                raise CheckError(f"{case_name(k, label)}: non-finite solver output")
            if np.any(lam < 0.0) or abs(float(lam @ sigma) - 1.0) > 1e-9:
                raise CheckError(f"{case_name(k, label)}: weights off the constraint set")
            ok = certificate_margin(grads, sigma, result.direction) >= -CERT_TOL
            certified += ok
            breakdown[case_name(k, label)] = [1, int(not result.converged),
                                              int(result.converged and not ok)]
        failed = sum(b[1] + b[2] for b in breakdown.values())
        return Unit(len(SOLVE_CASES), failed, float(sum(times)), times, 0.0,
                    time.perf_counter() - unit_start, certified / len(SOLVE_CASES),
                    breakdown=breakdown, op_cases=list(breakdown))


def make(name: str, modules: dict, work: Path):
    if name == "pcl_wide":
        return PclWorkload(modules, work, "none")
    if name == "pcl_edit":
        return PclWorkload(modules, work, "emgd")
    if name == "toy":
        return ToyWorkload(modules, work)
    if name == "solve_sweep":
        return SolveWorkload(modules, work)
    raise KeyError(name)
