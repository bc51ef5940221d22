"""End-to-end training over a timeline, the two-function toy problem, and
continual-learning metrics.

Each tick serves one batch per active stream, updates the task heads with
their own gradients, combines the negative backbone gradients into a Pareto
descent direction, applies theta <- theta + gamma * d, and optionally edits
the sampled memory afterwards. Finished tasks feed the rehearsal buffer and
re-enter as the memory stream 0. Each task is evaluated at its own finish
tick and every seen task at the final tick, in both task-incremental (true
head) and class-incremental (argmax over all heads) modes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import rehearsal, solver, streams
from .errors import ConfigError, InvalidInputError, NumericError
from .net import (
    Network,
    add_head,
    apply_update,
    backward,  # unused here, but perfbench/tracing.py SITES patches experiment.backward
    features,
    head_logits,  # unused here, but perfbench/tracing.py SITES patches experiment.head_logits
    stream_gradients,
)
from .rehearsal import MemoryBuffer
from .streams import TaskCursor, TaskTimeline, substream

log = logging.getLogger("emgd")

METHODS = ("emgd_gmc", "emgd_gs", "mgda", "avg_grad")
EDITING = ("none", "emgd")


@dataclass
class RunConfig:
    """Knobs for one training run. The split owns the schedule: the batch
    size and the epochs are the timeline's, and ``memory_batch_size`` 0 means
    the timeline's batch size. ``editing`` ``emgd`` turns the memory editor
    on, and ``eta_edit`` is the size of its one step."""

    method: str = "emgd_gs"
    editing: str = "none"
    gamma: float = 0.05
    gamma_heads: float = 0.05
    temperature: float = solver.ElasticState.temperature
    seed: int = 1234
    memory_batch_size: int = 0
    capacity_per_class: int = 5
    eta_edit: float = 0.05

    def __post_init__(self):
        for name, allowed in (("method", METHODS), ("editing", EDITING)):
            if getattr(self, name) not in allowed:
                raise ConfigError(
                    f"unknown run.{name} {getattr(self, name)!r}, pick one of {allowed}")
        for name in ("gamma", "gamma_heads", "temperature"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"run.{name} must be positive and finite, got {value!r}")
        for name, low in (("memory_batch_size", 0), ("capacity_per_class", 1)):
            value = getattr(self, name)
            if value < low:
                raise ConfigError(f"run.{name} must be >= {low}, got {value!r}")
        if not 0.0 < self.eta_edit <= 1.0:
            raise ConfigError(f"run.eta_edit must lie in (0, 1], got {self.eta_edit!r}")


def compute_metrics(pairs):
    """Final average accuracy A and forgetting F from each task's (accuracy
    at its finish tick, accuracy at the final tick) pair, in task order.

    A averages the final accuracies; F averages each task's drop from its
    finish tick (negative F means the tasks got worse after finishing).
    """
    if not pairs:
        raise InvalidInputError("no task accuracies to score")
    a_final = float(np.mean([final for _, final in pairs]))
    f_final = float(np.mean([final - at_finish for at_finish, final in pairs]))
    return a_final, f_final


# --- toy two-function problem ------------------------------------------------

TOY_STEP = 2e-5  # theta <- theta + TOY_STEP * d
TOY_JOIN_TICK = 500  # f2 joins after this tick


def toy_f1(x: float, y: float) -> float:
    return float(np.log1p(x * x) + 0.8 * (1.0 - np.exp(x) * np.sin(y)) ** 2)


def toy_f2(x: float, y: float) -> float:
    return float(np.log1p(y * y) + 0.004 * (0.1 + np.exp(y) * np.cos(x)) ** 2)


def toy_grad_f1(x: float, y: float) -> np.ndarray:
    t = np.exp(x) * np.sin(y)
    return np.array(
        [
            2.0 * x / (1.0 + x * x) - 1.6 * (1.0 - t) * np.exp(x) * np.sin(y),
            -1.6 * (1.0 - t) * np.exp(x) * np.cos(y),
        ]
    )


def toy_grad_f2(x: float, y: float) -> np.ndarray:
    t = 0.1 + np.exp(y) * np.cos(x)
    return np.array(
        [
            -0.008 * t * np.exp(y) * np.sin(x),
            2.0 * y / (1.0 + y * y) + 0.008 * t * np.exp(y) * np.cos(x),
        ]
    )


@dataclass
class ToyRow:
    tick: int
    x: float
    y: float
    f1: float
    f2: float
    d_norm: float
    lam: tuple
    sigma: tuple
    margin: float  # min_i <g_i, d> - sigma_i ||d||^2 over the active tasks


@dataclass
class ToyTrace:
    method: str
    start: tuple
    f1_init: float
    f2_init: float
    rows: list = field(default_factory=list)


def run_toy(method: str = "emgd_gs", iterations: int = 1500, start=(3.0, 3.0)) -> ToyTrace:
    """Two synthetic objectives optimized in sequence-then-parallel.

    The first function trains alone until ``TOY_JOIN_TICK``, then the second
    joins and every update, a step of ``TOY_STEP``, uses the configured
    combiner. Gradients are analytic; the whole run is deterministic. A start
    far enough out overflows the objectives; the run then stops with a
    NumericError naming the tick and the start. These defaults are run-toy's,
    whose flags set the three parameters.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}, pick one of {METHODS}")
    x, y = float(start[0]), float(start[1])
    if iterations < 1 or not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError("need iterations >= 1 and a finite start, got "
                          f"iterations={iterations!r}, start={(x, y)!r}")
    state = solver.ElasticState()
    # overflow shows up as non-finite values, which the checks below name
    with np.errstate(over="ignore", invalid="ignore"):
        trace = ToyTrace(method, (x, y), toy_f1(x, y), toy_f2(x, y))
        try:
            for tick in range(1, iterations + 1):
                grads = [toy_grad_f1(x, y)]
                if tick > TOY_JOIN_TICK:
                    grads.append(toy_grad_f2(x, y))
                grads = np.negative(grads)  # the bundle holds negative gradients
                bundle = solver.GradientBundle((1, 2)[:len(grads)], grads)
                result, sigma = solver.combine(method, bundle, state)
                d = result.direction
                dd = result.objective
                margin = min(float(g @ d) - float(s) * dd for g, s in zip(grads, sigma))
                x += TOY_STEP * float(d[0])
                y += TOY_STEP * float(d[1])
                f1, f2 = toy_f1(x, y), toy_f2(x, y)
                if not (math.isfinite(f1) and math.isfinite(f2)):
                    raise NumericError(f"objectives f1={f1!r}, f2={f2!r} at ({x!r}, {y!r})")
                trace.rows.append(ToyRow(tick, x, y, f1, f2, float(np.sqrt(dd)),
                                         tuple(result.lam.tolist()),
                                         tuple(sigma.tolist()), margin))
        except NumericError as err:
            raise NumericError(f"numeric failure at tick {tick} of the run from start "
                               f"{trace.start!r}: {err}") from None
    return trace


# --- the full multi-stream loop ----------------------------------------------


def _evaluate(net: Network, specs_by_id: dict, seen: list, scored: list) -> dict:
    """Each scored task's (task-incremental, class-incremental) accuracies.

    Each scored task's test features are scored once against the columns of
    every seen task's head side by side; the task's own column block gives
    the task-incremental prediction and the argmax over all columns the
    class-incremental one, whose winning column must carry the sample's
    true global class."""
    accuracies = {}
    heads = [net.head(t) for t in seen]
    W_all = np.concatenate([W for W, _ in heads], axis=1)
    b_all = np.concatenate([b for _, b in heads])
    column_globals = np.asarray([c for t in seen for c in specs_by_id[t].label_set])
    bounds = np.cumsum([0] + [W.shape[1] for W, _ in heads])
    for t in scored:
        spec, i = specs_by_id[t], seen.index(t)  # every task has test rows (_task_spec)
        logits = features(net, spec.test_inputs) @ W_all
        logits += b_all
        own = logits[:, bounds[i]:bounds[i + 1]].argmax(axis=1)
        winners = column_globals[logits.argmax(axis=1)]
        accuracies[t] = (float((own == spec.test_local).mean()),
                         float((winners == spec.test_labels).mean()))
    return accuracies


@dataclass
class PclResult:
    """Per task, its (task-incremental, class-incremental) accuracies at its
    finish tick and at the final tick; the tick log; the rehearsal buffer the
    run built."""

    at_finish: dict
    final: dict
    tick_rows: list
    buffer: MemoryBuffer


def run_pcl(specs, timeline: TaskTimeline, net: Network, cfg: RunConfig) -> PclResult:
    """Train over the timeline and record accuracies and a tick log.

    Per tick, draw a batch of ``timeline.batch_size`` rows per active task
    and make one pass over all streams (``stream_gradients``): each head
    steps with its own gradient, and each stream's backbone gradient is read
    at the stepped heads. The memory stream, live once the buffer holds a
    finished task's data, routes each row through its task's head. The
    negative gradients are combined per ``cfg.method``, the backbone steps,
    and under ``cfg.editing`` ``emgd`` the sampled slots are edited toward
    the combined direction (``rehearsal.edit_memory_emgd``). At its finish tick
    a task's training partition streams into the buffer (``rehearsal.insert``),
    which the run builds with ``cfg.capacity_per_class`` slots per class, and
    the task is evaluated; the final tick evaluates every seen task. A task's
    first tick gives it a fresh head (``add_head``), which ``net`` must not hold.
    """
    specs_by_id = {spec.task_id: spec for spec in specs}
    if set(specs_by_id) != {t for t, _, _ in timeline.entries}:
        raise ConfigError("timeline tasks do not match the provided specs")
    mem_batch_size = cfg.memory_batch_size or timeline.batch_size
    if mem_batch_size * net.input_dim > streams.MAX_FLOAT64S:  # checked before the first tick
        raise ConfigError(f"run.memory_batch_size {cfg.memory_batch_size} gives memory batches "
                          f"of {mem_batch_size} rows of input width {net.input_dim}, more "
                          "float64 values than one array can address")
    cursors = {spec.task_id: TaskCursor(spec, cfg.seed) for spec in specs}
    buffer = MemoryBuffer(cfg.capacity_per_class)
    rng_sample = substream(cfg.seed, "memory-sample")
    rng_reservoir = substream(cfg.seed, "reservoir")
    state = solver.ElasticState(temperature=cfg.temperature)
    at_finish, final, tick_rows = {}, {}, []
    seen: list = []

    for tick in range(timeline.first_tick, timeline.final_tick + 1):
        real_tasks = sorted(streams.active_tasks(timeline, tick))
        for t in real_tasks:
            if t not in seen:
                seen.append(t)
                add_head(net, t, specs_by_id[t].class_count,
                         streams.derive_seed(cfg.seed, "head", t))

        task_ids, tick_streams, mem = real_tasks, [], None
        if buffer.occupancy:  # the memory stream 0 goes first
            mem = rehearsal.sample_memory(buffer, mem_batch_size, rng_sample)
            task_ids = [0] + real_tasks
            tick_streams.append((mem.inputs, mem.labels, mem.task_ids))
        for t in real_tasks:
            tick_streams.append((*streams.next_batch(cursors[t], timeline.batch_size), t))

        # negative, as the bundle holds them
        grads, losses = stream_gradients(net, tick_streams, cfg.gamma_heads)
        try:
            bundle = solver.GradientBundle(tuple(task_ids), grads)
            result, sigma = solver.combine(cfg.method, bundle, state)
        except NumericError as err:
            raise NumericError(f"numeric failure at tick {tick}: {err}") from None
        del grads, bundle  # read no further: freed before the update and editing allocate
        if not result.converged:
            log.warning("tick %d: combination solve hit max_iter, using best iterate", tick)

        apply_update(net, result.direction, cfg.gamma)

        edit_objective = ""
        if mem is not None and cfg.editing != "none":
            before, after = rehearsal.edit_memory_emgd(buffer, net, mem, result.direction,
                                                       cfg.eta_edit)
            edit_objective = f"{before:.6e}->{after:.6e}"

        finishing = [t for t, _, e in timeline.entries if e == tick]
        for t in finishing:
            rehearsal.insert(buffer, specs_by_id[t], rng_reservoir)

        tick_rows.append(
            {
                "tick": tick,
                "active": tuple(task_ids),
                "losses": dict(zip(task_ids, losses)),
                "lambda": tuple(float(v) for v in result.lam),
                "sigma": tuple(float(v) for v in sigma),
                "d_norm": float(np.sqrt(result.objective)),
                "edit_objective": edit_objective,
            }
        )
        del result, tick_streams, mem  # so no array of this tick is alive in the next pass

        scored = seen if tick == timeline.final_tick else finishing
        if scored:
            accuracies = _evaluate(net, specs_by_id, seen, scored)
            at_finish.update((t, accuracies[t]) for t in finishing)
            if tick == timeline.final_tick:
                final = accuracies

    return PclResult(at_finish, final, tick_rows, buffer)


# --- serialization ------------------------------------------------------------


def toy_trace_csv(trace: ToyTrace) -> str:
    lines = ["tick,f1,f2,x,y,d_norm,lambda,sigma,margin"]
    for r in trace.rows:
        lam = ";".join(repr(v) for v in r.lam)
        sig = ";".join(repr(v) for v in r.sigma)
        lines.append(
            f"{r.tick},{r.f1!r},{r.f2!r},{r.x!r},{r.y!r},{r.d_norm!r},{lam},{sig},{r.margin!r}"
        )
    return "\n".join(lines) + "\n"


def toy_summary(trace: ToyTrace) -> dict:
    """The run's settings, f1 and f2 at its start, join and end, and how it converged."""
    rows = trace.rows
    join = rows[TOY_JOIN_TICK - 1] if TOY_JOIN_TICK <= len(rows) else None
    # steps where no loss active at both ends rose; f2 is active past the join tick
    good = sum(b.f1 <= a.f1 + 1e-15 and (a.tick <= TOY_JOIN_TICK or b.f2 <= a.f2 + 1e-15)
               for a, b in zip(rows, rows[1:]))
    return {
        "method": trace.method,
        "start": list(trace.start),
        "join_tick": TOY_JOIN_TICK,
        "iterations": len(rows),
        "f1_initial": trace.f1_init,
        "f2_initial": trace.f2_init,
        "f1_at_join": join.f1 if join else None,
        "f2_at_join": join.f2 if join else None,
        "f1_final": rows[-1].f1,
        "f2_final": rows[-1].f2,
        "final_direction_norm": rows[-1].d_norm,
        "min_direction_norm": min(r.d_norm for r in rows),
        "loss_nonincrease_fraction": good / (len(rows) - 1) if len(rows) > 1 else 1.0,
    }


def tick_log_csv(tick_rows) -> str:
    lines = ["tick,active_tasks,losses,lambda,sigma,d_norm,edit_objective"]
    for row in tick_rows:
        active = ";".join(str(t) for t in row["active"])
        losses = ";".join(f"{t}:{row['losses'][t]!r}" for t in row["active"])
        lam = ";".join(repr(v) for v in row["lambda"])
        sig = ";".join(repr(v) for v in row["sigma"])
        lines.append(
            f"{row['tick']},{active},{losses},{lam},{sig},{row['d_norm']!r},{row['edit_objective']}"
        )
    return "\n".join(lines) + "\n"


def metrics_document(result: PclResult, cfg: RunConfig) -> dict:
    """Metrics JSON: the task-incremental A/F at the top level, both modes nested."""
    docs = {}
    for i, mode in enumerate(("task", "class")):
        pairs = {t: (result.at_finish[t][i], result.final[t][i]) for t in sorted(result.final)}
        a_final, f_final = compute_metrics(list(pairs.values()))
        docs[mode] = {
            "A_final": a_final,
            "F_final": f_final,
            "per_task": {str(t): {"at_finish": at_finish, "final": final}
                         for t, (at_finish, final) in pairs.items()},
        }
    return {**docs["task"], "method": cfg.method, "editing": cfg.editing, "seed": cfg.seed,
            "modes": docs}
