"""End-to-end training over a timeline, the two-function toy problem, and
continual-learning metrics.

Each tick serves one batch per active stream, updates the task heads with
their own gradients, combines the negative backbone gradients into a Pareto
descent direction, applies theta <- theta + gamma * d, and optionally edits
the sampled memory afterwards. Finished tasks feed the rehearsal buffer and
re-enter as the memory stream 0. Accuracy is recorded at every finish tick
and at the final tick, in both task-incremental (true head) and
class-incremental (argmax over all heads) modes.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import rehearsal, solver, streams
from .errors import ConfigError, IncompleteMatrixError, NumericError
from .net import (
    Batch,
    Network,
    add_head,
    apply_update,
    backward,  # unused here, but perfbench/tracing.py SITES patches experiment.backward
    features,
    head_logits,  # unused here, but perfbench/tracing.py SITES patches experiment.head_logits
    stream_gradients,
)
from .rehearsal import EditConfig, MemoryBuffer
from .streams import TaskCursor, TaskTimeline, substream

log = logging.getLogger("emgd")

METHODS = ("emgd_gmc", "emgd_gs", "mgda", "avg_grad")
EDITING = ("none", "emgd", "gmed")
EVAL_MODE_ALIASES = {"task-incremental": "task", "class-incremental": "class"}


@dataclass
class RunConfig:
    """Knobs for one training run; ``memory_batch_size`` 0 means ``batch_size``."""

    method: str = "emgd_gs"
    editing: str = "none"
    gamma: float = 0.05
    gamma_heads: float = 0.05
    batch_size: int = 128
    epochs: int = 1
    temperature: float = 1.0
    eval_every: int = 0
    eval_mode: str = "task"
    seed: int = 1234
    memory_batch_size: int = 0
    capacity_per_class: int = 5
    eta_edit: float = 0.05
    edit_iterations: int = 1
    clamp: bool = True
    freeze_finished_heads: bool = False
    tol: float = solver.DEFAULT_TOL
    max_iter: int = solver.DEFAULT_MAX_ITER

    def __post_init__(self):
        self.eval_mode = EVAL_MODE_ALIASES.get(self.eval_mode, self.eval_mode)
        for name, allowed in (("method", METHODS), ("editing", EDITING),
                              ("eval_mode", ("task", "class"))):
            if getattr(self, name) not in allowed:
                raise ConfigError(
                    f"unknown run.{name} {getattr(self, name)!r}, pick one of {allowed}")
        for name in ("gamma", "gamma_heads", "temperature", "tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"run.{name} must be positive and finite, got {value!r}")
        for name, low in (("batch_size", 1), ("epochs", 1), ("max_iter", 1), ("eval_every", 0),
                          ("memory_batch_size", 0), ("capacity_per_class", 1)):
            value = getattr(self, name)
            if value < low:
                # batch_size and epochs come from the split or the manifest, which check them first
                where = name if name in ("batch_size", "epochs") else f"run.{name}"
                raise ConfigError(f"{where} must be >= {low}, got {value!r}")
        self.edit_config()

    def edit_config(self) -> EditConfig:
        return EditConfig(
            eta_edit=self.eta_edit,
            iterations=self.edit_iterations,
            clamp=self.clamp,
        )


@dataclass
class AccuracyMatrix:
    """Test accuracies a[task, tick] recorded at finish ticks and the end."""

    finish_ticks: dict
    final_tick: int
    entries: dict = field(default_factory=dict)

    def record(self, task_id: int, tick: int, accuracy: float) -> None:
        self.entries[(task_id, tick)] = float(accuracy)

    def at(self, task_id: int, tick: int) -> float:
        try:
            return self.entries[(task_id, tick)]
        except KeyError:
            raise IncompleteMatrixError(
                f"no accuracy recorded for task {task_id} at tick {tick}"
            ) from None

    def tasks(self):
        return sorted(self.finish_ticks)


def compute_metrics(matrix: AccuracyMatrix):
    """Final average accuracy A and forgetting F.

    A averages each task's accuracy at the final tick; F averages the drop
    from each task's accuracy at its own finish tick (negative F means the
    tasks got worse after finishing).
    """
    tasks = matrix.tasks()
    if not tasks:
        raise IncompleteMatrixError("matrix records no tasks")
    final = [matrix.at(t, matrix.final_tick) for t in tasks]
    at_finish = [matrix.at(t, matrix.finish_ticks[t]) for t in tasks]
    a_final = float(np.mean(final))
    f_final = float(np.mean([f - e for f, e in zip(final, at_finish)]))
    return a_final, f_final


# --- toy two-function problem ------------------------------------------------


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
    join_tick: int
    f1_init: float
    f2_init: float
    rows: list = field(default_factory=list)

    def f1_at(self, tick: int) -> float:
        return self.f1_init if tick == 0 else self.rows[tick - 1].f1

    def f2_at(self, tick: int) -> float:
        return self.f2_init if tick == 0 else self.rows[tick - 1].f2


def run_toy(
    method: str = "emgd_gs",
    iterations: int = 1500,
    step: float = 2e-5,
    join_tick: int = 500,
    start=(3.0, 3.0),
    temperature: float = 1.0,
    tol: float = solver.DEFAULT_TOL,
    max_iter: int = solver.DEFAULT_MAX_ITER,
) -> ToyTrace:
    """Two synthetic objectives optimized in sequence-then-parallel.

    The first function trains alone until ``join_tick``, then the second
    joins and every update uses the configured combiner. Gradients are
    analytic; the whole run is deterministic.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}, pick one of {METHODS}")
    if iterations < 1 or join_tick < 0 or not 0 < step < math.inf:
        raise ConfigError("need iterations >= 1, join_tick >= 0 and a positive finite step, got "
                          f"iterations={iterations!r}, join_tick={join_tick!r}, step={step!r}")
    x, y = float(start[0]), float(start[1])
    trace = ToyTrace(method, (x, y), join_tick, toy_f1(x, y), toy_f2(x, y))
    state = solver.ElasticState(temperature=temperature)
    for tick in range(1, iterations + 1):
        grads = [toy_grad_f1(x, y)]
        if tick > join_tick:
            grads.append(toy_grad_f2(x, y))
        grads = np.negative(grads)  # the bundle holds negative gradients
        bundle = solver.GradientBundle((1, 2)[:len(grads)], grads)
        result, sigma = solver.combine(method, bundle, state, tol, max_iter)
        d = result.direction
        dd = result.objective
        margin = min(float(g @ d) - float(s) * dd for g, s in zip(grads, sigma))
        x += step * float(d[0])
        y += step * float(d[1])
        trace.rows.append(
            ToyRow(
                tick,
                x,
                y,
                toy_f1(x, y),
                toy_f2(x, y),
                float(np.sqrt(dd)),
                tuple(float(v) for v in result.lam),
                tuple(float(v) for v in sigma),
                margin,
            )
        )
    return trace


@dataclass
class ProbeReport:
    final_direction_norm: float
    min_direction_norm: float
    nonincrease_fraction: float


def convergence_probe(trace: ToyTrace) -> ProbeReport:
    """Direction-norm summary plus the fraction of ticks where every loss
    that was active at consecutive ticks did not increase."""
    rows = trace.rows
    if not rows:
        raise IncompleteMatrixError("empty log")

    def losses(r: ToyRow) -> tuple:
        return (r.f1, r.f2) if r.tick > trace.join_tick else (r.f1,)

    # f1 is active at every tick, so every consecutive pair shares a loss
    good = sum(all(cur <= prev + 1e-15 for prev, cur in zip(losses(a), losses(b)))
               for a, b in zip(rows, rows[1:]))
    return ProbeReport(
        final_direction_norm=float(rows[-1].d_norm),
        min_direction_norm=float(min(r.d_norm for r in rows)),
        nonincrease_fraction=good / (len(rows) - 1) if len(rows) > 1 else 1.0,
    )


# --- the full multi-stream loop ----------------------------------------------


def _evaluate(net: Network, specs_by_id: dict, seen: list):
    """Accuracies per seen task: (task-incremental, class-incremental).

    Each task's test features are scored once against every created head's
    columns side by side; the task's own column block gives the
    task-incremental prediction and the argmax over all columns the
    class-incremental one, whose winning column must carry the sample's
    true global class."""
    task_acc, class_acc = {}, {}
    head_tasks = [t for t in seen if t in net.heads]
    heads = [net.head(t) for t in head_tasks]
    W_all = np.concatenate([W for W, _ in heads], axis=1)
    b_all = np.concatenate([b for _, b in heads])
    column_globals = np.asarray([c for t in head_tasks for c in specs_by_id[t].label_set])
    lo = 0
    for t, (W, _) in zip(head_tasks, heads):
        spec, hi = specs_by_id[t], lo + W.shape[1]
        if spec.test_inputs.shape[0] == 0:
            task_acc[t] = class_acc[t] = 0.0
        else:
            logits = features(net, spec.test_inputs) @ W_all
            logits += b_all
            task_acc[t] = float((logits[:, lo:hi].argmax(axis=1) == spec.test_local).mean())
            winners = column_globals[logits.argmax(axis=1)]
            class_acc[t] = float((winners == spec.test_labels).mean())
        lo = hi
    return task_acc, class_acc


@dataclass
class PclResult:
    matrix_task: AccuracyMatrix
    matrix_class: AccuracyMatrix
    tick_rows: list
    buffer: MemoryBuffer
    net: Network
    timeline: TaskTimeline


def run_pcl(specs, timeline: TaskTimeline, net: Network, buffer: MemoryBuffer,
            cfg: RunConfig) -> PclResult:
    """Train over the timeline and record accuracies and a tick log.

    Per tick, draw a batch per active stream and make one pass over them all
    (``stream_gradients``): each head steps with its own gradient, and each
    stream's backbone gradient is read at the stepped heads. The memory
    stream, live once the buffer holds a finished task's data, routes each
    row through its task's head. The negated gradients are combined per
    ``cfg.method``, the backbone steps, and editing (when enabled) rewrites
    the sampled slots. A task's training data enters the buffer at its
    finish tick.
    """
    specs_by_id = {spec.task_id: spec for spec in specs}
    if set(specs_by_id) != {t for t, _, _ in timeline.entries}:
        raise ConfigError("timeline tasks do not match the provided specs")
    mem_batch_size = cfg.memory_batch_size or cfg.batch_size
    cursors = {
        spec.task_id: TaskCursor(spec, cfg.epochs, cfg.seed) for spec in specs
    }
    rng_sample = substream(cfg.seed, "memory-sample")
    rng_reservoir = substream(cfg.seed, "reservoir")
    state = solver.ElasticState(temperature=cfg.temperature)
    finish_ticks = timeline.finish_ticks()
    matrix_task = AccuracyMatrix(finish_ticks, timeline.final_tick)
    matrix_class = AccuracyMatrix(finish_ticks, timeline.final_tick)
    tick_rows = []
    seen: list = []
    edit_cfg = cfg.edit_config()
    memory_head_step = 0.0 if cfg.freeze_finished_heads else cfg.gamma_heads

    for tick in range(timeline.first_tick, timeline.final_tick + 1):
        active = streams.active_tasks(timeline, tick, any_finished=buffer.occupancy > 0)
        real_tasks = sorted(t for t in active if t != 0)
        for t in real_tasks:
            if t not in seen:
                seen.append(t)
                if t not in net.heads:
                    add_head(net, t, specs_by_id[t].class_count,
                             streams.derive_seed(cfg.seed, "head", t))

        task_ids, tick_streams, mem = [0] * (0 in active) + real_tasks, [], None
        if 0 in active:
            mem = rehearsal.sample_memory(buffer, mem_batch_size, rng_sample)
            tick_streams.append((mem.inputs, mem.labels, mem.task_ids, memory_head_step))
        for t in real_tasks:
            batch = streams.next_batch(specs_by_id[t], cfg.batch_size, cursors[t])
            tick_streams.append((batch.inputs, batch.labels, t, cfg.gamma_heads))

        grads, losses, _ = stream_gradients(net, tick_streams)
        np.negative(grads, out=grads)  # the bundle holds negative gradients
        try:
            bundle = solver.GradientBundle(tuple(task_ids), grads)
            result, sigma = solver.combine(cfg.method, bundle, state, cfg.tol, cfg.max_iter)
        except NumericError as err:
            raise NumericError(str(err), tick=tick) from None
        if not result.converged:
            log.warning("tick %d: combination solve hit max_iter, using best iterate", tick)
        if not np.all(np.isfinite(result.direction)):
            raise NumericError("non-finite update direction", tick=tick)

        apply_update(net, result.direction, cfg.gamma)

        edit_objective = ""
        if mem is not None and cfg.editing != "none":
            edit = (rehearsal.edit_memory_emgd if cfg.editing == "emgd"
                    else rehearsal.edit_memory_gmed)
            before = edit(buffer, net, mem, result.direction, edit_cfg)
            after = rehearsal.editing_objective(net, mem.inputs, mem, result.direction)
            edit_objective = f"{before:.6e}->{after:.6e}"

        finishing = [t for t, e in finish_ticks.items() if e == tick]
        for t in finishing:
            spec = specs_by_id[t]
            batch = Batch(spec.train_inputs, spec.train_local, t)
            rehearsal.insert(buffer, batch, spec.train_labels, rng_reservoir)

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

        want_eval = bool(finishing) or tick == timeline.final_tick
        if cfg.eval_every and (tick - timeline.first_tick) % cfg.eval_every == 0:
            want_eval = True
        if want_eval:
            task_acc, class_acc = _evaluate(net, specs_by_id, seen)
            for t, acc in task_acc.items():
                matrix_task.record(t, tick, acc)
            for t, acc in class_acc.items():
                matrix_class.record(t, tick, acc)

    return PclResult(matrix_task, matrix_class, tick_rows, buffer, net, timeline)


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


def toy_summary(trace: ToyTrace, iterations: int) -> dict:
    probe = convergence_probe(trace)
    joined = trace.join_tick <= len(trace.rows)
    return {
        "method": trace.method,
        "start": list(trace.start),
        "join_tick": trace.join_tick,
        "iterations": iterations,
        "f1_initial": trace.f1_init,
        "f2_initial": trace.f2_init,
        "f1_at_join": trace.f1_at(trace.join_tick) if joined else None,
        "f2_at_join": trace.f2_at(trace.join_tick) if joined else None,
        "f1_final": trace.rows[-1].f1,
        "f2_final": trace.rows[-1].f2,
        "final_direction_norm": probe.final_direction_norm,
        "min_direction_norm": probe.min_direction_norm,
        "loss_nonincrease_fraction": probe.nonincrease_fraction,
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
    """Metrics JSON: headline A/F for ``cfg.eval_mode``, both modes nested."""
    docs = {}
    for mode, matrix in (("task", result.matrix_task), ("class", result.matrix_class)):
        a_final, f_final = compute_metrics(matrix)
        docs[mode] = {
            "A_final": a_final,
            "F_final": f_final,
            "per_task": {
                str(t): {
                    "at_finish": matrix.at(t, matrix.finish_ticks[t]),
                    "final": matrix.at(t, matrix.final_tick),
                }
                for t in matrix.tasks()
            },
        }
    head = dict(docs[cfg.eval_mode])
    head.update(
        {
            "eval_mode": cfg.eval_mode,
            "method": cfg.method,
            "editing": cfg.editing,
            "seed": cfg.seed,
            "modes": docs,
        }
    )
    return head


def dump_json(doc: dict, path) -> None:
    from pathlib import Path

    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
