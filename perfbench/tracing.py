"""Outside-in tracing of the emgd modules for the benchmark's traced run.

The tracer replaces public functions of the emgd modules with wrappers that
record one span per call: name, start, end and the index of the enclosing
span. Spans stay in memory and are written once, when the run ends. A name
that another module imported by value (``from .net import backward``) is a
separate module attribute, so every import site of a function gets the same
wrapper; patching ``emgd.net`` alone would miss the calls made from
``emgd.experiment`` and ``emgd.rehearsal``.

The program itself is not changed; the wrappers are removed on exit.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# Tolerance of the scale-relative Pareto certificate
#   min_i <g_i, d> - sigma_i ||d||^2 >= -CERT_TOL * max_i ||g_i||^2,
# equal to the solver's default stopping tolerance.
CERT_TOL = 1e-8

# span name -> every (module, attribute) that holds the function. The first
# site is the defining one.
SITES = {
    "cli.main": [("cli", "main")],
    "experiment.run_pcl": [("experiment", "run_pcl")],
    "experiment.run_toy": [("experiment", "run_toy")],
    "experiment.toy_trace_csv": [("experiment", "toy_trace_csv")],
    "experiment.tick_log_csv": [("experiment", "tick_log_csv")],
    "experiment.metrics_document": [("experiment", "metrics_document")],
    "streams.synthetic_dataset": [("streams", "synthetic_dataset")],
    "streams.build_parallel_split": [("streams", "build_parallel_split")],
    "streams.next_batch": [("streams", "next_batch")],
    "net.backward": [("net", "backward"), ("experiment", "backward"),
                     ("rehearsal", "backward")],
    "net.input_gradient": [("net", "input_gradient"), ("rehearsal", "input_gradient")],
    "net.edit_direction": [("net", "edit_direction"), ("rehearsal", "edit_direction")],
    "net.apply_update": [("net", "apply_update"), ("experiment", "apply_update")],
    "net.features": [("net", "features"), ("experiment", "features")],
    "net.head_logits": [("net", "head_logits"), ("experiment", "head_logits")],
    "net.set_backbone_flat": [("Network", "set_backbone_flat")],
    "rehearsal.sample_memory": [("rehearsal", "sample_memory")],
    "rehearsal.insert": [("rehearsal", "insert")],
    "rehearsal.memory_gradient": [("rehearsal", "memory_gradient")],
    "rehearsal.editing_objective": [("rehearsal", "editing_objective")],
    "rehearsal.edit_memory_emgd": [("rehearsal", "edit_memory_emgd")],
    "solver.GradientBundle": [("solver", "GradientBundle")],
    "solver.elastic_factors_gs": [("solver", "elastic_factors_gs")],
    "solver.solve_emgd": [("solver", "solve_emgd")],
}


def certificate_margin(grads: np.ndarray, sigma: np.ndarray, direction: np.ndarray) -> float:
    """min_i <g_i, d> - sigma_i ||d||^2 divided by max_i ||g_i||^2."""
    dd = float(direction @ direction)
    scale = float(np.max(np.einsum("ij,ij->i", grads, grads)))
    margin = float(np.min(grads @ direction - sigma * dd))
    return margin / scale if scale > 0 else margin


class Tracer:
    """Span recorder; use as a context manager around the traced work."""

    def __init__(self, modules: dict):
        self.modules = modules
        # one span: [name, start, end, parent index (-1 for a root), tag]
        self.spans: list = []
        self.solves: list = []  # (k, iterations, converged, relative margin)
        self.memory_groups: list = []  # task groups per sampled memory batch
        self.occupancy_final = 0
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                self._check(observe, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _check(self, observe, span, args, result) -> None:
        # bookkeeping gets its own span so it is not billed to the caller
        check = ["trace.check", time.perf_counter(), 0.0, span[3], None]
        self.spans.append(check)
        observe(self, span, args, result)
        check[2] = time.perf_counter()

    def _observe_solve(self, span, args, result) -> None:
        bundle, sigma = args[0], args[1]
        sigma = getattr(sigma, "sigma", sigma)
        span[4] = bundle.size
        margin = certificate_margin(bundle.grads, np.asarray(sigma), result.direction)
        self.solves.append((bundle.size, result.iterations, bool(result.converged), margin))

    def _observe_sample(self, span, args, result) -> None:
        self.memory_groups.append(len(np.unique(result.task_ids)))

    def _observe_run_pcl(self, span, args, result) -> None:
        self.occupancy_final = result.buffer.occupancy

    def __enter__(self):
        observers = {
            "solver.solve_emgd": Tracer._observe_solve,
            "rehearsal.sample_memory": Tracer._observe_sample,
            "experiment.run_pcl": Tracer._observe_run_pcl,
        }
        for name, sites in SITES.items():
            home, attr = sites[0]
            original = getattr(self.modules[home], attr)
            wrapper = self._wrap(name, original, observers.get(name))
            for module, attr in sites:
                owner = self.modules[module]
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{module}.{attr} is not the function {name}")
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                own[s[3]] -= d
        return own

    def root_time(self) -> float:
        return float(sum(s[2] - s[1] for s in self.spans if s[3] < 0))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[0]},{s[1]!r},{s[2]!r},{s[3]}\n")


def _has_ancestor(spans, index: int, prefix: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def span_totals(tracer: Tracer):
    """Per span name: call count and summed self time.

    ``net.backward`` is split by caller: under a rehearsal function it is a
    memory-stream pass, otherwise a task-stream pass. ``solver.solve_emgd``
    self time is also split by the bundle size k.
    """
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    own = tracer.self_times()
    for i, span in enumerate(tracer.spans):
        name = span[0]
        if name == "net.backward":
            name += ".memory" if _has_ancestor(tracer.spans, i, "rehearsal.") else ".task"
        elif name == "solver.solve_emgd":
            self_s[f"{name}.k{span[4]}"] += own[i]
        calls[name] += 1
        self_s[name] += own[i]
    return calls, self_s
