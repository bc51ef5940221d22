"""A fixed host-speed probe, timed between blocks of benchmark work.

The benchmark runs on a shared host whose speed drifts by a quarter or more
within minutes, while the runner's own process keeps its CPU the whole time:
neighbours slow it through the caches and cores they share, not by taking
its CPU away. ``Probe`` runs the same numpy and Python work every time and
uses no emgd code, so a change to the program never moves it; only the host
does. The runner divides each block's times by the probe time measured
around that block and multiplies by ``NOMINAL_S``, the probe's time on the
reference host, so reported times read as reference-host times.

The work mixes what the workloads spend their time on: small dense matmuls
of an MLP forward and backward pass at batch 32 (net 64-256-64); the Gram
matrix, combination and update of 8 gradients of the backbone's size
(D = 33,088, 2 MiB, so cache pressure from neighbours shows); a 256 x 1024
Gram matrix and solve; and per-call Python overhead on tiny arrays, as in
the solver's k <= 2 calls and the toy. A mix tracks each workload's own
slowdown better than any one part does.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the reference host (the 2-vCPU Xeon of
# reference.json), one BLAS thread.
NOMINAL_S = 0.12

_BATCH, _IN, _HIDDEN, _OUT = 32, 64, 256, 64
_MLP_REPS = 200
_BUNDLE_SHAPE, _BUNDLE_REPS = (8, 33088), 60
_GRAM_SHAPE, _GRAM_REPS = (256, 1024), 6
_PYTHON_REPS = 1500


class Probe:
    """Fixed inputs, made once; ``seconds()`` times one pass over them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((_BATCH, _IN))
        self.w1 = 0.1 * rng.standard_normal((_IN, _HIDDEN))
        self.w2 = 0.1 * rng.standard_normal((_HIDDEN, _OUT))
        self.bundle = rng.standard_normal(_BUNDLE_SHAPE) / np.sqrt(_BUNDLE_SHAPE[1])
        self.wide = rng.standard_normal(_GRAM_SHAPE) / np.sqrt(_GRAM_SHAPE[1])

    def _work(self) -> float:
        x, w1, w2 = self.x, self.w1, self.w2
        total = 0.0
        for _ in range(_MLP_REPS):
            h = np.maximum(x @ w1, 0.0)
            gy = h @ w2 - 1.0
            gh = (gy @ w2.T) * (h > 0.0)
            flat = np.concatenate([(x.T @ gh).ravel(), (h.T @ gy).ravel()])
            total += float(flat @ flat)
        bundle = self.bundle
        for _ in range(_BUNDLE_REPS):
            gram = bundle @ bundle.T
            direction = (gram.sum(axis=0) / gram.trace()) @ bundle
            total += float((bundle[0] - 0.01 * direction) @ direction)
        wide = self.wide
        eye = np.eye(_GRAM_SHAPE[0])
        for _ in range(_GRAM_REPS):
            gram = wide @ wide.T
            total += float(np.linalg.solve(gram + eye, gram[0]).sum())
        point = np.zeros(2)
        for i in range(_PYTHON_REPS):
            point = 0.5 * (point + np.array([0.001 * i, 1.0]))
            row = {"step": i, "x": float(point[0]), "y": float(point[1])}
            total += len(f"{row['step']},{row['x']:.6g},{row['y']:.6g}")
        return total

    def seconds(self) -> float:
        start = time.perf_counter()
        result = self._work()
        elapsed = time.perf_counter() - start
        if not np.isfinite(result):
            raise ArithmeticError("host probe produced a non-finite value")
        return elapsed
