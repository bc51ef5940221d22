"""Elastic multi-gradient descent for parallel continual learning.

Subpackages:
  solver      Pareto descent direction solvers with elastic factors.
  net         Minimal dense network engine (backbone + per-task heads).
  streams     Parallel-split task streams, timelines and loaders.
  rehearsal   Class-balanced memory buffer with gradient-guided editing.
  experiment  Training loop, toy problem and continual-learning metrics.
  cli         Command-line front end.
"""

import os

# Importing the package, before numpy, sets BLAS to one thread unless the
# environment names a count: outputs are byte-identical only at a fixed count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
