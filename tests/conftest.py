"""Loaded before any test module: ``emgd`` is imported first, so its
one-BLAS-thread default holds for the whole run, as it does for the ``emgd``
command. OpenBLAS reads its thread count once, when numpy first loads it."""

import emgd  # noqa: F401  before numpy
