#!/usr/bin/env python3
"""Write perfbench/reference.json: the environment the reference was taken
in, the sha256 of unit 0's output files for every workload at the reference
seed, and the solve_sweep failure breakdown per (k, scale).

    python3 perfbench/reference.py

The hashes pin the program's exact behaviour at one BLAS thread; a change
that should not alter behaviour reproduces them, and ``run.py`` says whether
unit 0 matches when it runs with ``--seed 0``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys

import run  # first: it pins the BLAS threads before numpy loads

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# solve_sweep rounds recorded: 20 x 12 cases = 240 requests
SOLVE_ROUNDS = 20


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main() -> int:
    modules = run.load_emgd()
    seed = run.REFERENCE_SEED
    doc = {"seed": seed, "environment": environment(), "workloads": {}}
    for name in run.WORKLOADS:
        work = run.OUT / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            workload = workloads.make(name, modules, work)
            workload.setup(seed)
            rounds = SOLVE_ROUNDS if name == "solve_sweep" else 1
            with run.clock_for(workload) as clock:
                units = [workload.run_unit(i, clock, seed) for i in range(rounds)]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        entry = {"hashes": units[0].hashes,
                 "quality": statistics.fmean(u.quality for u in units),
                 "failed": sum(u.failed for u in units),
                 "attempted": sum(u.ops for u in units)}
        breakdown = run.merge_breakdown(units)
        if breakdown:
            entry["breakdown"] = {
                case: dict(zip(("requests", "nonconverged", "cert_violations"), counts))
                for case, counts in breakdown.items()}
        doc["workloads"][name] = entry
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
