"""Golden runs: committed outputs of fixed commands, rerun and compared.

``golden_runs.json`` declares each case's config files and ``emgd``
commands, and holds what they wrote: the sha256 and the parsed values of
every ``tick_log.csv``, ``metrics.json``, ``toy_trace.csv`` and
``toy_summary.json``. The cases are CI's small split and the benchmark's
8-task split (editing ``none`` and ``emgd``), and a 600-step toy per method.

The bytes depend on the BLAS kernel and thread count as well as on the
code, so the fixture records the OpenBLAS core and thread count it was made
under. Where both match, the rerun must write the same bytes. Elsewhere, or
where they cannot be read, every number must lie within ``RTOL`` of the
recorded one, everything between the numbers must be unchanged, and
``metrics.json`` must still be equal.

A refactor leaves the fixture as it is. A change that means to change
outputs regenerates it, at one BLAS thread, with

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import emgd  # before numpy: pins BLAS to one thread unless the environment names a count
import numpy as np
import pytest

from emgd.cli import main

FIXTURE = Path(__file__).with_name("golden_runs.json")
OUTPUTS = ("tick_log.csv", "metrics.json", "toy_trace.csv", "toy_summary.json")
RTOL = 1e-12  # about 500 times the largest change another OpenBLAS core makes
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def blas() -> dict:
    """The core name and thread count of numpy's bundled OpenBLAS, read
    through ctypes; each is "unknown" where the build exposes no such symbol."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for prefix in ("scipy_openblas_", "openblas_"):
            core = getattr(lib, f"{prefix}get_corename64_", None)
            threads = getattr(lib, f"{prefix}get_num_threads64_", None)
            if core and threads:
                core.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                return {"core": core().decode(), "threads": threads()}
    return {"core": "unknown", "threads": "unknown"}


def run_case(case: dict) -> dict:
    """Write the case's files into the working directory, run its commands
    and return what they wrote under ``OUTPUTS``' names, by relative path."""
    for name, doc in case["files"].items():
        Path(name).write_text(json.dumps(doc))
    for argv in case["commands"]:
        assert main(argv) == 0, argv
    return {path.as_posix(): path.read_bytes() for path in sorted(Path().glob("**/*"))
            if path.name in OUTPUTS}


def record(name: str, data: bytes) -> dict:
    """The sha256 and the parsed values of one output file: a JSON document
    whole; a CSV as its numbers, line by line, and the sha256 of the text
    between them."""
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    text = data.decode()
    if name.endswith(".json"):
        entry["doc"] = json.loads(text)
    else:
        entry["form_sha256"] = hashlib.sha256(NUMBER.sub("#", text).encode()).hexdigest()
        entry["values"] = [[float(v) for v in NUMBER.findall(line)] for line in text.splitlines()]
    return entry


def close(got, want) -> bool:
    """Equal, or numbers within ``RTOL`` of each other, at every leaf."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return got == want or abs(got - want) <= RTOL * max(abs(got), abs(want))
    return got == want


GOLDEN = json.loads(FIXTURE.read_text())


def test_blas_runs_at_the_package_default():
    # conftest.py imports emgd before numpy, so where the environment names no
    # thread count, or names 1, the golden cases compare exact bytes here as in CI
    if os.environ["OPENBLAS_NUM_THREADS"] == "1":
        assert blas()["threads"] in (1, "unknown")


@pytest.mark.parametrize("case", sorted(GOLDEN["cases"]))
def test_outputs_match_the_golden_run(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    written = run_case(GOLDEN["cases"][case])
    expected = {path[len(case) + 1:]: entry for path, entry in GOLDEN["outputs"].items()
                if path.startswith(f"{case}/")}
    assert sorted(written) == sorted(expected)
    here = blas()
    exact = here == GOLDEN["blas"] and "unknown" not in here.values()
    for path, data in written.items():
        got, want = record(path, data), expected[path]
        if exact or path.endswith("metrics.json"):
            assert got["sha256"] == want["sha256"], f"{path} differs under {here}"
        else:  # another kernel or thread count reorders the float sums
            assert got.get("form_sha256") == want.get("form_sha256"), path
            assert close(got.get("values", got.get("doc")), want.get("values", want.get("doc"))), \
                f"{path} differs by more than {RTOL} relative under {here}"


def regenerate() -> None:
    """Rerun every case and rewrite the fixture's outputs and BLAS record."""
    outputs, home = {}, os.getcwd()
    for name, case in GOLDEN["cases"].items():
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                outputs.update((f"{name}/{path}", record(path, data))
                               for path, data in run_case(case).items())
            finally:
                os.chdir(home)
    text = json.dumps({"cases": GOLDEN["cases"], "blas": blas(), "outputs": outputs},
                      indent=1, sort_keys=True)
    # one line per list that holds no list or object: a CSV line's numbers, a command
    text = re.sub(r"\[\n\s*([^\[\]{}]*?)\n\s*\]", lambda m: "[" + re.sub(r",\n\s*", ", ", m[1]) + "]",
                  text)
    FIXTURE.write_text(text + "\n")


if __name__ == "__main__":
    regenerate()
