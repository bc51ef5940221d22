"""The traced benchmark patches every import site of a function listed in
``perfbench/tracing.py``'s ``SITES``; each site must still hold the function
its defining site holds, or the traced run stops with an error."""

import importlib.util
from pathlib import Path

import pytest

import emgd.cli
import emgd.experiment
import emgd.net
import emgd.rehearsal
import emgd.solver
import emgd.streams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the module table perfbench/run.py hands to the tracer
MODULES = {"cli": emgd.cli, "experiment": emgd.experiment, "net": emgd.net,
           "rehearsal": emgd.rehearsal, "solver": emgd.solver, "streams": emgd.streams,
           "Network": emgd.net.Network}


def load_sites() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SITES


SITES = load_sites()


@pytest.mark.parametrize("name", sorted(SITES))
def test_every_site_holds_the_defining_function(name):
    (home, attr), *others = SITES[name]
    original = getattr(MODULES[home], attr)
    assert callable(original)
    for module, attr in others:
        assert getattr(MODULES[module], attr, None) is original, f"{module}.{attr}"
