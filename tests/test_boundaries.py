"""Module boundaries of ``emgd``: no module imports another's private names,
and the task streams load without the network."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import emgd


def test_no_private_imports_and_streams_load_without_net():
    src = Path(emgd.__file__).resolve().parent
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("emgd")):
                private += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                            f"import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src.parent), env.get("PYTHONPATH")]))
    loaded = subprocess.run([sys.executable, "-c",
                             "import sys, emgd.streams; print(*sys.modules, sep='\\n')"],
                            env=env, check=True, capture_output=True, text=True).stdout.split()
    assert "emgd.streams" in loaded and "emgd.net" not in loaded
