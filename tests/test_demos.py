"""The scripts in demos/ still compile, import what exists, and (the short one) run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flockctrl

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert {p.name for p in DEMOS} >= {
        "free_flight_flocking.py", "sparse_mass_control.py", "sparse_volume_control.py",
    }


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_its_flockctrl_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    compile(tree, str(path), "exec")
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flockctrl"
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_free_flight_demo_runs():
    src = str(Path(flockctrl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = next(p for p in DEMOS if p.name == "free_flight_flocking.py")
    done = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
