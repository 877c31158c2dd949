"""Smoke test: every demo (tree enumeration, random forests, the counting
inequalities on forest classes, the decomposition APIs and the optimizer)
runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_trees_and_automorphisms.py",
        "02_random_forests.py",
        "03_counting_inequalities.py",
        "04_partition_functions.py",
        "05_optimization.py",
    ],
)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
