"""Smoke test: the demos that walk through tree enumeration, the
counting inequalities on forest classes and the decomposition APIs run to
completion."""

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
        "03_counting_inequalities.py",
        "04_partition_functions.py",
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
