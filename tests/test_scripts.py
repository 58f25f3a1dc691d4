"""Smoke runs of the example scripts: each finishes and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["treasure_box_demo.py"],
    ["revenue_comparison.py", "--instances", "3"],
    ["sampling_convergence.py", "--grid", "200", "--reps", "2"],
])
def test_script_runs(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
