"""Smoke runs of the example scripts: each finishes and exits 0."""

import importlib.util
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


def test_capacity_ladder_runs_its_first_rung(monkeypatch):
    # the ladder walks its first rung only, for each solver; its children
    # take their size through --solve and never read RUNGS
    spec = importlib.util.spec_from_file_location("capacity_ladder",
                                                  ROOT / "scripts" / "capacity_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    monkeypatch.setattr(ladder, "RUNGS", ladder.RUNGS[:1])
    monkeypatch.setattr(ladder, "MORE_RUNGS", dict.fromkeys(ladder.SOLVE, ()))
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    for solver in ladder.SOLVE:
        result = ladder.ladder(budget=60.0, seed=1, solver=solver)
        (rung,) = result["rungs"]
        assert result["solver"] == solver
        assert rung["size"] == [4, 4, 4, 3] and rung["verdicts"] == ["pass"] * 3
        assert rung["rows"] > 0 and rung["median_s"] < 5
        assert all(k >= 1 for k in rung["calls"]) and all(k >= 1 for k in rung["rounds"])
        assert all(k <= rung["rows"] for k in rung["model_rows"])
        assert all(k > 0 for k in rung["iterations"])
