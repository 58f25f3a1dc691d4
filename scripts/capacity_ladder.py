"""Capacity ladder of a solver: the largest instance solve_cm_probr (or
solve_cm_depr, or solve_single_round) finishes within a time budget.

The ladder walks fixed (states, types, actions, budgets) sizes, RUNGS and
then the solver's MORE_RUNGS, solving 3 seeded draws of perfbench's
exact_instance per rung (correlated for probr, independent for the others),
each in a child process stopped soon after the budget. It stops after the
first rung whose median time exceeds the budget and prints one JSON object:
the commit of the infosale its children import, the host, and per rung the
median seconds, the first LP's rows, columns and nonzeros, and per draw the
seconds, lpcore.linprog calls, and over those calls the HiGHS runs, the most
rows HiGHS held at an optimum and the simplex iterations, and the
verify_all verdict.

    PYTHONPATH=src python scripts/capacity_ladder.py --budget-s 60 --seed 1
    PYTHONPATH=src python scripts/capacity_ladder.py --solver depr --seed 1
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNGS = ((4, 4, 4, 3), (5, 5, 5, 3), (6, 6, 5, 4), (7, 7, 5, 4), (8, 8, 6, 4),
         (10, 10, 6, 5), (10, 12, 8, 5), (12, 12, 8, 6))
# past (12, 12, 8, 6) each solver climbs its own rungs, to a top one that takes
# 60-100 s with a child under 2 GB: depr's epigraphs are one per (type,
# report) and probr's one per (entry, report), so probr's whole LP has 10.7
# million nonzeros at (14, 14, 8, 7), depr's 20.0 million at (16, 28, 12, 10)
MORE_RUNGS = {"probr": ((14, 14, 8, 7),),
              "depr": ((16, 16, 10, 8), (20, 20, 12, 8), (16, 28, 12, 10))}
# each LP of single-round's search is a deposit-family LP of depr's size
MORE_RUNGS["single-round"] = MORE_RUNGS["depr"]
SOLVE = {"probr": "solve_cm_probr", "depr": "solve_cm_depr",
         "single-round": "solve_single_round"}
DRAWS = 3
CHILD_ALLOWANCE_S = 10.0


def solve_one(solver: str, size, seed: int, draw: int) -> None:
    """Solve one draw in this process. Prints two JSON lines: the whole LP's
    size, read from the arguments of the solver's first lpcore.linprog call
    (first, so that a child stopped at the budget still reports it), then
    the solve's seconds, its linprog calls, the HiGHS runs, most rows and
    simplex iterations read from their results, and verify_all verdict.

    Only the children import the library, so the ladder itself starts fast.
    """
    import numpy as np

    import infosale
    from infosale import lpcore
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import exact_instance

    inst = exact_instance(np.random.default_rng([seed, draw, *size]), size,
                          correlated=solver == "probr")
    linprog = lpcore.linprog
    runs = dict.fromkeys(("calls", "rounds", "model_rows", "iterations"), 0)

    def sized_linprog(c, **program):
        if not runs["calls"]:
            matrices = [program[k] for k in ("A_ub", "A_eq") if program.get(k) is not None]
            print(json.dumps({"entries": len(infosale.prior_view(inst).index),
                              "rows": sum(a.shape[0] for a in matrices), "cols": len(c),
                              "nnz": sum(a.nnz for a in matrices)}), flush=True)
        result = linprog(c, **program)
        runs.update(calls=runs["calls"] + 1, rounds=runs["rounds"] + result.rounds,
                    model_rows=max(runs["model_rows"], result.rows),
                    iterations=runs["iterations"] + result.nit)
        return result

    lpcore.linprog = sized_linprog
    start = time.perf_counter()
    mech = getattr(infosale, SOLVE[solver])(inst)
    seconds = time.perf_counter() - start
    report = infosale.verify_all(mech, inst, eps=0.0, tol=1e-6)
    print(json.dumps({"seconds": seconds, **runs, "verdict": "pass" if report.passed else
                      "fail: " + ", ".join(c.name for c in report.checks if not c.passed)}))


def _child(solver: str, size, seed: int, draw: int, budget: float) -> dict:
    """One draw in a child process, stopped after the budget plus
    CHILD_ALLOWANCE_S for its import, assembly and verification."""
    argv = [sys.executable, __file__, "--solver", solver, "--solve", ",".join(map(str, size)),
            "--seed", str(seed), "--draw", str(draw)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=budget + CHILD_ALLOWANCE_S)
        stdout = done.stdout
        verdict = None if done.returncode == 0 else "error: " + (
            done.stderr.strip().splitlines() or ["no output"])[-1]
    except subprocess.TimeoutExpired as stopped:
        stdout = stopped.stdout or ""
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
        verdict = f"stopped after {budget + CHILD_ALLOWANCE_S:g} s"
    out = {"seconds": None}
    for line in stdout.splitlines():
        out.update(json.loads(line))
    if verdict:
        out["verdict"] = verdict
    return out


def _commit() -> str | None:
    """The commit of the infosale a child imports, read without importing it."""
    spec = importlib.util.find_spec("infosale")
    if spec is None or spec.origin is None:
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=Path(spec.origin).parent)
    except OSError:
        return None
    return done.stdout.strip() or None


def ladder(budget: float, seed: int, solver: str = "probr") -> dict:
    out = []
    for size in RUNGS + MORE_RUNGS[solver]:
        draws = []
        for draw in range(DRAWS):
            draws.append(_child(solver, size, seed, draw, budget))
            over = [d["seconds"] is None or d["seconds"] > budget for d in draws]
            if sum(over) > DRAWS // 2:      # the median is over already
                break
        seconds = [d["seconds"] if d["seconds"] is not None else float("inf") for d in draws]
        seconds += [float("inf")] * (DRAWS - len(draws))
        median = statistics.median(seconds)
        out.append({"size": list(size),
                    **{k: draws[0].get(k) for k in ("entries", "rows", "cols", "nnz")},
                    "median_s": median if median != float("inf") else None,
                    "seconds": [d["seconds"] for d in draws],
                    **{k: [d.get(k) for d in draws]
                       for k in ("calls", "rounds", "model_rows", "iterations")},
                    "verdicts": [d["verdict"] for d in draws]})
        if median > budget:
            break
    solved = [r for r in out if r["median_s"] is not None and r["median_s"] <= budget]
    return {"solver": solver, "budget_s": budget, "seed": seed, "commit": _commit(),
            "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                     "python": platform.python_version(),
                     **{name: importlib.metadata.version(name) for name in ("numpy", "scipy")}},
            "largest_solved": solved[-1]["size"] if solved else None, "rungs": out}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--budget-s", type=float, default=60.0,
                        help="seconds allowed per solve (default 60)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--solver", choices=tuple(SOLVE), default="probr",
                        help="solve_cm_probr on correlated draws (default), or "
                             "solve_cm_depr or solve_single_round on independent ones")
    parser.add_argument("--solve", help=argparse.SUPPRESS)
    parser.add_argument("--draw", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.solve:
        solve_one(args.solver, tuple(int(k) for k in args.solve.split(",")), args.seed,
                  args.draw)
    else:
        print(json.dumps(ladder(args.budget_s, args.seed, args.solver), indent=1))


if __name__ == "__main__":
    main()
