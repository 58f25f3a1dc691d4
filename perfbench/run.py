"""Seeded benchmark of the infosale library.

    python3 perfbench/run.py --workload menu-pool --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One process and one thread make every call, each after the previous one
returns (a closed loop with one client). Set-up turns the seed into the
workload's passes; a pass is a fixed list of items, and an item is one
library call with the checks on its output. With --trace 0 the run starts
passes until --seconds have gone by and reports the end-to-end metrics.
With --trace 1 it runs a fixed number of passes with every wrapped library
call recorded as a span, and reports the per-layer metrics instead, so the
counts repeat exactly at one seed. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. `--workload all` runs
each workload untraced and traced in child processes and prints both with
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

# Passes set up per run: two to three times what a 30-second run of the seed
# commit finishes. A run that uses them all ends early.
MAX_PASSES = {"menu-pool": 40, "probr-large": 50, "live-pipeline": 40}
# Passes of a traced run: about 30 seconds of the seed commit.
TRACE_PASSES = {"menu-pool": 12, "probr-large": 15, "live-pipeline": 15}
SETUP_REPEATS = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit()}


def set_up(name: str, seed: int, workdir: Path):
    """Set the workload up SETUP_REPEATS times; returns the last one and the
    median set-up time. Each time includes a fresh interpreter importing the
    library, input generation, file and stream writing, and a warm-up solve."""
    from workloads import WORKLOADS
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import infosale"], env=env, check=True)
        workload = WORKLOADS[name](seed, workdir, MAX_PASSES[name])
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def measure(workload, seconds: float, passes: int | None, tracer=None) -> dict:
    """Run passes until `seconds` have gone by, or exactly `passes` of them."""
    stats = {"pass_wall": [], "pass_cpu": [], "latency": [], "sim_trials": 0,
             "sim_s": 0.0, "attempted": 0, "failed": 0, "problems": []}
    deadline = time.perf_counter() + seconds
    plan = workload.passes if passes is None else workload.passes[:passes]
    for k, units in enumerate(plan):
        if passes is None and k > 0 and time.perf_counter() >= deadline:
            break
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for unit in units:
            start = time.perf_counter()
            span = None
            if tracer is not None:
                tracer.item = stats["attempted"]
                span = tracer.begin(f"bench.{unit.kind}")
            try:
                problems = unit.run()
            except Exception as exc:  # an item that raises is a failed item
                problems = [f"{type(exc).__name__}: {exc}"]
            finally:
                if span is not None:
                    tracer.end(span)
            elapsed = time.perf_counter() - start
            stats["attempted"] += 1
            if problems:
                stats["failed"] += 1
                stats["problems"].append(f"pass {k} {unit.kind}: {'; '.join(problems)}")
            if unit.timed:
                stats["latency"].append(elapsed)
            if unit.trials:
                stats["sim_trials"] += unit.trials
                stats["sim_s"] += elapsed
        stats["pass_wall"].append(time.perf_counter() - wall0)
        stats["pass_cpu"].append(time.process_time() - cpu0)
    stats["problems"] += workload.finish()
    return stats


def _report(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}".rstrip())


def run_one(args) -> int:
    if not (SRC / "infosale" / "__init__.py").is_file():
        print(f"error: the infosale sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        try:
            stats = measure(workload, args.seconds,
                            TRACE_PASSES[args.workload] if args.trace else None, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latency = stats["latency"]
    passes = len(stats["pass_wall"])
    print(f"# {args.workload} trace={args.trace} passes={passes} items={stats['attempted']}")
    print("# provenance " + json.dumps(provenance(args.seed)))
    for problem in stats["problems"][:20]:
        print(f"# FAILED {problem}")
    correct = not stats["problems"]
    if args.trace:
        layers = tracing.layer_metrics(tracer, stats["pass_wall"])
        absent = sorted({m for m, (_, _, src) in layers.items() if src in tracer.absent})
        self_total = sum(layers[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        top = layers["bench.top_s"][0]
        if abs(self_total - top) > 1e-6 * max(1.0, top):
            correct = False
            print(f"# FAILED layer self times add up to {self_total!r}, not {top!r}")
        for name, (value, unit, src) in layers.items():
            _report(name, value, unit, "absent" if name in absent else "")
        print(f"  layer self times add up to {self_total:.6f} s of {top:.6f} s in items")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl", "w",
                  encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "item": span.item, "error": span.error,
                                     **span.attrs}) + "\n")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(stats["pass_wall"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(stats["pass_cpu"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "item_s_p50": {"value": statistics.median(latency), "unit": "s"},
        }
        for name, m in metrics.items():
            _report(name, m["value"], m["unit"], f"n={len(latency)}" if name == "item_s_p50" else "")
        _report("fail_ratio", stats["failed"] / stats["attempted"], "ratio")
        p90 = statistics.quantiles(latency, n=10)[-1] if len(latency) > 1 else latency[0]
        beyond = sum(x > p90 for x in latency)
        _report("item_s_p90", p90, "s", f"n={len(latency)}, {beyond} beyond"
                + ("" if beyond >= 10 else "; too few beyond to report"))
        if stats["sim_trials"]:
            _report("sim_trials_per_s", stats["sim_trials"] / stats["sim_s"], "1/s")
    print(json.dumps({"correct": correct, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload untraced, then traced, in its own child process."""
    status = 0
    for name in ("menu-pool", "probr-large", "live-pipeline"):
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            status |= not results[-1]["correct"]
        untraced = results[0]["metrics"]["wall_s"]["value"]
        traced = results[1]["metrics"]["bench.wall_s"]["value"]
        print(f"# {name} tracing overhead: wall_s {traced - untraced:+.4f} s "
              f"({(traced - untraced) / untraced:+.1%}) traced vs untraced\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["menu-pool", "probr-large", "live-pipeline", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
