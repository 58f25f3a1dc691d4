"""Span recorder for the benchmark's traced runs.

The recorder wraps public infosale names by replacing the attribute in each
infosale module that holds it, so calls made inside the library are recorded
as well as the benchmark's own. No file of the library is touched. Spans stay
in memory until the run ends.

Every span belongs to a layer: the part of its name before the first dot.
A span's self time is its duration minus the time its direct children cover;
one thread makes the calls, so children never overlap and the self times of
all spans add up to the duration of the top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index of the enclosing span; -1 at top level
    item: int = -1            # the benchmark item the span belongs to
    error: str | None = None  # exception class name when the call raised
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), parent=parent, item=self.item)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span, error: BaseException | None = None) -> None:
        span.end = self.clock()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """fn inside a span; observe(arguments, result) adds span attributes."""
        tracer = self
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.end(span, error)
            if observe is not None:
                span.attrs.update(observe(signature.bind(*args, **kwargs).arguments,
                                          result))
            return result
        return traced

    def patch(self, module_name: str, attr: str, name: str, observe=None) -> None:
        """Wrap `module.attr` (or `module.Class.method`) under span `name`.

        A function is replaced in every loaded infosale module whose global
        of that name is the same object. A name that no longer exists is
        recorded in `absent` and left alone.
        """
        owner_name, _, leaf = attr.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[leaf] if owner_name else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(name)
            return
        wrapped = self.wrap(name, original, observe)
        if owner_name:
            holders = [owner]
        else:
            holders = [m for key, m in list(sys.modules.items())
                       if (key == "infosale" or key.startswith("infosale."))
                       and m is not None and m.__dict__.get(leaf) is original]
        for holder in holders:
            setattr(holder, leaf, wrapped)
            self._undo.append((holder, leaf, original))

    def restore(self) -> None:
        while self._undo:
            holder, leaf, original = self._undo.pop()
            setattr(holder, leaf, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]


# ---------------------------------------------------------------------------
# what the benchmark wraps, and the per-layer metrics it reads off the spans
# ---------------------------------------------------------------------------


def _lp_sizes(arguments, result):
    matrices = [arguments.get(k) for k in ("A_ub", "A_eq")]
    matrices = [m for m in matrices if m is not None]
    return {"cols": len(arguments["c"]),
            "rows": sum(m.shape[0] for m in matrices),
            "nnz": sum(m.nnz for m in matrices),
            "iterations": int(getattr(result, "nit", 0) or 0),
            "optimal": int(getattr(result, "status", None) == 0)}


TARGETS = (
    ("infosale.lpcore", "linprog", "highs.linprog", _lp_sizes),
    ("infosale.lpcore", "LinearProgram.solve", "lpcore.solve", None),
    ("infosale.mechanisms", "solve_cm_depr", "mechanisms.solve_cm_depr", None),
    ("infosale.mechanisms", "solve_cm_dirp", "mechanisms.solve_cm_dirp", None),
    ("infosale.mechanisms", "solve_cm_probr", "mechanisms.solve_cm_probr", None),
    ("infosale.mechanisms", "solve_single_round", "mechanisms.solve_single_round", None),
    ("infosale.mechanisms", "build_prob_return_lp", "mechanisms.build_prob_return_lp", None),
    ("infosale.mechanisms", "mechanism_to_json_dict", "mechanisms.serialize", None),
    ("infosale.mechanisms", "mechanism_from_json_dict", "mechanisms.serialize", None),
    ("infosale.verify", "verify_all", "verify.verify_all",
     lambda a, r: {"failed": not r.passed}),
    ("infosale.protocol", "evaluate", "protocol.evaluate",
     lambda a, r: {"nodes": len(r.nodes)}),
    ("infosale.protocol", "to_revelation", "protocol.to_revelation", None),
    ("infosale.protocol", "mechanism_to_protocol", "protocol.mechanism_to_protocol", None),
    ("infosale.protocol", "simulate", "protocol.simulate",
     lambda a, r: {"trials": int(a["trials"])}),
    ("infosale.sampling", "run_mechanism1", "sampling.run_mechanism1", None),
    ("infosale.sampling", "draw_samples", "sampling.draw_samples",
     lambda a, r: {"samples": int(a["n"])}),
    ("infosale.sampling", "InstanceOracle.draw", "sampling.oracle_draw", None),
    ("infosale.sampling", "ReplayOracle.draw", "sampling.oracle_draw", None),
    ("infosale.sampling", "ReplayOracle.__init__", "sampling.replay_parse", None),
    ("infosale.sampling", "solve_epsilon_lp", "sampling.solve_epsilon_lp", None),
    ("infosale.model", "load_instance", "model.load_instance", None),
    ("infosale.cli", "main", "cli.main", None),
)

LAYERS = ("bench", "highs", "lpcore", "mechanisms", "verify", "protocol",
          "sampling", "model", "cli")

SOLVERS = ("solve_cm_depr", "solve_cm_dirp", "solve_cm_probr", "solve_single_round")

# metric, source span, what: "calls" counts the spans, "s" sums their
# durations, "self" their self times, and any other word sums that attribute.
SPAN_METRICS = (
    ("lpcore.solve_calls", "lpcore.solve", "calls"),
    ("lpcore.solve_s", "lpcore.solve", "s"),
    ("lpcore.cols", "highs.linprog", "cols"),
    ("lpcore.rows", "highs.linprog", "rows"),
    ("lpcore.nnz", "highs.linprog", "nnz"),
    ("lpcore.highs_calls", "highs.linprog", "calls"),
    ("lpcore.highs_s", "highs.linprog", "s"),
    ("lpcore.highs_iterations", "highs.linprog", "iterations"),
    *((f"mechanisms.{f}_{what}", f"mechanisms.{f}", what)
      for f in SOLVERS for what in ("calls", "s")),
    ("mechanisms.build_prob_return_lp_s", "mechanisms.build_prob_return_lp", "s"),
    ("mechanisms.serialize_s", "mechanisms.serialize", "s"),
    ("verify.verify_all_calls", "verify.verify_all", "calls"),
    ("verify.verify_all_s", "verify.verify_all", "s"),
    ("verify.failed", "verify.verify_all", "failed"),
    ("protocol.evaluate_calls", "protocol.evaluate", "calls"),
    ("protocol.evaluate_s", "protocol.evaluate", "s"),
    ("protocol.nodes", "protocol.evaluate", "nodes"),
    ("protocol.to_revelation_s", "protocol.to_revelation", "s"),
    ("protocol.simulate_s", "protocol.simulate", "s"),
    ("protocol.simulate_self_s", "protocol.simulate", "self"),
    ("protocol.simulate_trials", "protocol.simulate", "trials"),
    ("sampling.run_mechanism1_calls", "sampling.run_mechanism1", "calls"),
    ("sampling.run_mechanism1_s", "sampling.run_mechanism1", "s"),
    ("sampling.draw_samples_s", "sampling.draw_samples", "s"),
    ("sampling.oracle_draw_s", "sampling.oracle_draw", "s"),
    ("sampling.samples", "sampling.draw_samples", "samples"),
    ("sampling.solve_epsilon_lp_s", "sampling.solve_epsilon_lp", "s"),
    ("model.load_instance_calls", "model.load_instance", "calls"),
    ("model.load_instance_s", "model.load_instance", "s"),
    ("cli.main_calls", "cli.main", "calls"),
    ("cli.main_s", "cli.main", "s"),
)


def install(tracer: Tracer) -> None:
    for module_name, attr, name, observe in TARGETS:
        tracer.patch(module_name, attr, name, observe)


def layer_metrics(tracer: Tracer, pass_walls: list[float]) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit, source span).

    The source is None for metrics that every traced run has.
    """
    by_name: dict[str, list[tuple[Span, float]]] = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(tracer.spans, tracer.self_times()):
        by_name.setdefault(span.name, []).append((span, own))
        by_layer[span.layer] += own

    out = {
        "bench.wall_s": (statistics.median(pass_walls), "s", None),
        "bench.top_s": (sum(s.duration for s in tracer.spans if s.parent < 0), "s", None),
    }
    for metric, name, what in SPAN_METRICS:
        spans = by_name.get(name, [])
        if what == "calls":
            out[metric] = (len(spans), "count", name)
        elif what == "s":
            out[metric] = (sum(s.duration for s, _ in spans), "s", name)
        elif what == "self":
            out[metric] = (sum(own for _, own in spans), "s", name)
        else:
            out[metric] = (sum(s.attrs.get(what, 0) for s, _ in spans), "count", name)
    solves = [s for s, _ in by_name.get("lpcore.solve", [])]
    highs = by_name.get("highs.linprog", [])
    out["lpcore.failed"] = (sum(s.error == "SolverFailure" for s in solves), "count",
                            "lpcore.solve")
    out["lpcore.optimal_ratio"] = (sum(s.attrs.get("optimal", 0) for s, _ in highs)
                                   / len(highs) if highs else 0.0, "ratio", "highs.linprog")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (by_layer[layer], "s", None)
    return out
