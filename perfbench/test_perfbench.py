"""Tests of the benchmark itself: the tracer's arithmetic, checks that reject
tampered outputs, and per-layer counts that repeat at one seed.

    python3 -m pytest perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import infosale as lib  # noqa: E402
from infosale import SolverFailure  # noqa: E402
from run import measure  # noqa: E402
from tracer import Tracer, install, layer_metrics  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("lpcore.inner", lambda: None)
    middle = tracer.wrap("mechanisms.middle", inner)
    outer = tracer.wrap("bench.outer", lambda: (middle(), inner()))
    outer()
    assert [s.name for s in tracer.spans] == [
        "bench.outer", "mechanisms.middle", "lpcore.inner", "lpcore.inner"]
    assert [s.duration for s in tracer.spans] == [10.0, 4.0, 1.0, 1.0]
    assert tracer.self_times() == [5.0, 3.0, 1.0, 1.0]
    layers = layer_metrics(tracer, [10.0])
    assert layers["bench.top_s"][0] == 10.0
    assert sum(layers[f"{layer}.self_s"][0] for layer in ("bench", "mechanisms", "lpcore")) == 10.0


def test_a_call_that_raises_is_timed_and_marked():
    tracer = Tracer()

    def fail():
        raise SolverFailure("infeasible")

    with pytest.raises(SolverFailure):
        tracer.wrap("lpcore.solve", fail)()
    (span,) = tracer.spans
    assert span.error == "SolverFailure" and span.end >= span.start
    assert layer_metrics(tracer, [0.0])["lpcore.failed"][0] == 1


def test_patching_reaches_calls_inside_the_library_and_restores():
    original = lib.solve_cm_probr
    tracer = Tracer()
    install(tracer)
    try:
        assert lib.solve_cm_probr is not original
        lib.solve_cm_probr(wl.BOX)
    finally:
        tracer.restore()
    assert lib.solve_cm_probr is original
    assert tracer.absent == []
    names = {s.name for s in tracer.spans}
    assert {"mechanisms.solve_cm_probr", "mechanisms.build_prob_return_lp",
            "lpcore.solve", "highs.linprog"} <= names
    (highs,) = [s for s in tracer.spans if s.name == "highs.linprog"]
    assert highs.attrs["rows"] > 0 and highs.attrs["nnz"] > 0 and highs.attrs["optimal"] == 1


def test_a_missing_name_is_absent_not_a_crash():
    tracer = Tracer()
    tracer.patch("infosale.lpcore", "no_such_function", "lpcore.nothing")
    tracer.patch("infosale.no_such_module", "f", "nothing.f")
    assert tracer.absent == ["lpcore.nothing", "nothing.f"]


def test_menu_checks_reject_a_raised_price_and_an_off_revenue():
    depr = lib.solve_cm_depr(wl.BOX)
    assert wl.check_mechanism(depr, wl.BOX) == []
    raised = replace(depr, payments=depr.payments + np.array([1.0, 0.0]))
    assert wl.check_mechanism(raised, wl.BOX)
    off = replace(depr, revenue=depr.revenue + 1e-3)
    assert wl.check_mechanism(off, wl.BOX)
    assert wl.check_value("box depr revenue", off.revenue, wl.BOX_DEPR, wl.AGREE_TOL)
    text = wl._instance_text(wl.BOX)
    assert wl.check_round_trip(depr, text) == []


def test_large_checks_reject_an_off_revenue():
    instance = wl.exact_instance(np.random.default_rng(3), (3, 3, 3, 2), correlated=True)
    probr = lib.solve_cm_probr(instance)
    assert wl.check_large(probr, instance) == []
    assert wl.check_large(replace(probr, revenue=probr.revenue + 1e-3), instance)


def test_live_checks_reject_tampered_runs():
    out = lib.run_mechanism1(lib.InstanceOracle(wl.BOX, np.random.default_rng(5)), wl.BOX,
                             0.0, wl.LIVE_N, wl.LIVE_EPS, ("0", 50.0), "1",
                             np.random.default_rng(6))
    assert wl.check_live(out, 0.0, 50.0) == []
    assert wl.check_live(dict(out, transfer=49.0), 0.0, 50.0)
    revenue, transfer = out["mechanism"].revenue, out["transfer"]
    assert wl.check_replay(out, revenue, transfer) == []
    assert wl.check_replay(out, revenue + 1e-3, transfer)
    assert wl.check_replay(out, revenue, -transfer - 1.0)
    assert wl.check_box_mean([wl.BOX_DEPR - 1.5]) != []

    sim = lib.simulate(lib.two_option_tree(), wl.BOX, 2000, np.random.default_rng(7))
    assert wl.check_simulation(sim, wl.BOX_TWO_OPTION) == []
    assert wl.check_simulation(sim, wl.BOX_TWO_OPTION + 1e-3)
    assert wl.check_simulation(dict(sim, mean_revenue=sim["mean_revenue"] + 1.0),
                               wl.BOX_TWO_OPTION)


COUNTS = ("lpcore.solve_calls", "lpcore.rows", "lpcore.highs_iterations",
          "protocol.simulate_trials", "sampling.samples")


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_layer_counts_repeat_at_one_seed(name, tmp_path):
    counts = []
    for _ in range(2):
        workload = wl.WORKLOADS[name](7, tmp_path, 1)
        tracer = Tracer()
        install(tracer)
        try:
            stats = measure(workload, 0.0, 1, tracer)
        finally:
            tracer.restore()
        assert stats["failed"] == 0 and stats["problems"] == []
        layers = layer_metrics(tracer, stats["pass_wall"])
        counts.append({key: layers[key][0] for key in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["lpcore.solve_calls"] > 0
