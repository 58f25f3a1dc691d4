"""The benchmark's workloads: seeded inputs, the calls a pass makes, and the
checks that decide whether an item failed.

A workload's setup turns a seed into a list of passes. A pass is a list of
units, and a unit is one library call with the checks on its output; it
returns the problems it found, so an empty list means the item passed. The
references and tolerances are those of tests/test_acceptance.py.

The library is reached only through names exported by `infosale`, through
`infosale.random_instances` and through `infosale.cli.main`, looked up at
call time so that a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

import infosale as lib
import infosale.cli as cli
from infosale.random_instances import (random_correlated_instance,
                                       random_independent_instance)

TOL = 1e-6          # verify_all tolerance and revenue comparisons
AGREE_TOL = 1e-5    # depr/probr agreement and the treasure-box values
BOX = lib.treasure_box()
BOX_DEPR, BOX_SINGLE_ROUND, BOX_TWO_OPTION = 45.0, 40.0, 44.5

# menu-pool, per pass: independent instances (each solved by depr, probr and
# dirp), correlated instances (probr), and single-round instances. Single-round
# instances have one fixed size: at the generators' default maxima a call
# makes 1 to 1,296 LPs, so a short run's cost would depend on which sizes the
# seed drew; (4, 2, 4, 3) gives 36 affordability patterns on every draw.
MENU_INDEPENDENT, MENU_CORRELATED, MENU_SINGLE_ROUND = 12, 8, 2
SINGLE_ROUND_SIZE = (4, 2, 4, 3)   # (states, types, actions, budgets)

# probr-large, per pass: correlated instances of these sizes, in this order.
# The middle size holds half the items so that the median item is one of
# many draws of one size.
LADDER = ((4, 4, 4, 3), (5, 5, 4, 3), (5, 5, 4, 3), (5, 5, 5, 3))

# live-pipeline, per pass: treasure-box runs from an InstanceOracle, replays
# of the first few of those streams, runs on correlated shapes with more
# (type, budget) pairs, and one simulate call per tree.
LIVE_BOX, LIVE_REPLAY, LIVE_SHAPE = 8, 2, 4
LIVE_N, LIVE_EPS = 10_000, 0.05
SHAPE_SIZE = (3, 4, 3, 2)
SIM_TRIALS = 25_000


@dataclass
class Unit:
    kind: str
    run: Callable[[], list[str]]
    timed: bool = True      # an item of the latency percentiles
    trials: int = 0         # simulate trials the unit runs


@dataclass
class Workload:
    passes: list[list[Unit]]
    finish: Callable[[], list[str]] = lambda: []   # checks over the whole run


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _budget_levels(rng: np.random.Generator, nb: int) -> tuple[float, ...]:
    while True:
        levels = np.sort(rng.uniform(0.5, 8.0, size=nb))
        if nb == 1 or np.diff(levels).min() > 0.05:
            return tuple(float(x) for x in levels)


def exact_instance(rng: np.random.Generator, size: tuple[int, int, int, int],
                   correlated: bool) -> lib.Instance:
    """An instance of exactly `size` = (states, types, actions, budgets),
    drawn by the recipe infosale.random_instances uses at random sizes, less
    its occasional zeroed prior cell: every (type, budget) pair is on the
    menu, so the size alone fixes the size of the LPs."""
    nw, nt, na, nb = size
    if correlated:
        prior = rng.dirichlet(np.ones(nw * nt * nb)).reshape(nw, nt, nb)
    else:
        prior = np.einsum("w,p->wp", rng.dirichlet(np.ones(nw)),
                          rng.dirichlet(np.ones(nt * nb))).reshape(nw, nt, nb)
    return lib.Instance(
        omega=tuple(f"w{i}" for i in range(nw)),
        theta=tuple(f"t{i}" for i in range(nt)),
        actions=tuple(f"a{i}" for i in range(na)),
        budgets=_budget_levels(rng, nb),
        seller_budget=float(rng.choice([0.0, 1.0, 3.0])),
        prior=prior, utility=rng.uniform(0.0, 10.0, size=(nw, nt, na)))


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def _instance_text(instance: lib.Instance) -> str:
    return json.dumps(lib.instance_to_json_dict(instance))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_value(what: str, got: float, want: float, tol: float) -> list[str]:
    return [] if abs(got - want) <= tol else [f"{what} {got!r}, expected {want!r}"]


def check_mechanism(mech, instance) -> list[str]:
    """Exact feasibility, the full-surplus cap, and a stated revenue that
    matches the menu."""
    problems = []
    if not lib.verify_all(mech, instance, eps=0.0, tol=TOL).passed:
        problems.append(f"{mech.kind}: verify_all failed")
    cap = lib.revenue_cap(instance)
    if mech.revenue > cap + TOL:
        problems.append(f"{mech.kind}: revenue {mech.revenue!r} above cap {cap!r}")
    return problems + check_value(f"{mech.kind}: revenue of the menu",
                                  lib.expected_revenue(mech, instance), mech.revenue, TOL)


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


def check_round_trip(mech, instance_text: str) -> list[str]:
    """Mechanism file and instance JSON reload to the same mechanism."""
    instance = lib.load_instance(instance_text)
    data = json.loads(json.dumps(lib.mechanism_to_json_dict(mech, instance)))
    back = lib.mechanism_from_json_dict(data, instance)
    return [] if _same(mech, back) else [f"{mech.kind}: JSON round trip changed it"]


def check_dominates_full_revelation(mech, instance) -> list[str]:
    bench = lib.replicate_as_prob_return(lib.full_revelation_menu(instance),
                                         instance.seller_budget)
    if mech.revenue < bench.revenue - TOL:
        return [f"probr revenue {mech.revenue!r} below full revelation {bench.revenue!r}"]
    return []


def check_large(mech, instance) -> list[str]:
    problems = check_mechanism(mech, instance) + check_dominates_full_revelation(mech, instance)
    tree = lib.mechanism_to_protocol(mech, instance)
    problems += check_value("embedded tree revenue", lib.evaluate(tree, instance).revenue,
                            mech.revenue, TOL)
    collapsed = lib.to_revelation(tree, instance)
    return problems + check_value("collapsed tree revenue",
                                  lib.evaluate(collapsed, instance).revenue, mech.revenue, TOL)


def check_live(out: dict, seller_budget: float, b1: float) -> list[str]:
    """A run_mechanism1 result against its own estimates, at the slack the
    eps-LP certifies."""
    mech, emp = out["mechanism"], out["empirical"]
    slack = lib.certified_slack(LIVE_EPS)
    problems = []
    for name, check in (("obedience", lib.check_obedience), ("ic", lib.check_ic),
                        ("ir", lib.check_ir)):
        if not check(mech, emp, eps=slack[name], tol=TOL).passed:
            problems.append(f"{name} fails at certified slack {slack[name]}")
    if not lib.check_budget(mech, seller_budget, tol=TOL).passed:
        problems.append("seller budget check failed")
    if not lib.check_revenue_cap(mech, emp, tol=2 * LIVE_EPS + TOL).passed:
        problems.append("revenue cap check failed")
    if out["transfer"] not in (b1, -seller_budget):
        problems.append(f"transfer {out['transfer']!r} not in {{{b1}, {-seller_budget}}}")
    return problems


def check_replay(out: dict, revenue: float, transfer: float) -> list[str]:
    """A replayed run against the InstanceOracle run that wrote its stream."""
    problems = check_value("replayed revenue", out["mechanism"].revenue, revenue, 1e-9)
    if out["transfer"] != transfer:
        problems.append(f"replayed transfer {out['transfer']!r}, expected {transfer!r}")
    return problems


def check_simulation(out: dict, exact: float) -> list[str]:
    problems = check_value("exact revenue", out["exact_revenue"], exact, AGREE_TOL)
    if abs(out["mean_revenue"] - out["exact_revenue"]) > 5 * out["stderr"]:
        problems.append(f"simulated mean {out['mean_revenue']!r} is more than 5 "
                        f"standard errors from {out['exact_revenue']!r}")
    return problems


def check_box_mean(revenues: list[float]) -> list[str]:
    if not revenues:
        return ["no treasure-box run finished"]
    return check_value("mean treasure-box revenue", float(np.mean(revenues)), BOX_DEPR, 1.0)


# ---------------------------------------------------------------------------
# menu-pool
# ---------------------------------------------------------------------------


def _solver_unit(kind: str, solve, instance, text: str, extra=lambda mech: []) -> Unit:
    def run():
        mech = solve()
        return check_mechanism(mech, instance) + check_round_trip(mech, text) + extra(mech)
    return Unit(kind, run)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_unit(instance_file: Path, mech_file: Path, reference: Callable[[], float]) -> Unit:
    def run():
        code, printed = _cli(["solve", "--instance", str(instance_file),
                              "--mechanism", "depr", "--out", str(mech_file)])
        problems = [] if code == 0 else [f"cli solve exited {code}"]
        if printed.strip() != f"revenue {reference():.1f}":
            problems.append(f"cli solve printed {printed.strip()!r}")
        code, _ = _cli(["verify", "--instance", str(instance_file),
                        "--mechanism-file", str(mech_file), "--eps", "0"])
        return problems + ([] if code == 0 else [f"cli verify exited {code}"])
    return Unit("cli", run)


def _menu_pass(independent, correlated, single_round, instance_file: Path,
               mech_file: Path) -> list[Unit]:
    depr_revenue: dict[int, float] = {}

    def remember(i):
        def extra(mech):
            depr_revenue[i] = mech.revenue
            return []
        return extra

    def agrees(i):
        return lambda mech: check_value("probr vs depr revenue", mech.revenue,
                                        depr_revenue[i], AGREE_TOL)

    box_text = _instance_text(BOX)
    units = [
        _solver_unit("depr", lambda: lib.solve_cm_depr(BOX), BOX, box_text,
                     lambda m: check_value("box depr revenue", m.revenue, BOX_DEPR, AGREE_TOL)),
        _solver_unit("single-round", lambda: lib.solve_single_round(BOX), BOX, box_text,
                     lambda m: check_value("box single-round revenue", m.revenue,
                                           BOX_SINGLE_ROUND, AGREE_TOL)),
    ]
    for i, (inst, text) in enumerate(independent):
        units += [
            _solver_unit("depr", lambda inst=inst: lib.solve_cm_depr(inst), inst, text,
                         remember(i)),
            _solver_unit("probr", lambda inst=inst: lib.solve_cm_probr(inst), inst, text,
                         agrees(i)),
            _solver_unit("dirp", lambda inst=inst: lib.solve_cm_dirp(inst, inst.budgets[0]),
                         inst, text),
        ]
        if i == 0:
            units.append(_cli_unit(instance_file, mech_file, lambda: depr_revenue[0]))
    for inst, text in correlated:
        units.append(_solver_unit(
            "probr", lambda inst=inst: lib.solve_cm_probr(inst), inst, text,
            lambda m, inst=inst: check_dominates_full_revelation(m, inst)))
    for inst, text in single_round:
        units.append(_solver_unit(
            "single-round", lambda inst=inst: lib.solve_single_round(inst), inst, text))
    return units


def menu_pool(seed: int, workdir: Path, passes: int) -> Workload:
    lib.solve_cm_depr(BOX)  # warm-up
    independent, correlated, single_round = _streams(seed, 3)
    plan = []
    for k in range(passes):
        ind = [random_independent_instance(independent) for _ in range(MENU_INDEPENDENT)]
        cor = [random_correlated_instance(correlated) for _ in range(MENU_CORRELATED)]
        sr = [exact_instance(single_round, SINGLE_ROUND_SIZE, correlated=False)
              for _ in range(MENU_SINGLE_ROUND)]
        ind, cor, sr = ([(inst, _instance_text(inst)) for inst in group]
                        for group in (ind, cor, sr))
        instance_file = workdir / f"menu-{k}.json"
        instance_file.write_text(ind[0][1])
        plan.append(_menu_pass(ind, cor, sr, instance_file, workdir / f"menu-{k}.mech.json"))
    return Workload(plan)


# ---------------------------------------------------------------------------
# probr-large
# ---------------------------------------------------------------------------


def _large_unit(instance) -> Unit:
    return Unit("probr", lambda: check_large(lib.solve_cm_probr(instance), instance))


def probr_large(seed: int, workdir: Path, passes: int) -> Workload:
    lib.solve_cm_probr(BOX)  # warm-up
    rng = np.random.default_rng(seed)
    return Workload([[_large_unit(exact_instance(rng, size, correlated=True))
                      for size in LADDER] for _ in range(passes)])


# ---------------------------------------------------------------------------
# live-pipeline
# ---------------------------------------------------------------------------


def _json_line(theta: str, omega: str, b: float) -> str:
    return json.dumps({"theta": theta, "omega": omega, "b": b}) + "\n"


def _live_unit(kind: str, make_oracle, shape, buyer, omega1, live_seed: int,
               check: Callable[[dict], list[str]]) -> Unit:
    def run():
        out = lib.run_mechanism1(make_oracle(), shape, shape.seller_budget, LIVE_N,
                                 LIVE_EPS, buyer, omega1, np.random.default_rng(live_seed))
        return check(out)
    return Unit(kind, run)


def _live_pass(k: int, seeds, shapes, trees, workdir: Path, box_revenues: list) -> list[Unit]:
    runs: dict[int, tuple[float, float]] = {}   # box run -> (revenue, transfer)
    lines: dict[tuple, str] = {}
    box, replays, others = [], [], []
    for j in range(LIVE_BOX):
        oracle_seed, live_seed = _seed(seeds), _seed(seeds)

        def box_check(out, j=j):
            runs[j] = (out["mechanism"].revenue, out["transfer"])
            box_revenues.append(lib.expected_revenue(out["mechanism"], BOX))
            return check_live(out, BOX.seller_budget, 50.0)

        box.append(_live_unit(
            "box", lambda s=oracle_seed: lib.InstanceOracle(BOX, np.random.default_rng(s)),
            BOX, ("0", 50.0), "1", live_seed, box_check))
        if j < LIVE_REPLAY:
            stream = workdir / f"stream-{k}-{j}.jsonl"
            triples = lib.InstanceOracle(BOX, np.random.default_rng(oracle_seed)).draw(LIVE_N - 1)
            stream.write_text("".join(lines.get(x) or lines.setdefault(x, _json_line(*x))
                                      for x in triples))
            replays.append(_live_unit(
                "replay", lambda p=stream: lib.ReplayOracle.from_path(p), BOX, ("0", 50.0),
                "1", live_seed,
                lambda out, j=j: check_live(out, BOX.seller_budget, 50.0)
                + check_replay(out, *runs[j])))
    for shape in shapes:
        theta, omega1, b1 = lib.InstanceOracle(shape, seeds).draw(1)[0]
        oracle_seed, live_seed = _seed(seeds), _seed(seeds)
        others.append(_live_unit(
            "shape", lambda shape=shape, s=oracle_seed:
            lib.InstanceOracle(shape, np.random.default_rng(s)),
            shape, (theta, b1), omega1, live_seed,
            lambda out, shape=shape, b1=b1: check_live(out, shape.seller_budget, b1)))
    for kind, tree, exact in trees:
        sim_seed = _seed(seeds)
        others.append(Unit(
            kind, lambda tree=tree, exact=exact, s=sim_seed: check_simulation(
                lib.simulate(tree, BOX, SIM_TRIALS, np.random.default_rng(s)), exact),
            timed=False, trials=SIM_TRIALS))
    # each replay runs after the box run that produced its stream
    return box + replays + others


def live_pipeline(seed: int, workdir: Path, passes: int) -> Workload:
    box_depr = lib.solve_cm_depr(BOX)  # warm-up; its embedding is simulated
    trees = (("simulate-depr", lib.mechanism_to_protocol(box_depr, BOX), BOX_DEPR),
             ("simulate-two-option", lib.two_option_tree(), BOX_TWO_OPTION))
    seeds, shape_rng = _streams(seed, 2)
    box_revenues: list[float] = []
    plan = []
    for k in range(passes):
        shapes = [exact_instance(shape_rng, SHAPE_SIZE, correlated=True)
                  for _ in range(LIVE_SHAPE)]
        plan.append(_live_pass(k, seeds, shapes, trees, workdir, box_revenues))
    return Workload(plan, lambda: check_box_mean(box_revenues))


WORKLOADS = {"menu-pool": menu_pool, "probr-large": probr_large,
             "live-pipeline": live_pipeline}
