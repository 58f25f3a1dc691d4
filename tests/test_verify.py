import dataclasses
import json

import numpy as np
import pytest

from infosale import (EmpiricalPrior, InputError, InstanceOracle,
                      check_budget, check_ic, check_ir, check_obedience,
                      check_revenue_cap, evaluate, full_revelation_menu,
                      mechanism_to_protocol, positive_types, prior_view,
                      revenue_cap, run_mechanism1, solve_cm_depr,
                      solve_cm_dirp, solve_cm_probr, solve_single_round,
                      treasure_box, verify_all)
from infosale.mechanisms import affordable
from infosale.random_instances import (random_correlated_instance,
                                       random_independent_instance)
from infosale.verify import REC_PROB_FLOOR


def priced(mech, prices):
    return dataclasses.replace(mech, payments=np.asarray(prices, dtype=float))


@pytest.fixture
def hand(box):
    # full-revelation deposit-return menu at the worked example's prices
    return priced(full_revelation_menu(box), [50.0, 39.0])


def test_handcrafted_box_mechanism_passes(hand, box):
    report = verify_all(hand, box, eps=0.0)
    assert report.passed
    assert {c.name for c in report.checks} >= {"ic", "ir", "obedience", "budget"}


def test_overpricing_breaks_ir_by_exactly_one(hand, box):
    # type 1 values information at 40; charging 41 leaves IR short by 1
    greedy = priced(hand, [50.0, 41.0])
    rep = check_ir(greedy, box)
    assert not rep.passed
    assert rep.checks[0].worst_slack == pytest.approx(-1.0, abs=1e-9)
    assert check_ic(greedy, box).passed  # the misreport is still worse


def test_swapped_kernel_breaks_obedience(hand, box):
    # recommend the wrong box: conditional on a recommendation the state is
    # certainly the other one, so deviating recovers the full prize
    wrong = dataclasses.replace(hand, kernel=hand.kernel[:, :, ::-1].copy())
    rep = check_obedience(wrong, box)
    assert not rep.passed
    assert rep.checks[0].worst_slack == pytest.approx(-120.0, abs=1e-9)
    assert rep.checks[0].mode == "per-recommendation"


def test_budget_check_bounds_prices(hand, box):
    assert check_budget(hand, box.seller_budget).passed
    over = priced(hand, [50.0, 120.0])  # exceeds the entry's own deposit
    rep = check_budget(over, box.seller_budget)
    assert not rep.passed
    giveaway = priced(hand, [50.0, -5.0])  # pays out more than M = 0
    assert not check_budget(giveaway, box.seller_budget).passed


def test_revenue_cap_binds_at_box_optimum(box):
    mech = solve_cm_depr(box)
    rep = check_revenue_cap(mech, box)
    assert rep.passed
    assert rep.checks[0].worst_slack == pytest.approx(0.0, abs=1e-5)
    rich = priced(mech, [50.0, 45.0])  # would beat the information's worth
    assert not check_revenue_cap(rich, box).passed


def test_all_solver_outputs_verify(box):
    for mech in (solve_cm_depr(box), solve_cm_probr(box),
                 solve_single_round(box), solve_cm_dirp(box, 50.0),
                 solve_cm_dirp(box, 100.0)):
        report = verify_all(mech, box, eps=0.0)
        assert report.passed, [c.name for c in report.checks if not c.passed]


def test_verify_across_correlated_instances(rng):
    for _ in range(5):
        inst = random_correlated_instance(rng)
        assert verify_all(solve_cm_probr(inst), inst, eps=0.0).passed


def test_epsilon_slack_is_honored(hand, box):
    greedy = priced(hand, [50.0, 41.0])
    assert not check_ir(greedy, box, eps=0.0).passed
    assert check_ir(greedy, box, eps=1.0 + 1e-9).passed


def test_obedience_modes_differ(hand, box):
    # entry 0 emits a rare recommendation that is certainly wrong (mass .05,
    # regret 120 conditionally); averaging dilutes it, so the aggregate mode
    # reports a much milder deficit than the per-recommendation mode
    kernel = hand.kernel.copy()
    kernel[0] = np.array([[0.9, 0.1], [1.0, 0.0]])
    wrong = dataclasses.replace(hand, kernel=kernel)
    agg = check_obedience(wrong, box, eps=0.0, aggregate=True)
    per = check_obedience(wrong, box, eps=0.0, aggregate=False)
    assert not agg.passed and not per.passed
    assert per.checks[0].worst_slack == pytest.approx(-120.0, abs=1e-9)
    assert agg.checks[0].worst_slack > per.checks[0].worst_slack + 100.0
    assert agg.checks[0].mode == "aggregate"
    assert per.checks[0].mode == "per-recommendation"


def test_report_json_shape(box):
    report = verify_all(solve_cm_depr(box), box, eps=0.0)
    data = json.loads(report.to_json())
    assert data["passed"] is True
    names = [c["name"] for c in data["checks"]]
    assert "ic" in names and "ir" in names and "obedience" in names
    for c in data["checks"]:
        assert {"name", "passed", "worst_slack", "epsilon", "tolerance"} <= set(c)


def test_rejects_non_prior_argument(box):
    with pytest.raises(InputError):
        verify_all(solve_cm_depr(box), object(), eps=0.0)


def test_nan_fails_verification(hand, box):
    # NaN compares false against every bound, so it must count as the worst
    kernel = hand.kernel.copy()
    kernel[1, 0, 0] = np.nan
    assert not verify_all(dataclasses.replace(hand, kernel=kernel), box, eps=0.0).passed
    assert not check_budget(priced(hand, [50.0, np.nan]), box.seller_budget).passed


def test_a_nan_recommendation_fails_obedience(hand, box):
    # a NaN recommendation mass is a recommendation, not one too rare to
    # have a posterior
    kernel = hand.kernel.copy()
    kernel[1, 0, 0] = np.nan
    for aggregate in (False, True):
        result = check_obedience(dataclasses.replace(hand, kernel=kernel), box,
                                 aggregate=aggregate).checks[0]
        assert not result.passed and np.isnan(result.worst_slack)


def test_a_type_must_afford_its_own_entry(box):
    # a direct-payment menu priced by hand at 60 for type 0, above its only
    # budget of 50: its own entry is not one the menu serves
    inst = box
    mech = priced(solve_cm_dirp(box, 100.0), [60.0, 45.0])
    poor = [f"({th},{b:g}) cannot afford its own menu entry {mech.find(th, b)}"
            for th, b in ((inst.theta[ti], inst.budgets[bi]) for ti, bi in positive_types(inst))
            if mech.cost(mech.find(th, b)) > b + 1e-9]
    assert poor
    for check in (check_ic, check_ir, check_obedience):
        result = check(mech, inst).checks[0]
        assert not result.passed
        assert result.worst_slack == -np.inf
        assert result.worst_case == poor[0]
    assert not verify_all(mech, inst).passed
    # the embedded tree holds each type to its own budget and earns less
    assert evaluate(mechanism_to_protocol(mech, inst), inst).revenue < mech.revenue - 0.5


# -- the value table against the per-pair loop it replaced ------------------

def reference_checks(mech, prior, eps=0.0, aggregate=None):
    """ic, ir and obedience as a loop over (truth, report) pairs, one entry
    at a time, with the first strictly worse slack (or the first NaN)
    deciding each check. Returns {name: (passed, worst_slack, worst_case)}."""
    view = prior_view(prior)
    inst, na = view.instance, len(view.instance.actions)
    aggregate = eps > 0 if aggregate is None else aggregate

    def entry_values(belief, ti, entry):
        uth = inst.utility[:, ti, :]
        rows, obedient, best = [], 0.0, 0.0
        for sign, transfer, kernel in mech.blocks(entry):
            for a in range(na):
                v = belief * kernel[:, a]
                mass = float(v.sum())
                ob_val = float(v @ uth[:, a])
                dev_val = float(max(v @ uth[:, a2] for a2 in range(na)))
                obedient += ob_val - transfer * mass
                best += dev_val - transfer * mass
                if not mass <= REC_PROB_FLOOR:
                    label = inst.actions[a] if sign is None else f"({inst.actions[a]},{sign})"
                    rows.append((label, mass, ob_val / mass, dev_val / mass))
        return obedient, best, rows

    def ic(ti, b, belief, truth):
        truthful, _, _ = entry_values(belief, ti, truth)
        for entry in range(len(mech.menu)):
            if entry != truth and affordable(mech.cost(entry), b):
                yield truthful - entry_values(belief, ti, entry)[1], f" reporting menu entry {entry}"

    def ir(ti, b, belief, truth):
        outside = float(max(belief @ inst.utility[:, ti, a] for a in range(na)))
        yield entry_values(belief, ti, truth)[0] - outside, ""

    def obedience(ti, b, belief, truth):
        rows = entry_values(belief, ti, truth)[2]
        if aggregate:
            yield -sum(mass * (dev - ob) for _, mass, ob, dev in rows), ""
        else:
            yield from ((ob - dev, f" recommended {label}") for label, _, ob, dev in rows)

    out = {}
    for name, slacks, empty in (("ic", ic, "no deviation available"), ("ir", ir, "no types"),
                                ("obedience", obedience, "no recommendations")):
        worst, worst_case = np.inf, empty
        for (ti, bi), belief in zip(view.index, view.beliefs):
            b = float(inst.budgets[bi])
            pair = f"({inst.theta[ti]},{b:g})"
            truth = mech.find(inst.theta[ti], b)
            if truth is None or not affordable(mech.cost(truth), b):
                worst = -np.inf
                worst_case = (f"{pair} missing from menu" if truth is None else
                              f"{pair} cannot afford its own menu entry {truth}")
                break
            for slack, case in slacks(ti, b, belief, truth):
                if slack < worst or (np.isnan(slack) and not np.isnan(worst)):
                    worst, worst_case = slack, pair + case
        out[name] = (bool(worst >= -eps - 1e-6), float(worst), worst_case)
    return out


def reference_revenue(mech, prior):
    """Each served pair's weight times its entry's expected transfer."""
    view = prior_view(prior)
    total = 0.0
    for (ti, bi), weight, belief in zip(view.index, view.weights, view.beliefs):
        entry = mech.find(view.instance.theta[ti], float(view.instance.budgets[bi]))
        if entry is not None:
            total += weight * float(belief @ sum(t * cols.sum(axis=1)
                                                 for _, t, cols in mech.blocks(entry)))
    return total


def assert_matches_reference(mech, prior, eps=0.0, aggregate=None, exact=False):
    want = reference_checks(mech, prior, eps, aggregate)
    got = {c.name: c for c in (check_ic(mech, prior, eps).checks
                               + check_ir(mech, prior, eps).checks
                               + check_obedience(mech, prior, eps, aggregate=aggregate).checks)}
    for name, (passed, slack, case) in want.items():
        result = got[name]
        assert result.passed == passed, name
        if exact or not np.isfinite(slack):
            assert (result.worst_case, repr(result.worst_slack)) == (case, repr(slack)), name
        else:
            assert abs(result.worst_slack - slack) <= 1e-12, name
    slack = check_revenue_cap(mech, prior).checks[0].worst_slack
    np.testing.assert_allclose(revenue_cap(prior) - slack, reference_revenue(mech, prior),
                               rtol=0.0, atol=1e-12)
    return got


def test_table_checks_equal_the_loop_on_the_box(box, hand):
    menus = [solve_cm_depr(box), solve_cm_probr(box), solve_single_round(box),
             solve_cm_dirp(box, 50.0), solve_cm_dirp(box, 100.0), hand,
             priced(hand, [50.0, 41.0]),
             dataclasses.replace(hand, kernel=hand.kernel[:, :, ::-1].copy())]
    for mech in menus:
        for eps, aggregate in ((0.0, None), (0.05, None), (0.05, False), (0.0, True)):
            assert_matches_reference(mech, box, eps, aggregate, exact=True)


def test_table_checks_equal_the_loop_on_seeded_pools():
    rng = np.random.default_rng(20261101)
    for _ in range(6):
        inst = random_independent_instance(rng)
        for mech in (solve_cm_depr(inst), solve_cm_dirp(inst, inst.budgets[0]),
                     solve_cm_dirp(inst, inst.budgets[-1]), solve_single_round(inst),
                     solve_cm_probr(inst)):
            assert_matches_reference(mech, inst)
            assert_matches_reference(mech, inst, 0.05)
    for _ in range(8):
        inst = random_correlated_instance(rng)
        mech = solve_cm_probr(inst)
        assert_matches_reference(mech, inst)
        assert_matches_reference(mech, inst, 0.05, aggregate=True)
        assert_matches_reference(mech, inst, 0.05, aggregate=False)


def test_table_checks_equal_the_loop_on_an_empirical_prior(box):
    rng = np.random.default_rng(20260505)
    oracle = InstanceOracle(box, rng)
    for _ in range(3):
        out = run_mechanism1(oracle, box, 0.0, 2_000, 0.05, ("0", 50.0), "1", rng)
        assert isinstance(out["empirical"], EmpiricalPrior)
        for eps, aggregate in ((0.05, None), (0.05, False), (0.0, None)):
            assert_matches_reference(out["mechanism"], out["empirical"], eps, aggregate)


def test_table_checks_equal_the_loop_on_degenerate_menus(box, hand):
    rare = hand.kernel.copy()
    rare[0] = [[1.0, 0.0], [1.0, 0.0]]          # entry 0 never recommends action 1
    floor = hand.kernel.copy()
    floor[0] = [[1.0 - 1e-10, 1e-10], [1.0, 0.0]]   # a wrong recommendation below the floor
    nan = hand.kernel.copy()
    nan[1, 0, 0] = np.nan
    cases = {"zero mass": dataclasses.replace(hand, kernel=rare),
             "below the floor": dataclasses.replace(hand, kernel=floor),
             "nan kernel": dataclasses.replace(hand, kernel=nan),
             "missing": dataclasses.replace(hand, menu=(("0", 50.0), ("1", 70.0))),
             "unaffordable": priced(solve_cm_dirp(box, 100.0), [60.0, 45.0]),
             "both unaffordable": priced(solve_cm_dirp(box, 100.0), [60.0, 120.0])}
    for name, mech in cases.items():
        for eps, aggregate in ((0.0, None), (0.05, None)):
            got = assert_matches_reference(mech, box, eps, aggregate, exact=True)
            outcome = {c: got[c].worst_slack for c in got}
            if name == "nan kernel":
                assert np.isnan(outcome["ic"]) and np.isnan(outcome["ir"]), outcome
                assert np.isnan(outcome["obedience"]), outcome
            if name == "below the floor":
                assert got["obedience"].passed, outcome
            if name in ("missing", "unaffordable", "both unaffordable"):
                assert set(outcome.values()) == {-np.inf}, outcome
