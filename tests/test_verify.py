import dataclasses
import json

import numpy as np
import pytest

from infosale import (InputError, check_budget, check_ic, check_ir,
                      check_obedience, check_revenue_cap, full_revelation_menu,
                      solve_cm_depr, solve_cm_dirp, solve_cm_probr,
                      solve_single_round, treasure_box, verify_all)
from infosale.random_instances import random_correlated_instance


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
