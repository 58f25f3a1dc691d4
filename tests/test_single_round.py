"""solve_single_round against a reference that enumerates every
affordability pattern with one LP each, and against revenues recorded from a
mixed-integer program over the patterns, on draws whose search branches past
its root."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import integers

from infosale import (PreconditionError, load_instance, lpcore, mechanisms, prior_view,
                      SolverFailure, revenue_cap, solve_single_round, verify_all)
from infosale.mechanisms import _menu_labels, _solve_deposit_family
from infosale.random_instances import random_independent_instance

# revenues of the 120 pool draws and two ladder draws, from the pattern
# mixed-integer program this search replaced (gap 1e-9, relative)
REVENUES = Path(__file__).parent / "fixtures" / "single_round_revenues.json"


def reference_single_round(instance):
    """Best revenue over all affordability patterns, one LP per pattern.

    Each menu item's price is confined between two adjacent budget levels
    (its cutoff and the level below it, or -M below the lowest level), which
    fixes who can afford it and so which truthfulness pairs apply. A price
    landing exactly on the level below is kept only if the types the pattern
    ignored gain nothing by grabbing it; otherwise the box is lifted 1e-7
    off that level and the pattern solved once more.
    """
    view = prior_view(instance)
    menu, weights = [(ti, instance.budgets[bi]) for ti, bi in view.index], view.weights
    types = np.array([ti for ti, _ in menu])
    levels = instance.budgets
    M = instance.seller_budget
    mu_w = instance.omega_marginal()
    na = len(instance.actions)

    def honest(prices, kernel, utilities, skipped_pairs):
        for i, j in skipped_pairs:
            ti, b = menu[i]
            if prices[j] > b + 1e-9:
                continue
            dev = sum(max(float(mu_w @ (kernel[j][:, a] * instance.utility[:, ti, a2]))
                          for a2 in range(na))
                      for a in range(na))
            if dev - prices[j] > utilities[i] + 1e-6:
                return False
        return True

    best = None
    cutoff_choices = [[lv for lv in levels if lv <= b] for _, b in menu]
    for pattern in itertools.product(*cutoff_choices):
        ic_pairs, skipped = [], []
        for i, (_, b) in enumerate(menu):
            for j in range(len(menu)):
                if j != i:
                    (ic_pairs if pattern[j] <= b else skipped).append((i, j))
        floors = [max([lv for lv in levels if lv < cut], default=-M) for cut in pattern]
        for nudge in (0.0, 1e-7):
            t_bounds = [(floors[j] + (nudge if floors[j] > -M else 0.0), pattern[j])
                        for j in range(len(menu))]
            try:
                mech = _solve_deposit_family(
                    "single-round", instance, _menu_labels(view), types, weights,
                    np.array(ic_pairs, dtype=int).reshape(-1, 2), *np.array(t_bounds).T)
            except SolverFailure:
                break
            if honest(mech.payments, mech.kernel, mech.utilities, skipped):
                if best is None or mech.revenue > best + 1e-12:
                    best = mech.revenue
                break
    if best is None:
        raise PreconditionError("no affordability pattern is feasible")
    return best


def n_patterns(instance):
    budgets = [instance.budgets[bi] for _, bi in prior_view(instance).index]
    return int(np.prod([sum(lv <= b for lv in instance.budgets) for b in budgets]))


@given(integers(min_value=0, max_value=10 ** 6))
@example(193)
@example(3838)
@settings(max_examples=12, deadline=None)
def test_single_round_matches_pattern_enumeration(seed):
    # two types and at most three budget levels: at most 1*2*3 patterns per
    # type, 36 in all
    inst = random_independent_instance(np.random.default_rng(seed), max_types=2)
    assert n_patterns(inst) <= 36
    mech = solve_single_round(inst)
    assert abs(mech.revenue - reference_single_round(inst)) <= 1e-9
    assert verify_all(mech, inst, eps=0.0, tol=1e-6).passed


def test_single_round_solves_beyond_pattern_enumeration():
    # 3 states, 2 types, 3 actions and 6 budget levels: 518,400 patterns,
    # far past what one LP per pattern could search
    rng = np.random.default_rng(20261018)
    inst = random_independent_instance(rng, 3, 2, 3, 6)
    while (len(inst.omega), len(inst.theta), len(inst.actions),
           len(inst.budgets)) != (3, 2, 3, 6):
        inst = random_independent_instance(rng, 3, 2, 3, 6)
    assert n_patterns(inst) > 20000
    mech = solve_single_round(inst)
    assert verify_all(mech, inst, eps=0.0, tol=1e-6).passed
    assert mech.revenue <= revenue_cap(inst) + 1e-6


def test_recheck_failure_is_not_a_precondition(box, monkeypatch):
    # a solver point that fails the re-check is a breakdown (CLI exit 4), not
    # an instance without a feasible affordability pattern (exit 3)
    monkeypatch.setattr(lpcore, "FEAS_TOL", -1.0)
    with pytest.raises(SolverFailure) as failure:
        solve_single_round(box)
    assert failure.value.status == "recheck"


def test_search_matches_the_pattern_programs_revenues():
    # the ladder draws take 8 LPs each, so the search runs well past its root
    recorded = json.loads(REVENUES.read_text())
    rng = np.random.default_rng(20260501)
    cases = [(random_independent_instance(rng), r) for r in recorded["pool"]["revenues"]]
    cases += [(load_instance(d["instance"]), d["revenue"]) for d in recorded["ladder"]]
    for inst, revenue in cases:
        mech = solve_single_round(inst)
        assert abs(mech.revenue - revenue) <= 1e-9 * max(1.0, abs(revenue))
        assert verify_all(mech, inst, eps=0.0, tol=1e-6).passed


def test_no_feasible_pattern_is_a_precondition(box, monkeypatch):
    # every node's LP infeasible: the instance has no affordability pattern
    # (CLI exit 3), unlike a re-check failure
    def infeasible(*args):
        raise SolverFailure("single-round: program infeasible", status=lpcore.INFEASIBLE)

    monkeypatch.setattr(mechanisms, "_solve_deposit_family", infeasible)
    with pytest.raises(PreconditionError, match="no affordability pattern is feasible"):
        solve_single_round(box)
