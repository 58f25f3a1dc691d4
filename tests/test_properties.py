"""Property tests for the contracts the solvers and the tree evaluator
promise on arbitrary inputs, driven by seeded random instances."""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis.strategies import floats, integers

from infosale import (BuyerNode, SellerNode, TransferNode, check_ir, evaluate,
                      expected_revenue, full_revelation_menu,
                      mechanism_from_json_dict, mechanism_to_json_dict,
                      outside_option, positive_types, replicate_as_prob_return,
                      revenue_cap, solve_cm_depr, solve_cm_dirp, solve_cm_probr,
                      solve_single_round, to_revelation, verify_all)
from infosale.random_instances import (random_correlated_instance,
                                       random_independent_instance,
                                       random_tree)

seeds = integers(min_value=0, max_value=10 ** 6)


@given(seeds)
@settings(max_examples=12, deadline=None)
def test_probr_matches_depr_on_independent_instances(seed):
    inst = random_independent_instance(np.random.default_rng(seed))
    assert abs(solve_cm_probr(inst).revenue
               - solve_cm_depr(inst).revenue) <= 1e-5


@given(seeds)
@settings(max_examples=12, deadline=None)
def test_probr_dominates_replicated_benchmark(seed):
    inst = random_correlated_instance(np.random.default_rng(seed))
    bench = replicate_as_prob_return(full_revelation_menu(inst),
                                     inst.seller_budget)
    assert solve_cm_probr(inst).revenue >= bench.revenue - 1e-6


@given(seeds)
@settings(max_examples=12, deadline=None)
def test_revenue_never_beats_cap(seed):
    rng = np.random.default_rng(seed)
    inst = random_correlated_instance(rng)
    cap = revenue_cap(inst)
    mech = solve_cm_probr(inst)
    assert mech.revenue <= cap + 1e-6
    assert expected_revenue(mech, inst) <= cap + 1e-6


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_solver_outputs_verify_exactly(seed):
    inst = random_correlated_instance(np.random.default_rng(seed))
    mech = solve_cm_probr(inst)
    report = verify_all(mech, inst, eps=0.0)
    assert report.passed, [(c.name, c.worst_slack)
                           for c in report.checks if not c.passed]


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_tree_buyer_values_clear_outside_option(seed):
    rng = np.random.default_rng(seed)
    inst = random_correlated_instance(rng)
    tree = random_tree(rng, inst, max_depth=4)
    res = evaluate(tree, inst)
    for (theta, b), v in res.buyer_value.items():
        assert v >= outside_option(inst, theta, b) - 1e-9


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_revelation_collapse_preserves_revenue(seed):
    rng = np.random.default_rng(seed)
    inst = random_correlated_instance(rng)
    tree = random_tree(rng, inst, max_depth=4)
    before = evaluate(tree, inst).revenue
    after = evaluate(to_revelation(tree, inst), inst).revenue
    assert abs(before - after) <= 1e-9


@given(seeds)
@settings(max_examples=12, deadline=None)
def test_reach_flows_are_conserved(seed):
    # the mass entering a seller node equals the mass leaving it, per type
    # and per state; a buyer node routes everything to its chosen child
    rng = np.random.default_rng(seed)
    inst = random_correlated_instance(rng)
    tree = random_tree(rng, inst, max_depth=4)
    res = evaluate(tree, inst)
    pos = {id(n): i for i, n in enumerate(res.nodes)}
    zero = np.zeros(len(inst.omega))

    def reach_of(node, key):
        return np.asarray(res.reach[pos[id(node)]].get(key, zero))

    for key in res.buyer_value:
        if not res.participates[key]:
            continue
        for i, node in enumerate(res.nodes):
            here = res.reach[i].get(key)
            if here is None:
                continue
            if isinstance(node, SellerNode):
                kids = sum(reach_of(c, key) for c in node.children)
                assert np.allclose(kids, here, atol=1e-12)
            elif isinstance(node, BuyerNode):
                pick = res.strategy[key].get(i)
                if isinstance(pick, int):
                    assert np.allclose(reach_of(node.children[pick], key),
                                       here, atol=1e-12)
            elif isinstance(node, TransferNode):
                if res.strategy[key].get(i) == "pay":
                    assert np.allclose(reach_of(node.child, key),
                                       here, atol=1e-12)


@given(seeds)
@settings(max_examples=12, deadline=None)
def test_terminal_masses_are_distributions(seed):
    rng = np.random.default_rng(seed)
    inst = random_correlated_instance(rng)
    tree = random_tree(rng, inst, max_depth=4)
    res = evaluate(tree, inst)
    for key, dist in res.terminal.items():
        assert abs(sum(dist.values()) - 1.0) <= 1e-9
        assert all(p >= -1e-15 for p in dist.values())


@given(seeds, floats(min_value=0.0, max_value=5.0),
       floats(min_value=0.0, max_value=5.0))
@settings(max_examples=15, deadline=None)
def test_checks_are_monotone_in_eps(seed, e1, e2):
    lo, hi = sorted((e1, e2))
    rng = np.random.default_rng(seed)
    inst = random_independent_instance(rng)
    mech = solve_cm_depr(inst)
    # overprice every entry a little so the checks have something to find
    import dataclasses
    bent = dataclasses.replace(mech, payments=mech.payments + rng.uniform(0, 2))
    if check_ir(bent, inst, eps=lo).passed:
        assert check_ir(bent, inst, eps=hi).passed


@given(seeds)
@settings(max_examples=8, deadline=None)
def test_menu_covers_every_positive_type(seed):
    inst = random_correlated_instance(np.random.default_rng(seed))
    mech = solve_cm_probr(inst)
    want = {(inst.theta[ti], float(inst.budgets[bi]))
            for ti, bi in positive_types(inst)}
    assert want == set(mech.menu)


@given(seeds)
@settings(max_examples=12, deadline=None)
def test_mechanism_files_round_trip(seed):
    # every kind, the LP-free menu and its replication, on small independent
    # and correlated instances: reading a written file gives back the same
    # mechanism field by field, and writing it again gives the same bytes
    rng = np.random.default_rng(seed)
    ind = random_independent_instance(rng, 3, 3, 3, 2)
    cor = random_correlated_instance(rng, 3, 3, 3, 2)
    cases = [(ind, solve_cm_depr(ind)), (ind, solve_single_round(ind)),
             (ind, solve_cm_dirp(ind, ind.budgets[-1])), (ind, solve_cm_probr(ind)),
             (cor, solve_cm_probr(cor)), (cor, full_revelation_menu(cor)),
             (cor, replicate_as_prob_return(full_revelation_menu(cor), cor.seller_budget))]
    for inst, mech in cases:
        text = json.dumps(mechanism_to_json_dict(mech, inst))
        back = mechanism_from_json_dict(json.loads(text), inst)
        for f in dataclasses.fields(mech):
            x, y = getattr(mech, f.name), getattr(back, f.name)
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name
        assert json.dumps(mechanism_to_json_dict(back, inst)) == text
