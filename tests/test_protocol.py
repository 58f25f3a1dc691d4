import json

import numpy as np
import pytest

from infosale import (BuyerNode, Leaf, ProtocolInvalidError, SellerNode,
                      TransferNode, evaluate, expected_revenue,
                      mechanism_to_protocol, outside_option, parse_protocol,
                      protocol_to_json_dict, simulate, solve_cm_depr,
                      solve_cm_dirp, solve_cm_probr, solve_single_round,
                      to_revelation, two_option_tree)
from infosale.random_instances import (random_correlated_instance,
                                       random_independent_instance, random_tree)


def full_info_seller(instance, after=None):
    """Seller node that announces the state outright."""
    kids = [after() if after else Leaf() for _ in instance.omega]
    eye = np.eye(len(instance.omega))
    return SellerNode(children=kids,
                      transitions={w: eye[i] for i, w in enumerate(instance.omega)})


# -- the worked two-option example -------------------------------------------

def test_two_option_tree_values(box):
    res = evaluate(two_option_tree(), box)
    assert res.revenue == pytest.approx(44.5, abs=1e-9)
    assert res.buyer_value[("0", 50.0)] == pytest.approx(70.0, abs=1e-9)
    assert res.buyer_value[("1", 100.0)] == pytest.approx(41.0, abs=1e-9)
    assert all(res.participates.values())


def test_bare_leaf_gives_outside_option(box):
    res = evaluate(Leaf(), box)
    assert res.revenue == 0.0
    for (theta, b), v in res.buyer_value.items():
        assert v == pytest.approx(outside_option(box, theta, b), abs=1e-12)


def test_terminal_mass_sums_to_one(box):
    res = evaluate(two_option_tree(), box)
    for key, dist in res.terminal.items():
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


# -- budget semantics ----------------------------------------------------------

def test_unaffordable_transfer_forces_quit(box):
    # an up-front 55 is beyond the poor type's wallet; the rich type could
    # pay but full information at that price is worse than walking away
    tree = TransferNode(55.0, full_info_seller(box))
    res = evaluate(tree, box)
    assert res.revenue == 0.0
    assert res.buyer_value[("0", 50.0)] == pytest.approx(60.0)
    assert res.buyer_value[("1", 100.0)] == pytest.approx(40.0)


def test_running_net_prefix_is_what_binds(box):
    # pay 50, get 40 back, pay 20: the running totals are 50, 10, 30 -- all
    # within the poor type's 50 even though gross outlay would be 70
    tree = TransferNode(50.0, TransferNode(-40.0, TransferNode(
        20.0, full_info_seller(box))))
    res = evaluate(tree, box)
    assert res.buyer_value[("0", 50.0)] == pytest.approx(90.0)  # 120 - 30
    assert res.buyer_value[("1", 100.0)] == pytest.approx(50.0)  # 80 - 30
    assert res.revenue == pytest.approx(30.0)


def test_seller_cannot_advance_beyond_stake(box):
    with pytest.raises(ProtocolInvalidError):
        evaluate(TransferNode(-1.0, Leaf()), box)  # M = 0: no float to give


def test_participation_is_always_available(box):
    # a tree whose only move costs more than anyone's surplus is refused
    tree = TransferNode(95.0, full_info_seller(box))
    res = evaluate(tree, box)
    assert res.revenue == 0.0
    assert not res.participates[("1", 100.0)] or \
        res.buyer_value[("1", 100.0)] == pytest.approx(40.0)


# -- serialization --------------------------------------------------------------

def test_protocol_json_round_trip(box):
    text = json.dumps(protocol_to_json_dict(two_option_tree()))
    again = parse_protocol(json.loads(text))
    assert evaluate(again, box).revenue == pytest.approx(44.5, abs=1e-12)


def test_parse_rejects_malformed_trees():
    with pytest.raises(ProtocolInvalidError):
        parse_protocol({"kind": "mystery"})
    with pytest.raises(ProtocolInvalidError):
        parse_protocol({"kind": "transfer", "amount": 1.0})  # no child
    with pytest.raises(ProtocolInvalidError):
        parse_protocol({"kind": "buyer", "children": []})
    with pytest.raises(ProtocolInvalidError):
        parse_protocol({"kind": "seller", "children": [{"kind": "leaf"}],
                        "transitions": [{"omega": "0", "child_index": 5, "p": 1.0}]})


def test_seller_rows_must_be_distributions(box):
    bad = SellerNode(children=[Leaf(), Leaf()],
                     transitions={"0": np.array([0.7, 0.2]),
                                  "1": np.array([0.5, 0.5])})
    with pytest.raises(ProtocolInvalidError):
        evaluate(bad, box)


# -- mechanism embedding ---------------------------------------------------------

@pytest.mark.parametrize("solver", [solve_cm_depr, solve_cm_probr,
                                    lambda i: solve_cm_dirp(i, 50.0)])
def test_mechanism_embedding_preserves_revenue(box, solver):
    mech = solver(box)
    tree = mechanism_to_protocol(mech, box)
    res = evaluate(tree, box)
    assert res.revenue == pytest.approx(expected_revenue(mech, box), abs=1e-10)
    for (theta, b), v in res.buyer_value.items():
        assert v >= outside_option(box, theta, b) - 1e-9


def test_single_round_embedding_charges_the_price(rng):
    # a single-round entry is open to any wallet its price fits, so the tree
    # charges that price up front, with no deposit to hand back
    for _ in range(5):
        inst = random_independent_instance(rng)
        mech = solve_single_round(inst)
        tree = mechanism_to_protocol(mech, inst)
        assert [child.amount for child in tree.children] == list(mech.payments)
        assert abs(evaluate(tree, inst).revenue - mech.revenue) <= 1e-9


# -- revelation collapse ----------------------------------------------------------

def test_revelation_preserves_two_option_revenue(box):
    rev = to_revelation(two_option_tree(), box)
    assert isinstance(rev, BuyerNode)
    assert sorted(rev.labels) == ["0|50", "1|100"]
    assert evaluate(rev, box).revenue == pytest.approx(44.5, abs=1e-12)


def test_revelation_preserves_random_trees(rng):
    for _ in range(8):
        inst = random_correlated_instance(rng)
        tree = random_tree(rng, inst, max_depth=4)
        r0 = evaluate(tree, inst).revenue
        r1 = evaluate(to_revelation(tree, inst), inst).revenue
        assert r1 == pytest.approx(r0, abs=1e-9)


# -- Monte-Carlo simulation --------------------------------------------------------

def test_simulate_matches_exact_value(box):
    out = simulate(two_option_tree(), box, trials=4000,
                   rng=np.random.default_rng(3))
    assert out["exact_revenue"] == pytest.approx(44.5, abs=1e-9)
    assert abs(out["mean_revenue"] - 44.5) <= 5 * max(out["stderr"], 1e-9)


def test_simulate_is_seed_deterministic(box):
    a = simulate(two_option_tree(), box, trials=500, rng=np.random.default_rng(9))
    b = simulate(two_option_tree(), box, trials=500, rng=np.random.default_rng(9))
    assert a == b
