import json
import sys

import numpy as np
import pytest

from infosale import (BuyerNode, Leaf, ProtocolInvalidError, SellerNode,
                      TransferNode, evaluate, expected_revenue,
                      mechanism_to_protocol, outside_option, parse_protocol,
                      protocol_to_json_dict, simulate, solve_cm_depr,
                      solve_cm_dirp, solve_cm_probr, solve_single_round,
                      to_revelation, treasure_box, two_option_tree)
from infosale.model import positive_types, prior_view
from infosale.protocol import (BUDGET_TOL, LEAF, MASS_TOL, SELLER, SIM_BLOCK,
                               TIE_TOL, TRANSFER, EvalResult, _seller_rows,
                               compile_tree)
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


@pytest.mark.parametrize("row", [[np.nan, 0.5], [0.7, -0.2, 0.5]])
def test_seller_rows_must_be_finite_and_nonnegative(box, row):
    # a NaN escapes a sum test, and a negative entry can sum to 1
    seller = SellerNode(children=[Leaf() for _ in row],
                        transitions={"0": np.array(row),
                                     "1": np.full(len(row), 1.0 / len(row))})
    tree = TransferNode(1.0, seller)
    with pytest.raises(ProtocolInvalidError, match="state '0'"):
        evaluate(tree, box)
    with pytest.raises(ProtocolInvalidError, match="state '0'"):
        simulate(tree, box, 10, np.random.default_rng(0))


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


def test_shared_subtree_is_played_per_position(box):
    # one node object reached by two paths: affordable straight from the
    # root, beyond the poor type's wallet after another 30 -- each place
    # keeps its own decision, in evaluate and in the collapse
    shared = TransferNode(30.0, full_info_seller(box))
    tree = BuyerNode(children=[shared, TransferNode(30.0, shared)])
    res = evaluate(tree, box)
    assert res.revenue == pytest.approx(30.0, abs=1e-12)
    collapsed = evaluate(to_revelation(tree, box), box)
    assert collapsed.revenue == pytest.approx(30.0, abs=1e-12)
    for key, v in res.buyer_value.items():
        assert collapsed.buyer_value[key] == pytest.approx(v, abs=1e-12)
    assert not isinstance(to_revelation(tree, box).children[0], Leaf)


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


# -- simulate against the one-trial-at-a-time walk -----------------------------

def reference_simulate(tree, instance, trials, rng):
    """simulate as a scalar loop, one trial and one uniform at a time, the
    way it worked before it walked blocks of trials together."""
    res = evaluate(tree, instance)
    ids = {id(n): i for i, n in enumerate(res.nodes)}
    seller_mats = {id(n): _seller_rows(n, instance)
                   for n in res.nodes if isinstance(n, SellerNode)}
    flat = instance.prior.reshape(-1)
    cum = np.cumsum(flat)
    shape = instance.prior.shape
    takes = np.zeros(trials)
    counts: dict = {}
    for trial in range(trials):
        u = rng.random() * cum[-1]
        w, ti, bi = np.unravel_index(int(np.searchsorted(cum, u, side="right")), shape)
        key = (instance.theta[ti], float(instance.budgets[bi]))
        counts[key] = counts.get(key, 0) + 1
        if not res.participates[key]:
            continue
        strategy = res.strategy[key]
        node = tree
        paid = 0.0
        while True:
            nid = ids[id(node)]
            if isinstance(node, Leaf):
                break
            if isinstance(node, TransferNode):
                if strategy.get(nid) == "quit":
                    break
                paid += node.amount
                node = node.child
                continue
            if isinstance(node, SellerNode):
                probs = seller_mats[id(node)][w]
                j = int(np.searchsorted(np.cumsum(probs), rng.random() * probs.sum(),
                                        side="right"))
                node = node.children[min(j, len(node.children) - 1)]
                continue
            pick = strategy.get(nid, "quit")
            if pick == "quit":
                break
            node = node.children[pick]
        takes[trial] = paid
    mean = float(takes.mean()) if trials else 0.0
    stderr = float(takes.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return {"trials": trials, "mean_revenue": mean, "stderr": stderr,
            "exact_revenue": res.revenue, "type_counts": counts}


def assert_same_stream(tree, instance, trials, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = simulate(tree, instance, trials, ours)
    want = reference_simulate(tree, instance, trials, theirs)
    assert got == want
    assert list(got["type_counts"]) == list(want["type_counts"])
    assert ours.random() == theirs.random()  # the generator ends where it did


def stream_cases():
    box = treasure_box()
    cases = [("two-option", two_option_tree(), box)]
    for name, mech in [("dirp", solve_cm_dirp(box, 50.0)), ("depr", solve_cm_depr(box)),
                       ("probr", solve_cm_probr(box)),
                       ("single-round", solve_single_round(box))]:
        tree = mechanism_to_protocol(mech, box)
        cases += [(f"box-{name}", tree, box),
                  (f"box-{name}-collapsed", to_revelation(tree, box), box)]
    # a tiny negative entry, as parse_protocol admits, leaves the running
    # sums out of order; the draw must still follow searchsorted's bisection
    unsorted = SellerNode(children=[Leaf(), TransferNode(2.0, Leaf()), Leaf()],
                          transitions={"0": np.array([0.5, -1e-13, 0.5 + 1e-13]),
                                       "1": np.array([0.0, 1.0, 0.0])})
    cases.append(("unsorted-row", TransferNode(1.0, unsorted), box))
    rng = np.random.default_rng(20261018)
    for k in range(40):
        inst = random_correlated_instance(rng)
        cases.append((f"random-{k}", random_tree(rng, inst, max_depth=5), inst))
    return [pytest.param(tree, instance, k, id=name)
            for k, (name, tree, instance) in enumerate(cases)]


@pytest.mark.parametrize("tree, instance, k", stream_cases())
def test_simulate_draws_what_the_scalar_walk_draws(tree, instance, k):
    for trials in (0, 1, 2, 2500):
        assert_same_stream(tree, instance, trials, seed=k * 1000 + trials)


def test_simulate_carries_a_trial_across_blocks(box):
    # four seller nodes on every path: each trial takes five uniforms, and
    # five does not divide a block, so a block's last trial runs past its
    # last start and the next block begins where that trial ends
    rng = np.random.default_rng(7)

    def sellers(depth):
        if depth == 0:
            return TransferNode(float(rng.uniform(0.0, 0.01)), Leaf())
        kids = [sellers(depth - 1), sellers(depth - 1)]
        return SellerNode(children=kids,
                          transitions={w: rng.dirichlet(np.ones(2)) for w in box.omega})

    tree = sellers(4)
    assert all(evaluate(tree, box).participates.values())
    trials = 2 * SIM_BLOCK
    assert SIM_BLOCK % 5 != 0
    assert_same_stream(tree, box, trials, seed=11)


def test_simulate_runs_a_trial_longer_than_a_block(box, monkeypatch):
    # twelve seller nodes in a chain, walked in blocks of four starts: in
    # state "0" every trial goes to the bottom and takes thirteen uniforms
    monkeypatch.setattr("infosale.protocol.SIM_BLOCK", 4)
    rng = np.random.default_rng(12)
    node = TransferNode(0.01, Leaf())
    for _ in range(12):
        node = SellerNode(children=[node, TransferNode(float(rng.uniform(0.0, 0.01)), Leaf())],
                          transitions={"0": np.array([1.0, 0.0]),
                                       "1": rng.dirichlet(np.ones(2))})
    assert all(evaluate(node, box).participates.values())
    for trials in (1, 2, 9, 200):
        assert_same_stream(node, box, trials, seed=trials)


# -- evaluate and to_revelation against the recursive walks -------------------

def reference_evaluate(tree, instance):
    """evaluate as recursive backward induction and a recursive forward
    pass, the way it worked before it looped over the preorder layout."""
    ct = compile_tree(tree, instance)
    nodes, kids, mats = ct.nodes, ct.kids, ct.mats
    kind = ct.kind.tolist()
    amount = ct.amount.tolist()
    nw = len(instance.omega)
    util = instance.utility
    view = prior_view(instance)

    buyer_value: dict = {}
    reach: dict = {i: {} for i in range(len(nodes))}
    terminal: dict = {}
    strategy: dict = {}
    participates: dict = {}
    revenue = 0.0

    for (ti, bi), weight, belief in zip(view.index, view.weights, view.beliefs):
        key = (instance.theta[ti], float(instance.budgets[bi]))
        own_labels = (f"{key[0]}|{key[1]:.12g}", key[0])
        budget = instance.budgets[bi]
        uth = util[:, ti, :]
        choices: dict[int, object] = {}

        def best_action_value(w: np.ndarray) -> float:
            return max((w @ uth).tolist())

        def value(i: int, w: np.ndarray, spent: float) -> float:
            k = kind[i]
            if k == LEAF:
                return best_action_value(w)
            if k == TRANSFER:
                quit_val = best_action_value(w)
                if spent + amount[i] > budget + BUDGET_TOL:
                    choices[i] = "quit"
                    return quit_val
                pay_val = value(kids[i][0], w, spent + amount[i]) - amount[i] * w.sum()
                if quit_val > pay_val + TIE_TOL:
                    choices[i] = "quit"
                    return quit_val
                choices[i] = "pay"
                return pay_val
            if k == SELLER:
                mat = mats[i]
                return sum(value(c, w * mat[:, j], spent)
                           for j, c in enumerate(kids[i]))
            live = w.sum() > MASS_TOL
            vals = [value(c, w, spent) if live else -np.inf for c in kids[i]]
            quit_val = best_action_value(w)
            best = max(vals) if vals else -np.inf
            if quit_val > best + TIE_TOL or not np.isfinite(best):
                choices[i] = "quit"
                return quit_val
            tied = [j for j, v in enumerate(vals) if v >= best - TIE_TOL]
            labels = nodes[i].labels
            if labels is not None:
                for j in tied:
                    if labels[j] in own_labels:
                        choices[i] = j
                        return vals[j]
            pick = next((j for j in tied if choices.get(kids[i][j]) != "quit"),
                        tied[0])
            choices[i] = pick
            return vals[pick]

        root_val = value(0, belief.copy(), 0.0)
        outside = best_action_value(belief)
        participate = root_val >= outside - TIE_TOL
        participates[key] = participate
        buyer_value[key] = float(root_val if participate else outside)

        ends: dict[int, float] = {}
        paid_expect = 0.0

        def push(i: int, w: np.ndarray) -> None:
            nonlocal paid_expect
            reach[i][key] = reach[i].get(key, np.zeros(nw)) + w
            mass = w.sum()
            k = kind[i]
            if k == LEAF:
                ends[i] = ends.get(i, 0.0) + mass
                return
            if k == TRANSFER:
                if choices.get(i) == "quit":
                    ends[i] = ends.get(i, 0.0) + mass
                    return
                paid_expect += amount[i] * mass
                push(kids[i][0], w)
                return
            if k == SELLER:
                mat = mats[i]
                for j, c in enumerate(kids[i]):
                    wj = w * mat[:, j]
                    if wj.sum() > MASS_TOL:
                        push(c, wj)
                return
            pick = choices.get(i, "quit")
            if pick == "quit":
                ends[i] = ends.get(i, 0.0) + mass
            else:
                push(kids[i][pick], w)

        if participate:
            push(0, belief.copy())
        else:
            reach[0][key] = np.zeros(nw)
            ends[0] = 1.0

        terminal[key] = ends
        strategy[key] = choices
        revenue += weight * paid_expect

    return EvalResult(buyer_value=buyer_value, revenue=float(revenue),
                      reach=reach, terminal=terminal, strategy=strategy,
                      participates=participates, nodes=nodes)


def reference_to_revelation(tree, instance):
    """to_revelation as a recursive rebuild of each type's play."""
    ct = compile_tree(tree, instance)
    res = reference_evaluate(ct.nodes[0], instance)

    def resolve(i, choices):
        n = ct.nodes[i]
        if isinstance(n, Leaf):
            return Leaf()
        if isinstance(n, TransferNode):
            if choices.get(i) == "quit":
                return Leaf()
            return TransferNode(amount=n.amount, child=resolve(ct.kids[i][0], choices))
        if isinstance(n, SellerNode):
            return SellerNode(
                children=[resolve(c, choices) for c in ct.kids[i]],
                transitions={w: probs.copy() for w, probs in n.transitions.items()})
        pick = choices.get(i, "quit")
        if pick == "quit":
            return Leaf()
        return resolve(ct.kids[i][pick], choices)

    subtrees, labels = [], []
    for ti, bi in positive_types(instance):
        key = (instance.theta[ti], float(instance.budgets[bi]))
        subtrees.append(resolve(0, res.strategy[key]) if res.participates[key]
                        else Leaf())
        labels.append(f"{key[0]}|{key[1]:.12g}")
    return BuyerNode(children=subtrees, labels=labels)


@pytest.mark.parametrize("tree, instance, k", stream_cases())
def test_evaluate_matches_the_recursive_walk(tree, instance, k):
    got, want = evaluate(tree, instance), reference_evaluate(tree, instance)
    assert got.buyer_value == want.buyer_value
    assert got.revenue == want.revenue
    assert got.terminal == want.terminal
    assert got.strategy == want.strategy
    assert got.participates == want.participates
    assert all(a is b for a, b in zip(got.nodes, want.nodes))
    assert len(got.nodes) == len(want.nodes)
    assert got.reach.keys() == want.reach.keys()
    arrays = []
    for i, per_type in got.reach.items():
        assert list(per_type) == list(want.reach[i])
        for key, w in per_type.items():
            assert np.array_equal(w, want.reach[i][key])
            arrays.append(w)
    # every reach entry owns its data: none is a view of another
    assert all(w.base is None for w in arrays)
    assert len({id(w) for w in arrays}) == len(arrays)


@pytest.mark.parametrize("tree, instance, k", stream_cases())
def test_to_revelation_matches_the_recursive_rebuild(tree, instance, k):
    got = protocol_to_json_dict(to_revelation(tree, instance))
    want = protocol_to_json_dict(reference_to_revelation(tree, instance))
    assert json.dumps(got) == json.dumps(want)


def edge_case_buyers(box):
    offer = TransferNode(30.0, full_info_seller(box))
    return {
        "no-children": BuyerNode(children=[]),
        # the empty child quits, so the ladder stays through the leaf
        "empty-buyer-child": BuyerNode(children=[BuyerNode(children=[]), Leaf()]),
        # three offers at one price: each type takes the one naming it
        "own-labels-at-tied-prices": BuyerNode(children=[offer, offer, offer],
                                               labels=["other", "1|100", "0"]),
    }


@pytest.mark.parametrize("name", ["no-children", "empty-buyer-child",
                                  "own-labels-at-tied-prices"])
def test_evaluate_plays_edge_case_buyer_nodes(box, name):
    tree = edge_case_buyers(box)[name]
    test_evaluate_matches_the_recursive_walk(tree, box, None)
    test_to_revelation_matches_the_recursive_rebuild(tree, box, None)
    picks = {key: choices[0] for key, choices in evaluate(tree, box).strategy.items()}
    assert picks == {"no-children": {("0", 50.0): "quit", ("1", 100.0): "quit"},
                     "empty-buyer-child": {("0", 50.0): 1, ("1", 100.0): 1},
                     "own-labels-at-tied-prices": {("0", 50.0): 2, ("1", 100.0): 1}}[name]


def test_evaluate_matches_the_recursive_walk_at_fifteen_types():
    # probr-large plays 15 (type, budget) pairs; stream_cases reach 12 at most
    rng, draws = np.random.default_rng(20261020), []
    while len(draws) < 3:
        inst = random_correlated_instance(rng, max_states=5, max_types=5)
        if len(positive_types(inst)) == 15:
            draws.append(inst)
    for inst in draws:
        tree = mechanism_to_protocol(solve_cm_probr(inst), inst)
        for played in (tree, to_revelation(tree, inst)):
            test_evaluate_matches_the_recursive_walk(played, inst, None)


# -- trees deeper than the recursion limit -------------------------------------

def test_every_walker_runs_a_chain_deeper_than_the_recursion_limit(box):
    # 5,000 buyer nodes, each offering only to go on and pay 0.001 more,
    # above a seller node that reveals the state: every type pays 5 in all
    tree = full_info_seller(box)
    for _ in range(5000):
        tree = BuyerNode(children=[TransferNode(0.001, tree)])
    assert 10_000 > sys.getrecursionlimit()
    res = evaluate(tree, box)
    assert res.revenue == pytest.approx(5.0, abs=1e-9)
    out = simulate(tree, box, 200, np.random.default_rng(0))
    assert out["trials"] == 200
    assert out["mean_revenue"] == pytest.approx(5.0, abs=1e-9)
    rev = to_revelation(tree, box)
    assert evaluate(rev, box).revenue == pytest.approx(5.0, abs=1e-9)
    data = protocol_to_json_dict(tree)
    again = parse_protocol(data)
    assert len(compile_tree(again, box).nodes) == len(res.nodes)
    assert evaluate(again, box).revenue == res.revenue
