"""Interactive information-selling protocols as finite extensive-form trees.

A protocol alternates three kinds of internal nodes — seller nodes that leak
information (each outgoing edge carries a per-state probability), buyer nodes
where the buyer picks an edge or walks away, and transfer nodes that move
money (positive = buyer pays) — ending in leaves where the buyer takes their
best action under the accumulated posterior.

evaluate() computes, per (type, budget), the buyer's optimal pure strategy by
backward induction over unnormalized path weights, enforcing two budget
rules: the buyer is forced to quit at any transfer that would push their net
cumulative payment past their budget, and the seller may never owe the buyer
more than her own stake M on any structurally reachable path.

to_revelation() collapses any tree into an equivalent one whose single buyer
decision is an up-front report of (type, budget); mechanism_to_protocol()
embeds a Menu from .mechanisms as a report-pay-signal tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ProtocolInvalidError
from .mechanisms import Menu
from .model import Instance, conditional_belief, positive_types

TIE_TOL = 1e-9       # value gaps below this count as indifference
BUDGET_TOL = 1e-9    # slack allowed on budget comparisons
MASS_TOL = 1e-15     # path weights below this are treated as unreachable


@dataclass
class Leaf:
    kind = "leaf"


@dataclass
class TransferNode:
    amount: float
    child: "Node"
    kind = "transfer"


@dataclass
class BuyerNode:
    children: list["Node"]
    labels: list[str] | None = None
    kind = "buyer"


@dataclass
class SellerNode:
    children: list["Node"]
    # state label -> per-child transition probabilities (rows sum to 1)
    transitions: dict[str, np.ndarray] = field(default_factory=dict)
    kind = "seller"


Node = Leaf | TransferNode | BuyerNode | SellerNode


@dataclass
class EvalResult:
    """Everything evaluate() learns about a tree.

    buyer_value: absolute expected utility per (type label, budget), with
        transfers netted out and the walk-away option folded in.
    revenue: prior-weighted expected sum of transfers the seller collects.
    reach: node id -> (type, budget) -> per-state probability of arriving.
    terminal: (type, budget) -> node id -> probability the interaction ends
        there (a leaf, or the node at which that type quits).
    strategy: (type, budget) -> node id -> decision: a child index at buyer
        nodes, "quit" at buyer or transfer nodes, "pay" at funded transfers.
    participates: (type, budget) -> False when walking away before the first
        node beats playing the tree at all.
    nodes: preorder list of node objects; ids index into it.
    """
    buyer_value: dict
    revenue: float
    reach: dict
    terminal: dict
    strategy: dict
    participates: dict
    nodes: list


# ---------------------------------------------------------------------------
# construction / serialization
# ---------------------------------------------------------------------------


def parse_protocol(data: dict) -> Node:
    """Build a tree from nested JSON-style dicts (see protocol_to_json_dict)."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ProtocolInvalidError("protocol node must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "leaf":
        return Leaf()
    if kind == "transfer":
        if "child" not in data:
            raise ProtocolInvalidError("transfer node needs exactly one 'child'")
        amount = float(data.get("amount", 0.0))
        if not np.isfinite(amount):
            raise ProtocolInvalidError("transfer amount must be finite")
        return TransferNode(amount=amount, child=parse_protocol(data["child"]))
    if kind == "buyer":
        children = [parse_protocol(c) for c in data.get("children", [])]
        if not children:
            raise ProtocolInvalidError("buyer node needs at least one child")
        labels = data.get("labels")
        if labels is not None and len(labels) != len(children):
            raise ProtocolInvalidError("buyer node labels must match its children")
        return BuyerNode(children=children, labels=labels)
    if kind == "seller":
        children = [parse_protocol(c) for c in data.get("children", [])]
        if not children:
            raise ProtocolInvalidError("seller node needs at least one child")
        table: dict[str, np.ndarray] = {}
        for row in data.get("transitions", []):
            w = str(row["omega"])
            j = int(row["child_index"])
            p = float(row["p"])
            if not 0 <= j < len(children):
                raise ProtocolInvalidError(f"seller transition child_index {j} out of range")
            if not (np.isfinite(p) and -1e-12 <= p <= 1 + 1e-12):
                raise ProtocolInvalidError(f"seller transition probability {p} out of [0, 1]")
            table.setdefault(w, np.zeros(len(children)))[j] += p
        return SellerNode(children=children, transitions=table)
    raise ProtocolInvalidError(f"unknown protocol node kind {kind!r}")


def protocol_to_json_dict(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"kind": "leaf"}
    if isinstance(node, TransferNode):
        return {"kind": "transfer", "amount": float(node.amount),
                "child": protocol_to_json_dict(node.child)}
    if isinstance(node, BuyerNode):
        out = {"kind": "buyer",
               "children": [protocol_to_json_dict(c) for c in node.children]}
        if node.labels is not None:
            out["labels"] = list(node.labels)
        return out
    if isinstance(node, SellerNode):
        rows = []
        for w, probs in node.transitions.items():
            for j, p in enumerate(probs):
                if p > 0.0:
                    rows.append({"omega": w, "child_index": j, "p": float(p)})
        return {"kind": "seller", "transitions": rows,
                "children": [protocol_to_json_dict(c) for c in node.children]}
    raise InputError(f"not a protocol node: {node!r}")


def _index_nodes(root: Node) -> list[Node]:
    """Preorder listing; a node's id is its position here."""
    nodes: list[Node] = []

    def walk(n: Node) -> None:
        nodes.append(n)
        if isinstance(n, TransferNode):
            walk(n.child)
        elif isinstance(n, (BuyerNode, SellerNode)):
            for c in n.children:
                walk(c)

    walk(root)
    return nodes


def _seller_rows(node: SellerNode, instance: Instance) -> np.ndarray:
    """Transition matrix (n_omega, n_children); validates stochasticity."""
    nw = len(instance.omega)
    mat = np.zeros((nw, len(node.children)))
    for w_label, probs in node.transitions.items():
        mat[instance.omega_id(w_label)] = probs
    bad = np.abs(mat.sum(axis=1) - 1.0) > 1e-9
    if bad.any():
        w = instance.omega[int(np.argmax(bad))]
        raise ProtocolInvalidError(
            f"seller node's transition row for state {w!r} does not sum to 1")
    return mat


def _check_seller_budget(root: Node, seller_budget: float) -> None:
    """The seller can owe at most her stake M at any point of any path a
    buyer could force (buyer edges are always considered takeable)."""

    def walk(n: Node, paid: float) -> None:
        if isinstance(n, TransferNode):
            paid += n.amount
            if paid < -seller_budget - BUDGET_TOL:
                raise ProtocolInvalidError(
                    f"a path pays the buyer {-paid:g} cumulatively, beyond the "
                    f"seller's stake {seller_budget:g}")
            walk(n.child, paid)
        elif isinstance(n, BuyerNode):
            for c in n.children:
                walk(c, paid)
        elif isinstance(n, SellerNode):
            for j, c in enumerate(n.children):
                mass = max((probs[j] for probs in n.transitions.values()), default=0.0)
                if mass > 0.0:
                    walk(c, paid)

    walk(root, 0.0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(tree: Node, instance: Instance) -> EvalResult:
    """Optimal-play evaluation of a protocol tree for every positive type.

    Beliefs only ever move at seller nodes, so each node's posterior is
    path-determined; we propagate unnormalized weights w(omega) and compare
    values in that common measure, which makes the seller-node recursion
    linear and the buyer-node argmax exact. Walking away is available before
    the first node and at every buyer node; a transfer the buyer cannot
    finance (net cumulative payment would pass their budget) converts into a
    quit on the spot. Ties break toward the lowest-index child, and toward
    staying rather than quitting.
    """
    nodes = _index_nodes(tree)
    ids = {id(n): i for i, n in enumerate(nodes)}
    _check_seller_budget(tree, instance.seller_budget)
    seller_mats = {id(n): _seller_rows(n, instance)
                   for n in nodes if isinstance(n, SellerNode)}
    nw = len(instance.omega)
    util = instance.utility
    marg = instance.type_marginal()

    buyer_value: dict = {}
    reach: dict = {i: {} for i in range(len(nodes))}
    terminal: dict = {}
    strategy: dict = {}
    participates: dict = {}
    revenue = 0.0

    for ti, bi in positive_types(instance):
        key = (instance.theta[ti], float(instance.budgets[bi]))
        own_labels = (f"{key[0]}|{key[1]:.12g}", key[0])
        budget = instance.budgets[bi]
        belief = conditional_belief(instance, ti, bi)
        uth = util[:, ti, :]
        choices: dict[int, object] = {}

        def best_action_value(w: np.ndarray) -> float:
            return float((w @ uth).max())

        def value(n: Node, w: np.ndarray, spent: float) -> float:
            if isinstance(n, Leaf):
                return best_action_value(w)
            if isinstance(n, TransferNode):
                quit_val = best_action_value(w)
                if spent + n.amount > budget + BUDGET_TOL:
                    choices[ids[id(n)]] = "quit"
                    return quit_val
                pay_val = value(n.child, w, spent + n.amount) - n.amount * w.sum()
                # leaving is allowed before any payment, not only at buyer
                # nodes; ties stay (mirrors the weak inequalities downstream)
                if quit_val > pay_val + TIE_TOL:
                    choices[ids[id(n)]] = "quit"
                    return quit_val
                choices[ids[id(n)]] = "pay"
                return pay_val
            if isinstance(n, SellerNode):
                mat = seller_mats[id(n)]
                return sum(value(c, w * mat[:, j], spent)
                           for j, c in enumerate(n.children))
            # buyer node: pick the best continuation, else walk away
            vals = [value(c, w, spent) if (w.sum() > MASS_TOL) else -np.inf
                    for c in n.children]
            quit_val = best_action_value(w)
            best = max(vals) if vals else -np.inf
            if quit_val > best + TIE_TOL or not np.isfinite(best):
                choices[ids[id(n)]] = "quit"
                return quit_val
            # indifference ladder: an option labeled with the buyer's own
            # identity wins first (the buyer cooperates when it costs
            # nothing), then staying beats quitting -- including through a
            # child that itself quits immediately, since choosing that child
            # is just quitting relocated -- then lowest index
            tied = [j for j, v in enumerate(vals) if v >= best - TIE_TOL]
            if n.labels is not None:
                for j in tied:
                    if n.labels[j] in own_labels:
                        choices[ids[id(n)]] = j
                        return vals[j]
            pick = next((j for j in tied
                         if choices.get(ids[id(n.children[j])]) != "quit"),
                        tied[0])
            choices[ids[id(n)]] = pick
            return vals[pick]

        root_val = value(tree, belief.copy(), 0.0)
        outside = best_action_value(belief)
        participate = root_val >= outside - TIE_TOL
        participates[key] = participate
        buyer_value[key] = float(root_val if participate else outside)

        # forward pass under the recorded strategy
        ends: dict[int, float] = {}
        paid_expect = 0.0
        node_reach = reach

        def push(n: Node, w: np.ndarray) -> None:
            nonlocal paid_expect
            nid = ids[id(n)]
            node_reach[nid][key] = node_reach[nid].get(key, np.zeros(nw)) + w
            mass = w.sum()
            if isinstance(n, Leaf):
                ends[nid] = ends.get(nid, 0.0) + mass
                return
            if isinstance(n, TransferNode):
                if choices.get(nid) == "quit":
                    ends[nid] = ends.get(nid, 0.0) + mass
                    return
                paid_expect += n.amount * mass
                push(n.child, w)
                return
            if isinstance(n, SellerNode):
                mat = seller_mats[id(n)]
                for j, c in enumerate(n.children):
                    wj = w * mat[:, j]
                    if wj.sum() > MASS_TOL:
                        push(c, wj)
                return
            pick = choices.get(nid, "quit")
            if pick == "quit":
                ends[nid] = ends.get(nid, 0.0) + mass
            else:
                push(n.children[pick], w)

        if participate:
            push(tree, belief.copy())
        else:
            rid = ids[id(tree)]
            node_reach[rid][key] = np.zeros(nw)
            ends[rid] = 1.0

        terminal[key] = ends
        strategy[key] = choices
        revenue += marg[ti, bi] * paid_expect

    return EvalResult(buyer_value=buyer_value, revenue=float(revenue),
                      reach=reach, terminal=terminal, strategy=strategy,
                      participates=participates, nodes=nodes)


# ---------------------------------------------------------------------------
# revelation collapse
# ---------------------------------------------------------------------------


def to_revelation(tree: Node, instance: Instance) -> Node:
    """Fold optimal play into the tree: the returned tree's root is a buyer
    node with one child per (type, budget) report, and each child is the
    original tree with that type's computed decisions hard-wired (buyer
    nodes replaced by the chosen branch, quits by leaves). Truthful values
    and revenue are preserved; a deviating report walks some fixed policy of
    the original tree and so can never beat truth-telling.
    """
    res = evaluate(tree, instance)
    ids = {id(n): i for i, n in enumerate(res.nodes)}

    def resolve(n: Node, choices: dict) -> Node:
        if isinstance(n, Leaf):
            return Leaf()
        if isinstance(n, TransferNode):
            if choices.get(ids[id(n)]) == "quit":
                return Leaf()
            return TransferNode(amount=n.amount, child=resolve(n.child, choices))
        if isinstance(n, SellerNode):
            return SellerNode(
                children=[resolve(c, choices) for c in n.children],
                transitions={w: probs.copy() for w, probs in n.transitions.items()})
        pick = choices.get(ids[id(n)], "quit")
        if pick == "quit":
            return Leaf()
        return resolve(n.children[pick], choices)

    subtrees, labels = [], []
    for ti, bi in positive_types(instance):
        key = (instance.theta[ti], float(instance.budgets[bi]))
        sub = (resolve(tree, res.strategy[key]) if res.participates[key]
               else Leaf())
        subtrees.append(sub)
        labels.append(f"{key[0]}|{key[1]:.12g}")
    return BuyerNode(children=subtrees, labels=labels)


# ---------------------------------------------------------------------------
# mechanism embeddings and examples
# ---------------------------------------------------------------------------


def mechanism_to_protocol(mech: Menu, instance: Instance) -> Node:
    """Embed a menu mechanism as a tree: a buyer node (the report), then per
    report a transfer of what the wallet must cover up front, a seller node
    announcing the recommendation (one child per kernel column) and, under a
    column whose block transfer differs from that cost, the difference."""
    children: list[Node] = []
    labels: list[str] = []
    for i, (th, b) in enumerate(mech.menu):
        cost = mech.cost(i)
        tails: list[Node] = [
            Leaf() if t == cost else TransferNode(amount=t - cost, child=Leaf())
            for _, t, cols in mech.blocks(i) for _ in range(cols.shape[1])]
        transitions = dict(zip(instance.omega, mech.kernel[i].astype(float)))
        children.append(TransferNode(amount=cost, child=SellerNode(
            children=tails, transitions=transitions)))
        labels.append(th if mech.kind == "dirp" else f"{th}|{b:.12g}")
    return BuyerNode(children=children, labels=labels)


def two_option_tree() -> Node:
    """The two-option menu for the treasure-box instance: pay 50 for the
    state, or pay 100 and get 61 back with the state. Worth 44.5 in
    expectation — more than any single up-front price can manage."""
    def reveal() -> SellerNode:
        return SellerNode(
            children=[Leaf(), Leaf()],
            transitions={"0": np.array([1.0, 0.0]), "1": np.array([0.0, 1.0])})

    option1 = TransferNode(amount=50.0, child=reveal())
    option2 = TransferNode(
        amount=100.0, child=TransferNode(amount=-61.0, child=reveal()))
    return BuyerNode(children=[option1, option2], labels=["pay-50", "pay-100-refund-61"])


def simulate(tree: Node, instance: Instance, trials: int,
             rng: np.random.Generator) -> dict:
    """Monte-Carlo walk of the tree under optimal buyer play.

    Draws (state, type, budget) from the prior, routes seller nodes by the
    true state, follows the strategy computed by evaluate, and accounts the
    transfers actually paid. Returns the realized mean revenue with its
    standard error alongside the exact value, plus per-type visit counts.
    """
    if trials < 0:
        raise InputError("trials must be nonnegative")
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
    return {
        "trials": trials,
        "mean_revenue": mean,
        "stderr": stderr,
        "exact_revenue": res.revenue,
        "type_counts": counts,
    }
