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


LEAF, TRANSFER, BUYER, SELLER = range(4)


@dataclass
class CompiledTree:
    """A tree laid out in preorder; a node's id is its position in `nodes`.

    kids[i] lists node i's child ids, and the same table in CSR form is
    child[first[i]:first[i + 1]]. At a seller node with n children,
    mats[i] is the (state, child) transition matrix, row w's running sums
    are the n entries of cum from cum_at[i] + w * n, and rowsum[i, w] is
    that row's total.
    """
    nodes: list
    kind: np.ndarray        # LEAF, TRANSFER, BUYER or SELLER
    kids: list
    first: np.ndarray
    child: np.ndarray
    amount: np.ndarray      # transfer amount; 0 at other nodes
    mats: list              # None except at seller nodes
    cum: np.ndarray
    cum_at: np.ndarray
    rowsum: np.ndarray


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


def _check_seller_budget(nodes: list, kinds: list, kids: list,
                         seller_budget: float) -> None:
    """The seller can owe at most her stake M at any point of any path a
    buyer could force (buyer edges are always considered takeable). One
    pass in preorder carries each node's cumulative transfer on arrival."""
    paid: list = [None] * len(nodes)   # None: no forcible path arrives
    paid[0] = 0.0
    for i, n in enumerate(nodes):
        total = paid[i]
        if total is None:
            continue
        if kinds[i] == TRANSFER:
            total += n.amount
            if total < -seller_budget - BUDGET_TOL:
                raise ProtocolInvalidError(
                    f"a path pays the buyer {-total:g} cumulatively, beyond the "
                    f"seller's stake {seller_budget:g}")
        reached = kids[i]
        if kinds[i] == SELLER:
            # an edge no state takes is not a path the buyer can force
            mass = (np.max(list(n.transitions.values()), axis=0) if n.transitions
                    else np.zeros(len(reached)))
            reached = [c for c, m in zip(reached, mass) if m > 0.0]
        for c in reached:
            paid[c] = total


def compile_tree(root: Node, instance: Instance) -> CompiledTree:
    """Lay a tree out in preorder arrays and validate it for `instance`.

    Raises ProtocolInvalidError if a seller row is not a distribution, or if
    some path the buyer could force leaves the seller owing more than her
    stake M (buyer edges always count as takeable, seller edges only when
    some state gives them mass).
    """
    nodes: list[Node] = []
    kinds: list[int] = []
    kids: list[list[int]] = []
    stack: list[tuple[Node, int]] = [(root, -1)]
    while stack:
        n, parent = stack.pop()
        i = len(nodes)
        nodes.append(n)
        kids.append([])
        if parent >= 0:
            kids[parent].append(i)
        if isinstance(n, Leaf):
            kinds.append(LEAF)
        elif isinstance(n, TransferNode):
            kinds.append(TRANSFER)
            stack.append((n.child, i))
        elif isinstance(n, (BuyerNode, SellerNode)):
            kinds.append(BUYER if isinstance(n, BuyerNode) else SELLER)
            stack.extend((c, i) for c in reversed(n.children))
        else:
            raise InputError(f"not a protocol node: {n!r}")
    _check_seller_budget(nodes, kinds, kids, instance.seller_budget)

    kind = np.array(kinds, dtype=np.int8)
    counts = np.array([len(k) for k in kids], dtype=np.intp)
    first = np.concatenate(([0], np.cumsum(counts)))
    child = np.array([c for k in kids for c in k], dtype=np.intp)
    amount = np.array([n.amount if kinds[i] == TRANSFER else 0.0
                       for i, n in enumerate(nodes)], dtype=float)
    mats: list = [None] * len(nodes)
    sums, rowsum = [], np.zeros((len(nodes), len(instance.omega)))
    cum_at = np.zeros(len(nodes), dtype=np.intp)
    at = 0
    for i in np.flatnonzero(kind == SELLER):
        mat = mats[i] = _seller_rows(nodes[i], instance)
        # along rows, cumsum and sum give each row the same bits as
        # np.cumsum(row) and row.sum(), which a scalar draw would compare
        sums.append(np.cumsum(mat, axis=1).ravel())
        rowsum[i] = mat.sum(axis=1)
        cum_at[i] = at
        at += mat.size
    cum = np.concatenate(sums) if sums else np.zeros(0)
    return CompiledTree(nodes=nodes, kind=kind, kids=kids, first=first, child=child,
                        amount=amount, mats=mats, cum=cum, cum_at=cum_at,
                        rowsum=rowsum)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(tree: Node | CompiledTree, instance: Instance) -> EvalResult:
    """Optimal-play evaluation of a protocol tree for every positive type.

    Beliefs only ever move at seller nodes, so each node's posterior is
    path-determined; we propagate unnormalized weights w(omega) and compare
    values in that common measure, which makes the seller-node recursion
    linear and the buyer-node argmax exact. Walking away is available before
    the first node and at every buyer node; a transfer the buyer cannot
    finance (net cumulative payment would pass their budget) converts into a
    quit on the spot. Ties break toward the lowest-index child, and toward
    staying rather than quitting. `tree` may also be compile_tree's output
    for this instance.
    """
    ct = tree if isinstance(tree, CompiledTree) else compile_tree(tree, instance)
    nodes, kids, mats = ct.nodes, ct.kids, ct.mats
    kind = ct.kind.tolist()
    amount = ct.amount.tolist()
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
                # leaving is allowed before any payment, not only at buyer
                # nodes; ties stay (mirrors the weak inequalities downstream)
                if quit_val > pay_val + TIE_TOL:
                    choices[i] = "quit"
                    return quit_val
                choices[i] = "pay"
                return pay_val
            if k == SELLER:
                mat = mats[i]
                return sum(value(c, w * mat[:, j], spent)
                           for j, c in enumerate(kids[i]))
            # buyer node: pick the best continuation, else walk away
            live = w.sum() > MASS_TOL
            vals = [value(c, w, spent) if live else -np.inf for c in kids[i]]
            quit_val = best_action_value(w)
            best = max(vals) if vals else -np.inf
            if quit_val > best + TIE_TOL or not np.isfinite(best):
                choices[i] = "quit"
                return quit_val
            # indifference ladder: an option labeled with the buyer's own
            # identity wins first (the buyer cooperates when it costs
            # nothing), then staying beats quitting -- including through a
            # child that itself quits immediately, since choosing that child
            # is just quitting relocated -- then lowest index
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

        # forward pass under the recorded strategy
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
    ct = compile_tree(tree, instance)
    res = evaluate(ct, instance)

    def resolve(i: int, choices: dict) -> Node:
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
        sub = (resolve(0, res.strategy[key]) if res.participates[key]
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


SIM_BLOCK = 4096   # uniforms drawn, and trial starts walked, at a time


def simulate(tree: Node, instance: Instance, trials: int,
             rng: np.random.Generator) -> dict:
    """Monte-Carlo walk of the tree under optimal buyer play.

    Draws (state, type, budget) from the prior, routes seller nodes by the
    true state, follows the strategy computed by evaluate, and accounts the
    transfers actually paid. Returns the realized mean revenue with its
    standard error alongside the exact value, plus per-type visit counts.

    Trial by trial, the draws are those of a walk that takes one uniform
    rng.random() for the (state, type, budget) and one more at each seller
    node it visits, where it picks the child by searchsorted(side="right")
    of the uniform times the row total among the row's running sums. To run
    vectorized, every position of a block of uniforms is walked as if a
    trial started there, and the real starts are the chain that begins
    where the previous trial ended. A trial still walking at the end of a
    block carries into the next. The generator is left just past the
    uniforms the trials used.
    """
    if trials < 0:
        raise InputError("trials must be nonnegative")
    ct = compile_tree(tree, instance)
    res = evaluate(ct, instance)
    keys = [(th, float(b)) for th in instance.theta for b in instance.budgets]
    plays = np.array([res.participates.get(key, False) for key in keys])
    # a walk's next node per (type class, node), -1 where it ends: transfers
    # pay and buyers quit unless the class's strategy says otherwise
    move = np.full((len(keys), len(ct.nodes)), -1, dtype=np.intp)
    pays = np.flatnonzero(ct.kind == TRANSFER)
    move[:, pays] = ct.child[ct.first[pays]]
    for c, key in enumerate(keys):
        for i, choice in res.strategy.get(key, {}).items():
            if choice == "quit":
                move[c, i] = -1
            elif choice != "pay":
                move[c, i] = ct.kids[i][choice]
    move = move.ravel()
    prior_cum = np.cumsum(instance.prior.reshape(-1))

    takes = np.zeros(trials)
    classes = np.zeros(trials, dtype=np.intp)
    done = 0
    chain = 0     # position of the next trial's first uniform
    base = 0      # position of the block's first uniform
    # the walk of the trial at chain when it ran past the last block
    carry = np.zeros((5, 0), dtype=np.intp), np.zeros(0)
    while done < trials:
        state = rng.bit_generator.state
        # a trial takes at least one uniform; a short run draws no full block
        u = rng.random(min(SIM_BLOCK, 2 * (trials - done)))
        used, paid, cls, walking = _walk_block(
            ct, move, plays, prior_cum, instance.prior.shape, u, base, chain, carry)
        steps = used.tolist()
        steps.append(0)    # the chain stops here, or at a trial still walking
        r, starts = 0, []
        while step := steps[r]:
            starts.append(r)
            r += step
        if len(starts) > trials - done:
            del starts[trials - done:]
            r = starts[-1] + steps[starts[-1]]
        takes[done:done + len(starts)] = paid[starts]
        classes[done:done + len(starts)] = cls[starts]
        done += len(starts)
        chain += r
        mine = walking[0][0] == chain
        carry = walking[0][:, mine], walking[1][mine]
        base += len(u)
    if trials:
        # rewind to the last block and take only the uniforms trials used
        rng.bit_generator.state = state
        rng.random(chain - (base - len(u)))
        found, first, n = np.unique(classes, return_index=True, return_counts=True)
        counts = {keys[found[o]]: int(n[o]) for o in np.argsort(first)}
    else:
        counts = {}
    mean = float(takes.mean()) if trials else 0.0
    stderr = float(takes.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return {
        "trials": trials,
        "mean_revenue": mean,
        "stderr": stderr,
        "exact_revenue": res.revenue,
        "type_counts": counts,
    }


def _walk_block(ct: CompiledTree, move: np.ndarray, plays: np.ndarray,
                prior_cum: np.ndarray, shape: tuple, u: np.ndarray, base: int,
                lo: int, carry: tuple) -> tuple:
    """Walk a trial from every position of a block of uniforms.

    u holds the uniforms at positions base, base + 1, ... A walk is a column
    of (position, node, uniforms used, state, type class) with what it has
    paid beside it; carry, when it has a column, is the walk of a trial that
    started at lo < base and stopped at base for want of a uniform. Returns,
    for every position from lo to the block's end, the uniforms its trial
    used (0 while still walking), what it paid and its type class, and the
    walks that stopped at the block's end.
    """
    end = base + len(u)
    n_nodes = len(ct.nodes)
    n_kids = np.diff(ct.first)
    w, ti, bi = np.unravel_index(
        np.searchsorted(prior_cum, u * prior_cum[-1], side="right"), shape)
    cls = ti * shape[2] + bi
    used = np.ones(end - lo, dtype=np.intp)
    paid = np.zeros(end - lo)
    classes = np.zeros(end - lo, dtype=np.intp)
    classes[base - lo:] = cls
    go = np.flatnonzero(plays[cls])
    walk = np.stack([base + go, np.zeros_like(go), np.ones_like(go), w[go], cls[go]])
    total = np.zeros(go.size)
    if carry[1].size:
        walk = np.concatenate([carry[0], walk], axis=1)
        total = np.concatenate([carry[1], total])
        classes[0] = carry[0][4, 0]
    parked = [(walk[:, :0], total[:0])]
    while walk.shape[1]:
        pos, node, k, w, c = walk
        seller = ct.kind[node] == SELLER
        stuck = seller & (pos + k >= end)
        if stuck.any():
            parked.append((walk[:, stuck], total[stuck]))
            keep = ~stuck
            walk, total, seller = walk[:, keep], total[keep], seller[keep]
            pos, node, k, w, c = walk
        nxt = move[c * n_nodes + node]
        s = np.flatnonzero(seller)
        if s.size:
            at, ws, width = node[s], w[s], n_kids[node[s]]
            x = u[pos[s] + k[s] - base] * ct.rowsum[at, ws]
            j = _bisect_right(ct.cum, ct.cum_at[at] + ws * width, width, x)
            nxt[s] = ct.child[ct.first[at] + np.minimum(j, width - 1)]
            k[s] += 1
        stop = nxt < 0
        if stop.any():
            used[pos[stop] - lo] = k[stop]
            paid[pos[stop] - lo] = total[stop]
            keep = ~stop
            walk, total, nxt = walk[:, keep], total[keep], nxt[keep]
        # a transfer walked through is paid; other nodes add an exact 0
        total = total + ct.amount[walk[1]]
        walk[1] = nxt
    walking = (np.concatenate([p[0] for p in parked], axis=1),
               np.concatenate([p[1] for p in parked]))
    used[walking[0][0] - lo] = 0
    return used, paid, classes, walking


def _bisect_right(cum: np.ndarray, row: np.ndarray, width: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """np.searchsorted(cum[row[i]:row[i] + width[i]], x[i], side="right") for
    every i, by the bisection numpy runs for a single key, so rows that are
    not quite sorted give the same answer too."""
    lo, hi = np.zeros_like(width), width.copy()
    while (live := lo < hi).any():
        mid = (lo + hi) >> 1
        right = ~(x < cum[row + np.minimum(mid, width - 1)])
        lo = np.where(live & right, mid + 1, lo)
        hi = np.where(live & ~right, mid, hi)
    return lo
