"""Revenue-optimal menus for selling information, as polynomial-size LPs.

Every mechanism is a `Menu`: the buyer reports a menu entry, a kernel draws
the action to recommend, and a transfer settles. The four kinds differ only
in how that transfer is charged:

* dirp         -- direct payment at a public common budget; reports are types
                  only (solve_cm_dirp).
* depr         -- deposit-and-return: the buyer deposits the reported budget
                  (so budget reports are self-verifying downward) and gets
                  back deposit minus price (solve_cm_depr).
* single-round -- direct payment with an *unverified* budget report: a
                  deviation is available whenever its price fits the true
                  wallet. Diagnostic; a mixed-integer program picks which
                  budget levels can afford each item, then that pattern's LP
                  gives the menu (solve_single_round).
* probr        -- probabilistic return: the buyer deposits the reported budget,
                  and per recommendation the mechanism keeps it ("+") or
                  returns it plus the seller's whole stake M ("-"), so the net
                  transfer is a two-point lottery {deposit, -M}
                  (solve_cm_probr).

Menu.blocks, Menu.cost and Menu.find (with lookup, its form for many buyers)
hold every difference between the kinds; revenue, buyer utility,
verification and the protocol embedding read a menu only through them.
menu_values is the one table of a menu's values against a prior, which
verification, expected revenue and the revenue cap read. Every solver builds
one menu LP (_add_menu_model) and solves, cleans and prices it with one step
(_solve_menu); the kinds pass only their transfer blocks, beliefs,
truthfulness pairs and price boxes. The first three require the state to be
independent of (type, budget); probr handles correlated priors over any
model.PriorView, and solve_cm_probr is the sampling module's eps-slack LP at
eps = 0 over the instance's own view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError, SolverFailure
from .lpcore import INFEASIBLE, LinearProgram
from .model import (Instance, PriorView, conditional_belief, information_values,
                    is_independent, prior_view, PROB_TOL)


def pair_key(theta: str, b: float) -> str:
    """Stable string key for a (type, budget) menu entry."""
    return f"{theta}|{float(b):.12g}"


# ---------------------------------------------------------------------------
# the mechanism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Menu:
    """A menu of transfer lotteries: report entry i, receive a recommendation
    drawn from kernel[i] given the state, and pay the transfer of the block
    the recommendation came from.

    menu:      one (theta, b) per entry; a dirp entry carries the public budget.
    payments:  (m,) the price, or for probr the deposit b.
    kernel:    (m, n_omega, K * n_actions), K transfer blocks side by side,
               column c recommending action c mod n_actions; every (entry,
               state) row sums to 1. K = 2 for probr, 1 otherwise.
    utilities: (m,) truthful obedient expected utility.
    revenue:   the seller's expected take.
    seller_budget: the stake M a probr refund pays out.
    """

    kind: str                   # "dirp", "depr", "single-round" or "probr"
    menu: tuple[tuple[str, float], ...]
    payments: np.ndarray
    kernel: np.ndarray
    utilities: np.ndarray
    revenue: float
    seller_budget: float = 0.0

    def blocks(self, i: int) -> list[tuple[str | None, float, np.ndarray]]:
        """(indicator, transfer, columns) for each transfer block of entry i:
        the buyer pays `transfer` when the recommendation is drawn from
        `columns` (n_omega, n_actions)."""
        if self.kind != "probr":
            return [(None, float(self.payments[i]), self.kernel[i])]
        na = self.kernel.shape[-1] // 2
        return [("+", float(self.payments[i]), self.kernel[i, :, :na]),
                ("-", -float(self.seller_budget), self.kernel[i, :, na:])]

    def cost(self, i: int) -> float:
        """What the wallet must cover to take entry i: the price when it is
        paid outright, the deposit otherwise."""
        if self.kind in ("dirp", "single-round"):
            return float(self.payments[i])
        return float(self.menu[i][1])

    def lookup(self, thetas, budgets) -> np.ndarray:
        """The entry each truthful (theta, b) buyer reports, -1 for none: the
        first of the buyer's type whose level is b up to PROB_TOL (relative,
        as budget_id matches), or of the buyer's type alone for dirp."""
        if not self.menu:
            return np.full(len(thetas), -1)
        code = {}
        entry_type = np.array([code.setdefault(t, len(code)) for t, _ in self.menu])
        levels = np.array([lv for _, lv in self.menu], dtype=float)
        same = np.abs(levels - np.asarray(budgets, dtype=float)[:, None]) <= (
            PROB_TOL * np.maximum(1.0, np.abs(levels)))
        match = (np.array([code.get(t, -1) for t in thetas])[:, None] == entry_type) & (
            same | (self.kind == "dirp"))
        return np.where(match.any(axis=1), match.argmax(axis=1), -1)

    def find(self, theta: str, b: float) -> int | None:
        """lookup for one buyer, with None for no entry."""
        i = int(self.lookup([theta], [b])[0])
        return None if i < 0 else i

    def menu_index(self, theta: str, b: float) -> int:
        i = self.find(theta, b)
        if i is None:
            raise InputError(f"({theta!r}, {b:g}) is not on the mechanism's menu")
        return i



# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def affordable(cost, b):
    """Whether a wallet of b covers cost, up to 1e-9: the one affordability
    rule of buyers, checks and the probabilistic-return LP's report pairs
    (arrays broadcast)."""
    return cost <= b + 1e-9


def _require_independent(instance: Instance, what: str) -> None:
    if not is_independent(instance):
        raise PreconditionError(
            f"{what} requires the state to be independent of (type, budget); "
            "this instance's prior does not factor")


def _rec_values(belief: np.ndarray, rows: np.ndarray, util: np.ndarray) -> np.ndarray:
    """values[i, c, a]: what playing action a whenever column c of rows[i]
    recommends is worth under belief[i] and util[i], not normalized by the
    column's mass. belief is (k, n_omega), rows (k, n_omega, columns) and
    util (k, n_omega, n_actions)."""
    return np.einsum("iw,iwc,iwa->ica", belief, rows, util)


def _clean_kernel(rows: np.ndarray, belief: np.ndarray, util: np.ndarray) -> np.ndarray:
    """Zero negative entries, renormalize each state's row, and merge each
    recommendation into the one its own posterior best-responds to.

    rows (m, n_omega, k * n_actions) holds k transfer blocks side by side,
    column c recommending action c mod n_actions; belief (m, n_omega) and
    util (m, n_omega, n_actions) are each menu entry's belief and utility
    rows. Mass moves only within its transfer block, so revenue is unchanged,
    the truthful buyer gains the regret removed and a misreport can only
    lose: truthfulness and participation survive, and obedience holds by
    construction rather than up to the solver's tolerance. A column moves
    only when its regret exceeds the rounding error of its own values
    (8 machine epsilons of sum_w belief * rows * max_a |u|), so exact ties
    stay where the solver put them.
    """
    rows = np.where(rows > 0.0, rows, 0.0)
    totals = rows.sum(axis=-1, keepdims=True)
    rows = rows / np.where(totals <= 0.0, 1.0, totals)
    na = util.shape[-1]
    cols = np.arange(rows.shape[-1])
    values = _rec_values(belief, rows, util)
    scale = np.einsum("iw,iwc,iw->ic", belief, rows, np.abs(util).max(axis=-1))
    regret = values.max(axis=-1) - values[:, cols, cols % na]
    move = regret > 8 * np.finfo(float).eps * scale
    if not move.any():
        return rows
    target = np.where(move, cols - cols % na + values.argmax(axis=-1), cols)
    return np.einsum("iwc,icd->iwd", rows, np.eye(len(cols))[target])


def _join(grid: tuple, *parts) -> np.ndarray:
    """Terms of a row family over `grid`: each part (its last axis lists
    terms; a scalar is one) is broadcast over the grid, then all are joined."""
    parts = [np.asarray(x).reshape(np.shape(x) or (1,)) for x in parts]
    return np.concatenate([np.broadcast_to(x, grid + x.shape[-1:]) for x in parts], axis=-1)


def _menu_labels(view: PriorView) -> tuple[tuple[str, float], ...]:
    return tuple((view.instance.theta[ti], view.instance.budgets[bi]) for ti, bi in view.index)


def _pair_arrays(view: PriorView):
    """(type index, budget, (P, n_omega, n_actions) utility rows) of the
    view's pairs: the arrays every solver, table and bound reads."""
    ti, bi = np.array(view.index, dtype=int).reshape(-1, 2).T
    inst = view.instance
    return ti, np.array(inst.budgets, dtype=float)[bi], inst.utility[:, ti, :].transpose(1, 0, 2)


def _add_menu_model(lp: LinearProgram, util, belief, joint, tau, ic_pairs, share,
                    price=None, eps: float = 0.0, relax=None):
    """The LP of a menu of transfer lotteries, added to lp; every solver's.

    Entry i of m draws recommendation a in state w from block k with chance
    p[i, w, k, a], and the buyer pays that block's tau[i, k], plus a price
    t_i in [lo, hi] earning weights @ t when price = (weights, lo, hi).
    util (m, n_omega, n_actions) and belief (m, n_omega) are each entry's
    utility rows and belief; joint (m, n_omega) weighs the block transfers
    in the objective. Truth i beats report j for each pair of ic_pairs
    (n, 2), whose rows get relax = (columns, coefficients) added, one row
    per pair (column -1 for no term); eps slackens obedience, participation
    and truthfulness.

    Entries of one `share` class (one type, one belief) value a report
    alike, so per (class, report) key, the diagonal included, z[key, k, a]
    bounds what recommendation (k, a) is worth under its best remap a -> a2.
    T_i, the truthful value, sums its own key's z and is capped by the
    obedient value, so every recommendation is worth following. The z rows
    are held back (lpcore), starting from the obey rows (a2 = a), which bound
    every z from below.

    Returns the column ids of p (m, n_omega, K, n_actions) and t (or None).
    """
    (m, nw, na), K = util.shape, tau.shape[1]
    p = lp.add_block("p", (m, nw, K, na), 0.0, 1.0)
    gain = util[:, :, None, :] - tau[:, None, :, None]                 # (m, nw, K, na)
    t = lp.add_block("t", m, *price[1:]) if price else None
    tcol = np.full(m, -1) if t is None else t                          # -1: no term
    lp.set_objective(np.append(p, tcol[tcol >= 0]),
                     np.append(np.broadcast_to(joint[:, :, None, None] * tau[:, None, :, None],
                                               p.shape), price[0] if price else []))

    i, j = np.asarray(ic_pairs, dtype=int).reshape(-1, 2).T
    owner, report = np.concatenate([np.arange(m), i]), np.concatenate([np.arange(m), j])
    codes, first, key = np.unique(np.asarray(share)[owner] * m + report,
                                  return_index=True, return_inverse=True)
    deviator, reported = owner[first], codes % m
    z = lp.add_block("z", (len(codes), K, na), None, None)
    T = lp.add_block("T", m, None, None)
    width = K * na

    lp.add_rows("rowsum", p.reshape(m, nw, width), 1.0, "==", 1.0)
    lp.add_rows("tdef", _join((m,), T[:, None], z[key[:m]].reshape(m, width)),
                _join((m,), 1.0, -np.ones(width)), "==", 0.0)
    lp.add_rows("obey", _join((m,), T[:, None], p.reshape(m, -1)),
                _join((m,), 1.0, -(belief[:, :, None, None] * gain).reshape(m, -1)), "<=", eps)
    # participating beats acting on the belief alone; vecdot takes one BLAS
    # dot per utility column, whose sums tests/test_lp_digests.py pins
    outside = np.vecdot(belief[:, None, :], util.transpose(0, 2, 1))   # (m, na)
    lp.add_rows("ir", _join((m, na), T[:, None, None], tcol[:, None, None]),
                _join((m, na), 1.0, -1.0), ">=", outside - eps)
    n = len(i)
    relax_cols, relax_coefs = relax or (np.zeros((n, 0), int), np.zeros((n, 0)))
    lp.add_rows("ic", _join((n,), T[i][:, None], tcol[i][:, None], z[key[m:]].reshape(n, width),
                            tcol[j][:, None], relax_cols),
                _join((n,), 1.0, -1.0, -np.ones(width), 1.0, relax_coefs), ">=", -eps)
    # z[key, k, a] >= what remapping recommendation (k, a) of the key's
    # report to a2 is worth to the key's deviator, over the grid (key, k, a, a2)
    dev = -belief[deviator][:, :, None, None] * (           # (key, w, k, a2)
        util[deviator][:, :, None, :] - tau[reported][:, None, :, None])
    grid = (len(codes), K, na, na)
    lp.add_rows("zdef", _join(grid, z[:, :, :, None, None],
                              p[reported].transpose(0, 2, 3, 1)[:, :, :, None]),
                _join(grid, 1.0, dev.transpose(0, 2, 3, 1)[:, :, None]), ">=", 0.0,
                start=np.eye(na, dtype=bool))
    return p, t


def _solve_menu(kind: str, labels, lp: LinearProgram, p, menu, t=None, weights=None,
                seller_budget: float = 0.0) -> Menu:
    """Solve a menu LP built from menu = (util, belief, joint, tau) (see
    _add_menu_model), clean its kernel and price it: each entry's truthful
    utility under its own belief, and the take, its block transfers summed
    entry by entry in menu order (one sum of all would round differently)."""
    util, belief, joint, tau = menu
    sol = lp.solve()
    m, nw, K, na = p.shape
    kernel = _clean_kernel(sol.values[p].reshape(m, nw, K * na), belief, util)
    blocks = kernel.reshape(m, nw, K, na)
    prices = np.zeros(m) if t is None else sol.values[t]
    utilities = sum(np.einsum("iw,iwa->i", belief, blocks[:, :, k] * (util - tau[:, k, None, None]))
                    for k in range(K)) - prices
    taken = np.einsum("iw,iwa->i", joint, (tau[:, None, :, None] * blocks).sum(axis=2))
    revenue = float(sum(taken.tolist())) + (0.0 if t is None else float(weights @ prices))
    return Menu(kind, labels, tau[:, 0] if t is None else prices, kernel, utilities, revenue,
                float(seller_budget))


# ---------------------------------------------------------------------------
# one-price menus: depr, dirp and single-round (independent prior)
# ---------------------------------------------------------------------------


_LP_NAMES = {"depr": "deposit-return", "dirp": "direct-payment", "single-round": "single-round"}


def _one_price(instance: Instance, types, weights):
    """(util, belief, joint, tau) of a one-price menu whose entries have the
    given types and revenue weights: every entry believes the common state
    prior, and its one transfer block charges nothing beyond the price."""
    mu_w = instance.omega_marginal()
    m = len(types)
    return (instance.utility[:, types, :].transpose(1, 0, 2), np.broadcast_to(mu_w, (m, len(mu_w))),
            np.asarray(weights)[:, None] * mu_w, np.zeros((m, 1)))


def _solve_deposit_family(kind: str, instance: Instance, labels, types, weights, ic_pairs,
                          lo, hi) -> Menu:
    """The optimal one-price menu over entries of the given types, truthful
    over ic_pairs, with prices in [lo, hi]; entries of one type share z."""
    menu = _one_price(instance, types, weights)
    lp = LinearProgram(_LP_NAMES[kind])
    p, t = _add_menu_model(lp, *menu, ic_pairs, types, (weights, lo, hi))
    return _solve_menu(kind, labels, lp, p, menu, t, weights)


def solve_cm_depr(instance: Instance) -> Menu:
    """Optimal deposit-and-return menu (independent prior, private budget).

    The deposit makes over-reporting the budget physically impossible, so
    truthfulness constraints run only against reports with b' <= b.
    """
    _require_independent(instance, "solve_cm_depr")
    view = prior_view(instance)
    types, b, _ = _pair_arrays(view)
    ic_pairs = np.argwhere((b[None, :] <= b[:, None]) & ~np.eye(len(b), dtype=bool))
    return _solve_deposit_family("depr", instance, _menu_labels(view), types, view.weights,
                                 ic_pairs, -instance.seller_budget, b)


def solve_cm_dirp(instance: Instance, public_budget: float) -> Menu:
    """Optimal direct-payment menu when every buyer shares one public budget.

    Reports are types only, and truthfulness runs over all ordered type
    pairs. Each price is boxed by the public budget and by its type's lowest
    positive budget level, so every type can pay for its own entry. Menu
    weights are the type marginals summed over budget levels.
    """
    _require_independent(instance, "solve_cm_dirp")
    if not (np.isfinite(public_budget) and public_budget >= 0):
        raise InputError("public budget must be finite and nonnegative")
    theta_weights = instance.theta_marginal()
    types = np.flatnonzero(theta_weights > PROB_TOL)
    lowest = np.argmax(instance.type_marginal() > PROB_TOL, axis=1)
    hi = np.minimum(public_budget, np.array(instance.budgets, dtype=float)[lowest[types]])
    labels = tuple((instance.theta[ti], float(public_budget)) for ti in types)
    return _solve_deposit_family("dirp", instance, labels, types, theta_weights[types],
                                 np.argwhere(~np.eye(len(types), dtype=bool)),
                                 -instance.seller_budget, hi)


def _affordability_pattern(instance: Instance, types, b, weights) -> np.ndarray:
    """Each menu item's cutoff (the index of the lowest budget level that can
    afford it) in a revenue-optimal single-round menu, from one
    mixed-integer program.

    A single-round menu's feasible set is a union of polyhedra, one per
    pattern of cutoffs; the program writes the union disjunctively (Balas,
    "Disjunctive Programming", 1979). Binary y[j,k] picks item j's cutoff
    level k <= b_j and confines its price to (level k-1, level k], with -M
    as the floor of the lowest level and 1e-7 keeping a price off the level
    just below; each truthfulness row (i, j) is switched off by a big-M
    whenever the picked cutoff lies above b_i.
    """
    levels = np.array(instance.budgets)
    M, util = instance.seller_budget, instance.utility
    big = float(util.max() - util.min()) + levels[-1] + M + 1.0
    floors = np.append(-M, levels[:-1] + 1e-7)
    m = len(types)
    own = levels <= b[:, None]                       # the levels item j may pick

    lp = LinearProgram("single-round-pattern")
    y = np.full(own.shape, -1)
    y[own] = lp.add_block("y", int(own.sum()), 0.0, 1.0, integer=True)
    ic_pairs = np.argwhere(~np.eye(m, dtype=bool))
    relax = np.where(levels > b[ic_pairs[:, :1]], y[ic_pairs[:, 1]], -1)
    _, t = _add_menu_model(lp, *_one_price(instance, types, weights), ic_pairs, types,
                           (weights, -M, b), relax=(relax, np.full(relax.shape, big)))
    lp.add_rows("pick", y, 1.0, "==", 1.0)
    price = _join((m,), t[:, None], y)
    lp.add_rows("cap", price, _join((m,), 1.0, -levels), "<=", 0.0)
    lp.add_rows("floor", price, _join((m,), 1.0, -floors), ">=", 0.0)
    sol = lp.solve()
    # the cheapest level that affords each price; a price at most 1e-7 above
    # a level, where the level's floor sits, belongs to that level whatever
    # y says: the program's optimum is only known within its gap, and the
    # floor's pattern can fall short of the level's
    below = sol.values[t][:, None] > levels + 1e-7
    return np.minimum(below.sum(axis=1), own.sum(axis=1) - 1)


def solve_single_round(instance: Instance) -> Menu:
    """Best single direct payment with an *unverified* budget report.

    A deviation to report (theta', b') is available exactly when its price
    fits the true wallet (t_{theta',b'} <= b), so which deviations exist
    depends on the prices. One mixed-integer program picks the best
    affordability pattern (_affordability_pattern); the pattern's own LP,
    with only the truthfulness pairs it makes affordable, gives the menu.
    Diagnostic companion to solve_cm_depr showing what verified deposits
    buy the seller.
    """
    _require_independent(instance, "solve_single_round")
    view = prior_view(instance)
    types, b, _ = _pair_arrays(view)
    levels = np.array(instance.budgets)
    try:
        cutoffs = _affordability_pattern(instance, types, b, view.weights)
        # the pattern program's own price boxes: a price sits more than 1e-9
        # above every budget level the pattern leaves unable to afford it
        lo = np.where(cutoffs > 0, levels[cutoffs - 1] + 1e-7, -instance.seller_budget)
        ic_pairs = np.argwhere((levels[cutoffs][None, :] <= b[:, None])
                               & ~np.eye(len(b), dtype=bool))
        return _solve_deposit_family("single-round", instance, _menu_labels(view), types,
                                     view.weights, ic_pairs, lo, levels[cutoffs])
    except SolverFailure as exc:
        if exc.status != INFEASIBLE:
            raise
        raise PreconditionError("no affordability pattern is feasible") from exc


# ---------------------------------------------------------------------------
# probabilistic return (arbitrary prior)
# ---------------------------------------------------------------------------


def build_prob_return_lp(util: np.ndarray, b: np.ndarray, cond: np.ndarray,
                         joint: np.ndarray, seller_budget: float, eps: float = 0.0):
    """Assemble the probabilistic-return LP for given belief data.

    util[i]:    (n_omega, n_actions) utility rows of the i-th entry's type.
    b[i]:       the i-th entry's budget, its deposit.
    cond[i]:    belief over states the i-th entry's buyer holds.
    joint[i,w]: weight placed on (state w, entry i) by the revenue objective.
    eps:        slack applied to the truthfulness / participation /
                recommendation-following rows (0 = exact program).

    Returns (lp, p), p the kernel's column ids (len(b), n_omega, 2,
    n_actions): block 0 keeps the deposit, block 1 refunds it plus M (see
    _add_menu_model; each entry is its own class, and truth beats every
    report whose deposit it affords). The exact and the empirical-belief
    solvers differ only in the belief data and eps.
    """
    lp = LinearProgram("prob-return")
    m = len(b)
    ic_pairs = np.argwhere(affordable(b[None, :], b[:, None]) & ~np.eye(m, dtype=bool))
    tau = np.stack([b, np.full(m, -float(seller_budget))], axis=1)
    return lp, _add_menu_model(lp, util, cond, joint, tau, ic_pairs, np.arange(m), eps=eps)[0]


def solve_prob_return(view: PriorView, M: float, eps: float = 0.0) -> Menu:
    """The probabilistic-return menu over a prior view (build_prob_return_lp,
    _solve_menu): its entries are the view's index, and its instance
    supplies utilities and labels."""
    _, b, util = _pair_arrays(view)
    lp, p = build_prob_return_lp(util, b, view.beliefs, view.joint, M, eps=eps)
    tau = np.stack([b, np.full(len(b), -float(M))], axis=1)
    return _solve_menu("probr", _menu_labels(view), lp, p, (util, view.beliefs, view.joint, tau),
                       seller_budget=M)


def solve_cm_probr(instance: Instance) -> Menu:
    """Optimal probabilistic-return menu; correlated priors welcome.

    Always feasible: putting all mass on "refund the deposit plus M" at the
    buyer's ex-ante best action nets every type +M over their outside option
    (revenue -M, feasible if unprofitable), so solver infeasibility here
    signals a bug, not a bad instance. This is the eps-slack LP of module
    sampling at eps = 0 over the true prior.
    """
    return solve_prob_return(prior_view(instance), instance.seller_budget)


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def _cap(weights, budget, informed, outside) -> float:
    """Sum over pairs of weight * min(budget, value of full information)."""
    # a value of information is never negative; rounding can say otherwise
    return float(weights @ np.minimum(budget, np.maximum(0.0, informed - outside)))


@dataclass(frozen=True, eq=False)
class MenuValues:
    """A menu's values to the P positive pairs of a prior view, reporting
    each of its m entries. Values are expected utilities under the pair's
    belief; each kernel column is one recommendation, and a remap may
    replace its action.

    budget, truth (P,): the pair's budget and truthful entry, -1 if none
    affordable (P, m): whether the budget covers each entry's cost
    served (P,): whether the pair has an entry it can afford
    take (P, m): each report's expected transfer
    best (P, m): each report's value under the best remaps, net of take
    obedient (P,): the truthful entry's value when every recommendation is
        followed, net of take
    rec_mass, rec_obedient, rec_best (P, columns): per recommendation of the
        truthful entry, its probability and the values of following it and
        of its best remap (not divided by the probability nor net of take)
    informed, outside (P,): the values of knowing the state and of acting on
        the belief alone

    A pair without an entry reads entry 0 in the truthful fields.
    """

    view: PriorView
    budget: np.ndarray
    truth: np.ndarray
    affordable: np.ndarray
    served: np.ndarray
    take: np.ndarray
    best: np.ndarray
    obedient: np.ndarray
    rec_mass: np.ndarray
    rec_obedient: np.ndarray
    rec_best: np.ndarray
    informed: np.ndarray
    outside: np.ndarray

    @property
    def revenue(self) -> float:
        """The expected take from truthful buyers; no entry pays nothing."""
        own = self.take[np.arange(len(self.truth)), np.maximum(self.truth, 0)]
        return float(self.view.weights @ np.where(self.truth >= 0, own, 0.0))

    @property
    def cap(self) -> float:
        """The view's revenue_cap."""
        return _cap(self.view.weights, self.budget, self.informed, self.outside)


def menu_values(mech: Menu, prior: Instance | PriorView) -> MenuValues:
    """The value table of a menu against a prior, from one _rec_values call
    over every (pair, entry) row."""
    if not mech.menu:
        raise InputError("a menu needs at least one entry")
    view = prior_view(prior)
    ti, b, util = _pair_arrays(view)
    (P, nw, na), (m, width) = util.shape, (len(mech.menu), mech.kernel.shape[-1])
    values = _rec_values(np.repeat(view.beliefs, m, axis=0), np.tile(mech.kernel, (P, 1, 1)),
                         np.repeat(util, m, axis=0)).reshape(P, m, width, na)
    mass = np.einsum("pw,jwc->pjc", view.beliefs, mech.kernel)
    transfer = np.array([[t for _, t, _ in mech.blocks(j)] for j in range(m)])
    paid = transfer.repeat(na, axis=1) * mass                           # (P, m, width)
    remapped = values.max(axis=-1)
    truth = mech.lookup([view.instance.theta[t] for t in ti], b)
    pairs, own, cols = np.arange(P), np.maximum(truth, 0), np.arange(width)
    obeyed = values[pairs, own][:, cols, cols % na]                     # (P, width)
    can_pay = affordable(np.array([mech.cost(j) for j in range(m)]), b[:, None])
    informed, outside = information_values(view.beliefs, util)
    return MenuValues(
        view=view, budget=b, truth=truth, affordable=can_pay,
        served=(truth >= 0) & can_pay[pairs, own], take=paid.sum(axis=-1),
        best=(remapped - paid).sum(axis=-1), obedient=(obeyed - paid[pairs, own]).sum(axis=-1),
        rec_mass=mass[pairs, own], rec_obedient=obeyed, rec_best=remapped[pairs, own],
        informed=informed, outside=outside)


def expected_revenue(mech: Menu, instance: Instance) -> float:
    """Seller's expected take when every buyer reports truthfully and obeys."""
    return menu_values(mech, instance).revenue


def buyer_utility(mech: Menu, instance: Instance,
                  true_type: tuple[str, float], report: tuple[str, float],
                  deviation: dict | None = None) -> float:
    """Expected utility of a (theta, b) buyer making a given report.

    The belief is the buyer's true conditional over states; `deviation`
    optionally remaps each recommendation key (an action, or an
    (action, indicator) pair for probabilistic-return) to the action
    actually played; None plays the recommendations as given. Reports the
    buyer could not finance raise PreconditionError.
    """
    theta, b = true_type
    ti = instance.theta_id(theta)
    belief = conditional_belief(instance, ti, instance.budget_id(b))
    util = instance.utility[:, ti, :]
    dev = deviation or {}
    j = mech.menu_index(*report)
    if not affordable(mech.cost(j), b):
        raise PreconditionError(
            f"report {report!r} needs {mech.cost(j):g} up front, beyond budget {b:g}")
    value = 0.0
    for sign, transfer, cols in mech.blocks(j):
        for a_rec, act in enumerate(instance.actions):
            played = instance.action_id(dev.get(act if sign is None else (act, sign), act))
            value += float(belief @ (cols[:, a_rec] * (util[:, played] - transfer)))
    return value


def replicate_as_prob_return(mech: Menu, seller_budget: float) -> Menu:
    """Convert a one-price menu into an equivalent two-point lottery.

    Splitting each recommendation with weight lam = (t + M) / (b + M)
    between keep-deposit and refund makes every report's expected transfer
    exactly its original price, for every belief, so the conversion
    preserves truthfulness, participation, and revenue identically.
    """
    if mech.kind == "probr":
        raise InputError("only a menu with one price per entry can be replicated")
    M, b = seller_budget, np.array([lv for _, lv in mech.menu], dtype=float)
    denom = b + M
    # b = M = 0 forces t = 0; all-refund nets zero too
    lam = np.where(denom > 0, (mech.payments + M) / np.where(denom > 0, denom, 1.0), 0.0)
    bad = ~((lam >= -1e-9) & (lam <= 1 + 1e-9))                        # NaN is bad too
    if bad.any():
        k = int(np.argmax(bad))
        raise InputError(f"price {mech.payments[k]:g} outside [-M, b] for menu entry "
                         f"({mech.menu[k][0]!r}, {b[k]:g}); cannot replicate")
    lam = np.clip(lam, 0.0, 1.0)[:, None, None]
    return Menu("probr", mech.menu, b,
                np.concatenate([lam * mech.kernel, (1.0 - lam) * mech.kernel], axis=-1),
                mech.utilities.copy(), mech.revenue, M)


def full_revelation_menu(instance: Instance) -> Menu:
    """Feasible deposit-return benchmark built without any LP: reveal the
    state exactly and charge each (theta, b) entry the largest price that
    survives truth-telling, namely

        t_i = min over affordable entries j (b_j <= b_i) of min(b_j, delta_j),

    where delta_j is entry j's value of full information. Price monotonicity
    in affordability makes misreports weakly unprofitable (an imposter learns
    at most the full-information value and never pays less), IR holds because
    t_i <= delta_i, and the deposit caps t_i at b_i. Works for correlated
    priors, so it serves as a lower-bound sanity benchmark for the
    probabilistic-return solver after lambda-replication.
    """
    view = prior_view(instance)
    _, b, util = _pair_arrays(view)
    informed, outside = information_values(view.beliefs, util)
    base = np.minimum(b, informed - outside)
    prices = np.where(b[None, :] <= b[:, None], base, np.inf).min(axis=1)
    kernel = (util.argmax(axis=-1)[..., None] == np.arange(len(instance.actions))).astype(float)
    return Menu("depr", _menu_labels(view), prices, kernel,
                informed - prices, float(view.weights @ prices))


def revenue_cap(prior: Instance | PriorView) -> float:
    """Upper bound no mechanism can beat under a prior: each type pays at
    most the smaller of its wallet and its value of full information."""
    view = prior_view(prior)
    _, b, util = _pair_arrays(view)
    return _cap(view.weights, b, *information_values(view.beliefs, util))


# ---------------------------------------------------------------------------
# serialization (full precision; files must re-verify bit-for-bit)
# ---------------------------------------------------------------------------

# each kind's fields after kind, omega, actions and revenue, in file order
_FIELDS = {"dirp": ("public_budget", "menu", "payments", "utilities", "kernel"),
           "depr": ("menu", "utilities", "payments", "kernel"),
           "single-round": ("menu", "utilities", "payments", "kernel"),
           "probr": ("menu", "utilities", "seller_budget", "payments", "kernel")}


def mechanism_to_json_dict(mech: Menu, instance: Instance) -> dict:
    """Plain-dict form of a mechanism, with state/action labels embedded so
    the file stands on its own. A dirp entry is keyed by its type, any other
    by pair_key; probr kernel rows carry their block's indicator."""
    dirp = mech.kind == "dirp"
    keys = [th if dirp else pair_key(th, b) for th, b in mech.menu]
    # rows in (block, entry, state, action) order, all "+" rows before "-"
    m, nw, width = mech.kernel.shape
    na = len(instance.actions)
    blocks = mech.kernel.reshape(m, nw, width // na, na).transpose(2, 0, 1, 3)
    signs = [sign for sign, _, _ in mech.blocks(0)] if m else []
    kernel = [{"entry": keys[i], "omega": instance.omega[w], "action": instance.actions[a],
               **({"indicator": signs[k]} if signs[k] else {}), "p": float(blocks[k, i, w, a])}
              for k, i, w, a in np.argwhere(blocks > 0.0)]
    fields = {
        "public_budget": float(mech.menu[0][1]) if dirp else None,
        "menu": keys if dirp else [{"theta": th, "b": float(b)} for th, b in mech.menu],
        "payments": ({} if mech.kind == "probr"
                     else {k: float(p) for k, p in zip(keys, mech.payments)}),
        "utilities": {k: float(u) for k, u in zip(keys, mech.utilities)},
        "seller_budget": float(mech.seller_budget),
        "kernel": kernel}
    out = {"kind": mech.kind, "omega": list(instance.omega),
           "actions": list(instance.actions), "revenue": float(mech.revenue)}
    out.update((name, fields[name]) for name in _FIELDS[mech.kind])
    return out


def _get(obj, key: str, where: str = "mechanism file"):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{where} is missing field {key!r}")
    return obj[key]


def _number(value, what: str, error: type = InputError) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise error(f"{what} must be a number, got {value!r}") from None
    if not np.isfinite(x):
        raise error(f"{what} must be finite, got {value!r}")
    return x


def _pick(labels, value, what: str) -> int:
    if value not in labels:
        raise InputError(f"{what} {value!r} is not known")
    return labels.index(value)


def mechanism_from_json_dict(data: dict, instance: Instance) -> Menu:
    """Rebuild a mechanism against an instance (labels must agree). A file
    that is not a well-formed menu of its kind raises InputError naming the
    field: every number finite, every p in [0, 1], every (entry, state) row
    summing to 1, and an indicator "+" or "-" on probr rows only."""
    kind = _get(data, "kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise InputError(f"unknown mechanism kind {kind!r}")
    for name in ("omega", "actions", "revenue") + _FIELDS[kind]:
        _get(data, name)
    try:
        labels_agree = (set(data["omega"]) == set(instance.omega)
                        and set(data["actions"]) == set(instance.actions))
    except TypeError:
        labels_agree = False
    if not labels_agree:
        raise InputError("mechanism file's state/action labels do not match the instance")
    rows = data["menu"]
    if not isinstance(rows, list) or not rows:
        raise InputError("mechanism file's menu must be a nonempty list")
    if kind == "dirp":
        b = _number(data["public_budget"], "public_budget")
        menu = tuple((th, b) for th in rows)
    else:
        menu = tuple((_get(row, "theta", "menu row"), _number(_get(row, "b", "menu row"), "menu b"))
                     for row in rows)
    for th, b in menu:
        _pick(instance.theta, th, "menu type")
        if kind != "dirp":
            instance.budget_id(b)
    keys = [th if kind == "dirp" else pair_key(th, b) for th, b in menu]

    def table(name):
        values = data[name]
        if not isinstance(values, dict):
            raise InputError(f"mechanism file's {name} must be an object")
        return np.array([_number(_get(values, k, name), f"{name}[{k!r}]") for k in keys])

    probr = kind == "probr"
    na = len(instance.actions)
    kernel = np.zeros((len(menu), len(instance.omega), 2 * na if probr else na))
    if not isinstance(data["kernel"], list):
        raise InputError("mechanism file's kernel must be a list")
    for n, row in enumerate(data["kernel"]):
        where = f"kernel row {n}"
        i = _pick(keys, _get(row, "entry", where), f"{where} entry")
        w = _pick(instance.omega, _get(row, "omega", where), f"{where} state")
        a = _pick(instance.actions, _get(row, "action", where), f"{where} action")
        sign = row.get("indicator")
        if (sign not in ("+", "-")) if probr else ("indicator" in row):
            raise InputError(f"{where} indicator {sign!r} is not "
                             + ("'+' or '-'" if probr else "allowed outside probr"))
        p = _number(_get(row, "p", where), f"{where} p")
        if not 0.0 <= p <= 1.0:
            raise InputError(f"{where} p {p!r} is outside [0, 1]")
        kernel[i, w, a + (na if sign == "-" else 0)] = p
    # a repeated menu entry leaves its second copy's rows empty: rejected here
    bad = np.argwhere(np.abs(kernel.sum(axis=-1) - 1.0) > 1e-9)
    if len(bad):
        i, w = bad[0]
        raise InputError(f"kernel of entry {keys[i]!r} in state {instance.omega[w]!r} "
                         "does not sum to 1")
    return Menu(kind, menu,
                np.array([b for _, b in menu]) if probr else table("payments"),
                kernel, table("utilities"), _number(data["revenue"], "revenue"),
                _number(data["seller_budget"], "seller_budget") if probr else 0.0)
