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

Menu.blocks, Menu.cost and Menu.find hold every difference between the kinds;
revenue, buyer utility, verification and the protocol embedding read a menu
only through them. The first three solvers require the state to be
independent of (type, budget) and share one LP builder, differing only in the
menu, weights, truthfulness pairs and price boxes they pass it. The
probabilistic-return LP handles correlated priors and solves over a
model.PriorView: solve_cm_probr is the sampling module's eps-slack LP at
eps = 0 over the instance's own view. One kernel cleanup serves every family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError, SolverFailure
from .lpcore import INFEASIBLE, LinearProgram
from .model import (Instance, PriorView, conditional_belief, is_independent,
                    prior_view, PROB_TOL)


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

    def find(self, theta: str, b: float) -> int | None:
        """The entry a truthful (theta, b) buyer reports, or None; a dirp
        entry matches by type alone."""
        for i, (t, lv) in enumerate(self.menu):
            if t == theta and (self.kind == "dirp"
                               or abs(lv - b) <= 1e-9 * max(1.0, abs(lv))):
                return i
        return None

    def menu_index(self, theta: str, b: float) -> int:
        i = self.find(theta, b)
        if i is None:
            raise InputError(f"({theta!r}, {b:g}) is not on the mechanism's menu")
        return i

    def take(self, i: int, weights: np.ndarray) -> float:
        """Expected transfer from entry i under (unnormalized) state weights."""
        return float(weights @ sum(t * cols.sum(axis=1) for _, t, cols in self.blocks(i)))

    @property
    def kernel_pay(self) -> np.ndarray:
        """probr: the keep-the-deposit block of every entry."""
        return self.kernel[..., :self.kernel.shape[-1] // 2]

    @property
    def kernel_refund(self) -> np.ndarray:
        """probr: the return-deposit-plus-M block of every entry."""
        return self.kernel[..., self.kernel.shape[-1] // 2:]


DirectMechanism = DepositReturnMechanism = ProbReturnMechanism = Mechanism = Menu


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _require_independent(instance: Instance, what: str) -> None:
    if not is_independent(instance):
        raise PreconditionError(
            f"{what} requires the state to be independent of (type, budget); "
            "this instance's prior does not factor")


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
    values = np.einsum("iw,iwc,iwa->ica", belief, rows, util)
    scale = np.einsum("iw,iwc,iw->ic", belief, rows, np.abs(util).max(axis=-1))
    regret = values.max(axis=-1) - values[:, cols, cols % na]
    move = regret > 8 * np.finfo(float).eps * scale
    if not move.any():
        return rows
    target = np.where(move, cols - cols % na + values.argmax(axis=-1), cols)
    return np.einsum("iwc,icd->iwd", rows, np.eye(len(cols))[target])


def _menu_labels(view: PriorView) -> tuple[tuple[str, float], ...]:
    return tuple((view.instance.theta[ti], view.instance.budgets[bi]) for ti, bi in view.index)


# ---------------------------------------------------------------------------
# deposit-return / direct-payment family (independent prior)
# ---------------------------------------------------------------------------


def _add_deposit_model(lp: LinearProgram, instance: Instance, menu, weights, ic_pairs,
                       t_bounds, ic_relax=None):
    """Common model of the direct, deposit and single-round menus, added to lp.

    `menu` lists each entry's (theta index, budget) and `weights` its
    revenue weight. Variables: a recommendation kernel p_i(omega, a) and a
    price t_i per menu entry i, plus epigraph variables linearizing the
    deviator's per-recommendation best response. `ic_pairs` lists the
    (truth i, report j) constraints to impose; `t_bounds` gives each
    price's box; `ic_relax` maps a pair to extra terms on its truthfulness
    row. The evaluation measure everywhere is the common state prior.
    Returns the handle arrays (p, t).
    """
    mu_w = instance.omega_marginal()
    nw, na = len(instance.omega), len(instance.actions)
    util = instance.utility
    ic_relax = ic_relax or {}

    p = np.empty((len(menu), nw, na), dtype=int)
    for i in range(len(menu)):
        for w in range(nw):
            for a in range(na):
                p[i, w, a] = lp.add_variable(f"p[{i},{w},{a}]", 0.0, 1.0)
    t = np.array([lp.add_variable(f"t[{i}]", *t_bounds[i]) for i in range(len(menu))])

    lp.set_objective([(t[i], weights[i]) for i in range(len(menu))])

    for i, (ti, _) in enumerate(menu):
        for w in range(nw):
            lp.add_constraint(f"rowsum[{i},{w}]",
                              [(p[i, w, a], 1.0) for a in range(na)], "==", 1.0)
        # following the recommendation beats any remap, state by state in
        # expectation under the prior
        for a in range(na):
            for a2 in range(na):
                if a2 == a:
                    continue
                lp.add_constraint(
                    f"ob[{i},{a},{a2}]",
                    [(p[i, w, a], mu_w[w] * (util[w, ti, a] - util[w, ti, a2]))
                     for w in range(nw)], ">=", 0.0)
        # participating truthfully beats acting on the prior alone
        truth_terms = [(p[i, w, a], mu_w[w] * util[w, ti, a])
                       for w in range(nw) for a in range(na)]
        for a2 in range(na):
            outside = float(mu_w @ util[:, ti, a2])
            lp.add_constraint(f"ir[{i},{a2}]",
                              truth_terms + [(t[i], -1.0)], ">=", outside)

    # deviation epigraphs are shared across true budgets: the deviator's
    # value against report j depends only on their type's utility row
    z: dict[tuple[int, int], np.ndarray] = {}
    for i, j in ic_pairs:
        ti = menu[i][0]
        if (ti, j) not in z:
            zv = np.array([lp.add_variable(f"z[{ti},{j},{a}]", None, None)
                           for a in range(na)])
            z[ti, j] = zv
            for a in range(na):
                for a2 in range(na):
                    lp.add_constraint(
                        f"zdef[{ti},{j},{a},{a2}]",
                        [(zv[a], 1.0)] + [(p[j, w, a], -mu_w[w] * util[w, ti, a2])
                                          for w in range(nw)], ">=", 0.0)
        truth_terms = [(p[i, w, a], mu_w[w] * util[w, ti, a])
                       for w in range(nw) for a in range(na)]
        lp.add_constraint(
            f"ic[{i},{j}]",
            truth_terms + [(t[i], -1.0)]
            + [(z[ti, j][a], -1.0) for a in range(na)] + [(t[j], 1.0)]
            + ic_relax.get((i, j), []),
            ">=", 0.0)
    return p, t


def _solve_deposit_family(instance: Instance, menu, weights, ic_pairs, t_bounds, lp_name):
    """Solve and clean the common LP (see _add_deposit_model).

    Returns (prices, kernel, utilities, revenue), Menu's field order.
    """
    mu_w = instance.omega_marginal()
    nw, na = len(instance.omega), len(instance.actions)
    lp = LinearProgram(lp_name)
    p, t = _add_deposit_model(lp, instance, menu, weights, ic_pairs, t_bounds)
    sol = lp.solve()
    entry_util = instance.utility[:, [ti for ti, _ in menu], :].transpose(1, 0, 2)
    kernel = _clean_kernel(sol.values[p.reshape(-1)].reshape(len(menu), nw, na),
                           np.broadcast_to(mu_w, (len(menu), nw)), entry_util)
    prices = sol.values[t].astype(float)
    utilities = np.array([
        float(np.einsum("w,wa,wa->", mu_w, kernel[i], entry_util[i])) - prices[i]
        for i in range(len(menu))])
    return prices, kernel, utilities, float(weights @ prices)


def _deposit_menu(prior: Instance | PriorView):
    """Positive (type, budget) pairs as (theta index, budget) with their weights."""
    view = prior_view(prior)
    return [(ti, view.instance.budgets[bi]) for ti, bi in view.index], view.weights


def solve_cm_depr(instance: Instance) -> Menu:
    """Optimal deposit-and-return menu (independent prior, private budget).

    The deposit makes over-reporting the budget physically impossible, so
    truthfulness constraints run only against reports with b' <= b.
    """
    _require_independent(instance, "solve_cm_depr")
    view = prior_view(instance)
    menu, weights = _deposit_menu(view)
    M = instance.seller_budget
    ic_pairs = [(i, j)
                for i, (_, b) in enumerate(menu)
                for j, (_, b2) in enumerate(menu)
                if j != i and b2 <= b]
    t_bounds = [(-M, b) for _, b in menu]
    return Menu("depr", _menu_labels(view), *_solve_deposit_family(
        instance, menu, weights, ic_pairs, t_bounds, "deposit-return"))


def solve_cm_dirp(instance: Instance, public_budget: float) -> Menu:
    """Optimal direct-payment menu when every buyer shares one public budget.

    Reports are types only; any report is affordable to anyone, so
    truthfulness runs over all ordered type pairs. Menu weights are the
    type marginals summed over budget levels.
    """
    _require_independent(instance, "solve_cm_dirp")
    if not (np.isfinite(public_budget) and public_budget >= 0):
        raise InputError("public budget must be finite and nonnegative")
    theta_weights = instance.theta_marginal()
    menu_thetas = [ti for ti in range(len(instance.theta)) if theta_weights[ti] > PROB_TOL]
    menu = [(ti, float(public_budget)) for ti in menu_thetas]
    ic_pairs = [(i, j) for i in range(len(menu)) for j in range(len(menu)) if j != i]
    t_bounds = [(-instance.seller_budget, public_budget)] * len(menu)
    return Menu("dirp", tuple((instance.theta[ti], b) for ti, b in menu),
                *_solve_deposit_family(instance, menu, theta_weights[menu_thetas],
                                       ic_pairs, t_bounds, "direct-payment"))


def _affordability_pattern(instance: Instance, menu, weights) -> list[int]:
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
    levels = instance.budgets
    M = instance.seller_budget
    util = instance.utility
    big = float(util.max() - util.min()) + max(levels) + M + 1.0
    floors = [-M] + [lv + 1e-7 for lv in levels[:-1]]

    lp = LinearProgram("single-round-pattern")
    y = [[lp.add_variable(f"y[{j},{k}]", 0.0, 1.0, integer=True)
          for k, lv in enumerate(levels) if lv <= b]
         for j, (_, b) in enumerate(menu)]
    ic_pairs = [(i, j) for i in range(len(menu)) for j in range(len(menu)) if j != i]
    ic_relax = {(i, j): [(y[j][k], big) for k in range(len(y[j])) if levels[k] > menu[i][1]]
                for i, j in ic_pairs}
    _, t = _add_deposit_model(lp, instance, menu, weights, ic_pairs,
                              [(-M, b) for _, b in menu], ic_relax)
    for j, yj in enumerate(y):
        lp.add_constraint(f"pick[{j}]", [(h, 1.0) for h in yj], "==", 1.0)
        lp.add_constraint(f"cap[{j}]", [(t[j], 1.0)]
                          + [(h, -levels[k]) for k, h in enumerate(yj)], "<=", 0.0)
        lp.add_constraint(f"floor[{j}]", [(t[j], 1.0)]
                          + [(h, -floors[k]) for k, h in enumerate(yj)], ">=", 0.0)
    try:
        sol = lp.solve()
    except SolverFailure as exc:
        if exc.status != INFEASIBLE:
            raise
        raise PreconditionError("no affordability pattern is feasible") from exc
    return [int(np.argmax(sol.values[yj])) for yj in y]


def solve_single_round(instance: Instance) -> Menu:
    """Best single direct payment with an *unverified* budget report.

    A deviation to report (theta', b') is available exactly when its price
    fits the true wallet (t_{theta',b'} <= b), which depends on the prices
    being chosen — a union of polyhedra, one per affordability pattern (each
    menu item's price confined between two adjacent budget levels, which
    pins down who can afford it). One mixed-integer program picks the best
    pattern (see _affordability_pattern); the pattern's own LP, with only
    the truthfulness pairs it makes affordable, then gives the menu.
    Diagnostic companion to solve_cm_depr showing what verified deposits
    buy the seller.
    """
    _require_independent(instance, "solve_single_round")
    view = prior_view(instance)
    menu, weights = _deposit_menu(view)
    levels = instance.budgets
    cutoffs = _affordability_pattern(instance, menu, weights)
    # the pattern program's own price boxes: a price sits more than 1e-9
    # above every budget level the pattern leaves unable to afford it
    t_bounds = [(levels[k - 1] + 1e-7 if k else -instance.seller_budget, levels[k])
                for k in cutoffs]
    ic_pairs = [(i, j) for i, (_, b) in enumerate(menu) for j in range(len(menu))
                if j != i and levels[cutoffs[j]] <= b]
    try:
        return Menu("single-round", _menu_labels(view), *_solve_deposit_family(
            instance, menu, weights, ic_pairs, t_bounds, "single-round"))
    except SolverFailure as exc:
        if exc.status != INFEASIBLE:
            raise
        raise PreconditionError("no affordability pattern is feasible") from exc


# ---------------------------------------------------------------------------
# probabilistic-return family (arbitrary prior)
# ---------------------------------------------------------------------------


def build_prob_return_lp(utility: np.ndarray, menu_types: list[tuple[int, float]],
                         cond: np.ndarray, joint: np.ndarray, seller_budget: float,
                         eps: float = 0.0):
    """Assemble the probabilistic-return LP for given belief data.

    menu_types: list of (theta index, budget value) entries.
    cond[i]:    belief over states the i-th entry's buyer holds.
    joint[i,w]: weight placed on (state w, entry i) by the revenue objective.
    eps:        slack applied to the truthfulness / participation /
                recommendation-following rows (0 = exact program).

    Returns (lp, p_pay, p_refund) with variable-handle arrays shaped
    (len(menu), n_omega, n_actions). Shared by the exact solver and the
    empirical-belief solver, which differ only in the belief data and eps.
    """
    m = len(menu_types)
    nw, na = utility.shape[0], utility.shape[2]
    M = seller_budget
    lp = LinearProgram("prob-return")

    p_pay = np.empty((m, nw, na), dtype=int)
    p_ref = np.empty((m, nw, na), dtype=int)
    for i in range(m):
        for w in range(nw):
            for a in range(na):
                p_pay[i, w, a] = lp.add_variable(f"pp[{i},{w},{a}]", 0.0, 1.0)
                p_ref[i, w, a] = lp.add_variable(f"pr[{i},{w},{a}]", 0.0, 1.0)

    # menu pairs (truth i, report j) with the report's deposit affordable
    report_pairs = [(i, j) for i in range(m) for j in range(m)
                    if menu_types[j][1] <= menu_types[i][1] + 1e-12]
    U = {pair: lp.add_variable(f"U[{pair[0]},{pair[1]}]", None, None)
         for pair in report_pairs}

    obj = []
    for i, (ti, b) in enumerate(menu_types):
        for w in range(nw):
            for a in range(na):
                obj.append((p_pay[i, w, a], joint[i, w] * b))
                obj.append((p_ref[i, w, a], -joint[i, w] * M))
    lp.set_objective(obj)

    for i, (ti, b) in enumerate(menu_types):
        for w in range(nw):
            lp.add_constraint(
                f"rowsum[{i},{w}]",
                [(p_pay[i, w, a], 1.0) for a in range(na)]
                + [(p_ref[i, w, a], 1.0) for a in range(na)], "==", 1.0)

        # truth beats any affordable misreport
        for j in range(m):
            if j != i and (i, j) in U:
                lp.add_constraint(f"ic[{i},{j}]",
                                  [(U[i, i], 1.0), (U[i, j], -1.0)], ">=", -eps)
        # truth beats acting on the belief alone
        for a2 in range(na):
            outside = float(cond[i] @ utility[:, ti, a2])
            lp.add_constraint(f"ir[{i},{a2}]", [(U[i, i], 1.0)], ">=", outside - eps)
        # the diagonal U is capped by the obedient utility: with the epigraph
        # lower bounds below, this is what forces recommendations to be
        # worth following
        ob_terms = [(U[i, i], 1.0)]
        for w in range(nw):
            for a in range(na):
                ob_terms.append((p_pay[i, w, a], -cond[i, w] * (utility[w, ti, a] - b)))
                ob_terms.append((p_ref[i, w, a], -cond[i, w] * (utility[w, ti, a] + M)))
        lp.add_constraint(f"ob[{i}]", ob_terms, "<=", eps)

    # U[i,j] equals the report's value under the best per-recommendation
    # remap; the deposit forfeited on "+" is the *reported* budget
    for (i, j), u_var in U.items():
        ti = menu_types[i][0]
        b_dep = menu_types[j][1]
        zp = [lp.add_variable(f"zp[{i},{j},{a}]", None, None) for a in range(na)]
        zr = [lp.add_variable(f"zr[{i},{j},{a}]", None, None) for a in range(na)]
        lp.add_constraint(f"udef[{i},{j}]",
                          [(u_var, 1.0)] + [(zp[a], -1.0) for a in range(na)]
                          + [(zr[a], -1.0) for a in range(na)], "==", 0.0)
        for a in range(na):
            for a2 in range(na):
                lp.add_constraint(
                    f"zp[{i},{j},{a},{a2}]",
                    [(zp[a], 1.0)] + [(p_pay[j, w, a],
                                       -cond[i, w] * (utility[w, ti, a2] - b_dep))
                                      for w in range(nw)], ">=", 0.0)
                lp.add_constraint(
                    f"zr[{i},{j},{a},{a2}]",
                    [(zr[a], 1.0)] + [(p_ref[j, w, a],
                                       -cond[i, w] * (utility[w, ti, a2] + M))
                                      for w in range(nw)], ">=", 0.0)
    return lp, p_pay, p_ref


def solve_prob_return(view: PriorView, M: float, eps: float = 0.0) -> Menu:
    """Build, solve and clean the probabilistic-return LP over a prior view
    (see build_prob_return_lp), then price the cleaned menu: each entry's
    truthful utility under its own belief and the joint-weighted revenue.
    The menu is the view's index; its instance supplies utilities and labels.
    """
    shape, cond, joint = view.instance, view.beliefs, view.joint
    menu = [(ti, float(shape.budgets[bi])) for ti, bi in view.index]
    lp, p_pay, p_ref = build_prob_return_lp(shape.utility, menu, cond, joint, M, eps=eps)
    sol = lp.solve()
    m, nw, na = len(menu), len(shape.omega), len(shape.actions)
    rows = np.concatenate([sol.values[p_pay.reshape(-1)].reshape(m, nw, na),
                           sol.values[p_ref.reshape(-1)].reshape(m, nw, na)], axis=-1)
    util = shape.utility[:, [ti for ti, _ in menu], :].transpose(1, 0, 2)
    kernel = _clean_kernel(rows, cond, util)
    pay, refund = np.split(kernel, 2, axis=-1)
    utilities = np.array([
        float(np.einsum("w,wa->", cond[i], pay[i] * (util[i] - b))
              + np.einsum("w,wa->", cond[i], refund[i] * (util[i] + M)))
        for i, (_, b) in enumerate(menu)])
    revenue = sum(float(np.einsum("w,wa->", joint[i], b * pay[i] - M * refund[i]))
                  for i, (_, b) in enumerate(menu))
    return Menu("probr", _menu_labels(view), np.array([b for _, b in menu]), kernel,
                utilities, float(revenue), float(M))


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


def expected_revenue(mech: Menu, instance: Instance) -> float:
    """Seller's expected take when every buyer reports truthfully and obeys."""
    total = 0.0
    for ti, theta in enumerate(instance.theta):
        for bi, b in enumerate(instance.budgets):
            i = mech.find(theta, b)
            if i is not None:
                total += mech.take(i, instance.prior[:, ti, bi])
    return float(total)


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
    if mech.cost(j) > b + 1e-9:
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
    M = seller_budget
    lams = []
    for i, (th, b) in enumerate(mech.menu):
        if len(mech.blocks(i)) != 1:
            raise InputError("only a menu with one price per entry can be replicated")
        denom = b + M
        # b = M = 0 forces t = 0; all-refund nets zero too
        lam = (float(mech.payments[i]) + M) / denom if denom > 0 else 0.0
        if not -1e-9 <= lam <= 1 + 1e-9:
            raise InputError(
                f"price {mech.payments[i]:g} outside [-M, b] for menu entry "
                f"({th!r}, {b:g}); cannot replicate")
        lams.append(min(max(lam, 0.0), 1.0))
    lam = np.array(lams)[:, None, None]
    return Menu("probr", mech.menu, np.array([float(b) for _, b in mech.menu]),
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
    pairs = view.index
    base = np.empty(len(pairs))
    informed = np.empty(len(pairs))
    kernel = np.zeros((len(pairs), len(instance.omega), len(instance.actions)))
    for i, ((ti, bi), belief) in enumerate(zip(pairs, view.beliefs)):
        util = instance.utility[:, ti, :]
        best_act = util.argmax(axis=1)
        kernel[i, np.arange(len(instance.omega)), best_act] = 1.0
        informed[i] = float(belief @ util.max(axis=1))
        outside = float(np.max(belief @ util))
        base[i] = min(instance.budgets[bi], informed[i] - outside)
    prices = np.array([
        min(base[j] for j, (tj, bj) in enumerate(pairs)
            if instance.budgets[bj] <= instance.budgets[bi])
        for ti, bi in pairs])
    return Menu("depr", _menu_labels(view), prices, kernel,
                informed - prices, float(view.weights @ prices))


def revenue_cap(prior: Instance | PriorView) -> float:
    """Upper bound no mechanism can beat under a prior: each type pays at
    most the smaller of its wallet and its value of full information."""
    view = prior_view(prior)
    total = 0.0
    for (ti, bi), weight, belief in zip(view.index, view.weights, view.beliefs):
        util = view.instance.utility[:, ti, :]
        # a value of information is never negative; rounding can say otherwise
        value = max(0.0, float(belief @ util.max(axis=1)) - float(np.max(belief @ util)))
        total += weight * min(view.instance.budgets[bi], value)
    return float(total)


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
