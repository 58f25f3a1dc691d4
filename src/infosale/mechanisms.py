"""Revenue-optimal menus for selling information, as polynomial-size LPs.

Four solver entry points, all returning mechanism dataclasses:

* solve_cm_dirp      -- direct payment, publicly known common budget;
                        reports are types only.
* solve_cm_depr      -- deposit-and-return: the buyer deposits the reported
                        budget up front (so budget reports are self-verifying
                        downward) and receives deposit minus price back.
* solve_single_round -- direct payment with an *unverified* budget report:
                        a deviation is available whenever its price fits in
                        the true wallet. Diagnostic; a mixed-integer program
                        picks which budget levels can afford each item, then
                        that pattern's LP gives the menu.
* solve_cm_probr     -- probabilistic return: the buyer deposits the reported
                        budget, and per recommendation the mechanism either
                        keeps the deposit ("+") or returns deposit plus the
                        seller's whole stake M ("-"), so the net transfer is
                        a two-point lottery {deposit, -M}.

The first three require the state to be independent of (type, budget) and
share one LP builder, differing only in the menu, weights, truthfulness pairs
and price boxes they pass it. The probabilistic-return LP handles correlated
priors; the exact solver and the sampling module's eps-slack solver share one
solve path. One kernel cleanup serves every family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError, SolverFailure
from .lpcore import LinearProgram
from .model import (Instance, conditional_belief, is_independent,
                    positive_types, surplus, PROB_TOL)

# Kernel entries below this are clamped to zero and rows renormalized.
KERNEL_CLIP = 1e-9


def _bkey(b: float) -> str:
    return format(float(b), ".12g")


def pair_key(theta: str, b: float) -> str:
    """Stable string key for a (type, budget) menu entry."""
    return f"{theta}|{_bkey(b)}"


# ---------------------------------------------------------------------------
# mechanism containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectMechanism:
    """Type-only menu at a public common budget: pay t_theta, get a signal."""

    public_budget: float
    theta_menu: tuple[str, ...]
    payments: np.ndarray        # (m,)
    kernel: np.ndarray          # (m, n_omega, n_actions); rows sum to 1 per omega
    revenue: float
    utilities: np.ndarray       # (m,) truthful obedient expected utility

    kind = "dirp"

    def menu_index(self, theta: str) -> int:
        try:
            return self.theta_menu.index(theta)
        except ValueError:
            raise InputError(f"type {theta!r} is not on the mechanism's menu") from None


@dataclass(frozen=True)
class DepositReturnMechanism:
    """(type, budget) menu; deposit the reported budget, get back deposit
    minus the menu price after the recommendation."""

    menu: tuple[tuple[str, float], ...]
    payments: np.ndarray        # (m,) net price per menu entry
    kernel: np.ndarray          # (m, n_omega, n_actions)
    revenue: float
    utilities: np.ndarray       # (m,)
    kind: str = "depr"          # or "single-round"

    def menu_index(self, theta: str, b: float) -> int:
        for i, (t, lv) in enumerate(self.menu):
            if t == theta and abs(lv - b) <= 1e-9 * max(1.0, abs(lv)):
                return i
        raise InputError(f"({theta!r}, {b:g}) is not on the mechanism's menu")


@dataclass(frozen=True)
class ProbReturnMechanism:
    """(type, budget) menu with two-point transfers: per state the kernel
    splits mass over (action, keep-deposit) and (action, return-b-plus-M)."""

    menu: tuple[tuple[str, float], ...]
    kernel_pay: np.ndarray      # (m, n_omega, n_actions): buyer forfeits deposit
    kernel_refund: np.ndarray   # (m, n_omega, n_actions): buyer nets -M
    seller_budget: float
    revenue: float
    utilities: np.ndarray

    kind = "probr"

    def menu_index(self, theta: str, b: float) -> int:
        for i, (t, lv) in enumerate(self.menu):
            if t == theta and abs(lv - b) <= 1e-9 * max(1.0, abs(lv)):
                return i
        raise InputError(f"({theta!r}, {b:g}) is not on the mechanism's menu")


Mechanism = DirectMechanism | DepositReturnMechanism | ProbReturnMechanism


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _require_independent(instance: Instance, what: str) -> None:
    if not is_independent(instance):
        raise PreconditionError(
            f"{what} requires the state to be independent of (type, budget); "
            "this instance's prior does not factor")


def _clean_kernel(rows: np.ndarray, belief: np.ndarray, util: np.ndarray) -> np.ndarray:
    """Clamp tiny entries to zero, renormalize each state's row, and merge
    each recommendation into the one its own posterior best-responds to.

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
    rows = np.where(rows < KERNEL_CLIP, 0.0, rows)
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


def _menu_labels(instance: Instance) -> tuple[tuple[str, float], ...]:
    return tuple((instance.theta[ti], instance.budgets[bi])
                 for ti, bi in positive_types(instance))


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

    Returns (prices, kernel, utilities, revenue).
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
    revenue = float(weights @ prices)
    return prices, kernel, utilities, revenue


def _deposit_menu(instance: Instance):
    """Positive (type, budget) pairs as (theta index, budget) with their weights."""
    marg = instance.type_marginal()
    pairs = positive_types(instance)
    return ([(ti, instance.budgets[bi]) for ti, bi in pairs],
            np.array([marg[ti, bi] for ti, bi in pairs]))


def solve_cm_depr(instance: Instance) -> DepositReturnMechanism:
    """Optimal deposit-and-return menu (independent prior, private budget).

    The deposit makes over-reporting the budget physically impossible, so
    truthfulness constraints run only against reports with b' <= b.
    """
    _require_independent(instance, "solve_cm_depr")
    menu, weights = _deposit_menu(instance)
    M = instance.seller_budget
    ic_pairs = [(i, j)
                for i, (_, b) in enumerate(menu)
                for j, (_, b2) in enumerate(menu)
                if j != i and b2 <= b]
    t_bounds = [(-M, b) for _, b in menu]
    prices, kernel, utilities, revenue = _solve_deposit_family(
        instance, menu, weights, ic_pairs, t_bounds, "deposit-return")
    return DepositReturnMechanism(
        menu=_menu_labels(instance), payments=prices, kernel=kernel,
        revenue=revenue, utilities=utilities, kind="depr")


def solve_cm_dirp(instance: Instance, public_budget: float) -> DirectMechanism:
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
    prices, kernel, utilities, revenue = _solve_deposit_family(
        instance, menu, theta_weights[menu_thetas], ic_pairs, t_bounds, "direct-payment")
    return DirectMechanism(
        public_budget=float(public_budget),
        theta_menu=tuple(instance.theta[ti] for ti in menu_thetas),
        payments=prices, kernel=kernel, revenue=revenue, utilities=utilities)


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
        raise PreconditionError("no affordability pattern is feasible") from exc
    return [int(np.argmax(sol.values[yj])) for yj in y]


def solve_single_round(instance: Instance) -> DepositReturnMechanism:
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
    menu, weights = _deposit_menu(instance)
    levels = instance.budgets
    M = instance.seller_budget
    mu_w = instance.omega_marginal()
    cutoffs = _affordability_pattern(instance, menu, weights)
    pattern = [levels[k] for k in cutoffs]
    floors = [levels[k - 1] if k else -M for k in cutoffs]

    def honest(prices, kernel, utilities, skipped_pairs):
        # A price may land exactly on the level just below its cutoff, where
        # a type the pattern ignored can in fact afford it; confirm those
        # types still have no incentive to grab it.
        for i, j in skipped_pairs:
            ti, b = menu[i]
            if prices[j] > b + 1e-9:
                continue
            dev = sum(max(float(mu_w @ (kernel[j][:, a] * instance.utility[:, ti, a2]))
                          for a2 in range(len(instance.actions)))
                      for a in range(len(instance.actions)))
            if dev - prices[j] > utilities[i] + 1e-6:
                return False
        return True

    ic_pairs, skipped = [], []
    for i, (_, b) in enumerate(menu):
        for j in range(len(menu)):
            if j == i:
                continue
            (ic_pairs if pattern[j] <= b else skipped).append((i, j))
    for nudge in (0.0, 1e-7):
        t_bounds = [(floors[j] + (nudge if floors[j] > -M else 0.0), pattern[j])
                    for j in range(len(menu))]
        try:
            prices, kernel, utilities, revenue = _solve_deposit_family(
                instance, menu, weights, ic_pairs, t_bounds, "single-round")
        except SolverFailure:
            break  # pattern's price box is empty or infeasible
        if honest(prices, kernel, utilities, skipped):
            return DepositReturnMechanism(
                menu=_menu_labels(instance), payments=prices, kernel=kernel,
                revenue=revenue, utilities=utilities, kind="single-round")
        # otherwise lift prices just inside the open end and retry once
    raise PreconditionError("no affordability pattern is feasible")


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


def _solve_prob_return(shape: Instance, menu: list[tuple[int, float]],
                       cond: np.ndarray, joint: np.ndarray, M: float,
                       eps: float = 0.0) -> ProbReturnMechanism:
    """Build, solve and clean the probabilistic-return LP for given belief
    data (see build_prob_return_lp), then price the cleaned menu: each
    entry's truthful utility under its own belief and the joint-weighted
    revenue. `shape` supplies the utility table and the type labels.
    """
    lp, p_pay, p_ref = build_prob_return_lp(shape.utility, menu, cond, joint, M, eps=eps)
    sol = lp.solve()
    m, nw, na = len(menu), len(shape.omega), len(shape.actions)
    rows = np.concatenate([sol.values[p_pay.reshape(-1)].reshape(m, nw, na),
                           sol.values[p_ref.reshape(-1)].reshape(m, nw, na)], axis=-1)
    util = shape.utility[:, [ti for ti, _ in menu], :].transpose(1, 0, 2)
    pay, refund = np.split(_clean_kernel(rows, cond, util), 2, axis=-1)
    utilities = np.array([
        float(np.einsum("w,wa->", cond[i], pay[i] * (util[i] - b))
              + np.einsum("w,wa->", cond[i], refund[i] * (util[i] + M)))
        for i, (_, b) in enumerate(menu)])
    revenue = sum(float(np.einsum("w,wa->", joint[i], b * pay[i] - M * refund[i]))
                  for i, (_, b) in enumerate(menu))
    return ProbReturnMechanism(
        menu=tuple((shape.theta[ti], b) for ti, b in menu), kernel_pay=pay,
        kernel_refund=refund, seller_budget=float(M), revenue=float(revenue),
        utilities=utilities)


def solve_cm_probr(instance: Instance) -> ProbReturnMechanism:
    """Optimal probabilistic-return menu; correlated priors welcome.

    Always feasible: putting all mass on "refund the deposit plus M" at the
    buyer's ex-ante best action nets every type +M over their outside option
    (revenue -M, feasible if unprofitable), so solver infeasibility here
    signals a bug, not a bad instance.
    """
    pairs = positive_types(instance)
    return _solve_prob_return(
        instance, [(ti, instance.budgets[bi]) for ti, bi in pairs],
        np.stack([conditional_belief(instance, ti, bi) for ti, bi in pairs]),
        np.stack([instance.prior[:, ti, bi] for ti, bi in pairs]),
        instance.seller_budget)


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def expected_revenue(mech: Mechanism, instance: Instance) -> float:
    """Seller's expected take when every buyer reports truthfully and obeys."""
    marg = instance.type_marginal()
    if mech.kind == "dirp":
        by_theta = instance.theta_marginal()
        return float(sum(by_theta[instance.theta_id(th)] * mech.payments[i]
                         for i, th in enumerate(mech.theta_menu)))
    if mech.kind in ("depr", "single-round"):
        total = 0.0
        for i, (th, b) in enumerate(mech.menu):
            total += marg[instance.theta_id(th), instance.budget_id(b)] * mech.payments[i]
        return float(total)
    if mech.kind == "probr":
        M = mech.seller_budget
        total = 0.0
        for i, (th, b) in enumerate(mech.menu):
            ti, bi = instance.theta_id(th), instance.budget_id(b)
            joint = instance.prior[:, ti, bi]
            total += float(np.einsum(
                "w,wa->", joint, b * mech.kernel_pay[i] - M * mech.kernel_refund[i]))
        return total
    raise InputError(f"unknown mechanism kind {mech.kind!r}")


def buyer_utility(mech: Mechanism, instance: Instance,
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
    bi = instance.budget_id(b)
    belief = conditional_belief(instance, ti, bi)
    util = instance.utility[:, ti, :]
    dev = deviation or {}

    def play(key) -> int:
        if key in dev:
            return instance.action_id(dev[key])
        base = key[0] if isinstance(key, tuple) else key
        return instance.action_id(base)

    if mech.kind == "dirp":
        j = mech.menu_index(report[0])
        price = float(mech.payments[j])
        if price > b + 1e-9:
            raise PreconditionError(
                f"report {report[0]!r} costs {price:g}, beyond budget {b:g}")
        value = sum(float(belief @ (mech.kernel[j][:, a_rec] * util[:, play(act)]))
                    for a_rec, act in enumerate(instance.actions))
        return value - price

    if mech.kind in ("depr", "single-round"):
        j = mech.menu_index(*report)
        price = float(mech.payments[j])
        if mech.kind == "depr":
            if report[1] > b + 1e-9:
                raise PreconditionError(
                    f"cannot deposit {report[1]:g} out of budget {b:g}")
        elif price > b + 1e-9:
            raise PreconditionError(
                f"report {report!r} costs {price:g}, beyond budget {b:g}")
        value = sum(float(belief @ (mech.kernel[j][:, a_rec] * util[:, play(act)]))
                    for a_rec, act in enumerate(instance.actions))
        return value - price

    if mech.kind == "probr":
        j = mech.menu_index(*report)
        if report[1] > b + 1e-9:
            raise PreconditionError(
                f"cannot deposit {report[1]:g} out of budget {b:g}")
        deposit = report[1]
        M = mech.seller_budget
        value = 0.0
        for a_rec, act in enumerate(instance.actions):
            a_pay = play((act, "+"))
            a_ref = play((act, "-"))
            value += float(belief @ (mech.kernel_pay[j][:, a_rec]
                                     * (util[:, a_pay] - deposit)))
            value += float(belief @ (mech.kernel_refund[j][:, a_rec]
                                     * (util[:, a_ref] + M)))
        return value
    raise InputError(f"unknown mechanism kind {mech.kind!r}")


def replicate_as_prob_return(mech: DepositReturnMechanism,
                             seller_budget: float) -> ProbReturnMechanism:
    """Convert a deposit-return menu into an equivalent two-point lottery.

    Splitting each recommendation with weight lam = (t + M) / (b + M)
    between keep-deposit and refund makes every report's expected transfer
    exactly its original price, for every belief, so the conversion
    preserves truthfulness, participation, and revenue identically.
    """
    M = seller_budget
    m = len(mech.menu)
    pay = np.empty_like(mech.kernel)
    refund = np.empty_like(mech.kernel)
    for i, (th, b) in enumerate(mech.menu):
        denom = b + M
        if denom <= 0:
            lam = 0.0  # b = M = 0 forces t = 0; all-refund nets zero too
        else:
            lam = (float(mech.payments[i]) + M) / denom
        if not -1e-9 <= lam <= 1 + 1e-9:
            raise InputError(
                f"price {mech.payments[i]:g} outside [-M, b] for menu entry "
                f"({th!r}, {b:g}); cannot replicate")
        lam = min(max(lam, 0.0), 1.0)
        pay[i] = lam * mech.kernel[i]
        refund[i] = (1.0 - lam) * mech.kernel[i]
    return ProbReturnMechanism(
        menu=mech.menu, kernel_pay=pay, kernel_refund=refund,
        seller_budget=M, revenue=mech.revenue, utilities=mech.utilities.copy())


def full_revelation_menu(instance: Instance) -> DepositReturnMechanism:
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
    pairs = positive_types(instance)
    na = len(instance.actions)
    base = np.empty(len(pairs))
    informed = np.empty(len(pairs))
    kernel = np.zeros((len(pairs), len(instance.omega), na))
    for i, (ti, bi) in enumerate(pairs):
        belief = conditional_belief(instance, ti, bi)
        util = instance.utility[:, ti, :]
        best_act = util.argmax(axis=1)
        kernel[i, np.arange(len(instance.omega)), best_act] = 1.0
        informed[i] = float(belief @ util.max(axis=1))
        outside = float(np.max(belief @ util))
        base[i] = min(instance.budgets[bi], informed[i] - outside)
    prices = np.array([
        min(base[j] for j, (tj, bj) in enumerate(pairs)
            if instance.budgets[bj] <= instance.budgets[bi])
        for i, (ti, bi) in enumerate(pairs)])
    marg = instance.type_marginal()
    weights = np.array([marg[ti, bi] for ti, bi in pairs])
    return DepositReturnMechanism(
        menu=_menu_labels(instance), payments=prices, kernel=kernel,
        revenue=float(weights @ prices), utilities=informed - prices,
        kind="depr")


def revenue_cap(instance: Instance) -> float:
    """Upper bound no mechanism can beat: each type pays at most the smaller
    of its wallet and its value of full information."""
    marg = instance.type_marginal()
    total = 0.0
    for ti, bi in positive_types(instance):
        theta, b = instance.theta[ti], instance.budgets[bi]
        total += marg[ti, bi] * min(b, surplus(instance, theta, b))
    return float(total)


# ---------------------------------------------------------------------------
# serialization (full precision; files must re-verify bit-for-bit)
# ---------------------------------------------------------------------------


def mechanism_to_json_dict(mech: Mechanism, instance: Instance) -> dict:
    """Plain-dict form of a mechanism, with state/action labels embedded so
    the file stands on its own."""
    base = {
        "kind": mech.kind,
        "omega": list(instance.omega),
        "actions": list(instance.actions),
        "revenue": float(mech.revenue),
    }
    if mech.kind == "dirp":
        base["public_budget"] = float(mech.public_budget)
        base["menu"] = list(mech.theta_menu)
        base["payments"] = {th: float(mech.payments[i])
                            for i, th in enumerate(mech.theta_menu)}
        base["utilities"] = {th: float(mech.utilities[i])
                             for i, th in enumerate(mech.theta_menu)}
        base["kernel"] = [
            {"entry": th, "omega": instance.omega[w], "action": instance.actions[a],
             "p": float(mech.kernel[i, w, a])}
            for i, th in enumerate(mech.theta_menu)
            for w in range(len(instance.omega))
            for a in range(len(instance.actions))
            if mech.kernel[i, w, a] > 0.0]
        return base
    keys = [pair_key(th, b) for th, b in mech.menu]
    base["menu"] = [{"theta": th, "b": float(b)} for th, b in mech.menu]
    base["utilities"] = {k: float(mech.utilities[i]) for i, k in enumerate(keys)}
    if mech.kind in ("depr", "single-round"):
        base["payments"] = {k: float(mech.payments[i]) for i, k in enumerate(keys)}
        base["kernel"] = [
            {"entry": k, "omega": instance.omega[w], "action": instance.actions[a],
             "p": float(mech.kernel[i, w, a])}
            for i, k in enumerate(keys)
            for w in range(len(instance.omega))
            for a in range(len(instance.actions))
            if mech.kernel[i, w, a] > 0.0]
        return base
    base["seller_budget"] = float(mech.seller_budget)
    base["payments"] = {}
    base["kernel"] = [
        {"entry": k, "omega": instance.omega[w], "action": instance.actions[a],
         "indicator": sgn, "p": float(block[i, w, a])}
        for sgn, block in (("+", mech.kernel_pay), ("-", mech.kernel_refund))
        for i, k in enumerate(keys)
        for w in range(len(instance.omega))
        for a in range(len(instance.actions))
        if block[i, w, a] > 0.0]
    return base


def mechanism_from_json_dict(data: dict, instance: Instance) -> Mechanism:
    """Rebuild a mechanism against an instance (labels must agree)."""
    try:
        kind = data["kind"]
        file_omega = list(data["omega"])
        file_actions = list(data["actions"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"mechanism JSON is missing field {exc}") from None
    if set(file_omega) != set(instance.omega) or set(file_actions) != set(instance.actions):
        raise InputError("mechanism file's state/action labels do not match the instance")
    nw, na = len(instance.omega), len(instance.actions)

    def fill(rows, m, key_of, want_indicator):
        pay = np.zeros((m, nw, na))
        refund = np.zeros((m, nw, na)) if want_indicator else None
        for row in rows:
            i = key_of[row["entry"]]
            w = instance.omega_id(row["omega"])
            a = instance.action_id(row["action"])
            if want_indicator:
                (pay if row["indicator"] == "+" else refund)[i, w, a] = float(row["p"])
            else:
                pay[i, w, a] = float(row["p"])
        return pay, refund

    if kind == "dirp":
        menu = tuple(data["menu"])
        key_of = {th: i for i, th in enumerate(menu)}
        kernel, _ = fill(data["kernel"], len(menu), key_of, False)
        return DirectMechanism(
            public_budget=float(data["public_budget"]), theta_menu=menu,
            payments=np.array([float(data["payments"][th]) for th in menu]),
            kernel=kernel, revenue=float(data["revenue"]),
            utilities=np.array([float(data["utilities"][th]) for th in menu]))
    menu = tuple((row["theta"], float(row["b"])) for row in data["menu"])
    keys = [pair_key(th, b) for th, b in menu]
    key_of = {k: i for i, k in enumerate(keys)}
    utilities = np.array([float(data["utilities"][k]) for k in keys])
    if kind in ("depr", "single-round"):
        kernel, _ = fill(data["kernel"], len(menu), key_of, False)
        return DepositReturnMechanism(
            menu=menu,
            payments=np.array([float(data["payments"][k]) for k in keys]),
            kernel=kernel, revenue=float(data["revenue"]),
            utilities=utilities, kind=kind)
    if kind == "probr":
        pay, refund = fill(data["kernel"], len(menu), key_of, True)
        return ProbReturnMechanism(
            menu=menu, kernel_pay=pay, kernel_refund=refund,
            seller_budget=float(data["seller_budget"]),
            revenue=float(data["revenue"]), utilities=utilities)
    raise InputError(f"unknown mechanism kind {kind!r}")
