"""Independent feasibility checks for menu mechanisms.

Every check here is direct expectation arithmetic — no LP anywhere — so a
green report is evidence the solvers built what they claim, not a replay of
their own constraints. Checks take a prior: an Instance (verify against the
true prior) or any PriorView, such as the sampling module's empirical
estimate. Every check but the budget check reads one value table,
mechanisms.menu_values: truthfulness, participation and obedience are
masked minima over it (the first minimum in (pair, cell) order decides, or
the first NaN), and the revenue cap is a sum over it. verify_all builds
the table once, and it and these checks also accept the table in place of
the prior.

Conventions: slack is (left side − right side) of the defining inequality,
so negative slack means violation; a check at slack s passes when
s ≥ −ε − tol. Utilities are absolute (transfers netted out), which makes
the truth-vs-deviation comparisons identical to the gain-over-outside form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .mechanisms import Menu, MenuValues, menu_values
from .model import Instance, PriorView

DEFAULT_TOL = 1e-6
REC_PROB_FLOOR = 1e-9   # recommendations rarer than this have no posterior


def _tol(tol: float | None) -> float:
    """Resolve at call time so INFOSALE_TOL can override the module default."""
    return DEFAULT_TOL if tol is None else float(tol)


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_slack: float
    worst_case: str
    epsilon: float
    tolerance: float
    mode: str | None = None

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "passed": bool(self.passed),
               "worst_slack": float(self.worst_slack),
               "worst_case": self.worst_case,
               "epsilon": float(self.epsilon), "tolerance": float(self.tolerance)}
        if self.mode is not None:
            out["mode"] = self.mode
        return out


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [c.to_json_dict() for c in self.checks]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _worst(slack: np.ndarray) -> tuple[int, float]:
    """The flat index and value of the cell that decides a slack table (+inf
    where a cell does not count): the first NaN, else the first minimum."""
    if not slack.size:
        return 0, np.inf
    k = int(np.argmin(slack))
    return k, float(slack.flat[k])


def _table(mechanism: Menu, prior: Instance | PriorView | MenuValues) -> MenuValues:
    """The menu's value table against prior, or prior if it is one."""
    return prior if isinstance(prior, MenuValues) else menu_values(mechanism, prior)


def _decide(name: str, table: MenuValues, slack: np.ndarray, eps: float, tol: float | None,
            empty: str, case=lambda k: "", mode: str | None = None) -> VerificationReport:
    """One check over a slack table with a row per pair of the view; case(k)
    describes cell k of a row. A pair the menu does not serve (no entry, or
    an entry costing more than the pair's budget) fails the check at once,
    and the first such pair is named."""
    tol, inst, truth = _tol(tol), table.view.instance, table.truth

    def pair(p):
        ti, bi = table.view.index[p]
        return f"({inst.theta[ti]},{float(inst.budgets[bi]):g})"
    if not table.served.all():
        p = int(np.argmin(table.served))
        worst, worst_case = -np.inf, (f"{pair(p)} missing from menu" if truth[p] < 0 else
                                      f"{pair(p)} cannot afford its own menu entry {truth[p]}")
    else:
        k, worst = _worst(slack)
        worst_case = empty if worst == np.inf else pair(k // slack.shape[1]) + case(
            k % slack.shape[1])
    return VerificationReport([CheckResult(name, bool(worst >= -eps - tol), worst,
                                           worst_case, eps, tol, mode)])


def check_ic(mechanism: Menu, prior: Instance | PriorView | MenuValues, eps: float = 0.0,
             tol: float | None = None) -> VerificationReport:
    """Truth beats every affordable misreport, even with free action remaps."""
    table = _table(mechanism, prior)
    other = table.affordable & (np.arange(table.best.shape[1]) != table.truth[:, None])
    return _decide("ic", table, np.where(other, table.obedient[:, None] - table.best, np.inf),
                   eps, tol, "no deviation available", lambda j: f" reporting menu entry {j}")


def check_ir(mechanism: Menu, prior: Instance | PriorView | MenuValues, eps: float = 0.0,
             tol: float | None = None) -> VerificationReport:
    """Truthful participation beats acting on the prior belief alone."""
    table = _table(mechanism, prior)
    return _decide("ir", table, (table.obedient - table.outside)[:, None], eps, tol, "no types")


def check_obedience(mechanism: Menu, prior: Instance | PriorView | MenuValues,
                    eps: float = 0.0, tol: float | None = None,
                    aggregate: bool | None = None) -> VerificationReport:
    """Recommended actions are worth taking.

    aggregate=False: every positive-probability recommendation must be
    eps-optimal given its own posterior. aggregate=True: the expected regret
    across recommendations is at most eps, which is the natural reading when
    eps was budgeted for the whole recommendation stage. Default: aggregate
    exactly when eps > 0; the report's mode field records the choice.
    """
    if aggregate is None:
        aggregate = eps > 0
    table = _table(mechanism, prior)
    mass = table.rec_mass
    rec = ~(mass <= REC_PROB_FLOOR)             # a NaN mass counts, and fails
    with np.errstate(divide="ignore", invalid="ignore"):
        ob, dev = table.rec_obedient / mass, table.rec_best / mass
    if aggregate:
        return _decide("obedience", table, -np.where(rec, mass * (dev - ob), 0.0).sum(
            axis=1, keepdims=True), eps, tol, "no recommendations", mode="aggregate")
    actions, signs = table.view.instance.actions, [s for s, _, _ in mechanism.blocks(0)]

    def case(c):
        action, sign = actions[c % len(actions)], signs[c // len(actions)]
        return f" recommended {action if sign is None else f'({action},{sign})'}"
    return _decide("obedience", table, np.where(rec, ob - dev, np.inf), eps, tol,
                   "no recommendations", case, "per-recommendation")


def check_budget(mechanism: Menu, seller_budget: float | None = None,
                 tol: float | None = None) -> VerificationReport:
    """Prices stay inside [−M, b] per menu entry; the probabilistic-return
    kind is in-bounds by construction and reported as such."""
    tol = _tol(tol)
    worst, worst_case = np.inf, "structural"
    if mechanism.kind == "probr":
        worst = 0.0
    else:
        prices = mechanism.payments
        stake = prices + (np.inf if seller_budget is None else seller_budget)
        k, worst = _worst(np.column_stack([[b for _, b in mechanism.menu] - prices, stake]))
        if worst != np.inf:
            (th, b), t = mechanism.menu[k // 2], prices[k // 2]
            worst_case = (f"price {t:g} vs budget {b:g} at {th!r}" if k % 2 == 0 else
                          f"price {t:g} vs stake {seller_budget:g} at {th!r}")
    return VerificationReport([CheckResult("budget", bool(worst >= -tol),
                                           float(worst), worst_case, 0.0, tol)])


def check_revenue_cap(mechanism: Menu, prior: Instance | PriorView | MenuValues,
                      tol: float | None = None) -> VerificationReport:
    """Revenue can't beat sum of min(budget, value of full information)."""
    tol = _tol(tol)
    table = _table(mechanism, prior)
    cap, revenue = table.cap, table.revenue
    return VerificationReport([CheckResult(
        "revenue-cap", bool(cap - revenue >= -tol), float(cap - revenue),
        f"revenue {revenue:.6g} vs cap {cap:.6g}", 0.0, tol)])


def verify_all(mechanism: Menu, prior: Instance | PriorView | MenuValues, eps: float = 0.0,
               tol: float | None = None) -> VerificationReport:
    """All checks against one prior, from one value table; composite passes
    iff every check does."""
    tol = _tol(tol)
    table = _table(mechanism, prior)
    report = VerificationReport()
    for check in (check_ic, check_ir, check_obedience):
        report.checks += check(mechanism, table, eps, tol).checks
    report.checks += check_budget(mechanism, table.view.instance.seller_budget, tol).checks
    report.checks += check_revenue_cap(mechanism, table, tol).checks
    return report
