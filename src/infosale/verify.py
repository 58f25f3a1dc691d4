"""Independent feasibility checks for menu mechanisms.

Every check here is direct expectation arithmetic — no LP anywhere — so a
green report is evidence the solvers built what they claim, not a replay of
their own constraints. Checks take a prior: an Instance (verify against the
true prior) or any PriorView, such as the sampling module's empirical
estimate.

Conventions: slack is (left side − right side) of the defining inequality,
so negative slack means violation; a check at slack s passes when
s ≥ −ε − tol. Utilities are absolute (transfers netted out), which makes
the truth-vs-deviation comparisons identical to the gain-over-outside form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .mechanisms import Menu, affordable, revenue_cap
from .model import Instance, PriorView, prior_view

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
# mechanism arithmetic over a view
# ---------------------------------------------------------------------------


def _worse(slack: float, worst: float) -> bool:
    """Whether slack replaces worst: a NaN slack counts as the worst."""
    return bool(slack < worst or (np.isnan(slack) and not np.isnan(worst)))


def _entry_values(mech: Menu, instance: Instance, belief: np.ndarray,
                  ti: int, entry: int):
    """(obedient value, best-deviation value, per-recommendation rows).

    Rows are (rec label, probability, obedient conditional value, best
    conditional value) with values normalized per recommendation; the two
    aggregate values are absolute utilities including transfers.
    """
    uth = instance.utility[:, ti, :]
    na = len(instance.actions)
    rows = []
    obedient = 0.0
    best = 0.0
    for sign, transfer, kernel in mech.blocks(entry):
        for a in range(na):
            v = belief * kernel[:, a]
            mass = float(v.sum())
            ob_val = float(v @ uth[:, a])
            dev_val = float(max(v @ uth[:, a2] for a2 in range(na)))
            obedient += ob_val - transfer * mass
            best += dev_val - transfer * mass
            if mass > REC_PROB_FLOOR:
                label = instance.actions[a] if sign is None else f"({instance.actions[a]},{sign})"
                rows.append((label, mass, ob_val / mass, dev_val / mass))
    return obedient, best, rows


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _walk(name: str, mechanism: Menu, view: PriorView, eps: float, tol: float | None,
          empty: str, slacks, mode: str | None = None) -> VerificationReport:
    """One check over every positive pair of the view.

    slacks(ti, b, belief, truth) yields (slack, case) for a pair whose
    truthful report is menu entry `truth`; the worst slack decides the
    check. A pair the menu does not serve (no entry, or an entry costing
    more than the pair's budget) fails the check at once.
    """
    tol = _tol(tol)
    inst = view.instance
    worst, worst_case = np.inf, empty
    for (ti, bi), belief in zip(view.index, view.beliefs):
        b = float(inst.budgets[bi])
        pair = f"({inst.theta[ti]},{b:g})"
        truth = mechanism.find(inst.theta[ti], b)
        if truth is None or not affordable(mechanism.cost(truth), b):
            worst = -np.inf
            worst_case = (f"{pair} missing from menu" if truth is None else
                          f"{pair} cannot afford its own menu entry {truth}")
            break
        for slack, case in slacks(ti, b, belief, truth):
            if _worse(slack, worst):
                worst, worst_case = slack, pair + case
    return VerificationReport([CheckResult(name, bool(worst >= -eps - tol), float(worst),
                                           worst_case, eps, tol, mode)])


def check_ic(mechanism: Menu, prior: Instance | PriorView, eps: float = 0.0,
             tol: float | None = None) -> VerificationReport:
    """Truth beats every affordable misreport, even with free action remaps."""
    view = prior_view(prior)
    inst = view.instance

    def slacks(ti, b, belief, truth):
        truthful, _, _ = _entry_values(mechanism, inst, belief, ti, truth)
        for entry in range(len(mechanism.menu)):
            if entry != truth and affordable(mechanism.cost(entry), b):
                _, deviation, _ = _entry_values(mechanism, inst, belief, ti, entry)
                yield truthful - deviation, f" reporting menu entry {entry}"
    return _walk("ic", mechanism, view, eps, tol, "no deviation available", slacks)


def check_ir(mechanism: Menu, prior: Instance | PriorView, eps: float = 0.0,
             tol: float | None = None) -> VerificationReport:
    """Truthful participation beats acting on the prior belief alone."""
    view = prior_view(prior)
    inst = view.instance

    def slacks(ti, b, belief, truth):
        truthful, _, _ = _entry_values(mechanism, inst, belief, ti, truth)
        outside = float(max(belief @ inst.utility[:, ti, a]
                            for a in range(len(inst.actions))))
        yield truthful - outside, ""
    return _walk("ir", mechanism, view, eps, tol, "no types", slacks)


def check_obedience(mechanism: Menu, prior: Instance | PriorView, eps: float = 0.0,
                    tol: float | None = None,
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
    view = prior_view(prior)
    inst = view.instance

    def slacks(ti, b, belief, truth):
        _, _, rows = _entry_values(mechanism, inst, belief, ti, truth)
        if aggregate:
            yield -sum(mass * (dev - ob) for _, mass, ob, dev in rows), ""
        else:
            yield from ((ob - dev, f" recommended {label}") for label, _, ob, dev in rows)
    return _walk("obedience", mechanism, view, eps, tol, "no recommendations", slacks,
                 "aggregate" if aggregate else "per-recommendation")


def check_budget(mechanism: Menu, seller_budget: float | None = None,
                 tol: float | None = None) -> VerificationReport:
    """Prices stay inside [−M, b] per menu entry; the probabilistic-return
    kind is in-bounds by construction and reported as such."""
    tol = _tol(tol)
    worst, worst_case = np.inf, "structural"
    if mechanism.kind == "probr":
        worst = 0.0
    else:
        for (th, b), t in zip(mechanism.menu, mechanism.payments):
            slack = b - t
            if _worse(slack, worst):
                worst, worst_case = slack, f"price {t:g} vs budget {b:g} at {th!r}"
            if seller_budget is not None:
                slack = t + seller_budget
                if _worse(slack, worst):
                    worst, worst_case = slack, f"price {t:g} vs stake {seller_budget:g} at {th!r}"
    return VerificationReport([CheckResult("budget", bool(worst >= -tol),
                                           float(worst), worst_case, 0.0, tol)])


def check_revenue_cap(mechanism: Menu, prior: Instance | PriorView,
                      tol: float | None = None) -> VerificationReport:
    """Revenue can't beat sum of min(budget, value of full information)."""
    tol = _tol(tol)
    view = prior_view(prior)
    cap, revenue = revenue_cap(view), 0.0
    for (ti, bi), weight, belief in zip(view.index, view.weights, view.beliefs):
        entry = mechanism.find(view.instance.theta[ti], float(view.instance.budgets[bi]))
        if entry is not None:
            revenue += weight * mechanism.take(entry, belief)
    slack = cap - revenue
    return VerificationReport([CheckResult(
        "revenue-cap", bool(slack >= -tol), float(slack),
        f"revenue {revenue:.6g} vs cap {cap:.6g}", 0.0, tol)])


def verify_all(mechanism: Menu, prior: Instance | PriorView, eps: float = 0.0,
               tol: float | None = None) -> VerificationReport:
    """All checks against one prior; composite passes iff every check does."""
    tol = _tol(tol)
    view = prior_view(prior)
    report = VerificationReport()
    report.checks += check_ic(mechanism, view, eps, tol).checks
    report.checks += check_ir(mechanism, view, eps, tol).checks
    report.checks += check_obedience(mechanism, view, eps, tol).checks
    report.checks += check_budget(mechanism, view.instance.seller_budget, tol).checks
    report.checks += check_revenue_cap(mechanism, view, tol).checks
    return report
