"""Independent feasibility checks for menu mechanisms.

Every check here is direct expectation arithmetic — no LP anywhere — so a
green report is evidence the solvers built what they claim, not a replay of
their own constraints. Checks accept either an Instance (verify against the
true prior) or any object exposing the small "prior view" surface used by
the sampling module's empirical estimates: `instance`, `pairs()`,
`weight(ti, bi)`, `belief(ti, bi)`.

Conventions: slack is (left side − right side) of the defining inequality,
so negative slack means violation; a check at slack s passes when
s ≥ −ε − tol. Utilities are absolute (transfers netted out), which makes
the truth-vs-deviation comparisons identical to the gain-over-outside form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .mechanisms import Menu
from .model import Instance, conditional_belief, positive_types

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
# prior views
# ---------------------------------------------------------------------------


class _InstanceView:
    """Adapter giving an Instance the same surface as an empirical prior."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self._marg = instance.type_marginal()

    def pairs(self):
        return positive_types(self.instance)

    def weight(self, ti: int, bi: int) -> float:
        return float(self._marg[ti, bi])

    def belief(self, ti: int, bi: int) -> np.ndarray:
        return conditional_belief(self.instance, ti, bi)


def _as_view(prior):
    if isinstance(prior, Instance):
        return _InstanceView(prior)
    if all(hasattr(prior, attr) for attr in ("instance", "pairs", "weight", "belief")):
        return prior
    raise InputError("prior must be an Instance or expose instance/pairs/weight/belief")


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


def check_ic(mechanism: Menu, prior, eps: float = 0.0,
             tol: float | None = None) -> VerificationReport:
    """Truth beats every affordable misreport, even with free action remaps."""
    tol = _tol(tol)
    view = _as_view(prior)
    inst = view.instance
    worst, worst_case = np.inf, "no deviation available"
    for ti, bi in view.pairs():
        b = float(inst.budgets[bi])
        truth = mechanism.find(inst.theta[ti], b)
        if truth is None:
            worst, worst_case = -np.inf, f"({inst.theta[ti]},{b:g}) missing from menu"
            break
        belief = view.belief(ti, bi)
        truthful, _, _ = _entry_values(mechanism, inst, belief, ti, truth)
        for entry in range(len(mechanism.menu)):
            if entry == truth or mechanism.cost(entry) > b + 1e-9:
                continue
            _, deviation, _ = _entry_values(mechanism, inst, belief, ti, entry)
            slack = truthful - deviation
            if _worse(slack, worst):
                worst = slack
                worst_case = (f"({inst.theta[ti]},{b:g}) reporting menu entry {entry}")
    passed = bool(worst >= -eps - tol)
    return VerificationReport([CheckResult("ic", passed, float(worst), worst_case, eps, tol)])


def check_ir(mechanism: Menu, prior, eps: float = 0.0,
             tol: float | None = None) -> VerificationReport:
    """Truthful participation beats acting on the prior belief alone."""
    tol = _tol(tol)
    view = _as_view(prior)
    inst = view.instance
    worst, worst_case = np.inf, "no types"
    for ti, bi in view.pairs():
        b = float(inst.budgets[bi])
        truth = mechanism.find(inst.theta[ti], b)
        if truth is None:
            worst, worst_case = -np.inf, f"({inst.theta[ti]},{b:g}) missing from menu"
            break
        belief = view.belief(ti, bi)
        truthful, _, _ = _entry_values(mechanism, inst, belief, ti, truth)
        outside = float(max(belief @ inst.utility[:, ti, a]
                            for a in range(len(inst.actions))))
        slack = truthful - outside
        if _worse(slack, worst):
            worst, worst_case = slack, f"({inst.theta[ti]},{b:g})"
    passed = bool(worst >= -eps - tol)
    return VerificationReport([CheckResult("ir", passed, float(worst),
                                           worst_case, eps, tol)])


def check_obedience(mechanism: Menu, prior, eps: float = 0.0,
                    tol: float | None = None,
                    aggregate: bool | None = None) -> VerificationReport:
    """Recommended actions are worth taking.

    aggregate=False: every positive-probability recommendation must be
    eps-optimal given its own posterior. aggregate=True: the expected regret
    across recommendations is at most eps, which is the natural reading when
    eps was budgeted for the whole recommendation stage. Default: aggregate
    exactly when eps > 0; the report's mode field records the choice.
    """
    tol = _tol(tol)
    if aggregate is None:
        aggregate = eps > 0
    view = _as_view(prior)
    inst = view.instance
    worst, worst_case = np.inf, "no recommendations"
    for ti, bi in view.pairs():
        b = float(inst.budgets[bi])
        truth = mechanism.find(inst.theta[ti], b)
        if truth is None:
            worst, worst_case = -np.inf, f"({inst.theta[ti]},{b:g}) missing from menu"
            break
        belief = view.belief(ti, bi)
        _, _, rows = _entry_values(mechanism, inst, belief, ti, truth)
        if aggregate:
            regret = sum(mass * (dev - ob) for _, mass, ob, dev in rows)
            slack = -regret
            if _worse(slack, worst):
                worst, worst_case = slack, f"({inst.theta[ti]},{b:g})"
        else:
            for label, _, ob, dev in rows:
                slack = ob - dev
                if _worse(slack, worst):
                    worst = slack
                    worst_case = f"({inst.theta[ti]},{b:g}) recommended {label}"
    passed = bool(worst >= -eps - tol)
    return VerificationReport([CheckResult(
        "obedience", passed, float(worst), worst_case, eps, tol,
        mode="aggregate" if aggregate else "per-recommendation")])


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


def check_revenue_cap(mechanism: Menu, instance, tol: float | None = None
                      ) -> VerificationReport:
    """Revenue can't beat sum of min(budget, value of full information)."""
    tol = _tol(tol)
    view = _as_view(instance)
    inst = view.instance
    cap = revenue = 0.0
    for ti, bi in view.pairs():
        belief = view.belief(ti, bi)
        uth = inst.utility[:, ti, :]
        full = float((belief[:, None] * uth).max(axis=1).sum())
        outside = float(max(belief @ uth[:, a] for a in range(len(inst.actions))))
        cap += view.weight(ti, bi) * min(float(inst.budgets[bi]), full - outside)
        entry = mechanism.find(inst.theta[ti], float(inst.budgets[bi]))
        if entry is not None:
            revenue += view.weight(ti, bi) * mechanism.take(entry, belief)
    slack = cap - revenue
    return VerificationReport([CheckResult(
        "revenue-cap", bool(slack >= -tol), float(slack),
        f"revenue {revenue:.6g} vs cap {cap:.6g}", 0.0, tol)])


def verify_all(mechanism: Menu, prior, eps: float = 0.0,
               tol: float | None = None) -> VerificationReport:
    """All checks against one prior; composite passes iff every check does."""
    tol = _tol(tol)
    view = _as_view(prior)
    report = VerificationReport()
    report.checks += check_ic(mechanism, view, eps, tol).checks
    report.checks += check_ir(mechanism, view, eps, tol).checks
    report.checks += check_obedience(mechanism, view, eps, tol).checks
    report.checks += check_budget(mechanism, view.instance.seller_budget, tol).checks
    report.checks += check_revenue_cap(mechanism, view, tol).checks
    return report
