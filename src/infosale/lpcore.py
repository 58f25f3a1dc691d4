"""Thin LP modeling layer over scipy's HiGHS backend.

Variables and constraints are added by name and integer handle; solve()
assembles sparse matrices, runs HiGHS (its simplex for a pure LP, its
branch-and-bound once any column is integer), maps its status onto a small
enum, and re-checks the returned point against every constraint and
integrality requirement with independent arithmetic — a solution is never
trusted on the solver's word alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_matrix

from .errors import SolverFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Max constraint violation tolerated in the independent re-check.
FEAS_TOL = 1e-6

_SENSES = ("<=", ">=", "==")


@dataclass
class LPSolution:
    """A solved program: variable values by handle plus the objective."""

    values: np.ndarray
    objective: float
    status: str

    def __getitem__(self, handle: int) -> float:
        return float(self.values[handle])


@dataclass
class LinearProgram:
    """Incrementally built LP, maximized by default.

    Typical use:
        lp = LinearProgram("toy")
        x = lp.add_variable("x", 0.0, 10.0)
        lp.add_constraint("cap", [(x, 1.0)], "<=", 4.0)
        lp.set_objective([(x, 3.0)])
        sol = lp.solve()
    """

    name: str = "lp"
    maximize: bool = True
    _names: list[str] = field(default_factory=list)
    _lb: list[float] = field(default_factory=list)
    _ub: list[float] = field(default_factory=list)
    _obj: dict[int, float] = field(default_factory=dict)
    _rows: list[tuple[str, list[tuple[int, float]], str, float]] = field(default_factory=list)
    _integer: list[int] = field(default_factory=list)

    def add_variable(self, name: str, lb: float = 0.0, ub: float | None = None,
                     integer: bool = False) -> int:
        """Register a variable; returns its integer handle (the LP column).

        An integer variable makes the program a mixed-integer one.
        """
        self._names.append(name)
        self._lb.append(-np.inf if lb is None else float(lb))
        self._ub.append(np.inf if ub is None else float(ub))
        handle = len(self._names) - 1
        if integer:
            self._integer.append(handle)
        return handle

    def add_constraint(self, name: str, coeffs: list[tuple[int, float]],
                       sense: str, rhs: float) -> None:
        if sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")
        self._rows.append((name, coeffs, sense, float(rhs)))

    def set_objective(self, coeffs: list[tuple[int, float]], maximize: bool = True) -> None:
        self.maximize = maximize
        self._obj = {}
        for handle, coef in coeffs:
            self._obj[handle] = self._obj.get(handle, 0.0) + coef

    def _assemble(self):
        n = len(self._names)
        c = np.zeros(n)
        for handle, coef in self._obj.items():
            c[handle] = coef
        if self.maximize:
            c = -c
        ub_data, ub_i, ub_j, ub_rhs = [], [], [], []
        eq_data, eq_i, eq_j, eq_rhs = [], [], [], []
        for _, coeffs, sense, rhs in self._rows:
            if sense == "==":
                row = len(eq_rhs)
                for handle, coef in coeffs:
                    eq_i.append(row); eq_j.append(handle); eq_data.append(coef)
                eq_rhs.append(rhs)
            else:
                # flip >= rows into <= form
                sign = 1.0 if sense == "<=" else -1.0
                row = len(ub_rhs)
                for handle, coef in coeffs:
                    ub_i.append(row); ub_j.append(handle); ub_data.append(sign * coef)
                ub_rhs.append(sign * rhs)
        A_ub = csr_matrix((ub_data, (ub_i, ub_j)), shape=(len(ub_rhs), n)) if ub_rhs else None
        A_eq = csr_matrix((eq_data, (eq_i, eq_j)), shape=(len(eq_rhs), n)) if eq_rhs else None
        bounds = list(zip(self._lb, self._ub))
        return c, A_ub, np.array(ub_rhs), A_eq, np.array(eq_rhs), bounds

    def solve(self) -> LPSolution:
        """Run HiGHS; raises SolverFailure unless a verified optimum returns.

        The SolverFailure's status (INFEASIBLE, UNBOUNDED, "recheck" or
        "error") lets callers tell a bad input from a solver breakdown.
        """
        c, A_ub, b_ub, A_eq, b_eq, bounds = self._assemble()
        if self._integer:
            result = self._solve_mip(c, A_ub, b_ub, A_eq, b_eq)
        else:
            result = linprog(c, A_ub=A_ub, b_ub=b_ub if A_ub is not None else None,
                             A_eq=A_eq, b_eq=b_eq if A_eq is not None else None,
                             bounds=bounds, method="highs")
        if result.status == 2:
            raise SolverFailure(f"{self.name}: program infeasible", status=INFEASIBLE)
        if result.status == 3:
            raise SolverFailure(f"{self.name}: program unbounded", status=UNBOUNDED)
        if result.status != 0 or result.x is None:
            raise SolverFailure(f"{self.name}: solver returned status "
                                f"{result.status} ({result.message})")
        values = np.asarray(result.x, dtype=float)
        objective = float(self._eval_objective(values))
        worst, row_name = self.max_violation(values)
        if worst > FEAS_TOL:
            raise SolverFailure(f"{self.name}: solver point violates {row_name!r} "
                                f"by {worst:.3g} (> {FEAS_TOL:g})", status="recheck")
        return LPSolution(values=values, objective=objective, status=OPTIMAL)

    def _solve_mip(self, c, A_ub, b_ub, A_eq, b_eq):
        """HiGHS branch-and-bound on the assembled rows; its status codes
        (0 optimal, 2 infeasible, 3 unbounded) match linprog's."""
        constraints = []
        if A_ub is not None:
            constraints.append(LinearConstraint(A_ub, -np.inf, b_ub))
        if A_eq is not None:
            constraints.append(LinearConstraint(A_eq, b_eq, b_eq))
        integrality = np.zeros(len(c))
        integrality[self._integer] = 1
        # HiGHS's default relative gap (1e-4) would let branch-and-bound stop
        # at a visibly worse answer
        return milp(c, integrality=integrality, bounds=Bounds(self._lb, self._ub),
                    constraints=constraints, options={"mip_rel_gap": 1e-9})

    def _eval_objective(self, values: np.ndarray) -> float:
        return sum(coef * values[handle] for handle, coef in self._obj.items())

    def max_violation(self, values: np.ndarray) -> tuple[float, str]:
        """Largest constraint/bound/integrality violation at the point, with
        its name.

        This is the independent feasibility pass: plain dot products, no
        solver state involved.
        """
        worst, worst_name = 0.0, ""
        for i, (lb, ub) in enumerate(zip(self._lb, self._ub)):
            gap = max(lb - values[i], values[i] - ub)
            if gap > worst:
                worst, worst_name = gap, f"bound:{self._names[i]}"
        for i in self._integer:
            gap = abs(values[i] - round(values[i]))
            if gap > worst:
                worst, worst_name = gap, f"integrality:{self._names[i]}"
        for name, coeffs, sense, rhs in self._rows:
            lhs = sum(coef * values[handle] for handle, coef in coeffs)
            if sense == "<=":
                gap = lhs - rhs
            elif sense == ">=":
                gap = rhs - lhs
            else:
                gap = abs(lhs - rhs)
            if gap > worst:
                worst, worst_name = gap, name
        return worst, worst_name
