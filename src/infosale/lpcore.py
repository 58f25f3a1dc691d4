"""Thin LP modeling layer over scipy's HiGHS backend.

A program is held as arrays: columns come in named blocks of any shape
(add_block returns the block's column ids as an array of that shape), and
rows come in named families, each one sense with a (rows, terms) grid of
column ids and coefficients and one right-hand side per row (add_rows).
solve() stacks the families' COO triples into sparse matrices, runs HiGHS
(its simplex for a pure LP, its branch-and-bound once any column is
integer), maps its status onto a small enum, and re-checks the returned
point against every row, bound and integrality requirement with its own
sparse products — a solution is never trusted on the solver's word alone.
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
    """A solved program: values by column id plus the objective."""

    values: np.ndarray
    objective: float
    status: str


def _label(name: str, shape: tuple, flat: int) -> str:
    """`name[i,j,...]` for entry `flat` of a block or family of `shape`."""
    index = ",".join(str(int(k)) for k in np.unravel_index(flat, shape))
    return f"{name}[{index}]" if shape else name


@dataclass
class LinearProgram:
    """LP built from column blocks and row families, maximized by default.

    Typical use:
        lp = LinearProgram("toy")
        x = lp.add_block("x", 2, 0.0, 10.0)
        lp.add_rows("cap", x, [1.0, 1.0], "<=", 4.0)
        lp.set_objective(x, [3.0, 1.0])
        sol = lp.solve()
    """

    name: str = "lp"
    maximize: bool = True
    # (name, shape, lb, ub, integer) per block; (name, shape, "ub" or "eq",
    # cols, coefs, rhs) per family, cols and coefs (rows, terms) and >= rows
    # negated into HiGHS's A_ub x <= b_ub
    _blocks: list[tuple] = field(default_factory=list)
    _families: list[tuple] = field(default_factory=list)
    _objective: tuple[np.ndarray, np.ndarray] = (np.zeros(0, int), np.zeros(0))
    _n: int = 0

    def add_block(self, name: str, shape, lb: float | None = 0.0, ub: float | None = None,
                  integer: bool = False) -> np.ndarray:
        """Register a block of columns; returns their ids shaped `shape`.

        lb and ub broadcast to the block (None means unbounded); integer
        columns make the program a mixed-integer one.
        """
        ids = self._n + np.arange(int(np.prod(shape))).reshape(shape)
        lb, ub = (np.broadcast_to(np.asarray(free if v is None else v, dtype=float),
                                  ids.shape).ravel() for v, free in ((lb, -np.inf), (ub, np.inf)))
        self._blocks.append((name, ids.shape, lb, ub, np.full(ids.size, float(integer))))
        self._n += ids.size
        return ids

    def add_rows(self, name: str, cols, coefs, sense: str, rhs) -> None:
        """Add a family of rows sum_k coefs[..., k] * x[cols[..., k]] (sense) rhs.

        cols and coefs broadcast to (*rows, terms) and rhs to rows; a column
        id of -1 is no term, so rows of one family may differ in length. A
        row's name in the re-check is `name[index]` over that row grid.
        """
        if sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")
        cols, coefs = np.broadcast_arrays(np.asarray(cols), np.asarray(coefs, dtype=float))
        shape, terms = cols.shape[:-1], cols.shape[-1]
        sign = -1.0 if sense == ">=" else 1.0
        self._families.append((name, shape, "eq" if sense == "==" else "ub",
                               cols.reshape(-1, terms), sign * coefs.reshape(-1, terms),
                               sign * np.broadcast_to(np.asarray(rhs, dtype=float), shape).ravel()))

    def set_objective(self, cols, coefs, maximize: bool = True) -> None:
        """Objective sum coefs * x[cols]; a repeated column adds up."""
        self.maximize = maximize
        cols, coefs = np.broadcast_arrays(np.asarray(cols), np.asarray(coefs, dtype=float))
        self._objective = cols.ravel(), coefs.ravel()

    def _assemble(self) -> dict:
        """The program as arrays: the objective c (as stated), the bounds and
        integrality marks, A_ub x <= b_ub and A_eq x == b_eq, and the
        (name, shape) and first index of every block and family."""
        c = np.zeros(self._n)
        np.add.at(c, *self._objective)
        lb, ub, integer = (np.concatenate([[], *(b[k] for b in self._blocks)]) for k in (2, 3, 4))
        out = {"c": c, "lb": lb, "ub": ub, "integer": integer,
               "blocks": ([b[:2] for b in self._blocks],
                          np.cumsum([0] + [len(b[2]) for b in self._blocks]))}
        for kind in ("ub", "eq"):
            families = [f for f in self._families if f[2] == kind]
            starts = np.cumsum([0] + [len(f[5]) for f in families])
            out[f"{kind}_families"] = [f[:2] for f in families], starts
            out[f"A_{kind}"] = out[f"b_{kind}"] = None
            if starts[-1]:
                rows = np.concatenate([np.repeat(np.arange(start, start + len(f[5])), f[3].shape[1])
                                       for f, start in zip(families, starts)])
                cols, data = (np.concatenate([f[k].ravel() for f in families]) for k in (3, 4))
                term = cols >= 0
                out[f"A_{kind}"] = csr_matrix((data[term], (rows[term], cols[term])),
                                              shape=(starts[-1], self._n))
                out[f"b_{kind}"] = np.concatenate([f[5] for f in families])
        return out

    def solve(self) -> LPSolution:
        """Run HiGHS; raises SolverFailure unless a verified optimum returns.

        The SolverFailure's status (INFEASIBLE, UNBOUNDED, "recheck" or
        "error") lets callers tell a bad input from a solver breakdown.
        """
        lp = self._assemble()
        c = -lp["c"] if self.maximize else lp["c"]
        if lp["integer"].any():
            result = self._solve_mip(c, lp)
        else:
            result = linprog(c, A_ub=lp["A_ub"], b_ub=lp["b_ub"], A_eq=lp["A_eq"],
                             b_eq=lp["b_eq"], bounds=np.column_stack([lp["lb"], lp["ub"]]),
                             method="highs")
        if result.status == 2:
            raise SolverFailure(f"{self.name}: program infeasible", status=INFEASIBLE)
        if result.status == 3:
            raise SolverFailure(f"{self.name}: program unbounded", status=UNBOUNDED)
        if result.status != 0 or result.x is None:
            raise SolverFailure(f"{self.name}: solver returned status "
                                f"{result.status} ({result.message})")
        values = np.asarray(result.x, dtype=float)
        worst, row_name = self._violation(values, lp)
        if worst > FEAS_TOL:
            raise SolverFailure(f"{self.name}: solver point violates {row_name!r} "
                                f"by {worst:.3g} (> {FEAS_TOL:g})", status="recheck")
        return LPSolution(values=values, objective=float(lp["c"] @ values), status=OPTIMAL)

    @staticmethod
    def _solve_mip(c, lp: dict):
        """HiGHS branch-and-bound on the assembled rows; status codes as linprog's."""
        constraints = []
        if lp["A_ub"] is not None:
            constraints.append(LinearConstraint(lp["A_ub"], -np.inf, lp["b_ub"]))
        if lp["A_eq"] is not None:
            constraints.append(LinearConstraint(lp["A_eq"], lp["b_eq"], lp["b_eq"]))
        # HiGHS's default relative gap (1e-4) would let branch-and-bound stop
        # at a visibly worse answer
        return milp(c, integrality=lp["integer"], bounds=Bounds(lp["lb"], lp["ub"]),
                    constraints=constraints, options={"mip_rel_gap": 1e-9})

    def max_violation(self, values: np.ndarray) -> tuple[float, str]:
        """Largest row/bound/integrality violation at the point, with its
        name (`family[index]`, `bound:block[index]` or
        `integrality:block[index]`); (0.0, "") when nothing is violated.

        This is the independent feasibility pass: plain sparse products, no
        solver state involved.
        """
        return self._violation(np.asarray(values, dtype=float), self._assemble())

    def _violation(self, x: np.ndarray, lp: dict) -> tuple[float, str]:
        gaps = [(np.maximum(lp["lb"] - x, x - lp["ub"]), "bound:", lp["blocks"]),
                (np.where(lp["integer"] > 0, np.abs(x - np.round(x)), 0.0),
                 "integrality:", lp["blocks"])]
        if lp["A_ub"] is not None:
            gaps.append((lp["A_ub"] @ x - lp["b_ub"], "", lp["ub_families"]))
        if lp["A_eq"] is not None:
            gaps.append((np.abs(lp["A_eq"] @ x - lp["b_eq"]), "", lp["eq_families"]))
        worst, worst_name = 0.0, ""
        for gap, prefix, (labels, starts) in gaps:
            if len(gap) and gap.max() > worst:
                k = int(np.argmax(gap))
                g = int(np.searchsorted(starts, k, side="right")) - 1
                worst, worst_name = float(gap[k]), prefix + _label(*labels[g], k - starts[g])
        return worst, worst_name
