"""Thin LP modeling layer over the HiGHS solver that scipy vendors.

A program is held as arrays: columns come in named blocks of any shape
(add_block returns the block's column ids as an array of that shape), and
rows come in named families, each one sense with a (rows, terms) grid of
column ids and coefficients and one right-hand side per row (add_rows).
solve() stacks the families' COO triples into sparse matrices and hands the
whole program to this module's `linprog`, the one way to HiGHS (its dual
simplex; Huangfu and Hall, Math. Prog. Comp. 10, 2018), maps its status onto
a small enum, and re-checks the returned point against every row and bound
with its own sparse products — a solution is never trusted on the solver's
word alone.

A family of inequality rows can be held back: `linprog` then builds its
model from the family's start rows and, keeping HiGHS's basis, re-solves
after adding the worst violated missing row along the row grid's last axis,
until no missing row is violated (Kelley's cutting-plane method, J. SIAM 8,
1960). The re-check still covers every row, held back or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as core
from scipy.sparse import csc_matrix, csr_matrix, vstack

from .errors import SolverFailure

INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Max constraint violation tolerated in the independent re-check.
FEAS_TOL = 1e-6
# A held-back row joins the model once violated by more than this.
CUT_TOL = 1e-9

_SENSES = ("<=", ">=", "==")


@dataclass
class LPSolution:
    """A solved program: values by column id plus the objective, and what
    HiGHS did: `rounds` solves (1 unless rows were held back), over a model
    of `rows` rows at the optimum, taking `iterations` simplex iterations
    over all rounds."""

    values: np.ndarray
    objective: float
    rounds: int
    rows: int
    iterations: int


# dual simplex after presolve and no output, as scipy's linprog(method="highs")
# sets them; rows held to 1e-10, since at HiGHS's default 1e-7 a probr zdef
# row left 8.9e-8 short let a misreport gain more than protocol.TIE_TOL
_HIGHS_OPTIONS = (("presolve", "on"), ("simplex_strategy", 1), ("output_flag", False),
                  ("log_to_console", False), ("primal_feasibility_tolerance", 1e-10))
# HiGHS model status -> the status code scipy's linprog reports; any other is 4
_STATUS = {core.HighsModelStatus.kOptimal: 0, core.HighsModelStatus.kInfeasible: 2,
           core.HighsModelStatus.kModelError: 2, core.HighsModelStatus.kUnbounded: 3}


class HighsResult(NamedTuple):
    """What HiGHS returned: the point (None unless optimal), the status code
    (0 optimal, 2 infeasible, 3 unbounded, 4 anything else), the simplex
    iterations and model status text of its runs, the number of runs and
    the rows of its model at the end."""

    x: np.ndarray | None
    status: int
    nit: int
    message: str
    rounds: int
    rows: int


def _highs(c, A_ub, b_ub, A_eq, b_eq, lb, ub) -> core._Highs:
    """A HiGHS model of min c @ x over A_ub x <= b_ub, A_eq x == b_eq and
    lb <= x <= ub (a matrix may be None), with every option set."""
    parts = [(A, np.broadcast_to(lo, len(hi)), hi)
             for A, lo, hi in ((A_ub, -np.inf, b_ub), (A_eq, b_eq, b_eq)) if A is not None]
    A = vstack([a for a, _, _ in parts]).tocsc() if parts else csc_matrix((0, len(c)))
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = len(c)
    model.num_row_ = model.a_matrix_.num_row_ = A.shape[0]
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = (
        A.indptr, A.indices, A.data)
    model.col_cost_, model.col_lower_, model.col_upper_ = c, lb, ub
    model.row_lower_ = np.concatenate([[], *(lo for _, lo, _ in parts)])
    model.row_upper_ = np.concatenate([[], *(hi for _, _, hi in parts)])
    highs = core._Highs()
    for option, value in _HIGHS_OPTIONS:
        highs.setOptionValue(option, value)
    highs.passModel(model)
    return highs


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None,
            held=()) -> HighsResult:
    """min c @ x over A_ub x <= b_ub, A_eq x == b_eq and the (columns, 2)
    bounds.

    `held` lists (row ids, start mask) pairs, both (lines, width), of A_ub
    rows held back: the model leaves out the rows off their masks, and after
    each run the worst missing row of each line violated by more than
    CUT_TOL joins it and HiGHS resumes from its basis. Only missing rows
    join, so the loop ends. A run that is unbounded while rows are missing
    says nothing of the whole program, and reports status 4.
    """
    lb, ub = np.asarray(bounds, dtype=float).T.copy()
    missing = np.zeros(0 if b_ub is None else len(b_ub), dtype=bool)
    for ids, start in held:
        missing[ids[~start]] = True
    kept = (A_ub[~missing], b_ub[~missing]) if missing.any() else (A_ub, b_ub)
    highs = _highs(c, *kept, A_eq, b_eq, lb, ub)
    cuts = [(ids, A_ub[ids.ravel()], b_ub[ids.ravel()]) for ids, _ in held]
    rounds = nit = 0
    while True:
        highs.run()
        rounds += 1
        nit += highs.getInfo().simplex_iteration_count
        status = highs.getModelStatus()
        code = _STATUS.get(status, 4)
        if code == 3 and missing.any():
            code = 4
        x, new = None, np.zeros(0, int)
        if code == 0:
            x = np.asarray(highs.getSolution().col_value, dtype=float)
            for ids, A_f, b_f in cuts:
                gap = np.where(missing[ids], (A_f @ x - b_f).reshape(ids.shape), -np.inf)
                worst = gap.argmax(axis=1)
                line = np.flatnonzero(gap[np.arange(len(gap)), worst] > CUT_TOL)
                new = np.append(new, ids[line, worst[line]])
        if not len(new):
            return HighsResult(x, code, nit, highs.modelStatusToString(status), rounds,
                               highs.getNumRow())
        missing[new] = False
        cut = A_ub[new]
        highs.addRows(len(new), np.full(len(new), -np.inf), b_ub[new], cut.nnz,
                      cut.indptr[:-1].astype(np.int32), cut.indices.astype(np.int32),
                      cut.data)


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
    # (name, shape, lb, ub) per block; (name, shape, "ub" or "eq",
    # cols, coefs, rhs, held) per family, cols and coefs (rows, terms), >= rows
    # negated into HiGHS's A_ub x <= b_ub, and held None or a held-back
    # family's start mask over its row grid
    _blocks: list[tuple] = field(default_factory=list)
    _families: list[tuple] = field(default_factory=list)
    _objective: tuple[np.ndarray, np.ndarray] = (np.zeros(0, int), np.zeros(0))
    _n: int = 0

    def add_block(self, name: str, shape, lb: float | None = 0.0,
                  ub: float | None = None) -> np.ndarray:
        """Register a block of columns; returns their ids shaped `shape`.

        lb and ub broadcast to the block (None means unbounded).
        """
        ids = self._n + np.arange(int(np.prod(shape))).reshape(shape)
        lb, ub = (np.broadcast_to(np.asarray(free if v is None else v, dtype=float),
                                  ids.shape).ravel() for v, free in ((lb, -np.inf), (ub, np.inf)))
        self._blocks.append((name, ids.shape, lb, ub))
        self._n += ids.size
        return ids

    def add_rows(self, name: str, cols, coefs, sense: str, rhs, start=None) -> None:
        """Add a family of rows sum_k coefs[..., k] * x[cols[..., k]] (sense) rhs.

        cols and coefs broadcast to (*rows, terms) and rhs to rows; a column
        id of -1 is no term, so rows of one family may differ in length. A
        row's name in the re-check is `name[index]` over that row grid.

        A boolean `start` (broadcast to the row grid) holds an inequality
        family back: `linprog`'s model starts from its start rows and gains
        rows one per line along the grid's last axis, the worst violated
        one, until none is violated. The start rows must keep the program
        bounded; if they do not, solve() raises SolverFailure ("error").
        """
        if sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")
        cols, coefs = np.broadcast_arrays(np.asarray(cols), np.asarray(coefs, dtype=float))
        shape, terms = cols.shape[:-1], cols.shape[-1]
        held = None
        if start is not None:
            if sense == "==":
                raise ValueError("only an inequality family can be held back")
            held = np.broadcast_to(np.asarray(start, dtype=bool), shape)
        sign = -1.0 if sense == ">=" else 1.0
        self._families.append((name, shape, "eq" if sense == "==" else "ub",
                               cols.reshape(-1, terms), sign * coefs.reshape(-1, terms),
                               sign * np.broadcast_to(np.asarray(rhs, dtype=float), shape).ravel(),
                               held))

    def set_objective(self, cols, coefs, maximize: bool = True) -> None:
        """Objective sum coefs * x[cols]; a repeated column adds up."""
        self.maximize = maximize
        cols, coefs = np.broadcast_arrays(np.asarray(cols), np.asarray(coefs, dtype=float))
        self._objective = cols.ravel(), coefs.ravel()

    def _assemble(self) -> dict:
        """The program as arrays: the objective c (as stated), the bounds,
        A_ub x <= b_ub and A_eq x == b_eq, and the (name, shape) and first
        index of every block and family."""
        c = np.zeros(self._n)
        np.add.at(c, *self._objective)
        lb, ub = (np.concatenate([[], *(b[k] for b in self._blocks)]) for k in (2, 3))
        out = {"c": c, "lb": lb, "ub": ub,
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
        result = linprog(c, A_ub=lp["A_ub"], b_ub=lp["b_ub"], A_eq=lp["A_eq"], b_eq=lp["b_eq"],
                         bounds=np.column_stack([lp["lb"], lp["ub"]]), held=self._held(lp))
        if result.status == 2:
            raise SolverFailure(f"{self.name}: program infeasible", status=INFEASIBLE)
        if result.status == 3:
            raise SolverFailure(f"{self.name}: program unbounded", status=UNBOUNDED)
        if result.status != 0:
            raise SolverFailure(f"{self.name}: solver returned status {result.status} "
                                f"({result.message}) on a model of {result.rows} rows")
        worst, row_name = self._violation(result.x, lp)
        if worst > FEAS_TOL:
            raise SolverFailure(f"{self.name}: solver point violates {row_name!r} "
                                f"by {worst:.3g} (> {FEAS_TOL:g})", status="recheck")
        return LPSolution(values=result.x, objective=float(lp["c"] @ result.x),
                          rounds=result.rounds, rows=result.rows, iterations=result.nit)

    def _held(self, lp: dict) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per held-back family, its A_ub row ids and its start mask, both
        (lines, last axis of the row grid)."""
        held = []
        families = [f for f in self._families if f[2] == "ub"]
        for (_, shape, _, _, _, rhs, start), first in zip(families, lp["ub_families"][1]):
            if start is not None:
                held.append((first + np.arange(len(rhs)).reshape(-1, shape[-1]),
                             start.reshape(-1, shape[-1])))
        return held

    def max_violation(self, values: np.ndarray) -> tuple[float, str]:
        """Largest row or bound violation at the point, with its name
        (`family[index]` or `bound:block[index]`); (0.0, "") when nothing is
        violated.

        This is the independent feasibility pass: plain sparse products, no
        solver state involved.
        """
        return self._violation(np.asarray(values, dtype=float), self._assemble())

    def _violation(self, x: np.ndarray, lp: dict) -> tuple[float, str]:
        gaps = [(np.maximum(lp["lb"] - x, x - lp["ub"]), "bound:", lp["blocks"])]
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
