"""Thin LP modeling layer over scipy's HiGHS backend.

A program is held as arrays: columns come in named blocks of any shape
(add_block returns the block's column ids as an array of that shape), and
rows come in named families, each one sense with a (rows, terms) grid of
column ids and coefficients and one right-hand side per row (add_rows).
solve() stacks the families' COO triples into sparse matrices and hands the
whole program to HiGHS in one `linprog` call (its simplex for a pure LP, its
branch-and-bound once any column is integer), maps its status onto a small
enum, and re-checks the returned point against every row, bound and
integrality requirement with its own sparse products — a solution is never
trusted on the solver's word alone.

A family of inequality rows can be held back: HiGHS then starts from the
family's start rows and, on one live model that keeps its basis, re-solves
after adding the worst violated missing row along the row grid's last axis,
until no missing row is violated (Kelley's cutting-plane method, J. SIAM 8,
1960). The re-check still covers every row, held back or not. A program
with an integer column goes to HiGHS whole, held-back rows included, with
file descriptor 1 pointed at os.devnull while its branch-and-bound runs.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as core
from scipy.sparse import csr_matrix, vstack

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
    of `rows` rows at the optimum."""

    values: np.ndarray
    objective: float
    rounds: int
    rows: int


# what linprog(method="highs") sets: dual simplex after presolve, no output
_HIGHS_OPTIONS = (("presolve", "on"), ("simplex_strategy", 1), ("output_flag", False),
                  ("log_to_console", False))


@contextmanager
def _quiet_stdout():
    """File descriptor 1 pointed at os.devnull for the block: HiGHS's
    branch-and-bound can print there from C, whatever its output options."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


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
    # cols, coefs, rhs, held) per family, cols and coefs (rows, terms), >= rows
    # negated into HiGHS's A_ub x <= b_ub, and held None or a held-back
    # family's start mask over its row grid
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

    def add_rows(self, name: str, cols, coefs, sense: str, rhs, start=None) -> None:
        """Add a family of rows sum_k coefs[..., k] * x[cols[..., k]] (sense) rhs.

        cols and coefs broadcast to (*rows, terms) and rhs to rows; a column
        id of -1 is no term, so rows of one family may differ in length. A
        row's name in the re-check is `name[index]` over that row grid.

        A boolean `start` (broadcast to the row grid) holds an inequality
        family back: solve() hands HiGHS only its start rows, then adds rows
        one per line along the grid's last axis, the worst violated one,
        until none is violated. The start rows must keep the program bounded.
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
        # a mixed-integer program goes whole: the live model would cut its
        # held-back rows into the relaxation, not the program
        mip = lp["integer"].any()
        held = [] if mip else self._held(lp)
        if held:
            values, rounds, rows = self._solve_live(c, lp, held)
        else:
            # HiGHS's default relative gap (1e-4) would let branch-and-bound
            # stop at a visibly worse answer
            with _quiet_stdout() if mip else nullcontext():
                result = linprog(c, A_ub=lp["A_ub"], b_ub=lp["b_ub"], A_eq=lp["A_eq"],
                                 b_eq=lp["b_eq"], bounds=np.column_stack([lp["lb"], lp["ub"]]),
                                 method="highs", integrality=lp["integer"],
                                 options={"mip_rel_gap": 1e-9})
            if result.status == 2:
                raise SolverFailure(f"{self.name}: program infeasible", status=INFEASIBLE)
            if result.status == 3:
                raise SolverFailure(f"{self.name}: program unbounded", status=UNBOUNDED)
            if result.status != 0 or result.x is None:
                raise SolverFailure(f"{self.name}: solver returned status "
                                    f"{result.status} ({result.message})")
            values, rounds = np.asarray(result.x, dtype=float), 1
            rows = int(lp["ub_families"][1][-1] + lp["eq_families"][1][-1])
        worst, row_name = self._violation(values, lp)
        if worst > FEAS_TOL:
            raise SolverFailure(f"{self.name}: solver point violates {row_name!r} "
                                f"by {worst:.3g} (> {FEAS_TOL:g})", status="recheck")
        return LPSolution(values=values, objective=float(lp["c"] @ values), rounds=rounds,
                          rows=rows)

    def _held(self, lp: dict) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per held-back family, its A_ub row ids and a copy of its start
        mask, both (lines, last axis of the row grid)."""
        held = []
        families = [f for f in self._families if f[2] == "ub"]
        for (_, shape, _, _, _, rhs, start), first in zip(families, lp["ub_families"][1]):
            if start is not None:
                held.append((first + np.arange(len(rhs)).reshape(-1, shape[-1]),
                             start.reshape(-1, shape[-1]).copy()))
        return held

    def _solve_live(self, c, lp: dict, held) -> tuple[np.ndarray, int, int]:
        """Cutting-plane solve on one HiGHS model: every ordinary row and
        the held-back families' start rows first; after each run, the worst
        missing row of each line that is violated by more than CUT_TOL joins
        the model and HiGHS resumes from its basis. Only missing rows join,
        so the loop ends. Returns the point, the runs and the model's rows.
        """
        A_ub, b_ub = lp["A_ub"], lp["b_ub"]
        missing = np.zeros(len(b_ub), dtype=bool)
        for ids, start in held:
            missing[ids[~start]] = True
        parts = [(A_ub[~missing], np.full(int((~missing).sum()), -np.inf), b_ub[~missing])]
        if lp["A_eq"] is not None:
            parts.append((lp["A_eq"], lp["b_eq"], lp["b_eq"]))
        A = vstack([a for a, _, _ in parts]).tocsc()
        model = core.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = len(c)
        model.num_row_ = model.a_matrix_.num_row_ = A.shape[0]
        model.a_matrix_.format_ = core.MatrixFormat.kColwise
        model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = (
            A.indptr, A.indices, A.data)
        model.col_cost_, model.col_lower_, model.col_upper_ = c, lp["lb"], lp["ub"]
        model.row_lower_ = np.concatenate([lo for _, lo, _ in parts])
        model.row_upper_ = np.concatenate([hi for _, _, hi in parts])
        highs = core._Highs()
        for option, value in _HIGHS_OPTIONS:
            highs.setOptionValue(option, value)
        highs.passModel(model)
        cuts = [(A_ub[ids.ravel()], b_ub[ids.ravel()]) for ids, _ in held]
        rounds = 0
        while True:
            highs.run()
            rounds += 1
            status = highs.getModelStatus()
            # statuses as linprog maps them, but for an unbounded restricted
            # program, which says nothing of the whole
            if status in (core.HighsModelStatus.kInfeasible, core.HighsModelStatus.kModelError):
                raise SolverFailure(f"{self.name}: program infeasible", status=INFEASIBLE)
            if status != core.HighsModelStatus.kOptimal:
                raise SolverFailure(f"{self.name}: solver returned status "
                                    f"{highs.modelStatusToString(status)} on "
                                    f"{highs.getNumRow()} of its rows")
            x = np.asarray(highs.getSolution().col_value, dtype=float)
            new = []
            for (ids, in_model), (A_f, b_f) in zip(held, cuts):
                gap = np.where(in_model, -np.inf, (A_f @ x - b_f).reshape(in_model.shape))
                worst = gap.argmax(axis=1)
                line = np.flatnonzero(gap[np.arange(len(gap)), worst] > CUT_TOL)
                in_model[line, worst[line]] = True
                new.append(ids[line, worst[line]])
            new = np.concatenate(new)
            if not len(new):
                return x, rounds, highs.getNumRow()
            cut = A_ub[new]
            highs.addRows(len(new), np.full(len(new), -np.inf), b_ub[new], cut.nnz,
                          cut.indptr[:-1].astype(np.int32), cut.indices.astype(np.int32),
                          cut.data)

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
