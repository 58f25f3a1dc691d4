"""Every LP the solvers hand to HiGHS, and every menu they return, pinned by
digest.

Each call to lpcore's `linprog` is captured and hashed: the objective, the
column bounds, a zero integrality mark per column (the layout these programs
were first pinned in) and every constraint matrix in the CSR form HiGHS reads
(data, indices and indptr) with its right-hand sides. Same digests mean the
same programs, column for column and row for row, so any rewrite of the LP
builders must leave them unchanged.
Each returned menu's payments, kernel, utilities and revenue are hashed the
same way, so a rewrite of the pricing and cleanup steps must leave every
bit of the solvers' answers unchanged too.

Regenerate the fixtures with `PYTHONPATH=src python tests/test_lp_digests.py`
only when a program or an answer is meant to change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from infosale import (InstanceOracle, draw_samples, lpcore, solve_cm_depr,
                      solve_cm_dirp, solve_cm_probr, solve_epsilon_lp,
                      solve_single_round, treasure_box)
from infosale.random_instances import (random_correlated_instance,
                                       random_independent_instance)

FIXTURE = Path(__file__).parent / "fixtures" / "lp_digests.json"
SOLVER_FIXTURE = Path(__file__).parent / "fixtures" / "solver_digests.json"


def _digest(kind: str, arrays) -> str:
    h = hashlib.sha256(kind.encode())
    for a in arrays:
        a = np.asarray(a)
        a = a.astype(np.int64 if a.dtype.kind in "iub" else np.float64)
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return f"{kind}:{h.hexdigest()}"


def _csr(A):
    A = csr_matrix(A)
    return [A.shape, A.data, A.indices, A.indptr]


def _linprog_arrays(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None, **_):
    bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
    out = [c, bounds[:, 0], bounds[:, 1], np.zeros(len(c))]
    for A, b in ((A_ub, b_ub), (A_eq, b_eq)):
        out += [] if A is None else _csr(A) + [b]
    return out


def _cases():
    box = treasure_box()
    cases = {"box-depr": lambda: solve_cm_depr(box),
             "box-dirp-50": lambda: solve_cm_dirp(box, 50.0),
             "box-dirp-100": lambda: solve_cm_dirp(box, 100.0),
             "box-single-round": lambda: solve_single_round(box),
             "box-probr": lambda: solve_cm_probr(box)}
    rng = np.random.default_rng(20261019)
    for k in range(5):
        inst = random_correlated_instance(rng)
        cases[f"correlated-probr-{k}"] = lambda inst=inst: solve_cm_probr(inst)
    rng = np.random.default_rng(20261020)
    for k in range(3):
        inst = random_independent_instance(rng)
        cases[f"independent-depr-{k}"] = lambda inst=inst: solve_cm_depr(inst)
        cases[f"independent-dirp-{k}"] = (
            lambda inst=inst: solve_cm_dirp(inst, inst.budgets[0]))

    def eps_lp():
        live = ("0", "1", 50.0)
        view = draw_samples(InstanceOracle(box, np.random.default_rng(5)), 2000, live, box)
        return solve_epsilon_lp(view, box, box.seller_budget, 0.05)
    cases["box-eps-lp"] = eps_lp
    return cases


def capture(run) -> list[str]:
    """Digests of the programs `run()` passes to HiGHS, in call order."""
    seen = []
    linprog = lpcore.linprog

    def traced_linprog(*args, **kwargs):
        seen.append(_digest("linprog", _linprog_arrays(*args, **kwargs)))
        return linprog(*args, **kwargs)

    lpcore.linprog = traced_linprog
    try:
        run()
    finally:
        lpcore.linprog = linprog
    return seen


def answer(run) -> str:
    """Digest of the payments, kernel, utilities and revenue of `run()`."""
    mech = run()
    return _digest("menu", [mech.payments, mech.kernel, mech.utilities, mech.revenue])


def test_solvers_build_the_pinned_programs():
    expected = json.loads(FIXTURE.read_text())
    got = {name: capture(run) for name, run in _cases().items()}
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == expected[name], name


def test_solvers_return_the_pinned_answers():
    expected = json.loads(SOLVER_FIXTURE.read_text())
    got = {name: answer(run) for name, run in _cases().items()}
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == expected[name], name


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: capture(run) for name, run in _cases().items()},
                                  indent=1) + "\n")
    SOLVER_FIXTURE.write_text(json.dumps({name: answer(run) for name, run in _cases().items()},
                                         indent=1) + "\n")
