import numpy as np
import pytest

from infosale import SolverFailure
from infosale import lpcore
from infosale.lpcore import LinearProgram


def test_small_lp_exact():
    # max x + 2y  s.t. x + y <= 4, y <= 3, x, y >= 0  ->  (1, 3), value 7
    lp = LinearProgram("toy")
    x, y = lp.add_block("v", 2, 0.0)
    lp.add_rows("cap", [x, y], [1.0, 1.0], "<=", 4.0)
    lp.add_rows("ylim", [y], [1.0], "<=", 3.0)
    lp.set_objective([x, y], [1.0, 2.0])
    sol = lp.solve()
    assert sol.objective == pytest.approx(7.0, abs=1e-9)
    assert sol.values[x] == pytest.approx(1.0, abs=1e-9)
    assert sol.values[y] == pytest.approx(3.0, abs=1e-9)
    assert lp.max_violation(sol.values)[0] <= 1e-9


def test_equality_and_bounds():
    lp = LinearProgram("eq")
    x, y = lp.add_block("v", 2, 0.0, 1.0)
    lp.add_rows("split", [x, y], [1.0, 1.0], "==", 1.0)
    lp.set_objective([x, y], [3.0, 1.0])
    sol = lp.solve()
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.values[x] == pytest.approx(1.0, abs=1e-9)


def test_minimization():
    lp = LinearProgram("mini")
    x = lp.add_block("x", (), 0.0, 10.0)
    lp.add_rows("floor", [x], [1.0], ">=", 2.5)
    lp.set_objective(x, 1.0, maximize=False)
    sol = lp.solve()
    assert sol.objective == pytest.approx(2.5, abs=1e-9)


def test_infeasible_raises():
    lp = LinearProgram("bad")
    x = lp.add_block("x", (), 0.0, 1.0)
    lp.add_rows("impossible", [x], [1.0], ">=", 2.0)
    lp.set_objective(x, 1.0)
    with pytest.raises(SolverFailure):
        lp.solve()


@pytest.mark.parametrize("lb, maximize", [(0.0, True), (None, False)], ids=["lp", "free-min"])
def test_unbounded_raises(lb, maximize):
    # x >= 0 maximized, or a free x minimized
    lp = LinearProgram("unbounded")
    x = lp.add_block("x", (), lb)
    lp.set_objective(x, 1.0, maximize=maximize)
    with pytest.raises(SolverFailure) as failure:
        lp.solve()
    assert failure.value.status == "unbounded"


def test_free_variable():
    lp = LinearProgram("free")
    z = lp.add_block("z", (), None)  # unbounded below
    lp.add_rows("floor", [z], [1.0], ">=", -5.0)
    lp.set_objective(z, 1.0, maximize=False)
    sol = lp.solve()
    assert sol.values[z] == pytest.approx(-5.0, abs=1e-9)


def test_repeated_objective_terms_accumulate():
    lp = LinearProgram("dup")
    x = lp.add_block("x", (), 0.0, 1.0)
    lp.set_objective([x, x], [1.0, 2.0])  # means 3x
    sol = lp.solve()
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_random_lps_respect_constraints(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        lp = LinearProgram("rand")
        xs = lp.add_block("x", n, 0.0, 1.0)
        a = rng.normal(size=(m, n))
        lp.add_rows("row", xs, a, "<=", abs(a).sum(axis=1))
        lp.set_objective(xs, rng.normal(size=n))
        sol = lp.solve()
        assert lp.max_violation(sol.values)[0] <= 1e-8


def _knapsack():
    # max 8a + 11b + 6c + 4d  s.t. 5a + 7b + 4c + 3d <= 14, each in [0, 1]:
    # the optimum takes a, b and half of c for 22
    lp = LinearProgram("knapsack")
    xs = lp.add_block("x", 4, 0.0, 1.0)
    lp.add_rows("weight", xs, [5.0, 7.0, 4.0, 3.0], "<=", 14.0)
    lp.set_objective(xs, [8.0, 11.0, 6.0, 4.0])
    return lp


def test_failure_status_names_the_cause(monkeypatch):
    # an infeasible and an unbounded program say so; a point that fails the
    # independent re-check is a solver breakdown, not a bad input
    lp = LinearProgram("bad")
    x = lp.add_block("x", (), 0.0, 1.0)
    lp.add_rows("impossible", [x], [1.0], ">=", 2.0)
    with pytest.raises(SolverFailure) as failure:
        lp.solve()
    assert failure.value.status == "infeasible"
    lp = LinearProgram("unbounded")
    lp.set_objective(lp.add_block("x", (), 0.0), 1.0)
    with pytest.raises(SolverFailure) as failure:
        lp.solve()
    assert failure.value.status == "unbounded"
    monkeypatch.setattr(lpcore, "FEAS_TOL", -1.0)
    with pytest.raises(SolverFailure) as failure:
        _knapsack().solve()
    assert failure.value.status == "recheck"
    assert SolverFailure("plain").status == "error"


def test_recheck_names_the_worst_row_and_bound_by_index():
    # rows x[i] + x[j] <= 1 over a (2, 3) grid of pairs of a (2, 2) block
    lp = LinearProgram("grid")
    x = lp.add_block("x", (2, 2), 0.0, 1.0)
    pairs = np.array([[[0, 1], [0, 2], [0, 3]], [[1, 2], [1, 3], [2, 3]]])
    lp.add_rows("pair", x.ravel()[pairs], 1.0, "<=", 1.0)
    point = np.array([0.5, 0.5, 1.75, 1.75])
    assert lp.max_violation(point) == (2.5, "pair[1,2]")
    lp.add_rows("loose", x.ravel()[pairs], 1.0, "<=", 10.0)
    point[3] = 0.0
    worst, name = lp.max_violation(point)
    assert (worst, name) == (pytest.approx(1.25), "pair[0,1]")
    point[:] = [0.0, 0.0, 1.75, -1.5]
    assert lp.max_violation(point) == (pytest.approx(1.5), "bound:x[1,1]")


def test_rhs_broadcasts_and_repeated_objective_columns_add_up():
    # three rows x_k <= k + 1 share one coefficient; the objective names
    # x_0 twice (1 + 1) and x_2 once, so the optimum is 2 * 1 + 3 = 5
    lp = LinearProgram("broadcast")
    x = lp.add_block("x", 3, 0.0)
    lp.add_rows("cap", x[:, None], 1.0, "<=", [1.0, 2.0, 3.0])
    lp.add_rows("all", x, 1.0, ">=", 0.0)
    lp.set_objective([x[0], x[0], x[2]], 1.0)
    sol = lp.solve()
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.values[x[0]] == pytest.approx(1.0, abs=1e-9)
    assert sol.values[x[2]] == pytest.approx(3.0, abs=1e-9)
    assert lp.max_violation(np.array([1.0, 2.5, 3.0])) == (pytest.approx(0.5), "cap[1]")


# -- held-back row families -------------------------------------------------


def _held_toy(start):
    # max 2x + y over [0, 10]^2 with rows over a (2, 3) grid, picked along
    # its last axis: line 0 is x <= 8, x + y <= 9, 2x <= 10 and line 1 is y <= 8,
    # y - x <= 2, 3y <= 18. From the start rows alone the optimum is (8, 8);
    # x + y <= 9 and 3y <= 18 join, then 2x <= 10, and (5, 4) is optimal with
    # both x + y <= 9 and 2x <= 10 binding
    lp = LinearProgram("held")
    x, y = lp.add_block("v", 2, 0.0, 10.0)
    lp.add_rows("cap", [[[x, y], [x, y], [x, y]], [[x, y], [x, y], [x, y]]],
                [[[1.0, 0.0], [1.0, 1.0], [2.0, 0.0]], [[0.0, 1.0], [-1.0, 1.0], [0.0, 3.0]]],
                "<=", [[8.0, 9.0, 10.0], [8.0, 2.0, 18.0]], start=start)
    lp.set_objective([x, y], [2.0, 1.0])
    return lp


def test_held_back_rows_reach_the_whole_programs_optimum():
    whole = _held_toy(None).solve()
    sol = _held_toy([True, False, False]).solve()
    assert whole.objective == pytest.approx(14.0, abs=1e-9)
    assert sol.objective == pytest.approx(whole.objective, abs=1e-9)
    assert np.allclose(sol.values, [5.0, 4.0], atol=1e-9)
    assert (whole.rounds, whole.rows) == (1, 6)
    assert (sol.rounds, sol.rows) == (3, 5)


def test_iterations_add_up_over_the_rounds(monkeypatch):
    # linprog's simplex iterations are read after every run; each run
    # after the first resumes from a basis that a joined row cuts off, so it
    # takes at least one dual simplex iteration
    runs, build = [], lpcore._highs

    class Recording:
        def __init__(self, highs):
            self.highs = highs

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def getInfo(self):
            info = self.highs.getInfo()
            runs.append(info.simplex_iteration_count)
            return info

    monkeypatch.setattr(lpcore, "_highs", lambda *args: Recording(build(*args)))
    sol = _held_toy([True, False, False]).solve()
    assert len(runs) == sol.rounds == 3 and sol.iterations == sum(runs)
    assert min(runs[1:]) >= 1


def test_recheck_covers_held_back_rows():
    lp = _held_toy([True, False, False])
    lp.solve()
    worst, name = lp.max_violation(np.array([5.0, 4.5]))
    assert (worst, name) == (pytest.approx(0.5), "cap[0,1]")


def test_infeasible_start_rows_raise():
    lp = LinearProgram("held-infeasible")
    x = lp.add_block("x", (), 0.0, 1.0)
    lp.add_rows("floor", [[x], [x]], 1.0, ">=", [2.0, 0.0], start=[True, False])
    lp.set_objective(x, 1.0)
    with pytest.raises(SolverFailure) as failure:
        lp.solve()
    assert failure.value.status == lpcore.INFEASIBLE


def test_unbounded_start_rows_are_a_solver_error():
    # max x + y over x, y >= 0 with a held-back line x <= 1, y <= 1 that
    # starts from x <= 1 alone: the first run is unbounded in y, which says
    # nothing of the whole program, so it is no UNBOUNDED verdict
    lp = LinearProgram("held-unbounded")
    x, y = lp.add_block("v", 2, 0.0, None)
    lp.add_rows("cap", [[[x], [y]]], 1.0, "<=", 1.0, start=[True, False])
    lp.set_objective([x, y], [1.0, 1.0])
    with pytest.raises(SolverFailure) as failure:
        lp.solve()
    assert failure.value.status == "error"
    lp.add_rows("sum", [[x, y]], 1.0, "<=", 2.0)
    assert lp.solve().objective == pytest.approx(2.0, abs=1e-9)


def test_only_inequalities_are_held_back():
    lp = LinearProgram("held-bad")
    x = lp.add_block("x", 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        lp.add_rows("split", x[None], 1.0, "==", 1.0, start=[True])
