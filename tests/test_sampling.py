import dataclasses
import json

import numpy as np
import pytest

from infosale import (InputError, InstanceOracle, Menu, PreconditionError,
                      PriorView, ReplayOracle, certified_slack, check_ic,
                      check_ir, check_obedience, draw_samples, prior_view,
                      run_mechanism1, sample_complexity_bound, solve_cm_probr,
                      solve_epsilon_lp, treasure_box, verify_all)
from infosale.random_instances import random_correlated_instance


LIVE = ("0", "1", 50.0)  # (theta, omega, b)


def test_instance_oracle_matches_prior(box):
    oracle = InstanceOracle(box, np.random.default_rng(0))
    triples = oracle.draw(20000)
    assert all(t in ("0", "1") and w in ("0", "1") and b in (50.0, 100.0)
               for t, w, b in triples)
    # theta 0 always comes with b=50 in the canonical instance
    assert all((b == 50.0) == (t == "0") for t, w, b in triples)
    freq = sum(1 for t, _, _ in triples if t == "0") / len(triples)
    assert freq == pytest.approx(0.5, abs=0.02)


def test_replay_oracle_and_exhaustion(tmp_path):
    lines = [json.dumps({"theta": "0", "omega": "1", "b": 50.0}),
             json.dumps({"theta": "1", "omega": "0", "b": 100.0})]
    path = tmp_path / "stream.jsonl"
    path.write_text("\n".join(lines) + "\n")
    oracle = ReplayOracle.from_path(path)
    assert oracle.draw(2) == [("0", "1", 50.0), ("1", "0", 100.0)]
    with pytest.raises(InputError):
        oracle.draw(1)  # stream exhausted


def test_replay_oracle_rejects_bad_lines():
    with pytest.raises(InputError):
        ReplayOracle(["not json"]).draw(1)
    with pytest.raises(InputError):
        ReplayOracle([json.dumps({"theta": "0"})]).draw(1)


def test_empirical_prior_estimates(box):
    oracle = InstanceOracle(box, np.random.default_rng(1))
    emp = draw_samples(oracle, 20000, LIVE, box)
    assert emp.n == 20000
    assert [tuple(p) for p in emp.pairs()] == [(0, 0), (1, 1)]
    assert sum(emp.weight(ti, bi) for ti, bi in emp.pairs()) == pytest.approx(1.0)
    for ti, bi in emp.pairs():
        belief = emp.belief(ti, bi)
        assert belief.sum() == pytest.approx(1.0)
        assert np.all(belief >= 0)
        assert np.allclose(belief, [0.5, 0.5], atol=0.03)
    with pytest.raises(InputError):
        emp.belief(0, 1)  # never-sampled pair


def test_draw_samples_needs_positive_n(box):
    oracle = InstanceOracle(box, np.random.default_rng(0))
    with pytest.raises(PreconditionError):
        draw_samples(oracle, 0, LIVE, box)


def test_epsilon_lp_at_zero_matches_exact_solver(box):
    # feed the LP the *true* prior as if it were empirical
    oracle = InstanceOracle(box, np.random.default_rng(2))
    emp = draw_samples(oracle, 60000, LIVE, box)
    mech = solve_epsilon_lp(emp, box, box.seller_budget, eps=0.0)
    exact = solve_cm_probr(box)
    assert mech.revenue == pytest.approx(exact.revenue, abs=1.0)


def test_epsilon_monotonicity(box):
    oracle = InstanceOracle(box, np.random.default_rng(3))
    emp = draw_samples(oracle, 5000, LIVE, box)
    revs = [solve_epsilon_lp(emp, box, box.seller_budget, eps=e).revenue
            for e in (0.0, 0.05, 0.2, 1.0)]
    for lo, hi in zip(revs, revs[1:]):
        assert hi >= lo - 1e-9  # slack only relaxes the program


def test_epsilon_lp_rejects_negative_eps(box):
    oracle = InstanceOracle(box, np.random.default_rng(4))
    emp = draw_samples(oracle, 100, LIVE, box)
    with pytest.raises(PreconditionError):
        solve_epsilon_lp(emp, box, box.seller_budget, eps=-0.1)


def test_certified_slack_doubles_participation_terms():
    slack = certified_slack(0.05)
    assert slack == {"obedience": 0.05, "ic": 0.1, "ir": 0.1}


def test_epsilon_output_passes_certified_checks(box):
    eps = 0.05
    oracle = InstanceOracle(box, np.random.default_rng(5))
    emp = draw_samples(oracle, 10000, LIVE, box)
    mech = solve_epsilon_lp(emp, box, box.seller_budget, eps=eps)
    slack = certified_slack(eps)
    assert check_obedience(mech, emp, eps=slack["obedience"], aggregate=True).passed
    assert check_ic(mech, emp, eps=slack["ic"]).passed
    assert check_ir(mech, emp, eps=slack["ir"]).passed


def test_run_mechanism1_settles_two_point_transfer(box):
    oracle = InstanceOracle(box, np.random.default_rng(6))
    out = run_mechanism1(oracle, box, box.seller_budget, n=2000, eps=0.05,
                         buyer=("0", 50.0), omega1="1",
                         rng=np.random.default_rng(7))
    assert out["indicator"] in ("+", "-")
    assert out["transfer"] in (50.0, -0.0, 0.0)
    assert out["action"] in box.actions
    assert out["empirical"].n == 2000
    menu = out["mechanism"].menu
    assert ("0", 50.0) in menu
    assert -0.01 <= out["expected_transfer"] <= 50.0 + 0.01


def test_sample_complexity_bound_value():
    assert sample_complexity_bound(2, 2, 2, 0.1, 0.1, 0.25) == 874590


def test_sample_complexity_bound_validation():
    with pytest.raises(InputError):
        sample_complexity_bound(2, 2, 2, 0.0, 0.1, 0.25)
    with pytest.raises(InputError):
        sample_complexity_bound(2, 2, 2, 0.1, 1.5, 0.25)
    with pytest.raises(InputError):
        sample_complexity_bound(2, 2, 2, 0.1, 0.1, 0.0)


def test_bound_tightens_with_accuracy():
    loose = sample_complexity_bound(2, 2, 2, 0.2, 0.1, 0.25)
    tight = sample_complexity_bound(2, 2, 2, 0.05, 0.1, 0.25)
    assert tight > loose


def test_probr_is_the_epsilon_lp_at_zero_over_the_true_prior(box):
    rng = np.random.default_rng(20261018)
    for inst in [box] + [random_correlated_instance(rng) for _ in range(10)]:
        view = prior_view(inst)
        mech = solve_epsilon_lp(view, inst, inst.seller_budget, 0.0)
        exact = solve_cm_probr(inst)
        for f in dataclasses.fields(Menu):
            a, b = getattr(mech, f.name), getattr(exact, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
        assert verify_all(exact, inst).to_json() == verify_all(exact, view).to_json()


def test_empirical_prior_is_a_prior_view(box):
    emp = draw_samples(InstanceOracle(box, np.random.default_rng(8)), 50, LIVE, box)
    assert isinstance(emp, PriorView)
    assert prior_view(emp) is emp
    assert emp.joint.shape == emp.beliefs.shape == (len(emp.index), len(box.omega))
    assert np.array_equal(emp.weights, emp.joint.sum(axis=1))
    with pytest.raises(PreconditionError):
        solve_epsilon_lp(emp, treasure_box(), box.seller_budget, 0.0)  # another instance
