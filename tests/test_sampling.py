import dataclasses
import json

import numpy as np
import pytest

from infosale import (EmpiricalPrior, InputError, InstanceOracle, Menu, PreconditionError,
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
    assert emp.index == ((0, 0), (1, 1))
    assert emp.weights.sum() == pytest.approx(1.0)
    for belief in emp.beliefs:
        assert belief.sum() == pytest.approx(1.0)
        assert np.all(belief >= 0)
        assert np.allclose(belief, [0.5, 0.5], atol=0.03)


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


# ---------------------------------------------------------------------------
# the index path against the label loop it replaced
# ---------------------------------------------------------------------------


def reference_instance_draw(instance, rng, k):
    """The label loop InstanceOracle.draw ran before oracles gave indices."""
    flat = instance.prior.reshape(-1).astype(float)
    cum = np.cumsum(flat)
    idx = np.searchsorted(cum, rng.random(k) * cum[-1], side="right")
    w, t, b = np.unravel_index(idx, instance.prior.shape)
    return [(instance.theta[t[i]], instance.omega[w[i]], float(instance.budgets[b[i]]))
            for i in range(k)]


def reference_draw_samples(oracle, n, live, instance):
    """draw_samples as a loop over label triples, one lookup per sample."""
    if n < 1:
        raise PreconditionError("sample size n must be at least 1")
    triples = [live] + (oracle.draw(n - 1) if n > 1 else [])
    t_idx = np.empty(n, dtype=int)
    w_idx = np.empty(n, dtype=int)
    b_idx = np.empty(n, dtype=int)
    for i, (th, w, b) in enumerate(triples):
        t_idx[i] = instance.theta_id(th)
        w_idx[i] = instance.omega_id(w)
        b_idx[i] = instance.budget_id(b)
    nw, nt, nb = len(instance.omega), len(instance.theta), len(instance.budgets)
    counts = np.zeros((nw, nt, nb))
    np.add.at(counts, (w_idx, t_idx, b_idx), 1.0)
    joint_full = counts / n
    pair_mass = joint_full.sum(axis=0)
    index = tuple((ti, bi) for ti in range(nt) for bi in range(nb)
                  if pair_mass[ti, bi] > 0.0)
    joint = np.stack([joint_full[:, ti, bi] for ti, bi in index])
    beliefs = []
    for ti, bi in index:
        later = (t_idx[1:] == ti) & (b_idx[1:] == bi)
        tally = np.bincount(w_idx[1:][later], minlength=nw).astype(float)
        tally[w_idx[0]] += 1.0
        beliefs.append(tally / tally.sum())
    return EmpiricalPrior(instance, index, joint.sum(axis=1), joint, np.stack(beliefs), n)


def _stream(instance, seed, k):
    return [json.dumps({"theta": t, "omega": w, "b": b})
            for t, w, b in reference_instance_draw(instance, np.random.default_rng(seed), k)]


def _oracle_pair(kind, instance, seed, k):
    """Two oracles in the same state: for the reference and for draw_samples."""
    if kind == "replay":
        lines = _stream(instance, seed, k)
        return ReplayOracle(lines), ReplayOracle(lines)
    source = instance if kind == "instance" else dataclasses.replace(instance)
    return (InstanceOracle(source, np.random.default_rng(seed)),
            InstanceOracle(source, np.random.default_rng(seed)))


def _state(oracle):
    """What an oracle hands out next: the generator's next draw or the replay position."""
    return oracle.rng.random() if isinstance(oracle, InstanceOracle) else oracle._pos


def _outcome(fn):
    try:
        emp = fn()
    except Exception as exc:
        return type(exc), str(exc)
    assert emp.joint.flags.c_contiguous and emp.beliefs.flags.c_contiguous
    return (emp.index, emp.n, emp.weights.dtype, emp.weights.tobytes(),
            emp.joint.shape, emp.joint.tobytes(), emp.beliefs.shape, emp.beliefs.tobytes())


def _assert_same(ref_oracle, oracle, n, live, instance):
    expected = _outcome(lambda: reference_draw_samples(ref_oracle, n, live, instance))
    assert _outcome(lambda: draw_samples(oracle, n, live, instance)) == expected
    assert _state(oracle) == _state(ref_oracle)
    return expected


def test_instance_draw_matches_the_label_loop(box):
    rng = np.random.default_rng(20261018)
    for inst in [box] + [random_correlated_instance(rng) for _ in range(5)]:
        oracle = InstanceOracle(inst, np.random.default_rng(3))
        ref_rng = np.random.default_rng(3)
        for k in (0, 1, 2, 500):
            assert oracle.draw(k) == reference_instance_draw(inst, ref_rng, k)
        assert oracle.rng.random() == ref_rng.random()


@pytest.mark.parametrize("kind", ["instance", "copy", "replay"])
def test_draw_samples_matches_the_label_loop(kind, box):
    rng = np.random.default_rng(20261018)
    shapes = [box] + [random_correlated_instance(rng) for _ in range(20)]
    for s, inst in enumerate(shapes):
        live = reference_instance_draw(inst, np.random.default_rng(100 + s), 1)[0]
        for n in (1, 2, 10_000):
            ref_oracle, oracle = _oracle_pair(kind, inst, s, n + 3)
            assert isinstance(_assert_same(ref_oracle, oracle, n, live, inst)[0], tuple)


def test_draw_samples_looks_each_distinct_triple_up_once(box, monkeypatch):
    calls = []
    for name in ("theta_id", "omega_id", "budget_id"):
        original = getattr(type(box), name)
        monkeypatch.setattr(type(box), name, lambda self, x, f=original, name=name:
                            calls.append(name) or f(self, x))
    lines = _stream(box, 9, 10_000)
    for oracle in (ReplayOracle(lines), InstanceOracle(dataclasses.replace(box),
                                                       np.random.default_rng(9))):
        calls.clear()
        draw_samples(oracle, 10_000, LIVE, box)
        # the live triple and at most the box's four positive cells per field
        assert all(calls.count(name) <= 5 for name in ("theta_id", "omega_id", "budget_id"))
    calls.clear()
    draw_samples(InstanceOracle(box, np.random.default_rng(9)), 10_000, LIVE, box)
    assert len(calls) == 3  # the instance's own oracle hands out indices


UNKNOWN_TYPE = '{"theta": "9", "omega": "1", "b": 50.0}'
UNKNOWN_STATE = '{"theta": "0", "omega": "7", "b": 50.0}'
OFF_GRID = '{"theta": "0", "omega": "1", "b": 60.0}'
ALL_BAD = '{"theta": "9", "omega": "7", "b": 60.0}'


@pytest.mark.parametrize("case", [
    # (name, where the bad lines go among 20 good ones, the bad lines, live
    # triple, n, lines the caller draws first)
    ("unknown type", 5, [UNKNOWN_TYPE], LIVE, 15, 0),
    ("unknown state", 7, [UNKNOWN_STATE], LIVE, 15, 0),
    ("off-grid budget", 2, [OFF_GRID], LIVE, 15, 0),
    ("two bad lines", 2, [OFF_GRID, UNKNOWN_TYPE], LIVE, 15, 0),
    ("every field bad", 4, [ALL_BAD], LIVE, 15, 0),
    ("exhausted stream", 0, [], LIVE, 30, 0),
    ("bad live type", 0, [], ("5", "1", 50.0), 10, 0),
    ("bad live state", 0, [], ("0", "5", 50.0), 10, 0),
    ("bad live budget", 0, [], ("0", "1", 70.0), 10, 0),
    ("bad live in every field", 0, [], ("5", "5", 70.0), 10, 0),
    ("bad live and bad line", 3, [UNKNOWN_TYPE], ("5", "1", 50.0), 10, 0),
    ("bad live and exhausted", 0, [], ("5", "1", 50.0), 40, 0),
    ("bad lines first seen in another order", 0,
     [UNKNOWN_TYPE, UNKNOWN_STATE, UNKNOWN_STATE, UNKNOWN_TYPE], LIVE, 8, 2),
], ids=lambda case: case[0])
def test_draw_samples_errors_match_the_label_loop(case, box):
    _, at, bad, live, n, pre = case
    good = _stream(box, 3, 20)
    lines = good[:at] + bad + good[at:]
    ref_oracle, oracle = ReplayOracle(lines), ReplayOracle(lines)
    assert ref_oracle.draw(pre) == oracle.draw(pre)
    assert _assert_same(ref_oracle, oracle, n, live, box)[0] is InputError


@pytest.mark.parametrize("kind", ["instance", "copy"])
@pytest.mark.parametrize("live", [("5", "1", 50.0), ("0", "5", 50.0), ("0", "1", 70.0)])
def test_bad_live_triple_costs_the_instance_oracle_its_draws(kind, live, box):
    ref_oracle, oracle = _oracle_pair(kind, box, 4, 0)
    assert _assert_same(ref_oracle, oracle, 10, live, box)[0] is InputError


def test_oracle_over_other_labels_matches_the_label_loop(box):
    other = dataclasses.replace(box, omega=("0", "2"))
    ref_oracle, oracle = (InstanceOracle(other, np.random.default_rng(8)) for _ in range(2))
    assert _assert_same(ref_oracle, oracle, 100, LIVE, box) == (
        InputError, "unknown state label '2'")


@pytest.mark.parametrize("line, field", [
    ('{"theta": 0, "omega": "1", "b": 50}', "theta"),
    ('{"theta": "0", "omega": 1, "b": 50}', "omega"),
    ('{"theta": ["0"], "omega": "1", "b": 50}', "theta"),
    ('{"theta": "0", "omega": null, "b": 50}', "omega"),
    ('{"theta": "0", "omega": "1", "b": true}', "'b'"),
    ('{"theta": "0", "omega": "1", "b": "50"}', "'b'"),
    ('{"theta": "0", "omega": "1", "b": NaN}', "'b'"),
    ('{"theta": "0", "omega": "1", "b": 1e999}', "'b'"),
    ('{"theta": "0", "omega": "1", "b": 1' + "0" * 400 + "}", "'b'"),
    ('{"theta": "0", "omega": "1"}', "'b'"),
    ('["0", "1", 50]', "object"),
    ("[" * 100_000, "deeply"),
], ids=["int theta", "int omega", "list theta", "null omega", "bool b", "string b",
        "NaN b", "inf b", "huge int b", "no b", "list line", "deep line"])
def test_replay_oracle_rejects_mistyped_fields(line, field):
    good = json.dumps({"theta": "0", "omega": "1", "b": 50.0})
    with pytest.raises(InputError, match="bad sample line 3 ") as info:
        ReplayOracle([good, good, line, good])
    assert field in str(info.value)


def test_replay_oracle_parses_each_distinct_line_once(monkeypatch):
    loads = []
    monkeypatch.setattr(json, "loads", lambda s, f=json.loads: loads.append(s) or f(s))
    lines = _stream(treasure_box(), 2, 2000) + ["", "  "]
    oracle = ReplayOracle(lines)
    assert len(loads) == len({line.strip() for line in lines if line.strip()}) <= 4
    assert oracle.draw(2000) == [tuple(json.loads(line).values()) for line in lines[:2000]]
