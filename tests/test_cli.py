import json
import subprocess
import sys
from pathlib import Path

import pytest

import infosale.cli as cli
import infosale.verify as verify_mod
from infosale import (lpcore, load_instance, mechanism_from_json_dict,
                      protocol_to_json_dict, two_option_tree)
from infosale.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def box_file(tmp_path):
    path = tmp_path / "box.json"
    assert main(["gen-example", "--name", "treasure-box",
                 "--out", str(path)]) == 0
    return path


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_gen_example_writes_instance_and_protocol(box_file, capsys):
    proto = box_file.with_suffix("").with_suffix(".protocol.json")
    assert box_file.exists() and proto.exists()
    data = json.loads(box_file.read_text())
    assert data["budgets"] == [50.0, 100.0]
    tree = json.loads(proto.read_text())
    assert tree["kind"] == "buyer"


def test_gen_example_unknown_name(tmp_path, capsys):
    code, _ = run_cli(["gen-example", "--name", "mystery",
                       "--out", str(tmp_path / "x.json")], capsys)
    assert code == 2


def test_solve_depr_headline(box_file, capsys):
    code, out = run_cli(["solve", "--instance", str(box_file),
                         "--mechanism", "depr"], capsys)
    assert code == 0
    assert "revenue 45.0" in out


def test_solve_single_round(box_file, capsys):
    code, out = run_cli(["solve", "--instance", str(box_file),
                         "--mechanism", "single-round"], capsys)
    assert code == 0
    assert "revenue 40.0" in out


def test_solve_dirp_needs_public_budget(box_file, capsys):
    code, _ = run_cli(["solve", "--instance", str(box_file),
                       "--mechanism", "dirp"], capsys)
    assert code == 2
    code, out = run_cli(["solve", "--instance", str(box_file),
                         "--mechanism", "dirp", "--public-budget", "50"], capsys)
    assert code == 0
    assert "revenue 40.0" in out


def test_solve_verify_round_trip(box_file, tmp_path, capsys):
    mech = tmp_path / "mech.json"
    code, _ = run_cli(["solve", "--instance", str(box_file), "--mechanism",
                       "probr", "--out", str(mech)], capsys)
    assert code == 0
    code, out = run_cli(["verify", "--instance", str(box_file),
                         "--mechanism-file", str(mech)], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_catches_corruption(box_file, tmp_path, capsys):
    mech = tmp_path / "mech.json"
    run_cli(["solve", "--instance", str(box_file), "--mechanism", "depr",
             "--out", str(mech)], capsys)
    data = json.loads(mech.read_text())
    data["payments"] = {k: v + 5.0 for k, v in data["payments"].items()}
    mech.write_text(json.dumps(data))
    code, out = run_cli(["verify", "--instance", str(box_file),
                         "--mechanism-file", str(mech)], capsys)
    assert code == 1
    report = json.loads(out)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "ir" in failed


def test_simulate_protocol(box_file, capsys):
    proto = box_file.with_suffix("").with_suffix(".protocol.json")
    code, out = run_cli(["simulate", "--instance", str(box_file),
                         "--protocol", str(proto)], capsys)
    assert code == 0
    assert "revenue 44.5" in out
    assert "exact_revenue 44.5" in out


def test_simulate_mechanism_with_trials(box_file, tmp_path, capsys):
    mech = tmp_path / "mech.json"
    run_cli(["solve", "--instance", str(box_file), "--mechanism", "depr",
             "--out", str(mech)], capsys)
    code, out = run_cli(["simulate", "--instance", str(box_file),
                         "--mechanism-file", str(mech),
                         "--trials", "400", "--seed", "11"], capsys)
    assert code == 0
    assert "mean_revenue" in out and "stderr" in out


def test_bad_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, _ = run_cli(["solve", "--instance", str(bad),
                       "--mechanism", "depr"], capsys)
    assert code == 2


def test_sample_bound_only(box_file, capsys):
    # at the canonical example's worst-case joint mass the bound is ~8.7e5
    code, out = run_cli(["sample", "--oracle", str(box_file), "--n", "100",
                         "--eps", "0.1", "--replications", "0",
                         "--mu-min", "0.25"], capsys)
    assert code == 0
    assert "sample_bound 874590" in out
    # by default mu_min comes from the shape's smallest positive pair mass
    code, out = run_cli(["sample", "--oracle", str(box_file), "--n", "100",
                         "--eps", "0.1", "--replications", "0"], capsys)
    assert code == 0
    assert "sample_bound 437295" in out


def test_sample_replications(box_file, capsys):
    code, out = run_cli(["sample", "--oracle", str(box_file), "--n", "400",
                         "--eps", "0.05", "--replications", "2",
                         "--seed", "5"], capsys)
    assert code == 0
    assert "replications 2" in out
    assert "mean_expected_revenue" in out
    assert "verify_certified_pass 2/2" in out


def test_sample_refuses_negative_replications(box_file, capsys):
    code = main(["sample", "--oracle", str(box_file), "--n", "100",
                 "--eps", "0.1", "--replications", "-2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: --replications must be nonnegative\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--instance", "{box}", "--mechanism-file", "{mech}", "--eps", "nan"],
    ["verify", "--instance", "{box}", "--mechanism-file", "{mech}", "--eps", "inf"],
    ["verify", "--instance", "{box}", "--mechanism-file", "{mech}", "--eps", "-1"],
    ["simulate", "--instance", "{box}", "--protocol", "{protocol}", "--trials", "-5"],
    ["simulate", "--instance", "{box}", "--protocol", "{protocol}", "--trials", "10",
     "--seed", "-1"],
    ["sample", "--oracle", "{box}", "--n", "100", "--eps", "0.1", "--replications", "1",
     "--seed", "-3"],
    ["sample", "--oracle", "{box}", "--n", "0", "--eps", "0.1", "--replications", "1"],
    ["sample", "--oracle", "{box}", "--n", "-5", "--eps", "0.1", "--replications", "0"],
], ids=["verify-eps-nan", "verify-eps-inf", "verify-eps-negative", "simulate-trials-negative",
        "simulate-seed-negative", "sample-seed-negative", "sample-n-zero", "sample-n-negative"])
def test_bad_flags_are_input_errors_before_any_output(argv, box_file, capsys):
    paths = {"box": str(box_file), "mech": str(FIXTURES / "box_depr.mech.json"),
             "protocol": str(box_file.with_suffix("").with_suffix(".protocol.json"))}
    code = main([arg.format(**paths) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_single_round_prints_only_its_own_bytes():
    # on this instance (draw 47 of random_independent_instance(default_rng(5)))
    # HiGHS's branch-and-bound once printed a line of its own from C, past
    # sys.stdout; only a subprocess sees every byte that reaches file
    # descriptor 1, so this guards stdout against any foreign byte
    done = subprocess.run([sys.executable, "-m", "infosale.cli", "solve", "--instance",
                           str(FIXTURES / "single_round_stdout_seed5_draw47.json"),
                           "--mechanism", "single-round"], capture_output=True)
    assert (done.returncode, done.stdout) == (0, b"revenue 2.1\n")


def test_sample_stream_oracle_requires_instance(box_file, tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    rows = [{"theta": "0", "omega": w, "b": 50.0} for w in ("0", "1")] * 300
    stream.write_text("\n".join(json.dumps(r) for r in rows))
    code, _ = run_cli(["sample", "--oracle", str(stream), "--n", "100",
                       "--eps", "0.1", "--replications", "0"], capsys)
    assert code == 2
    code, out = run_cli(["sample", "--oracle", str(stream), "--n", "100",
                         "--eps", "0.1", "--replications", "1", "--seed", "1",
                         "--instance", str(box_file)], capsys)
    assert code == 0


def test_cli_byte_determinism(box_file):
    cmd = [sys.executable, "-m", "infosale.cli", "sample",
           "--oracle", str(box_file), "--n", "300", "--eps", "0.05",
           "--replications", "2", "--seed", "42"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout


@pytest.mark.parametrize("name", ["instance", "stream"])
def test_sample_prints_pinned_bytes(name, box_file, capsys):
    # criterion 11's command and a replay of the committed box stream print
    # the bytes pinned from an earlier version
    pinned = json.loads((FIXTURES / "box_sample_stdout.json").read_text())[name]
    paths = {"box": str(box_file), "stream": str(FIXTURES / "box_stream.jsonl")}
    code, out = run_cli([arg.format(**paths) for arg in pinned["argv"]], capsys)
    assert code == 0
    assert out == pinned["stdout"]


def test_tolerance_env_override(box_file, tmp_path, capsys, monkeypatch):
    mech = tmp_path / "mech.json"
    run_cli(["solve", "--instance", str(box_file), "--mechanism", "depr",
             "--out", str(mech)], capsys)
    data = json.loads(mech.read_text())
    data["payments"] = {k: v + 1e-4 for k, v in data["payments"].items()}
    mech.write_text(json.dumps(data))
    code, _ = run_cli(["verify", "--instance", str(box_file),
                       "--mechanism-file", str(mech)], capsys)
    assert code == 1  # 1e-4 over price breaks IR at the default 1e-6
    monkeypatch.setenv("INFOSALE_TOL", "1e-3")
    code, _ = run_cli(["verify", "--instance", str(box_file),
                       "--mechanism-file", str(mech)], capsys)
    assert code == 0  # loosened tolerance forgives it
    monkeypatch.setenv("INFOSALE_TOL", "not-a-number")
    code, _ = run_cli(["verify", "--instance", str(box_file),
                       "--mechanism-file", str(mech)], capsys)
    assert code == 2


@pytest.mark.parametrize("name, argv", [
    ("box_dirp_50", ["dirp", "--public-budget", "50"]),
    ("box_depr", ["depr"]),
    ("box_probr", ["probr"]),
    ("box_single_round", ["single-round"]),
])
def test_committed_mechanism_files(name, argv, box_file, tmp_path, capsys):
    # treasure-box mechanism files pinned from an earlier version: they still
    # load and verify, and solving today writes the same bytes
    committed = FIXTURES / f"{name}.mech.json"
    mechanism_from_json_dict(json.loads(committed.read_text()), load_instance(box_file))
    code, _ = run_cli(["verify", "--instance", str(box_file),
                       "--mechanism-file", str(committed)], capsys)
    assert code == 0
    # verify and a seeded simulation print the bytes pinned from that version
    pinned = json.loads((FIXTURES / "box_cli_stdout.json").read_text())[name]
    _, out = run_cli(["verify", "--instance", str(box_file), "--mechanism-file",
                      str(committed), "--eps", "0"], capsys)
    assert out == pinned["verify"]
    _, out = run_cli(["simulate", "--instance", str(box_file), "--mechanism-file",
                      str(committed), "--trials", "2000", "--seed", "5"], capsys)
    assert out == pinned["simulate"]
    fresh = tmp_path / "fresh.json"
    code, _ = run_cli(["solve", "--instance", str(box_file), "--mechanism", *argv,
                       "--out", str(fresh)], capsys)
    assert code == 0
    assert fresh.read_bytes() == committed.read_bytes()


def test_tolerance_env_ends_with_the_call(box_file, capsys, monkeypatch):
    # a loosened INFOSALE_TOL must not outlive main: every later solve and
    # verify in the same process would run at it
    monkeypatch.setenv("INFOSALE_TOL", "1e-3")
    code, _ = run_cli(["solve", "--instance", str(box_file), "--mechanism", "depr"],
                      capsys)
    assert code == 0
    assert lpcore.FEAS_TOL == 1e-6
    assert verify_mod.DEFAULT_TOL == 1e-6


# one fault per file: the fixture it starts from, the change, and a word the
# error message must contain
MALFORMED = {
    "kernel tripled": ("box_depr", lambda d: [r.update(p=3 * r["p"]) for r in d["kernel"]], "p"),
    "NaN entry": ("box_depr", lambda d: d["kernel"][0].update(p=float("nan")), "p"),
    "row dropped": ("box_dirp_50", lambda d: d["kernel"].pop(0), "sum to 1"),
    "no kernel": ("box_probr", lambda d: d.pop("kernel"), "kernel"),
    "kernel object": ("box_depr", lambda d: d.update(kernel={"rows": d["kernel"]}), "kernel"),
    "unknown entry": ("box_depr", lambda d: d["kernel"][0].update(entry="9|9"), "entry"),
    "empty payments": ("box_depr", lambda d: d.update(payments={}), "payments"),
    "p not a number": ("box_single_round", lambda d: d["kernel"][0].update(p="abc"), "p"),
    "menu row without b": ("box_probr", lambda d: d["menu"][0].pop("b"), "'b'"),
    "b off the levels": ("box_probr", lambda d: d["menu"][0].update(b=60.0), "budget 60"),
    "no seller_budget": ("box_probr", lambda d: d.pop("seller_budget"), "seller_budget"),
    "no public_budget": ("box_dirp_50", lambda d: d.pop("public_budget"), "public_budget"),
    "indicator ?": ("box_probr", lambda d: d["kernel"][0].update(indicator="?"), "indicator"),
    "indicator on depr": ("box_depr", lambda d: d["kernel"][0].update(indicator="+"),
                          "indicator"),
}


@pytest.mark.parametrize("fault", list(MALFORMED))
def test_malformed_mechanism_file_is_an_input_error(fault, box_file, tmp_path, capsys):
    name, mutate, word = MALFORMED[fault]
    data = json.loads((FIXTURES / f"{name}.mech.json").read_text())
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["verify", "--instance", str(box_file), "--mechanism-file", str(bad),
                 "--eps", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err
    assert "Traceback" not in err


def test_solver_breakdown_exits_4(box_file, capsys, monkeypatch):
    monkeypatch.setattr(lpcore, "FEAS_TOL", -1.0)
    code, _ = run_cli(["solve", "--instance", str(box_file),
                       "--mechanism", "single-round"], capsys)
    assert code == 4


def test_long_simulations_print_pinned_bytes(box_file, tmp_path, capsys):
    # 25,000-trial runs of the four box files and the two-option tree print
    # the bytes pinned from the scalar one-trial-at-a-time simulate
    pinned = json.loads((FIXTURES / "box_simulate_25k.json").read_text())
    proto = tmp_path / "two_option.protocol.json"
    proto.write_text(json.dumps(protocol_to_json_dict(two_option_tree())))
    sources = {name: ["--mechanism-file", str(FIXTURES / f"{name}.mech.json")]
               for name in ("box_dirp_50", "box_depr", "box_probr", "box_single_round")}
    sources["two_option_tree"] = ["--protocol", str(proto)]
    assert sorted(sources) == sorted(pinned)
    for name, source in sources.items():
        code, out = run_cli(["simulate", "--instance", str(box_file), *source,
                             "--trials", "25000", "--seed", "7"], capsys)
        assert code == 0
        assert out == pinned[name], name


def test_deeply_nested_protocol_is_an_input_error(box_file, tmp_path, capsys):
    # json.dump itself recurses too deep to write this chain, so it is spelled
    # out as text
    depth = 3000
    deep = tmp_path / "deep.protocol.json"
    deep.write_text('{"kind": "transfer", "amount": 0.0, "child": ' * depth
                    + '{"kind": "leaf"}' + "}" * depth)
    code = main(["simulate", "--instance", str(box_file), "--protocol", str(deep),
                 "--trials", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and str(deep) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mutate, word", [
    (lambda t: t["children"][0].update(amount="abc"), "amount"),
    (lambda t: t["children"][0]["child"].update(transitions={"0": [1.0, 0.0]}),
     "transitions"),
    (lambda t: t.update(labels=5), "labels"),
    (lambda t: t["children"][0]["child"]["transitions"][0].pop("p"), "'p'"),
    (lambda t: t.update(children={"first": {"kind": "leaf"}}), "children"),
    (lambda t: t["children"][0]["child"]["transitions"][0].update(child_index=0.5),
     "child_index"),
    (lambda t: t["children"][0]["child"]["transitions"][0].update(child_index="0"),
     "child_index"),
], ids=["string-amount", "transitions-object", "number-labels", "row-without-p",
        "children-object", "fractional-child_index", "string-child_index"])
def test_malformed_protocol_fields_are_input_errors(box_file, tmp_path, capsys,
                                                    mutate, word):
    tree = protocol_to_json_dict(two_option_tree())
    mutate(tree)
    path = tmp_path / "bad.protocol.json"
    path.write_text(json.dumps(tree))
    code = main(["simulate", "--instance", str(box_file), "--protocol", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value, word", [
    ("prior", None, "prior"),
    ("utility", None, "utility"),
    ("prior", ["row"], "prior"),
    ("omega", "01", "omega"),
    ("budgets", "5", "budgets"),
])
def test_malformed_instance_fields_are_input_errors(box_file, capsys, field, value, word):
    data = json.loads(box_file.read_text())
    data[field] = value
    box_file.write_text(json.dumps(data))
    code = main(["solve", "--instance", str(box_file), "--mechanism", "depr"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err
    assert "Traceback" not in err


def test_nan_prior_entry_is_an_input_error(box_file, capsys):
    # a NaN compares false both ways, so no range test alone can catch it
    data = json.loads(box_file.read_text())
    data["prior"][0]["p"] = float("nan")
    box_file.write_text(json.dumps(data))
    code = main(["solve", "--instance", str(box_file), "--mechanism", "depr"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: prior entries must be finite and nonnegative\n"


def test_unexpected_exception_is_one_internal_error_line(box_file, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("something broke\nacross lines")
    monkeypatch.setattr(cli, "cmd_solve", broken)
    code = main(["solve", "--instance", str(box_file), "--mechanism", "depr"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "error: internal error: RuntimeError: something broke across lines\n"


@pytest.mark.parametrize("row, field", [
    ({"theta": 0, "omega": "1", "b": 50}, "'theta'"),
    ({"theta": "0", "omega": ["1"], "b": 50}, "'omega'"),
    ({"theta": "0", "omega": "1", "b": True}, "'b'"),
    ({"theta": "0", "omega": "1", "b": "50"}, "'b'"),
    ({"theta": "0", "omega": "1", "b": float("nan")}, "'b'"),
], ids=["int theta", "list omega", "bool b", "string b", "NaN b"])
def test_sample_rejects_mistyped_stream_lines(row, field, box_file, tmp_path, capsys):
    good = {"theta": "0", "omega": "1", "b": 50.0}
    stream = tmp_path / "s.jsonl"
    stream.write_text("\n".join(json.dumps(r) for r in [good, good, row] + [good] * 20))
    code = main(["sample", "--oracle", str(stream), "--instance", str(box_file),
                 "--n", "10", "--eps", "0.1", "--replications", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: bad sample line 3 ") and err.count("\n") == 1
    assert field in err
