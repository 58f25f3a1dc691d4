"""CLI fuzzing: mutate one field of a committed box file and run the CLI.

Each example takes the treasure-box instance, one of the four committed box
mechanism files or the two-option protocol, deletes one key (or list entry)
or replaces one value with null, NaN, a string, -1 or 1e300, and runs
`cli.main` in-process on it. Whatever the mutation, no exception escapes,
the exit code is one of the documented ones (solver breakdown only where a
solver runs), a failing run prints exactly one `error:` line, and `verify`
never passes a kernel that is not stochastic.

Two more sweeps run `cli.main` with its output captured at the file
descriptor level: every numeric flag of every subcommand set to -1, 0, NaN,
inf, -inf or 1e300 on the box, and small seeded random instances through
`solve` for all four mechanisms. In every case the exit code is a documented
one, a run that fails leaves stdout empty, and no run is an internal error.
"""

import contextlib
import io
import json
import math
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infosale import (instance_to_json_dict, protocol_to_json_dict, treasure_box,
                      two_option_tree)
from infosale.cli import EXIT_CODES, EXIT_OK, EXIT_SOLVER, EXIT_VERIFY_FAIL, main
from infosale.random_instances import random_independent_instance

FIXTURES = Path(__file__).parent / "fixtures"
MECHANISMS = ("box_depr", "box_dirp_50", "box_probr", "box_single_round")
DOCUMENTS = {"instance": instance_to_json_dict(treasure_box()),
             "protocol": protocol_to_json_dict(two_option_tree()),
             **{name: json.loads((FIXTURES / f"{name}.mech.json").read_text())
                for name in MECHANISMS}}
VALUES = (None, math.nan, "x", -1, 1e300)
EXIT_VALUES = {EXIT_OK, EXIT_VERIFY_FAIL, EXIT_SOLVER, *EXIT_CODES.values()}


def _paths(doc, prefix=()):
    """Every key or index path inside a JSON document, parents first."""
    if not isinstance(doc, (dict, list)):
        return
    for key, child in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, value, delete):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _stochastic(mech) -> bool:
    """Whether a mechanism document's kernel holds, for every (entry, state)
    of its menu, numbers in [0, 1] summing to 1."""
    try:
        sums = defaultdict(float)
        for row in mech["kernel"]:
            p = row["p"]
            if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 <= p <= 1:
                return False
            sums[row["entry"], row["omega"]] += p
        return bool(sums) and all(abs(s - 1.0) <= 1e-9 for s in sums.values())
    except (KeyError, TypeError):
        return False


def _commands(target, path, box):
    if target == "instance":
        mech = str(FIXTURES / "box_depr.mech.json")
        return [["solve", "--instance", path, "--mechanism", "depr"],
                ["solve", "--instance", path, "--mechanism", "single-round"],
                ["solve", "--instance", path, "--mechanism", "probr"],
                ["verify", "--instance", path, "--mechanism-file", mech, "--eps", "0"],
                ["sample", "--oracle", path, "--n", "200", "--eps", "0.1",
                 "--replications", "1", "--seed", "3"]]
    if target == "protocol":
        return [["simulate", "--instance", box, "--protocol", path,
                 "--trials", "50", "--seed", "1"]]
    return [["verify", "--instance", box, "--mechanism-file", path, "--eps", "0"],
            ["simulate", "--instance", box, "--mechanism-file", path,
             "--trials", "50", "--seed", "1"]]


@st.composite
def mutations(draw):
    target = draw(st.sampled_from(sorted(DOCUMENTS)))
    path = draw(st.sampled_from(list(_paths(DOCUMENTS[target]))))
    delete = draw(st.booleans())
    value = draw(st.sampled_from(VALUES))
    return target, _mutate(DOCUMENTS[target], path, value, delete), draw(st.integers(0, 4))


@given(mutations())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_mutated_files_fail_cleanly(case):
    target, doc, pick = case
    with tempfile.TemporaryDirectory() as tmp:
        box = Path(tmp, "box.json")
        box.write_text(json.dumps(DOCUMENTS["instance"]))
        path = Path(tmp, "mutated.json")
        path.write_text(json.dumps(doc))
        commands = _commands(target, str(path), str(box))
        argv = commands[pick % len(commands)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in EXIT_VALUES, (argv, code)
    # only a solver can break down; a bad file read by verify or simulate is
    # an input (2) or precondition (3) error
    assert code != EXIT_SOLVER or argv[0] in ("solve", "sample"), (argv, code)
    if code in (EXIT_OK, EXIT_VERIFY_FAIL):
        assert err == "", (argv, err)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if argv[0] == "verify" and target in MECHANISMS and not _stochastic(doc):
        assert code != EXIT_OK, (argv, doc)


# -- numeric flags and seeded instances, stdout read at file descriptor 1 ---

FLAG_VALUES = ("-1", "0", "nan", "inf", "-inf", "1e300")
# every numeric flag; --trials and --n stay small in the base command lines,
# and argparse refuses a non-integer for them, so no case asks for 1e300 trials
NUMERIC_FLAGS = (("solve", "--public-budget"), ("verify", "--eps"),
                 ("simulate", "--trials"), ("simulate", "--seed"), ("sample", "--n"),
                 ("sample", "--eps"), ("sample", "--replications"), ("sample", "--seed"),
                 ("sample", "--delta"), ("sample", "--mu-min"))


@pytest.fixture(scope="module")
def box_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    paths = {name: folder / f"{name}.json" for name in ("instance", "protocol")}
    for name, path in paths.items():
        path.write_text(json.dumps(DOCUMENTS[name]))
    return {name: str(path) for name, path in paths.items()}


def _box_command(command, files):
    """A box command line of `command` that exits 0 with every flag given."""
    box = ["--instance", files["instance"]]
    return {"solve": ["solve", *box, "--mechanism", "dirp", "--public-budget", "50"],
            "verify": ["verify", *box, "--mechanism-file",
                       str(FIXTURES / "box_depr.mech.json"), "--eps", "0"],
            "simulate": ["simulate", *box, "--protocol", files["protocol"],
                         "--trials", "50", "--seed", "1"],
            "sample": ["sample", "--oracle", files["instance"], "--n", "200", "--eps", "0.1",
                       "--replications", "1", "--seed", "3", "--delta", "0.1",
                       "--mu-min", "0.5"]}[command]


def _run_clean(argv, capfd):
    """Run the CLI on argv; check the invariants and return (code, stdout)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refused a flag: usage on stderr
        code = exc.code
    out, err = capfd.readouterr()
    assert code in EXIT_VALUES, (argv, code)
    assert "internal error" not in err, (argv, err)
    if code not in (EXIT_OK, EXIT_VERIFY_FAIL):
        assert out == "", (argv, out)
    return code, out


@pytest.mark.parametrize("value", FLAG_VALUES)
@pytest.mark.parametrize("command, flag", NUMERIC_FLAGS, ids=" ".join)
def test_numeric_flags_fail_cleanly(command, flag, value, box_files, capfd):
    argv = _box_command(command, box_files)
    at = argv.index(flag)
    # --flag=value, since argparse reads a bare -inf as an option
    argv[at:at + 2] = [f"{flag}={value}"]
    code, _ = _run_clean(argv, capfd)
    if not math.isfinite(float(value)):
        assert code != EXIT_OK, argv


@pytest.mark.parametrize("mechanism", ["dirp", "depr", "probr", "single-round"])
def test_seeded_instances_solve_cleanly(mechanism, tmp_path, capfd):
    for seed in range(4):
        inst = random_independent_instance(np.random.default_rng(seed), max_types=2)
        path = tmp_path / f"instance-{seed}.json"
        path.write_text(json.dumps(instance_to_json_dict(inst)))
        argv = ["solve", "--instance", str(path), "--mechanism", mechanism]
        if mechanism == "dirp":
            argv += ["--public-budget", repr(inst.budgets[-1])]
        code, out = _run_clean(argv, capfd)
        assert (code, out.startswith("revenue ")) == (EXIT_OK, True), (argv, out)
        assert out.count("\n") == 1, (argv, out)
