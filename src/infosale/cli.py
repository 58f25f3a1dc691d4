"""Command-line front end.

Subcommands: solve (run a mechanism LP and write the mechanism file), verify
(re-check a mechanism file against an instance), simulate (exact or
Monte-Carlo evaluation of a protocol tree or embedded mechanism), sample (the
black-box estimate-then-solve pipeline), gen-example (write the canonical
example instance and its two-option tree).

Exit codes: 0 success / verification pass, 1 verification fail, 2 input
error, 3 precondition violation, 4 solver or internal error. Headline
revenues print at one decimal; all other numbers at six significant digits;
identical command lines with identical seeds print identical bytes.
Set INFOSALE_TOL to override the default feasibility tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import lpcore
from . import verify as verify_mod
from .errors import InfosaleError, InputError, PreconditionError
from .mechanisms import (expected_revenue, mechanism_from_json_dict,
                         mechanism_to_json_dict, solve_cm_depr, solve_cm_dirp,
                         solve_cm_probr, solve_single_round)
from .model import Instance, instance_to_json_dict, load_instance, treasure_box
from .protocol import (evaluate, mechanism_to_protocol, parse_protocol,
                       protocol_to_json_dict, simulate, two_option_tree)
from .sampling import (InstanceOracle, ReplayOracle, certified_slack,
                       run_mechanism1, sample_complexity_bound)
from .verify import (check_budget, check_ic, check_ir, check_obedience,
                     check_revenue_cap, verify_all)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_SOLVER = 4
# the exit code of each error class; any other library error is EXIT_SOLVER
EXIT_CODES = {InputError: EXIT_INPUT, PreconditionError: EXIT_PRECONDITION}


def _g6(x: float) -> str:
    return format(float(x), ".6g")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests too deeply to read") from None


def _load_instance(path: str) -> Instance:
    return load_instance(_read_json(path))


def _write_json(path: str, data: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    if args.mechanism == "dirp":
        if args.public_budget is None:
            raise InputError("--public-budget is required for mechanism dirp")
        mech = solve_cm_dirp(instance, args.public_budget)
    elif args.mechanism == "depr":
        mech = solve_cm_depr(instance)
    elif args.mechanism == "probr":
        mech = solve_cm_probr(instance)
    else:
        mech = solve_single_round(instance)
    if args.out:
        _write_json(args.out, mechanism_to_json_dict(mech, instance))
    print(f"revenue {mech.revenue:.1f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    mech = mechanism_from_json_dict(_read_json(args.mechanism_file), instance)
    report = verify_all(mech, instance, eps=args.eps)
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_simulate(args) -> int:
    instance = _load_instance(args.instance)
    if args.protocol:
        tree = parse_protocol(_read_json(args.protocol))
        exact = evaluate(tree, instance).revenue
    else:
        mech = mechanism_from_json_dict(_read_json(args.mechanism_file), instance)
        tree = mechanism_to_protocol(mech, instance)
        exact = expected_revenue(mech, instance)
    print(f"revenue {exact:.1f}")
    print(f"exact_revenue {_g6(exact)}")
    if args.trials:
        rng = np.random.default_rng(args.seed)
        out = simulate(tree, instance, args.trials, rng)
        print(f"trials {args.trials}")
        print(f"mean_revenue {_g6(out['mean_revenue'])}")
        print(f"stderr {_g6(out['stderr'])}")
    return EXIT_OK


def _open_oracle(args, rng: np.random.Generator):
    """--oracle may be an instance file (shape and sampler in one) or a
    JSON-lines triple stream (then --instance must supply the shape)."""
    text_path = args.oracle
    try:
        data = _read_json(text_path)
        is_instance = isinstance(data, dict)
    except InputError:
        data, is_instance = None, False
    if is_instance:
        shape = load_instance(data)
        return InstanceOracle(shape, rng), shape
    if not args.instance:
        raise InputError(
            "--oracle points at a sample stream; --instance must give the shape")
    shape = _load_instance(args.instance)
    return ReplayOracle.from_path(text_path), shape


def cmd_sample(args) -> int:
    rng = np.random.default_rng(args.seed)
    oracle, shape = _open_oracle(args, rng)
    M = shape.seller_budget
    mu_min = args.mu_min
    if mu_min is None:
        marg = shape.type_marginal()
        mu_min = float(marg[marg > 0].min())
    bound = sample_complexity_bound(len(shape.actions), len(shape.theta),
                                    len(shape.budgets), args.eps, args.delta,
                                    mu_min)
    print(f"sample_bound {bound}")
    if args.replications == 0:
        return EXIT_OK
    revenues, live_expected, realized = [], [], []
    pass_eps, pass_cert = 0, 0
    eps = args.eps
    slack = certified_slack(eps)
    for _ in range(args.replications):
        theta1, omega1, b1 = oracle.draw(1)[0]
        out = run_mechanism1(oracle, shape, M, args.n, eps, (theta1, b1),
                             omega1, rng)
        # revenue of each solved mechanism under the reference prior; the
        # live buyer's own transfer is far too noisy to headline (its
        # conditional mean still gets its own line below)
        revenues.append(expected_revenue(out["mechanism"], shape))
        live_expected.append(out["expected_transfer"])
        realized.append(out["transfer"])
        mech, emp = out["mechanism"], out["empirical"]
        if verify_all(mech, emp, eps=eps).passed:
            pass_eps += 1
        certified = (check_obedience(mech, emp, slack["obedience"], aggregate=True).passed
                     and check_ic(mech, emp, slack["ic"]).passed
                     and check_ir(mech, emp, slack["ir"]).passed
                     and check_budget(mech, M).passed
                     and check_revenue_cap(mech, emp, tol=slack["ir"] + 1e-6).passed)
        if certified:
            pass_cert += 1
    r = args.replications
    print(f"revenue {float(np.mean(revenues)):.1f}")
    print(f"n {args.n}")
    print(f"eps {_g6(eps)}")
    print(f"replications {r}")
    print(f"mean_expected_revenue {_g6(np.mean(revenues))}")
    print(f"mean_live_expected_transfer {_g6(np.mean(live_expected))}")
    print(f"mean_realized_transfer {_g6(np.mean(realized))}")
    print(f"verify_eps_pass {pass_eps}/{r}")
    print(f"verify_certified_pass {pass_cert}/{r}")
    return EXIT_OK


def cmd_gen_example(args) -> int:
    if args.name != "treasure-box":
        raise InputError(f"unknown example {args.name!r} (try: treasure-box)")
    instance = treasure_box()
    _write_json(args.out, instance_to_json_dict(instance))
    proto_path = str(Path(args.out).with_suffix("")) + ".protocol.json"
    _write_json(proto_path, protocol_to_json_dict(two_option_tree()))
    print(f"wrote {args.out}")
    print(f"wrote {proto_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infosale",
        description="Revenue-optimal information selling: solve, verify, "
                    "simulate, sample.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a mechanism LP for an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mechanism", required=True,
                   choices=["dirp", "depr", "probr", "single-round"])
    p.add_argument("--public-budget", type=float, default=None)
    p.add_argument("--out", default=None, help="write the mechanism JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a mechanism file against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mechanism-file", required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="evaluate a protocol tree or mechanism")
    p.add_argument("--instance", required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--protocol")
    grp.add_argument("--mechanism-file")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sample", help="run the black-box sampling pipeline")
    p.add_argument("--oracle", required=True,
                   help="instance JSON, or JSON-lines triple stream")
    p.add_argument("--instance", default=None,
                   help="shape instance (required with a stream oracle)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--replications", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.1,
                   help="failure probability in the sample bound")
    p.add_argument("--mu-min", type=float, default=None,
                   help="smallest type probability (default: from the shape)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("gen-example", help="write a canonical example")
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_example)
    return parser


def main(argv=None) -> int:
    # INFOSALE_TOL holds for this call only: a caller in the same process
    # (a test, a script) gets the module defaults back afterwards
    defaults = lpcore.FEAS_TOL, verify_mod.DEFAULT_TOL
    try:
        return _main(argv)
    finally:
        lpcore.FEAS_TOL, verify_mod.DEFAULT_TOL = defaults


def _main(argv) -> int:
    tol_env = os.environ.get("INFOSALE_TOL")
    if tol_env:
        try:
            tol = float(tol_env)
        except ValueError:
            print(f"error: INFOSALE_TOL={tol_env!r} is not a number",
                  file=sys.stderr)
            return EXIT_INPUT
        lpcore.FEAS_TOL = tol
        verify_mod.DEFAULT_TOL = tol
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfosaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES),
                    EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
