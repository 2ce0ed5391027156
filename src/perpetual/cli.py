"""Command-line interface.

Subcommands: simulate, verify-moments, lowerbound, exact (aux | frontier | exp).
Exit codes: 0 success, 1 assertion/guarantee failure, 2 config error.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .baselines import POLICY_NAMES, make_policy, run_lb_game
from .simulate import ConfigInvalid, RunConfig, run_simulation, verify_moments_run


def _parse_fractions(text: str) -> tuple:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigInvalid(f"cannot parse rational vector {text!r}: {e}") from e


def _cmd_simulate(args) -> int:
    cfg = RunConfig.from_json_file(args.config)
    rows = run_simulation(cfg)
    violations = sum(1 for r in rows if r["max_deficit"] > r["ct_bound"] + 1e-9)
    dest = cfg.output or "(not written)"
    print(f"simulated {len(rows)} rounds; ct-bound violations: {violations}; csv: {dest}")
    return 0 if violations == 0 else 1


def _cmd_verify_moments(args) -> int:
    cfg = RunConfig.from_json_file(args.config)
    ok, worst = verify_moments_run(cfg)
    print(f"moment witness {'PASS' if ok else 'FAIL'} (worst violation {worst:.3e})")
    return 0 if ok else 1


def _cmd_lowerbound(args) -> int:
    n, c = args.n, args.c
    max_rounds = args.max_rounds
    if max_rounds is None:
        max_rounds = int(4900 * n * c * c) + 1
    elif max_rounds <= 0:
        raise ConfigInvalid("--max-rounds must be positive")
    policy = make_policy(args.policy, n, c=c)
    result = run_lb_game(policy, n, c, max_rounds)
    if result.violation_round is None:
        print(f"no violation within {max_rounds} rounds")
        return 1
    print(result.violation_round)
    if not result.monitor_ok:
        print(f"monitor violation: {result.worst_monitor_violation:.3e}", file=sys.stderr)
        return 1
    return 0


def _cmd_exact(args) -> int:
    from . import exact_game as eg

    builder = eg.FrontierBuilder(args.n)
    if args.exact_cmd == "aux":
        state = _parse_fractions(args.state) if args.state else tuple(
            [Fraction(args.c_rational) * args.n] * args.n)
        if len(state) != args.n:
            raise ConfigInvalid("state length must equal n")
        try:
            print(eg.aux(state, args.n, args.k_max, builder))
            return 0
        except eg.KMaxExceeded:
            print(f"exceeded (no forced violation within k_max={args.k_max})")
            return 1
    if args.exact_cmd == "frontier":
        pts = sorted(builder.get(args.k), reverse=True)
        out = open(args.out, "w") if args.out else sys.stdout
        try:
            out.write(",".join(f"x{i}" for i in range(args.n)) + "\n")
            for p in pts:
                out.write(",".join(str(v) for v in p) + "\n")
        finally:
            if args.out:
                out.close()
        return 0
    if args.exact_cmd == "exp":
        state = _parse_fractions(args.state)
        item = _parse_fractions(args.item)
        if len(state) != args.n or len(item) != args.n:
            raise ConfigInvalid("state and item length must equal n")
        print(eg.exp_policy(state, item, args.n, args.k_max, builder))
        return 0
    raise ConfigInvalid(f"unknown exact subcommand {args.exact_cmd!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perpetual",
                                     description="Perpetual online fair decision-making toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured simulation")
    p_sim.add_argument("config")

    p_vm = sub.add_parser("verify-moments", help="check moment witnesses along a run")
    p_vm.add_argument("config")

    p_lb = sub.add_parser("lowerbound", help="play the adaptive adversary against a policy")
    p_lb.add_argument("--n", type=int, required=True)
    p_lb.add_argument("--c", type=float, required=True)
    p_lb.add_argument("--policy", choices=POLICY_NAMES, required=True)
    p_lb.add_argument("--max-rounds", type=int, default=None)

    p_ex = sub.add_parser("exact", help="exact rational game solver")
    ex_sub = p_ex.add_subparsers(dest="exact_cmd", required=True)
    p_aux = ex_sub.add_parser("aux", help="minimum forced-violation horizon of a state")
    p_aux.add_argument("--n", type=int, required=True)
    p_aux.add_argument("--c", dest="c_rational", default="1")
    p_aux.add_argument("--state", default=None, help="comma-separated rationals (default n*c each)")
    p_aux.add_argument("--k-max", type=int, default=12)
    p_fr = ex_sub.add_parser("frontier", help="emit the D^k point set as CSV")
    p_fr.add_argument("--n", type=int, required=True)
    p_fr.add_argument("--k", type=int, required=True)
    p_fr.add_argument("--out", default=None)
    p_exp = ex_sub.add_parser("exp", help="survival-maximizing recipient for one item")
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--c", dest="c_rational", default="1")
    p_exp.add_argument("--state", required=True)
    p_exp.add_argument("--item", required=True)
    p_exp.add_argument("--k-max", type=int, default=12)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "simulate":
            return _cmd_simulate(args)
        if args.cmd == "verify-moments":
            return _cmd_verify_moments(args)
        if args.cmd == "lowerbound":
            return _cmd_lowerbound(args)
        if args.cmd == "exact":
            return _cmd_exact(args)
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
