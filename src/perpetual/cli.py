"""Command-line interface.

Subcommands: simulate, verify-moments, lowerbound, exact (aux | frontier | exp).
Exit codes: 0 success, 1 assertion/guarantee failure, 2 config error or out of memory.
"""
from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import exact_game as eg
from .baselines import POLICY_NAMES, make_policy, run_lb_game
from .simulate import (ConfigInvalid, RunConfig, bound_violations, run_simulation,
                       verify_moments_run)


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigInvalid(f"cannot parse {flag} {text!r}: {e}") from e


def _parse_fractions(text: str, flag: str) -> tuple:
    return tuple(_fraction(part, flag) for part in text.split(","))


def _cmd_simulate(args) -> int:
    cfg = RunConfig.from_json_file(args.config)
    rows = run_simulation(cfg)
    violations = bound_violations(cfg, rows)
    print(f"simulated {len(rows)} rounds; bound violations: {violations}; "
          f"csv: {cfg.output or '(not written)'}")
    return 0 if violations == 0 else 1


def _cmd_verify_moments(args) -> int:
    cfg = RunConfig.from_json_file(args.config)
    ok, worst = verify_moments_run(cfg)
    print(f"moment witness {'PASS' if ok else 'FAIL'} (worst violation {worst:.3e})")
    return 0 if ok else 1


def _cmd_lowerbound(args) -> int:
    n, c = args.n, args.c
    if not math.isfinite(c):
        raise ConfigInvalid(f"--c must be finite, got {c}")
    max_rounds = args.max_rounds
    if max_rounds is None:
        horizon = 4900 * n * c * c
        if not horizon <= 2 ** 53:  # past 2^53 int(horizon) is no longer 4900 n c^2
            raise ConfigInvalid(f"--c {c} gives a default horizon 4900 n c^2 of {horizon:.3g} "
                                "rounds, above 2^53; set --max-rounds")
        max_rounds = int(horizon) + 1
    elif max_rounds <= 0:
        raise ConfigInvalid("--max-rounds must be positive")
    result = run_lb_game(make_policy(args.policy, n, c=c), n, c, max_rounds)
    if result.violation_round is None:
        print(f"no violation within {max_rounds} rounds")
        return 1
    print(result.violation_round)
    if not result.monitor_ok:
        print(f"monitor violation: {result.worst_monitor_violation:.3e}", file=sys.stderr)
        return 1
    return 0


def _builder(args):
    """Under ``--progress``, a builder that prints k, |D^k| and seconds for
    each level it builds to stderr; otherwise None (the solver's own)."""
    if not args.progress:
        return None
    return eg.FrontierBuilder(args.n, progress=lambda k, points, ns: print(
        f"k={k} points={points} seconds={ns / 1e9:.3f}", file=sys.stderr, flush=True))


def _cmd_aux(args) -> int:
    c = _fraction(args.c_rational, "--c")
    state = _parse_fractions(args.state, "--state") if args.state else (c * args.n,) * args.n
    if len(state) != args.n:
        raise ConfigInvalid("state length must equal n")
    try:
        print(eg.aux(state, args.n, args.k_max, _builder(args)))
    except eg.KMaxExceeded:
        print(f"exceeded (no forced violation within k_max={args.k_max})")
        return 1
    return 0


def _cmd_frontier(args) -> int:
    level = (_builder(args) or eg.FrontierBuilder(args.n)).level(args.k)
    scale = args.n ** args.k
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        out.write(",".join(f"x{i}" for i in range(args.n)) + "\n")
        for p in level:
            out.write(",".join(str(v if v == eg.INF else Fraction(v, scale)) for v in p) + "\n")
    return 0


def _cmd_exp(args) -> int:
    state, item = _parse_fractions(args.state, "--state"), _parse_fractions(args.item, "--item")
    if len(state) != args.n or len(item) != args.n:
        raise ConfigInvalid("state and item length must equal n")
    print(eg.exp_policy(state, item, args.n, args.k_max, _builder(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perpetual",
                                     description="Perpetual online fair decision-making toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured simulation")
    p_sim.add_argument("config")
    p_sim.set_defaults(run=_cmd_simulate)

    p_vm = sub.add_parser("verify-moments", help="check moment witnesses along a run")
    p_vm.add_argument("config")
    p_vm.set_defaults(run=_cmd_verify_moments)

    p_lb = sub.add_parser("lowerbound", help="play the adaptive adversary against a policy")
    p_lb.add_argument("--n", type=int, required=True)
    p_lb.add_argument("--c", type=float, required=True)
    p_lb.add_argument("--policy", choices=POLICY_NAMES, required=True)
    p_lb.add_argument("--max-rounds", type=int, default=None)
    p_lb.set_defaults(run=_cmd_lowerbound)

    p_ex = sub.add_parser("exact", help="exact rational game solver")
    ex_sub = p_ex.add_subparsers(dest="exact_cmd", required=True)
    p_aux = ex_sub.add_parser("aux", help="minimum forced-violation horizon of a state")
    p_aux.add_argument("--n", type=int, required=True)
    p_aux.add_argument("--c", dest="c_rational", default="1")
    p_aux.add_argument("--state", default=None, help="comma-separated rationals (default n*c each)")
    p_aux.add_argument("--k-max", type=int, default=eg.K_MAX)
    p_aux.set_defaults(run=_cmd_aux)
    p_fr = ex_sub.add_parser("frontier", help="emit the D^k point set as CSV")
    p_fr.add_argument("--n", type=int, required=True)
    p_fr.add_argument("--k", type=int, required=True)
    p_fr.add_argument("--out", default=None)
    p_fr.set_defaults(run=_cmd_frontier)
    p_exp = ex_sub.add_parser("exp", help="survival-maximizing recipient for one item")
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--state", required=True)
    p_exp.add_argument("--item", required=True)
    p_exp.add_argument("--k-max", type=int, default=eg.K_MAX)
    p_exp.set_defaults(run=_cmd_exp)
    for p in (p_aux, p_fr, p_exp):
        p.add_argument("--progress", action="store_true",
                       help="print k, |D^k| and seconds for each built level to stderr")

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except eg.FrontierSizeExceeded as e:
        print(f"error: {e}, the exact solver's frontier size cap", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
