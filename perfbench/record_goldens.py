"""Record the outputs the benchmark checks against: action digests of every
continuous-stream simulation segment for each bank seed, the D^k point-set
digests, and the answers of aux and exp_policy on the whole query universe.

Run once, on the commit whose behaviour is the reference, from the root of
the checkout:

    python3 perfbench/record_goldens.py

Re-recording on a later commit would turn the checks into a comparison of
the program with itself; do it only when the benchmark's own inputs change,
and then on the reference commit.
"""
from __future__ import annotations

import json

import common
import exact
import sims


def record_actions(P) -> dict:
    out = {}
    for name, spec in sims.SIM_WORKLOADS.items():
        for inst, n, extra, full_len, tiny_len in spec["segments"]:
            if inst == "efc":
                continue
            for tiny, length in ((False, full_len), (True, tiny_len)):
                digests = []
                for stream_seed in range(sims.BANK):
                    cfg = P.RunConfig.from_dict(
                        sims.config_dict(inst, n, extra, length, stream_seed))
                    digests.append(common.actions_digest(
                        r["action"] for r in P.run_simulation(cfg)))
                out[sims.golden_key(name, inst, tiny)] = digests
                print(sims.golden_key(name, inst, tiny), flush=True)
    return out


def record_exact(P) -> dict:
    builders = {n: P.FrontierBuilder(n) for n in exact.STATES}
    frontier = {f"n{n}k{k}": exact.frontier_digest(builders[n].get(k))
                for n in exact.STATES for k in range(1, exact.K_FULL[n] + 1)}
    aux = {str(n): [exact.aux_answer(P, x, n, exact.K_FULL[n], builders[n])
                    for x in exact.STATES[n]] for n in exact.STATES}
    exp = {str(k): "".join(str(P.exp_policy(s, item, 2, k, builders[2]))
                           for s, item in exact.DECISION_INPUTS)
           for k in sorted({exact.K_FULL[2], exact.K_TINY[2]})}
    return {"frontier": frontier, "aux": aux, "exp": exp}


def main() -> None:
    P = common.load_program()
    goldens = {"actions": record_actions(P), "exact": record_exact(P)}
    with open(common.GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
