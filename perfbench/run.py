"""Benchmark of the perpetual package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-mix-n8 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
``--size tiny`` shrinks every job for the self-test.  See README.md for the
workloads, the metrics and the output checks.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import common
import exact
import sims

pc = time.perf_counter

WORKLOADS = (*sims.SIM_WORKLOADS, "exact-frontier")
#: set-up samples per run; setup_s is their median
SETUP_SAMPLES = 9
END_TO_END_UNITS = {
    "rounds_per_s": "1/s",
    "decide_us_p50": "us",
    "decide_us_p99": "us",
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict[str, str]:
    units = {}
    for name in sims.layer_metric_names() + exact.layer_metric_names():
        if "_us" in name:
            units[name] = "us"
        elif ".frontier_s." in name:
            units[name] = "s"
        elif ".keep_ratio." in name:
            units[name] = "ratio"
        else:
            units[name] = "count"
    units["trace.overhead_pct"] = "%"
    units["calibration.host_speed"] = "ratio"
    return units


def make_workload(prog, name: str, seed: int, tiny: bool, goldens: dict, checks, meter):
    if name == "exact-frontier":
        return exact.ExactWorkload(prog, seed, tiny, goldens, checks, meter)
    return sims.SimWorkload(prog, name, seed, tiny, goldens, checks, meter)


def set_up(name: str, seed: int, tiny: bool, goldens: dict, checks, meter):
    """Import the program, parse the configs and construct the harnesses or
    builders SETUP_SAMPLES times, each a timed section; return the last
    program and workload and the median reference seconds."""
    def set_up_once():
        prog = common.load_program()
        return prog, make_workload(prog, name, seed, tiny, goldens, checks, meter)

    times = []
    for _ in range(SETUP_SAMPLES):
        (prog, workload), seconds = meter.time(set_up_once)
        times.append(seconds)
    return prog, workload, common.median(times)


def run_jobs(step, seconds: float) -> None:
    """Call ``step`` until the next call would end after ``seconds``; at
    least once.  GC stays on; a collection before each call starts every
    call from the same heap."""
    start = pc()
    took = []
    while True:
        gc.collect()
        t0 = pc()
        step()
        took.append(pc() - t0)
        if pc() - start + common.median(took) > seconds:
            return


def end_to_end(workload, seconds: float, setup_s: float) -> dict[str, float]:
    jobs = []
    run_jobs(lambda: jobs.append(workload.job()), seconds)
    p50, p99 = common.percentiles([s for j in jobs for s in j["latencies"]])
    return {
        "rounds_per_s": common.median([j["rounds"] / j["work_s"] for j in jobs]),
        "decide_us_p50": 1e6 * p50,
        "decide_us_p99": 1e6 * p99,
        "solve_s": common.median([j["solve_s"] for j in jobs]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, seconds: float, spans_path) -> dict[str, float]:
    untraced: list[float] = []
    traced: list[float] = []

    def pair():
        untraced.append(workload.job()["untraced_s"])
        traced.append(workload.traced_job())

    run_jobs(pair, seconds)
    metrics = dict.fromkeys(layer_units(), 0.0)
    metrics.update(workload.layer_metrics())
    metrics["trace.overhead_pct"] = 100.0 * (common.median(traced) / common.median(untraced) - 1)
    metrics["calibration.host_speed"] = workload.meter.speed()
    common.write_spans(workload.last_spans, spans_path)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    tiny = args.size == "tiny"

    try:
        goldens = common.load_goldens()
    except OSError as e:
        print(f"perfbench: cannot read the recorded outputs: {e}", file=sys.stderr)
        return 2

    checks = common.Checks()
    meter = common.Meter()
    try:
        prog, workload, setup_s = set_up(args.workload, args.seed, tiny, goldens, checks, meter)
    except common.ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    common.OUT.mkdir(exist_ok=True)
    workload.prepare()

    # warm-up: the tiny job, untimed
    warm = make_workload(prog, args.workload, args.seed, True, goldens, checks, meter)
    warm.prepare()
    warm.job()
    if args.trace:
        warm.traced_job()

    if args.trace:
        spans_path = common.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = per_layer(workload, args.seconds, spans_path)
        units = layer_units()
    else:
        metrics = end_to_end(workload, args.seconds, setup_s)
        units = END_TO_END_UNITS
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
