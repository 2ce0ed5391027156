"""Simulation workloads: ``simulate`` and ``verify-moments`` jobs, the
per-round decision latency, the lower-bound game, and the traced round loop
that times each layer."""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from common import OUT, Checks, Meter, actions_digest, digest, span_totals

pc = time.perf_counter

#: module that holds each instantiation's candidates, state and profile
MODULE = {
    "propx": "allocation",
    "efx": "allocation",
    "efc": "allocation",
    "pdm": "public_decisions",
    "discounted": "discounted",
}
THETA = [0.25, 0.5, 1.0]
GAMMA = 0.9
#: stream seeds with recorded action goldens; a run uses seed % BANK
BANK = 32
#: slack on the paper's bound, as in the ``simulate`` exit code
BOUND_TOL = 1e-9
LB_C = 1.0

# Each segment is (instantiation, n, extra config keys, full length, tiny
# length).  In sim-mix-n8 propx carries 80% of the decisions and efc 5%, so
# the latency p50 lies well inside the propx mode and the p99 inside the efc
# mode; the discounted and pdm modes sit 5% apart and would make a p50 placed
# between them jump.
SIM_WORKLOADS = {
    "sim-mix-n8": {
        "segments": (
            ("propx", 8, {}, 1200, 40),
            ("discounted", 8, {"gamma": GAMMA}, 75, 10),
            ("pdm", 8, {"num_outcomes": 4}, 75, 10),
            ("efx", 8, {}, 75, 10),
            ("efc", 8, {"theta": THETA}, 75, 10),
        ),
        "verify": True,
        "lowerbound": (2, 4, 8),
    },
    "sim-efx-n32": {
        "segments": (("efx", 32, {}, 60, 10),),
        "verify": False,
        "lowerbound": (),
    },
    "sim-pdm-wide": {
        "segments": (("pdm", 64, {"num_outcomes": 16}, 150, 10),),
        "verify": False,
        "lowerbound": (),
    },
}

#: traced span name -> per-layer metric prefix ("{mod}" is MODULE[inst])
LAYERS = {
    "stream": "baselines.stream_us",
    "candidates": "{mod}.candidates_us",
    "choose": "framework.choose_us",
    "apply": "{mod}.apply_us",
    "profile": "{mod}.profile_us",
    "bounds": "framework.bounds_us",
    "row": "metrics.row_us",
    "csv": "simulate.csv_us",
    "verify": "framework.verify_us",
}
COUNTS = ("baselines.stream_draws", "framework.actions", "simulate.csv_bytes")
LB_METRICS = ("baselines.lb_round_us", "baselines.lb_rounds")


def layer_metric_names() -> list[str]:
    names = []
    for inst, mod in MODULE.items():
        names += [prefix.format(mod=mod) + "." + inst for prefix in LAYERS.values()]
        names += [count + "." + inst for count in COUNTS]
        names += [f"trace.round_us.{inst}", f"trace.other_us.{inst}"]
    return names + list(LB_METRICS)


def config_dict(inst: str, n: int, extra: dict, length: int, stream_seed: int,
                output: Path | None = None) -> dict:
    """The ``simulate`` JSON config of one segment."""
    stream = {"kind": "uniform_random", "seed": stream_seed}
    if inst == "efc":
        stream = {"kind": "choice", "seed": stream_seed, "params": {"values": THETA}}
    raw = {"instantiation": inst, "policy": "potential", "stream": stream,
           "n": n, "length": length, **extra}
    if output is not None:
        raw["output"] = str(output)
    return raw


def golden_key(workload: str, inst: str, tiny: bool) -> str:
    return f"{workload}/{inst}/{'tiny' if tiny else 'full'}"


@dataclass
class Segment:
    inst: str
    cfg: object  # RunConfig
    params: object  # PotentialParams of the instantiation
    bound: float | None  # time-uniform bound (discounted); None -> ct_threshold(t)
    golden: str | None  # action digest recorded at the seed commit
    csv_path: Path
    traced_csv_path: Path
    items: list | None = None


class SimWorkload:
    """One simulation workload.  Constructing it is the timed set-up: config
    parsing and harness construction for every segment."""

    def __init__(self, prog, name: str, seed: int, tiny: bool, goldens: dict, checks: Checks,
                 meter: Meter):
        spec = SIM_WORKLOADS[name]
        self.P = prog
        self.meter = meter
        self.checks = checks
        self.verify = spec["verify"]
        self.lb_sizes = spec["lowerbound"]
        stream_seed = seed % BANK
        self.segments = []
        for inst, n, extra, full_len, tiny_len in spec["segments"]:
            csv_path = OUT / f"{name}-{inst}.csv"
            cfg = prog.RunConfig.from_dict(config_dict(
                inst, n, extra, tiny_len if tiny else full_len, stream_seed, csv_path))
            h = prog.build_harness(cfg)
            golden = None
            if inst != "efc":  # exact ties are common on efc's ledger stream
                golden = goldens["actions"][golden_key(name, inst, tiny)][stream_seed]
            self.segments.append(Segment(
                inst, cfg, h.params,
                prog.c_gamma(h.params, cfg.gamma) if inst == "discounted" else None,
                golden, csv_path, OUT / f"{name}-{inst}.traced.csv"))
        self.reference: dict[str, dict] = {}
        self.layer_acc = {seg.inst: {"totals": {}, "rounds": 0, "sim_rounds": 0, "draws": 0,
                                     "actions": 0, "csv_bytes": 0} for seg in self.segments}
        self.lb_acc = {"seconds": 0.0, "rounds": 0, "games": 0}
        self.last_spans: list = []

    def prepare(self) -> None:
        """Draw each segment's items once, for the decision-latency loop."""
        for seg in self.segments:
            seg.items = list(self.P.stream_generate(seg.cfg.stream))

    # -- untraced ---------------------------------------------------------

    def job(self) -> dict:
        """simulate (CSV written) and verify-moments for every segment, the
        lower-bound games, then the decision-latency loop over the same items.
        Seconds are reference-host seconds (see common.Meter)."""
        P, meter = self.P, self.meter
        work = 0.0
        rounds = 0
        latencies: list[float] = []
        for seg in self.segments:
            rows, seconds = meter.time(P.run_simulation, seg.cfg)
            work += seconds
            rounds += len(rows)
            ref = self.reference.setdefault(seg.inst, {})
            ref["actions"] = self._check_rows(seg, rows)
            with open(seg.csv_path, "rb") as f:
                ref["csv"] = digest(f.read().decode())
            if self.verify:
                result, seconds = meter.time(P.verify_moments_run, seg.cfg)
                work += seconds
                rounds += seg.cfg.length
                self.checks.add(result[0], f"{seg.inst}: verify-moments failed")
                ref["verify"] = result
            lat, picks = self._decide(seg)
            latencies += lat
            self.checks.count(len(picks), sum(a != b for a, b in zip(picks, ref["actions"])),
                              f"{seg.inst}: decision loop differs from run_simulation")
        lb_s = self._lowerbound(None)
        return {"rounds": rounds, "work_s": work, "solve_s": work + lb_s,
                "latencies": latencies, "untraced_s": work + lb_s}

    def _check_rows(self, seg: Segment, rows) -> list[int]:
        P = self.P
        actions = [r["action"] for r in rows]
        self.checks.add(len(rows) == seg.cfg.length, f"{seg.inst}: wrong number of rounds")
        if seg.golden is not None:
            self.checks.add(actions_digest(actions) == seg.golden,
                            f"{seg.inst}: actions differ from the seed commit")
        if seg.bound is not None:
            bad = sum(r["max_deficit"] > seg.bound + BOUND_TOL for r in rows)
        else:
            bad = sum(r["max_deficit"] > P.ct_threshold(r["t"], seg.params) + BOUND_TOL
                      for r in rows)
        self.checks.count(len(rows), bad, f"{seg.inst}: max deficit above the paper's bound")
        return actions

    def _decide(self, seg: Segment):
        """Time each round from item in hand to action chosen and state applied."""
        P = self.P
        h = P.build_harness(seg.cfg)
        state, params, candidates, choose = h.state, h.params, h.candidates, P.choose_action

        def decide(values):
            action = choose(candidates(state, values), params)
            state.apply(values, action)
            return action

        return self.meter.latencies(decide, seg.items)

    def _lowerbound(self, spans) -> float:
        """Play the adversary against the potential policy; returns reference
        seconds.  With ``spans``, also records each game as a span."""
        P, meter = self.P, self.meter
        seconds = 0.0
        for n in self.lb_sizes:
            limit = int(4900 * n * LB_C * LB_C)
            policy = P.make_policy("potential", n)
            result, game_s = meter.time(P.run_lb_game, policy, n, LB_C, limit + 1)
            seconds += game_s
            self.checks.add(result.violation_round is not None and result.violation_round <= limit
                            and result.monitor_ok, f"lowerbound n={n}: no violation by 4900 n c^2")
            if spans is not None:
                spans.append(("lowerbound", *meter.call, n))
                self.lb_acc["seconds"] += game_s
                self.lb_acc["rounds"] += result.rounds_played
        return seconds

    # -- traced -----------------------------------------------------------

    def traced_job(self) -> float:
        """The same simulate / verify-moments / lower-bound work as ``job``,
        run by the benchmark's own loop with a span around each call into a
        layer.  Each pass is one timed section; its spans' self times are
        scaled like its wall time.  Returns the job's reference seconds."""
        spans: list = []
        wall = 0.0
        for seg in self.segments:
            acc = self.layer_acc[seg.inst]
            ref = self.reference[seg.inst]
            passes = [self._traced_simulate] + ([self._traced_verify] if self.verify else [])
            for run_pass in passes:
                pass_spans: list = []
                result, pass_s = self.meter.time(run_pass, seg, pass_spans, acc)
                pass_spans.append(("pass", *self.meter.call, 0))
                wall += pass_s
                totals = span_totals(pass_spans, self.meter.pauses)
                scale = pass_s / totals["pass"]
                for layer, seconds in totals.items():
                    acc["totals"][layer] = acc["totals"].get(layer, 0.0) + seconds * scale
                spans += [(f"{seg.inst}.{name}", *rest) for name, *rest in pass_spans]
                if run_pass == self._traced_verify:
                    self.checks.add(result == ref["verify"], f"{seg.inst}: traced "
                                    "verify-moments differs from verify_moments_run")
                    continue
                with open(seg.traced_csv_path, "rb") as f:
                    data = f.read()
                acc["csv_bytes"] += len(data)
                self.checks.add(result == ref["actions"],
                                f"{seg.inst}: traced decisions differ from run_simulation")
                self.checks.add(digest(data.decode()) == ref["csv"],
                                f"{seg.inst}: traced CSV differs from run_simulation")
        wall += self._lowerbound(spans)
        self.lb_acc["games"] += 1
        self.last_spans = spans
        return wall

    def _traced_simulate(self, seg: Segment, spans: list, acc: dict):
        """``run_simulation`` for the potential policy, one span per layer call."""
        P = self.P
        cfg = seg.cfg
        h = P.build_harness(cfg)
        state, params, candidates = h.state, h.params, h.candidates
        choose, profile_psi, ct_threshold = P.choose_action, P.profile_psi, P.ct_threshold
        disappointed_count, gini, gmd, gmd_bound = (
            P.disappointed_count, P.gini, P.gmd, P.gmd_bound)
        stream = P.stream_generate(cfg.stream)
        rows = []
        draws = actions_seen = 0
        for t in range(1, cfg.length + 1):
            t0 = pc()
            values = next(stream)
            t1 = pc()
            cands = candidates(state, values)
            t2 = pc()
            action = choose(cands, params)
            t3 = pc()
            state.apply(values, action)
            t4 = pc()
            z = state.profile()
            t5 = pc()
            psi = profile_psi(z, params)
            ct = ct_threshold(t, params)
            disappointed = disappointed_count(z, cfg.c if cfg.c is not None else ct)
            t6 = pc()
            g, d, gb = gini(z), gmd(z), gmd_bound(psi, params)
            t7 = pc()
            spans += [("stream", t0, t1, t), ("candidates", t1, t2, t), ("choose", t2, t3, t),
                      ("apply", t3, t4, t), ("profile", t4, t5, t), ("bounds", t5, t6, t),
                      ("row", t6, t7, t)]
            rows.append({"t": t, "action": action,
                         "max_deficit": float(z.max()) if len(z) else 0.0,
                         "ct_bound": ct, "psi": psi, "disappointed": disappointed,
                         "gini": g, "gmd": d, "gmd_bound": gb})
            draws += values.size
            actions_seen += len(cands.action_ids())
        t0 = pc()
        P.write_csv(rows, str(seg.traced_csv_path))
        t1 = pc()
        spans.append(("csv", t0, t1, 0))
        acc["rounds"] += cfg.length
        acc["sim_rounds"] += cfg.length
        acc["draws"] += draws
        acc["actions"] += actions_seen
        return [r["action"] for r in rows]

    def _traced_verify(self, seg: Segment, spans: list, acc: dict):
        """``verify_moments_run``, one span per layer call."""
        P = self.P
        cfg = seg.cfg
        h = P.build_harness(cfg)
        state, params, candidates, witness = h.state, h.params, h.candidates, h.witness
        choose, verify_moment_witness = P.choose_action, P.verify_moment_witness
        stream = P.stream_generate(cfg.stream)
        ok = True
        worst = 0.0
        draws = actions_seen = 0
        for t in range(1, cfg.length + 1):
            t0 = pc()
            values = next(stream)
            t1 = pc()
            z_prev = state.profile()
            t2 = pc()
            cands = candidates(state, values)
            t3 = pc()
            report = verify_moment_witness(z_prev, cands, witness(state, values), params,
                                           tol=1e-9, gamma=h.shift_gamma)
            t4 = pc()
            action = choose(cands, params)
            t5 = pc()
            state.apply(values, action)
            t6 = pc()
            spans += [("stream", t0, t1, t), ("profile", t1, t2, t), ("candidates", t2, t3, t),
                      ("verify", t3, t4, t), ("choose", t4, t5, t), ("apply", t5, t6, t)]
            ok = ok and report.ok
            worst = max(worst, report.worst_shift_violation, report.worst_first_moment,
                        max(0.0, report.worst_second_moment - params.sigma_sq))
            draws += values.size
            actions_seen += len(cands.action_ids())
        acc["rounds"] += cfg.length
        acc["draws"] += draws
        acc["actions"] += actions_seen
        return ok, worst

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values from the traced jobs: microseconds of self time per
        traced round (simulate and verify-moments rounds both count), counts per
        round, and the remainder of the traced wall time no layer span covers."""
        out = {}
        for seg in self.segments:
            inst, acc = seg.inst, self.layer_acc[seg.inst]
            rounds = acc["rounds"]
            per_round = {layer: 1e6 * acc["totals"].get(layer, 0.0) / rounds for layer in LAYERS}
            for layer, prefix in LAYERS.items():
                out[prefix.format(mod=MODULE[inst]) + "." + inst] = per_round[layer]
            out[f"baselines.stream_draws.{inst}"] = acc["draws"] / rounds
            out[f"framework.actions.{inst}"] = acc["actions"] / rounds
            out[f"simulate.csv_bytes.{inst}"] = acc["csv_bytes"] / acc["sim_rounds"]
            round_us = 1e6 * acc["totals"]["pass"] / rounds
            out[f"trace.round_us.{inst}"] = round_us
            out[f"trace.other_us.{inst}"] = round_us - sum(per_round.values())
        if self.lb_sizes:
            out["baselines.lb_round_us"] = 1e6 * self.lb_acc["seconds"] / self.lb_acc["rounds"]
            out["baselines.lb_rounds"] = self.lb_acc["rounds"] / self.lb_acc["games"]
        return out
