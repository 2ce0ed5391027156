"""The exact-solver workload: build the D^k frontiers for n=2 and n=3, answer
``aux`` on a seeded sample of rational states, and make the exact policy's
online decisions with ``exp_policy``."""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from common import Checks, Meter, digest, median

pc = time.perf_counter

#: |D^k| for k = 1, 2, ... (recorded at the seed commit)
FRONTIER_SIZES = {2: (3, 5, 9, 17, 35, 71, 151, 325, 693), 3: (6, 13, 31)}
#: deepest frontier built per n, full and tiny; aux and exp use it as k_max
K_FULL = {2: 9, 3: 3}
K_TINY = {2: 5, 3: 2}
#: aux queries per n per job, full and tiny
QUERIES_FULL, QUERIES_TINY = 100, 10
#: exp decisions per job at the tiny size; the full size decides
#: DECISIONS_PER_STATE times per n=2 state of the universe, so a run holds
#: over 1000 decisions for its p99
DECISIONS_TINY = 10
DECISIONS_PER_STATE = 2

# The query universes: every state and item the seeded samples draw from.
# Their answers at the seed commit are in goldens.json, indexed like these.
STATES = {
    2: [(Fraction(i, 4), Fraction(j, 4)) for i in range(17) for j in range(17)],
    3: [tuple(Fraction(v, 2) for v in s) for s in itertools.product(range(7), repeat=3)],
}
ITEMS = [(Fraction(a, 4), Fraction(b, 4)) for a in range(5) for b in range(5)]
DECISION_INPUTS = [(s, item) for s in STATES[2] for item in ITEMS]


def layer_metric_names() -> list[str]:
    names = []
    for n, sizes in FRONTIER_SIZES.items():
        for k in range(1, len(sizes) + 1):
            names += [f"exact_game.{what}.n{n}k{k}"
                      for what in ("frontier_s", "points", "tuples", "keep_ratio")]
    return names + ["exact_game.aux_us_p50", "exact_game.aux_points_scanned"]


def frontier_digest(points) -> str:
    """Digest of a point set in the CSV form ``perpetual exact frontier`` writes."""
    return digest("\n".join(",".join(str(v) for v in p) for p in sorted(points, reverse=True)))


def aux_answer(P, x, n: int, k_max: int, builder) -> int:
    """aux(x), with k_max + 1 standing for 'no forced violation within k_max'."""
    try:
        return P.aux(x, n, k_max, builder)
    except P.KMaxExceeded:
        return k_max + 1


class ExactWorkload:
    """Constructing it is the timed set-up: one frontier builder per n."""

    def __init__(self, prog, seed: int, tiny: bool, goldens: dict, checks: Checks,
                 meter: Meter):
        self.P = prog
        self.meter = meter
        self.checks = checks
        self.k = K_TINY if tiny else K_FULL
        self.tiny = tiny
        self.rng = random.Random(seed)
        self.golden = goldens["exact"]
        self.builders = {n: prog.FrontierBuilder(n) for n in STATES}
        self.aux_latencies: list[float] = []
        self.aux_scanned: list[int] = []
        self.frontier_times: dict[str, list[float]] = {}
        self.last_spans: list = []

    def prepare(self) -> None:
        """Nothing to draw in advance: each job draws its own sample."""

    def draw(self) -> None:
        """Draw a job's aux states and exp decisions from the universes,
        with the answers recorded for them.  Decisions cover every n=2 state
        equally, each time with a drawn item: exp_policy's cost ranges over
        two orders of magnitude with the state, and a plain sample of states
        moved the p50 by 5-10% from seed to seed."""
        queries = QUERIES_TINY if self.tiny else QUERIES_FULL
        self.queries = {n: self.rng.sample(range(len(STATES[n])), queries) for n in STATES}
        every = range(len(STATES[2]))
        if self.tiny:
            states = self.rng.sample(every, DECISIONS_TINY)
        else:
            states = [s for _ in range(DECISIONS_PER_STATE) for s in self.rng.sample(every, len(every))]
        self.decisions = [s * len(ITEMS) + self.rng.randrange(len(ITEMS)) for s in states]
        # aux answers were recorded with k_max = K_FULL; a shallower k_max
        # caps them at k_max + 1
        aux = self.golden["aux"]
        self.want_aux = {n: [min(aux[str(n)][i], self.k[n] + 1) for i in self.queries[n]]
                         for n in STATES}
        exp = self.golden["exp"][str(self.k[2])]
        self.want_exp = [int(exp[i]) for i in self.decisions]

    def _check_frontiers(self) -> None:
        for n, b in self.builders.items():
            for k in range(1, self.k[n] + 1):
                pts = b.get(k)
                self.checks.add(len(pts) == FRONTIER_SIZES[n][k - 1], f"|D^{k}| for n={n}")
                self.checks.add(frontier_digest(pts) == self.golden["frontier"][f"n{n}k{k}"],
                                f"D^{k} points for n={n}")

    def _check_answers(self, aux_got: dict, exp_got: list) -> None:
        for n in STATES:
            self.checks.count(len(aux_got[n]),
                              sum(a != b for a, b in zip(aux_got[n], self.want_aux[n])),
                              f"aux answers for n={n}")
        self.checks.count(len(exp_got), sum(a != b for a, b in zip(exp_got, self.want_exp)),
                          "exp_policy decisions")

    def _build(self, spans) -> float:
        """Fresh builders, then D^1..D^K per n, each level one timed section;
        returns reference seconds."""
        meter = self.meter
        seconds = 0.0
        self.builders = {n: self.P.FrontierBuilder(n) for n in STATES}
        for n, b in self.builders.items():
            for k in range(1, self.k[n] + 1):
                _, level_s = meter.time(b.get, k)
                seconds += level_s
                if spans is not None:
                    spans.append((f"frontier.n{n}", *meter.call, k))
                    self.frontier_times.setdefault(f"n{n}k{k}", []).append(level_s)
        return seconds

    def _aux_queries(self, spans) -> tuple[dict, float]:
        """The aux query set, one timed section per n."""
        P = self.P
        answers = {}
        seconds = 0.0
        for n in STATES:
            durations = []

            def answer_all():
                out = []
                for i in self.queries[n]:
                    t0 = pc()
                    out.append(aux_answer(P, STATES[n][i], n, self.k[n], self.builders[n]))
                    t1 = pc()
                    durations.append(t1 - t0)
                    if spans is not None:
                        spans.append(("aux", t0, t1, i))
                return out

            answers[n], set_s = self.meter.time(answer_all)
            seconds += set_s
            if spans is not None:
                # per-query times take the section's scale
                scale = set_s / sum(durations) if sum(durations) > 0 else 1.0
                self.aux_latencies += [d * scale for d in durations]
                sizes = [len(self.builders[n].get(j)) for j in range(self.k[n] + 1)]
                self.aux_scanned += [sum(sizes[:min(a, self.k[n]) + 1]) for a in answers[n]]
        return answers, seconds

    def _decide(self) -> tuple[list, list]:
        """exp_policy on each drawn (state, item), n=2, each call timed."""
        P, builder, k_max = self.P, self.builders[2], self.k[2]
        return self.meter.latencies(
            lambda i: P.exp_policy(*DECISION_INPUTS[i], 2, k_max, builder), self.decisions)

    def job(self) -> dict:
        """Draw a sample, build the frontiers and answer the aux query set
        (together ``solve_s``), then make the exp_policy decisions."""
        self.draw()
        solve = self._build(None)
        aux_got, aux_s = self._aux_queries(None)
        solve += aux_s
        latencies, exp_got = self._decide()
        self._check_frontiers()
        self._check_answers(aux_got, exp_got)
        decide = sum(latencies)
        return {"rounds": len(exp_got), "work_s": decide, "solve_s": solve,
                "latencies": latencies, "untraced_s": solve + decide}

    def traced_job(self) -> float:
        """The same work as the last ``job``, on its sample, with a span around
        each frontier level and each aux query.  Returns reference seconds."""
        spans: list = []
        seconds = self._build(spans)
        aux_got, aux_s = self._aux_queries(spans)
        latencies, exp_got = self._decide()
        self._check_frontiers()
        self._check_answers(aux_got, exp_got)
        self.last_spans = spans
        return seconds + aux_s + sum(latencies)

    def layer_metrics(self) -> dict[str, float]:
        """Per-level build seconds (median over traced jobs), point counts,
        |D^{k-1}|^n tuples enumerated, and the share of distinct generated
        points that pruning keeps (from one extra unpruned build per level)."""
        P = self.P
        out = {}
        for n, b in self.builders.items():
            for k in range(1, self.k[n] + 1):
                key = f"n{n}k{k}"
                raw = P.next_frontier(b.get(k - 1), n, prune=False)
                out[f"exact_game.frontier_s.{key}"] = median(self.frontier_times[key])
                out[f"exact_game.points.{key}"] = len(b.get(k))
                out[f"exact_game.tuples.{key}"] = len(b.get(k - 1)) ** n
                out[f"exact_game.keep_ratio.{key}"] = len(b.get(k)) / len(raw)
        out["exact_game.aux_us_p50"] = 1e6 * median(self.aux_latencies)
        # an upper bound: aux stops scanning a level at its first dominating point
        out["exact_game.aux_points_scanned"] = sum(self.aux_scanned) / len(self.aux_scanned)
        return out
