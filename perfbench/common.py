"""Pieces shared by the benchmark's workloads: loading the program from the
checkout, output checks, span aggregation and summary statistics."""
from __future__ import annotations

import hashlib
import importlib
import json
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

pc = time.perf_counter

# Host speed on a shared machine drifts: on the 2-vCPU Xeon host the
# benchmark was built on, the same Python loop ran up to 1.9x faster or
# slower from one quarter-second to the next, and 20-second runs of one
# workload differed by 20-40% in wall time.  So every timed section is
# reported in reference-host seconds: its wall time times CAL_REF_S over the
# mean time of a fixed calibration kernel measured around it (and, in long
# sections, during it).  The kernel mixes what the program spends its time
# on (interpreter loops, float arithmetic, dicts, small numpy calls,
# Fractions, 64-bit integer mixing) and must not change, or figures stop
# being comparable.

#: seconds one kernel call takes on the reference host
CAL_REF_S = 275e-6
#: seconds of kernel calls per calibration before and after a section
CAL_SPAN_S = 0.01
#: a long section is also sampled every SAMPLE_EVERY_S, for SAMPLE_SPAN_S
SAMPLE_EVERY_S = 0.1
SAMPLE_SPAN_S = 0.002
#: seconds of timed calls between two calibrations in a latency loop
CHUNK_S = 0.025
_CAL_ARRAY = np.linspace(0.0, 1.0, 8)


def _kernel():
    d = {}
    acc = 0.0
    for i in range(300):
        x = (i * 0.618) % 1.0
        acc += x * x + 1.0 / (1.0 + x)
        d[i & 15] = acc
    ordered = sorted(d.values())
    for _ in range(15):
        a = np.maximum(_CAL_ARRAY * 0.5 + acc * 1e-9, 0.1)
        acc += float(np.sum(np.exp(a - a.max())))
    f = Fraction(0)
    for i in range(1, 25):
        f = (f + Fraction(i, 2 ** (i % 7 + 1))) / 2
    h = 0x9E3779B97F4A7C15
    for _ in range(60):
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h = (h << 17 | h >> 47) & 0xFFFFFFFFFFFFFFFF
    return acc, ordered, f, h


def kernel_seconds(span: float = CAL_SPAN_S) -> float:
    """Mean wall seconds of one kernel call, over about ``span`` seconds."""
    calls = 0
    t0 = pc()
    while True:
        _kernel()
        calls += 1
        took = pc() - t0
        if took >= span:
            return took / calls


class Meter:
    """Converts wall seconds of timed sections to reference-host seconds.

    ``time(fn, *args)`` times one call, sampling the kernel while it runs.
    ``begin()`` / ``end()`` bracket a section of many short timings that a
    sample must not interrupt; ``end()`` returns the section's factor, and
    its calibration also opens the next section, so back-to-back sections
    share one.  Every kernel time is kept, so a run can report how fast the
    host was."""

    def __init__(self):
        self.kernel_times: list[float] = []
        #: (start, end) of the last ``time`` call, and of the samples in it
        self.call = (0.0, 0.0)
        self.pauses: list[tuple[float, float]] = []
        self._before = 0.0

    def _calibrate(self) -> float:
        k = kernel_seconds()
        self.kernel_times.append(k)
        return k

    def begin(self) -> None:
        self._before = self._calibrate()

    def end(self) -> float:
        after = self._calibrate()
        factor = 2.0 * CAL_REF_S / (self._before + after)
        self._before = after
        return factor

    def time(self, fn, *args):
        """``fn(*args)`` as one section: (result, reference seconds).  A
        SIGALRM handler runs the kernel every SAMPLE_EVERY_S during the call;
        its own time is taken out of the section's."""
        during: list[float] = []
        self.pauses = []

        def sample(signum, frame):
            t0 = pc()
            during.append(kernel_seconds(SAMPLE_SPAN_S))
            self.pauses.append((t0, pc()))

        self.begin()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            t0 = pc()
            result = fn(*args)
            t1 = pc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = self._calibrate()
        self.kernel_times += during
        kernels = [self._before, *during, after]
        self._before = after
        self.call = (t0, t1)
        paused = sum(end - start for start, end in self.pauses)
        return result, (t1 - t0 - paused) * CAL_REF_S * len(kernels) / sum(kernels)

    def latencies(self, step, inputs) -> tuple[list[float], list]:
        """``step(x)`` for each input, each call timed: (reference seconds per
        call, results).  Calls run in chunks of about CHUNK_S between
        calibrations, and no sample interrupts them."""
        latencies: list[float] = []
        results = []
        pending = iter(inputs)
        done = object()
        x = next(pending, done)
        self.begin()
        while x is not done:
            chunk = []
            chunk_end = pc() + CHUNK_S
            while x is not done and pc() < chunk_end:
                t0 = pc()
                results.append(step(x))
                chunk.append(pc() - t0)
                x = next(pending, done)
            scale = self.end()
            latencies += [d * scale for d in chunk]
        return latencies, results

    def speed(self) -> float:
        """Host speed over the run relative to the reference host."""
        return CAL_REF_S / median(self.kernel_times)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``perpetual`` package under src/."""


def load_program() -> SimpleNamespace:
    """Import ``perpetual`` afresh from the checkout's src/ and return the
    public entry points the benchmark calls.

    Earlier imports are dropped first, so each call pays the package's full
    import cost; that is what ``setup_s`` measures.  A package found anywhere
    but this checkout's src/ is refused, so the benchmark never measures an
    installed copy.
    """
    for name in [m for m in sys.modules if m == "perpetual" or m.startswith("perpetual.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        simulate = importlib.import_module("perpetual.simulate")
        framework = importlib.import_module("perpetual.framework")
        baselines = importlib.import_module("perpetual.baselines")
        metrics = importlib.import_module("perpetual.metrics")
        discounted = importlib.import_module("perpetual.discounted")
        exact_game = importlib.import_module("perpetual.exact_game")
    except ImportError as e:
        raise ProgramMissing(f"cannot import perpetual from {SRC}: {e}") from e
    if not Path(simulate.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"perpetual was imported from {simulate.__file__}, not {SRC}")
    return SimpleNamespace(
        RunConfig=simulate.RunConfig,
        run_simulation=simulate.run_simulation,
        verify_moments_run=simulate.verify_moments_run,
        build_harness=simulate.build_harness,
        write_csv=simulate.write_csv,
        choose_action=framework.choose_action,
        profile_psi=framework.profile_psi,
        ct_threshold=framework.ct_threshold,
        disappointed_count=framework.disappointed_count,
        verify_moment_witness=framework.verify_moment_witness,
        gini=metrics.gini,
        gmd=metrics.gmd,
        gmd_bound=metrics.gmd_bound,
        stream_generate=baselines.stream_generate,
        make_policy=baselines.make_policy,
        run_lb_game=baselines.run_lb_game,
        c_gamma=discounted.c_gamma,
        FrontierBuilder=exact_game.FrontierBuilder,
        next_frontier=exact_game.next_frontier,
        aux=exact_game.aux,
        exp_policy=exact_game.exp_policy,
        KMaxExceeded=exact_game.KMaxExceeded,
    )


def load_goldens() -> dict:
    """Outputs recorded at the seed commit by record_goldens.py."""
    with open(GOLDENS) as f:
        return json.load(f)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def actions_digest(actions) -> str:
    return digest(",".join(str(int(a)) for a in actions))


class Checks:
    """Counts output checks and the ones that failed; keeps the first few
    failure descriptions for the error report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what} ({failed} of {attempted} failed)")


def span_totals(spans, pauses=()) -> dict[str, float]:
    """Self time per span name.  Spans are ``(name, start, end, round)``
    around consecutive calls that never nest; the only time inside a span
    that is not its own is a calibration sample (``pauses``), so a span's
    self time is its duration less the pauses within it."""
    totals: dict[str, float] = {}
    for name, start, end, _ in spans:
        own = end - start
        for p_start, p_end in pauses:
            if p_start < end and p_end > start:
                own -= min(end, p_end) - max(start, p_start)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def write_spans(spans, path: Path) -> None:
    with open(path, "w") as f:
        for name, start, end, rnd in spans:
            f.write(json.dumps({"name": name, "start": start, "end": end, "round": rnd}) + "\n")


#: samples per group for the p99; a group has at least ten beyond its p99
P99_GROUP = 1000


def percentiles(samples) -> tuple[float, float]:
    """(p50, p99) of samples in the order they were taken.  The p99 is the
    median of the p99s of consecutive groups of at least P99_GROUP samples,
    so one noisy stretch of the host does not set it."""
    groups = max(1, len(samples) // P99_GROUP)
    size = len(samples) // groups
    p99s = [statistics.quantiles(samples[g * size:(g + 1) * size if g < groups - 1 else None],
                                 n=100)[98] for g in range(groups)]
    return statistics.median(samples), statistics.median(p99s)


def median(values) -> float:
    return statistics.median(values)
