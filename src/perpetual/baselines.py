"""Baseline policies, canonical counterexample streams, random stream
generators, and the adaptive lower-bound adversary.

The adversary tracks shifted slacks Z_i = 2c + u_i - Prop_i (fairness holds
iff every Z_i >= c) and reveals values x_i = Z_i / (Z_i + c), which live in
[1/2, 1) on fair prefixes.  It forces a bounded-proportionality violation
within 4900 n c^2 rounds against any policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .allocation import PropxState, propx_candidates, propx_params
from .framework import PotentialParams, choose_action
from .prng import Xoshiro256StarStar

# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

STREAM_KINDS = (
    "round_robin_alt",
    "greedy_eps",
    "table1",
    "benade_linear",
    "uniform_random",
    "bernoulli",
    "constant",
    "window_cycle",
    "choice",
)

RANDOM_KINDS = ("uniform_random", "bernoulli", "choice")


@dataclass(frozen=True)
class StreamSpec:
    kind: str
    n: int
    length: int
    seed: int = 0
    params: dict = field(default_factory=dict)
    #: values per round per agent; >1 yields an (n, width) matrix per round
    width: int = 1

    def __post_init__(self):
        if self.kind not in STREAM_KINDS:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.length < 0 or self.n < 1 or self.width < 1:
            raise ValueError("length, n, width must be nonnegative/positive")


def stream_generate(spec: StreamSpec):
    """Yield one value vector (or n x width matrix) per round, t = 1..length.

    Random kinds draw from splitmix64-seeded xoshiro256**, one double per
    (agent, column) in row-major order per round -- a bit-exact contract so
    CSV goldens are portable.
    """
    n, par = spec.n, spec.params
    rng = Xoshiro256StarStar(spec.seed) if spec.kind in RANDOM_KINDS else None

    for t in range(1, spec.length + 1):
        if spec.kind == "round_robin_alt":
            v = [1.0] * n if t % 2 == 1 else [float(par.get("eps", 0.01))] * n
        elif spec.kind == "greedy_eps":
            eps = float(par.get("eps", 0.01))
            v = [1.0] * n if t == 1 else [1.0] + [eps] * (n - 1)
        elif spec.kind == "table1":
            eps = float(par.get("eps", 0.01))
            if t == 1:
                v = [1.0, 1.0]
            elif t % 2 == 1 or t == 2:
                v = [1.0, eps]
            else:
                v = [eps, 1.0]
        elif spec.kind == "benade_linear":
            horizon = int(par.get("T", spec.length))
            rho = float(par.get("rho", 0.1))
            v = [1.0, rho] if t <= math.isqrt(horizon) else [0.0, 0.0]
        elif spec.kind == "window_cycle":
            cycle = par.get("cycle", (1.0, 0.3, 0.3))
            v = [float(cycle[(t - 1) % len(cycle)])] * n
        elif spec.kind == "constant":
            value = par.get("value", 1.0)
            v = [float(x) for x in value] if isinstance(value, (list, tuple)) else [float(value)] * n
        elif spec.kind == "uniform_random":
            v = [rng.next_double() for _ in range(n * spec.width)]
        elif spec.kind == "bernoulli":
            prob = float(par.get("prob", 0.5))
            v = [1.0 if rng.next_double() < prob else 0.0 for _ in range(n * spec.width)]
        elif spec.kind == "choice":
            pool = [float(x) for x in par["values"]]
            v = [pool[rng.next_index(len(pool))] for _ in range(n * spec.width)]
        else:  # pragma: no cover
            raise AssertionError(spec.kind)

        if spec.width > 1:
            yield np.asarray(v, dtype=float).reshape(n, spec.width)
        else:
            yield np.asarray(v[:n] if len(v) > n else v, dtype=float)


# ---------------------------------------------------------------------------
# Item policies
# ---------------------------------------------------------------------------

class ItemPolicy:
    """Minimal interface: choose a recipient for the round's values, then be
    told the realized allocation.  Every policy sees the same undiscounted
    proportionality aggregates (``state``) and the number of completed
    rounds (``t``)."""

    def __init__(self, n: int):
        self.n = n
        self.state = PropxState(n)
        self.t = 0  # rounds completed

    def choose(self, values) -> int:
        raise NotImplementedError

    def update(self, values, recipient: int) -> None:
        self.state.apply(values, recipient)
        self.t += 1


class RoundRobinPolicy(ItemPolicy):
    """Agent t mod n (t counted from 0)."""

    def choose(self, values) -> int:
        return self.t % self.n


class ConstantPolicy(ItemPolicy):
    """Always the same recipient -- the degenerate baseline."""

    def __init__(self, n: int, agent: int = 0):
        super().__init__(n)
        self.agent = agent

    def choose(self, values) -> int:
        return self.agent


class UtilGreedyPolicy(ItemPolicy):
    """Maximize the post-allocation minimum utility; ties -> lowest index."""

    def choose(self, values) -> int:
        # row a: the bundle values after giving the item to agent a
        post = self.state.bundle_value + np.diag(np.asarray(values, dtype=float))
        return int(np.argmax(post.min(axis=1)))


class DeficitGreedyPolicy(ItemPolicy):
    """Allocate to the agent with the largest current proportionality deficit
    d_i = total_i / n - util_i; ties -> lowest index."""

    def choose(self, values) -> int:
        return int(np.argmax(self.state.deficits()))


class Benade2Policy(ItemPolicy):
    """Two-agent exponential-envy rule: minimize exp(s f12) + exp(s f21) after
    the candidate update, where f_ij = v_i(P_j) - v_i(P_i) and
    s = sqrt(2 ln(1 + 2 ln 2 / T)) for horizon T.  Scaling factors cancel
    within a round, so only s matters; sums are compared on their logs.
    The envies are kept incrementally because they decide exact ties.
    Ties -> agent 0."""

    def __init__(self, n: int, T: int):
        if n != 2:
            raise ValueError("this rule is defined for exactly 2 agents")
        super().__init__(n)
        self.s = math.sqrt(2.0 * math.log(1.0 + 2.0 * math.log(2.0) / T))
        self.f12 = 0.0  # agent 1's envy toward agent 2 (0-indexed: 0 -> 1)
        self.f21 = 0.0

    def choose(self, values) -> int:
        s = self.s
        v1, v2 = float(values[0]), float(values[1])
        # give to agent 0: f12 -= v1, f21 += v2 ; give to agent 1: mirrored
        give0 = np.logaddexp(s * (self.f12 - v1), s * (self.f21 + v2))
        give1 = np.logaddexp(s * (self.f12 + v1), s * (self.f21 - v2))
        return 0 if give0 <= give1 else 1

    def update(self, values, recipient: int) -> None:
        v1, v2 = float(values[0]), float(values[1])
        if recipient == 0:
            self.f12 -= v1
            self.f21 += v2
        else:
            self.f12 += v1
            self.f21 -= v2
        super().update(values, recipient)


class PotentialPropxPolicy(ItemPolicy):
    """The p-potential rule on the PROP-times-c instantiation."""

    @cached_property
    def params(self) -> PotentialParams:
        return propx_params(self.n)

    def choose(self, values) -> int:
        return choose_action(propx_candidates(self.state, values), self.params)


class ExpExactPolicy(ItemPolicy):
    """The exact survival-maximizing policy, driven by AUX on cached D^k
    frontiers.  Utilities, totals and item values are converted to rationals
    losslessly (every float is a dyadic rational).  The float c is not: it is
    rounded by ``limit_denominator(10**6)`` to the nearest fraction with
    denominator at most 10**6 (0.1 becomes 1/10, not the float's dyadic
    value).  The exact solver itself never sees floats."""

    def __init__(self, n: int, c: float, k_max: int = 12):
        super().__init__(n)
        from .exact_game import FrontierBuilder, exp_policy

        self.c = Fraction(c).limit_denominator(10**6) if not isinstance(c, Fraction) else c
        self.k_max = k_max
        self.builder = FrontierBuilder(n)
        self._exp_policy = exp_policy

    def choose(self, values) -> int:
        n = self.n
        delta = tuple(
            n * Fraction(float(u)) - Fraction(float(g)) + n * self.c
            for u, g in zip(self.state.bundle_value, self.state.total_value)
        )
        item = tuple(min(Fraction(float(v)), Fraction(1)) for v in values)
        return self._exp_policy(delta, item, n, self.k_max, builder=self.builder)


POLICY_NAMES = (
    "potential",
    "round_robin",
    "util_greedy",
    "deficit_greedy",
    "benade2",
    "exp_exact",
    "constant",
)


def make_policy(name: str, n: int, *, c: float = 1.0, T: int = 400,
                k_max: int = 12) -> ItemPolicy:
    if name == "potential":
        return PotentialPropxPolicy(n)
    if name == "round_robin":
        return RoundRobinPolicy(n)
    if name == "util_greedy":
        return UtilGreedyPolicy(n)
    if name == "deficit_greedy":
        return DeficitGreedyPolicy(n)
    if name == "benade2":
        return Benade2Policy(n, T)
    if name == "exp_exact":
        return ExpExactPolicy(n, c, k_max)
    if name == "constant":
        return ConstantPolicy(n)
    raise ValueError(f"unknown policy {name!r}")


# ---------------------------------------------------------------------------
# Lower-bound adversary
# ---------------------------------------------------------------------------

class PrefixAlreadyUnfair(RuntimeError):
    pass


@dataclass
class SlackVector:
    z: list[float]
    c: float


def lb_adversary_next(s: SlackVector) -> list[float]:
    """x_i = Z_i / (Z_i + c); requires the prefix to still be c-fair."""
    if min(s.z) < s.c:
        raise PrefixAlreadyUnfair("some slack is already below c")
    return [zi / (zi + s.c) for zi in s.z]


def lb_slack_update(s: SlackVector, x, winner: int) -> SlackVector:
    n = len(s.z)
    z = [zi - xi / n for zi, xi in zip(s.z, x)]
    z[winner] = s.z[winner] + (1.0 - 1.0 / n) * x[winner]
    return SlackVector(z=z, c=s.c)


def lb_potential_monitor(s: SlackVector) -> tuple[float, float]:
    """(Phi, S) with Phi = sum (Z_i + c ln Z_i) and S = sum Z_i."""
    phi = sum(zi + s.c * math.log(zi) for zi in s.z)
    return phi, sum(s.z)


@dataclass
class LbGameResult:
    violation_round: int | None
    rounds_played: int
    slack: SlackVector
    monitor_ok: bool
    worst_monitor_violation: float
    prop: np.ndarray  # v_i(G) / n at the end of play
    util: np.ndarray  # v_i(P_i) at the end of play


def run_lb_game(policy: ItemPolicy, n: int, c: float, max_rounds: int,
                check_invariants: bool = True, tol: float = 1e-9) -> LbGameResult:
    """Play the adaptive adversary against ``policy`` until bounded
    proportionality fails (some Z_i < c).  Monitors, on every fair prefix:
    x in [1/2, 1), Phi nonincreasing, S < 3nc, mean revealed value < 3/4."""
    if c < 1:
        raise ValueError("the construction requires c >= 1")
    slack = SlackVector(z=[2.0 * c] * n, c=c)
    phi_prev, _ = lb_potential_monitor(slack)
    monitor_ok = True
    worst = 0.0
    violation = None

    for t in range(1, max_rounds + 1):
        x = lb_adversary_next(slack)
        if check_invariants:
            lo = 0.5 - min(x)
            hi = max(x) - (1.0 - 1e-15)
            xbar = sum(x) / n - 0.75
            for v in (lo, hi, xbar):
                if v > tol:
                    monitor_ok = False
                worst = max(worst, v)
        items = np.asarray(x)
        w = policy.choose(items)
        policy.update(items, w)
        slack = lb_slack_update(slack, x, w)
        if min(slack.z) < c:
            violation = t
            break
        if check_invariants:
            phi, total = lb_potential_monitor(slack)
            for v in (phi - phi_prev, total - 3.0 * n * c):
                if v > tol:
                    monitor_ok = False
                worst = max(worst, v)
            phi_prev = phi

    state = policy.state
    return LbGameResult(violation, violation or max_rounds, slack, monitor_ok, worst,
                        state.total_value / n, state.bundle_value.copy())
