"""Baseline policies, canonical counterexample streams, random stream
generators, and the adaptive lower-bound adversary.

The adversary reads shifted slacks Z_i = 2c + u_i - Prop_i off the policy's
own proportionality state (fairness holds iff every Z_i >= c) and reveals
values x_i = Z_i / (Z_i + c), which live in [1/2, 1) on fair prefixes.  It
forces a bounded-proportionality violation within 4900 n c^2 rounds against
any policy.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .allocation import PropxState, propx_params
from .exact_game import K_MAX, FrontierBuilder, exp_policy
from .framework import ABS_TOL, PotentialParams, choose_action
from .prng import Xoshiro256StarStar

# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

class ConfigInvalid(ValueError):
    pass


#: conversion -> (what the JSON value must be, the types it may load as: a bool is no number)
_JSON_TYPES = {int: ("an integer", (int,)), float: ("a finite number", (int, float)),
               str: ("a string", (str,)), list: ("a list of numbers", (list,))}


def _typed(key: str, value, convert):
    """``convert(value)`` once ``value`` has the JSON type ``key`` needs: a
    config key or a stream param."""
    what, types = _JSON_TYPES[convert]
    if type(value) not in types or convert is float and not abs(value) <= sys.float_info.max:
        raise ConfigInvalid(f"{key!r} must be {what}, got {value!r}")
    return [_typed(key, v, float) for v in value] if convert is list else convert(value)


def _nonneg(key, value):
    """``value`` (a float or a list of floats) once every entry is finite and >= 0."""
    if not all(math.isfinite(v) and v >= 0.0 for v in np.ravel(value)):
        raise ValueError(f"{key!r} must be finite and >= 0")
    return value


def _round_robin_alt(spec):
    n, eps = spec.n, _nonneg("eps", _typed("eps", spec.params.get("eps", 0.01), float))
    return lambda t: [1.0] * n if t % 2 == 1 else [eps] * n


def _greedy_eps(spec):
    n, eps = spec.n, _nonneg("eps", _typed("eps", spec.params.get("eps", 0.01), float))
    return lambda t: [1.0] * n if t == 1 else [1.0] + [eps] * (n - 1)


def _table1(spec):
    eps = _nonneg("eps", _typed("eps", spec.params.get("eps", 0.01), float))
    return lambda t: ([1.0, 1.0] if t == 1
                      else [1.0, eps] if t % 2 == 1 or t == 2 else [eps, 1.0])


def _benade_linear(spec):
    cutoff = math.isqrt(_nonneg("T", _typed("T", spec.params.get("T", spec.length), int)))
    rho = _nonneg("rho", _typed("rho", spec.params.get("rho", 0.1), float))
    return lambda t: [1.0, rho] if t <= cutoff else [0.0, 0.0]


def _window_cycle(spec):
    n = spec.n
    cycle = _nonneg("cycle", _typed("cycle", spec.params.get("cycle", [1.0, 0.3, 0.3]), list))
    if not cycle:
        raise ValueError("'cycle' must be nonempty")
    return lambda t: [cycle[(t - 1) % len(cycle)]] * n


def _constant(spec):
    value = spec.params.get("value", 1.0)
    row = _nonneg("value", _typed("value", value, list) if isinstance(value, list)
                  else [_typed("value", value, float)] * spec.n)
    if len(row) != spec.n:
        raise ValueError(f"'value' has {len(row)} entries, expected n = {spec.n}")
    return lambda t: row


def _uniform_random(spec):
    return lambda d: d


def _bernoulli(spec):
    prob = _typed("prob", spec.params.get("prob", 0.5), float)
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"'prob' must be in [0, 1], got {prob}")
    return lambda d: np.where(d < prob, 1.0, 0.0)


def _choice(spec):
    pool = _nonneg("values", np.array(_typed("values", spec.params.get("values", []), list)))
    if not pool.size:
        raise ValueError("needs a nonempty 'values' list")
    return lambda d: pool[np.minimum((d * len(pool)).astype(np.intp), len(pool) - 1)]


#: stream kind -> (draws from the PRNG, required agent count or None, the
#: params it reads, builder).  A builder reads and checks the kind's params
#: once, when the ``StreamSpec`` is constructed, and returns the kind's value
#: map: row(t) -> round t's values as a flat list, or for a random kind an
#: elementwise map from an array of drawn doubles to values.
_STREAMS = {
    "round_robin_alt": (False, None, {"eps"}, _round_robin_alt),
    "greedy_eps": (False, None, {"eps"}, _greedy_eps),
    "table1": (False, 2, {"eps"}, _table1),
    "benade_linear": (False, 2, {"T", "rho"}, _benade_linear),
    "uniform_random": (True, None, set(), _uniform_random),
    "bernoulli": (True, None, {"prob"}, _bernoulli),
    "constant": (False, None, {"value"}, _constant),
    "window_cycle": (False, None, {"cycle"}, _window_cycle),
    "choice": (True, None, {"values"}, _choice),
}
RANDOM_KINDS = tuple(kind for kind, (random, *_) in _STREAMS.items() if random)


@dataclass(frozen=True)
class StreamSpec:
    """One stream of rounds.  Construction checks the kind's params, so a
    bad spec fails here and never mid-run.  A random kind needs a seed.  Each
    round is a length-n vector, or an (n, width) matrix when ``width`` is
    given (width > 1 needs a random kind)."""
    kind: str
    n: int
    length: int
    seed: int | None = None
    params: dict = field(default_factory=dict)
    width: int | None = None
    row: callable = field(init=False, repr=False, compare=False)  # the kind's value map

    def __post_init__(self):
        if self.kind not in _STREAMS:
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.length < 0 or self.n < 1 or (self.width is not None and self.width < 1):
            raise ValueError("length, n, width must be nonnegative/positive")
        random, agents, known, build = _STREAMS[self.kind]
        try:
            if not isinstance(self.params, dict):
                raise ValueError("params must be an object")
            if set(self.params) - known:
                raise ValueError(f"unknown params {sorted(set(self.params) - known)}, "
                                 f"expected some of {sorted(known)}")
            if agents is not None and self.n != agents:
                raise ValueError(f"needs n = {agents}, got n = {self.n}")
            if random and self.seed is None:
                raise ValueError("requires a seed")
            if self.seed is not None and not (type(self.seed) is int and 0 <= self.seed < 2**64):
                raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
            if not random and (self.width or 1) > 1:
                raise ValueError("width > 1 needs a random stream kind")
            object.__setattr__(self, "row", build(self))
        except (TypeError, ValueError) as e:
            raise ValueError(f"stream kind {self.kind!r}: {e}") from e


_BLOCK = 1024  #: doubles per block; larger blocks save little and cost peak memory


def stream_generate(spec: StreamSpec):
    """Yield one value vector (or n x width matrix) per round, t = 1..length.

    Random kinds draw from splitmix64-seeded xoshiro256**, one double per
    (agent, column) in row-major order per round -- a bit-exact contract so
    CSV goldens are portable -- drawn _BLOCK doubles' worth of rounds at a time.
    """
    shape = (spec.n,) if spec.width is None else (spec.n, spec.width)
    if spec.kind not in RANDOM_KINDS:
        for t in range(1, spec.length + 1):
            yield np.asarray(spec.row(t), dtype=float).reshape(shape)
        return
    rng, m = Xoshiro256StarStar(spec.seed), spec.n * (spec.width or 1)
    per_block = max(1, _BLOCK // m)
    for start in range(0, spec.length, per_block):
        k = min(per_block, spec.length - start)
        yield from spec.row(rng.doubles(k * m)).reshape((k, *shape))


# ---------------------------------------------------------------------------
# Item policies
# ---------------------------------------------------------------------------

class ItemPolicy:
    """Minimal interface: ``play`` prepares a round's values once on the
    undiscounted proportionality aggregates (``state``), chooses a recipient
    for the item, applies it and counts the round (``t``, rounds completed).
    A policy chooses from the prepared item, ``(x, max(U, x))``."""

    def __init__(self, n: int):
        self.n = n
        self.state = PropxState(n)
        self.t = 0  # rounds completed

    def choose(self, item) -> int:
        raise NotImplementedError

    def play(self, values) -> int:
        item = self.state.prepare(values)
        recipient = self.choose(item)
        self.state.update(item, recipient)
        self.t += 1
        return recipient


class RoundRobinPolicy(ItemPolicy):
    """Agent t mod n (t counted from 0)."""

    def choose(self, item) -> int:
        return self.t % self.n


class ConstantPolicy(ItemPolicy):
    """Always agent 0 -- the degenerate baseline."""

    def choose(self, item) -> int:
        return 0


class UtilGreedyPolicy(ItemPolicy):
    """Maximize the post-allocation minimum utility; ties -> lowest index."""

    def choose(self, item) -> int:
        # row a: the bundle values after giving the item to agent a
        post = self.state.bundle_value + np.diag(item[0])
        return int(np.argmax(post.min(axis=1)))


class DeficitGreedyPolicy(ItemPolicy):
    """Allocate to the agent with the largest current proportionality deficit
    d_i = total_i / n - util_i; ties -> lowest index."""

    def choose(self, item) -> int:
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

    def choose(self, item) -> int:
        s = self.s
        v1, v2 = float(item[0][0]), float(item[0][1])
        # give to agent 0: f12 -= v1, f21 += v2 ; give to agent 1: mirrored
        give0 = np.logaddexp(s * (self.f12 - v1), s * (self.f21 + v2))
        give1 = np.logaddexp(s * (self.f12 + v1), s * (self.f21 - v2))
        return 0 if give0 <= give1 else 1

    def play(self, values) -> int:
        recipient = super().play(values)
        sign = -1.0 if recipient == 0 else 1.0  # giving to agent 0 lowers f12
        self.f12 += sign * float(values[0])
        self.f21 -= sign * float(values[1])
        return recipient


class PotentialPropxPolicy(ItemPolicy):
    """The p-potential rule on the PROP-times-c instantiation."""

    @cached_property
    def params(self) -> PotentialParams:
        return propx_params(self.n)

    def choose(self, item) -> int:
        return choose_action(self.state.candidates(item), self.params)


class ExpExactPolicy(ItemPolicy):
    """The exact survival-maximizing policy, driven by AUX on cached D^k
    frontiers.  Utilities, totals and item values are converted to rationals
    losslessly (every float is a dyadic rational).  The float c is not: it is
    rounded by ``limit_denominator(10**6)`` to the nearest fraction with
    denominator at most 10**6 (0.1 becomes 1/10, not the float's dyadic
    value).  The exact solver itself never sees floats."""

    def __init__(self, n: int, c: float, k_max: int = K_MAX):
        super().__init__(n)
        self.c = Fraction(c).limit_denominator(10**6)
        self.k_max = k_max
        self.builder = FrontierBuilder(n)

    def choose(self, item) -> int:
        n = self.n
        delta = tuple(
            n * Fraction(float(u)) - Fraction(float(g)) + n * self.c
            for u, g in zip(self.state.bundle_value, self.state.total_value)
        )
        values = tuple(min(Fraction(float(v)), Fraction(1)) for v in item[0])
        return exp_policy(delta, values, n, self.k_max, builder=self.builder)


#: default horizon T of the two-agent Benade rule
BENADE_T = 400

#: policy name -> constructor (n, c, T, k_max) -> ItemPolicy
_POLICIES = {
    "potential": lambda n, c, T, k_max: PotentialPropxPolicy(n),
    "round_robin": lambda n, c, T, k_max: RoundRobinPolicy(n),
    "util_greedy": lambda n, c, T, k_max: UtilGreedyPolicy(n),
    "deficit_greedy": lambda n, c, T, k_max: DeficitGreedyPolicy(n),
    "benade2": lambda n, c, T, k_max: Benade2Policy(n, T),
    "exp_exact": lambda n, c, T, k_max: ExpExactPolicy(n, c, k_max),
    "constant": lambda n, c, T, k_max: ConstantPolicy(n),
}
POLICY_NAMES = tuple(_POLICIES)


def make_policy(name: str, n: int, *, c: float = 1.0, T: int = BENADE_T,
                k_max: int = K_MAX) -> ItemPolicy:
    if name not in _POLICIES:
        raise ValueError(f"unknown policy {name!r}")
    return _POLICIES[name](n, c, T, k_max)


# ---------------------------------------------------------------------------
# Lower-bound adversary
# ---------------------------------------------------------------------------

class PrefixAlreadyUnfair(RuntimeError):
    pass


def lb_adversary_next(z: list[float], c: float) -> list[float]:
    """x_i = Z_i / (Z_i + c); requires the prefix to still be c-fair."""
    if min(z) < c:
        raise PrefixAlreadyUnfair("some slack is already below c")
    return [zi / (zi + c) for zi in z]


def lb_potential_monitor(z: list[float], c: float) -> tuple[float, float]:
    """(Phi, S) with Phi = sum (Z_i + c ln Z_i) and S = sum Z_i."""
    phi = sum(zi + c * math.log(zi) for zi in z)
    return phi, sum(z)


@dataclass
class LbGameResult:
    violation_round: int | None
    rounds_played: int
    monitor_ok: bool
    worst_monitor_violation: float
    prop: np.ndarray  # v_i(G) / n at the end of play
    util: np.ndarray  # v_i(P_i) at the end of play


def run_lb_game(policy: ItemPolicy, n: int, c: float, max_rounds: int) -> LbGameResult:
    """Play the adaptive adversary against ``policy`` until bounded
    proportionality fails (some Z_i < c).  The slacks Z are read off the
    policy's own state after each round.  Monitors, on every fair prefix:
    x in [1/2, 1), Phi nonincreasing, S < 3nc, mean revealed value < 3/4."""
    if c < 1:
        raise ValueError("the construction requires c >= 1")
    state = policy.state

    def slacks() -> list[float]:
        return (2.0 * c + state.bundle_value - state.total_value / n).tolist()

    z = slacks()
    phi_prev, _ = lb_potential_monitor(z, c)
    worst = 0.0  # largest monitor excess; the monitors hold while it is <= ABS_TOL
    violation = None

    for t in range(1, max_rounds + 1):
        x = lb_adversary_next(z, c)
        worst = max(worst, 0.5 - min(x), max(x) - (1.0 - 1e-15), sum(x) / n - 0.75)
        policy.play(np.asarray(x))
        z = slacks()
        if min(z) < c:
            violation = t
            break
        phi, total = lb_potential_monitor(z, c)
        worst = max(worst, phi - phi_prev, total - 3.0 * n * c)
        phi_prev = phi

    return LbGameResult(violation, violation or max_rounds, worst <= ABS_TOL, worst,
                        state.total_value / n, state.bundle_value.copy())
