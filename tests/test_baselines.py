"""Streams, baseline policies, and the adaptive lower-bound adversary."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from perpetual import baselines
from perpetual.allocation import PropxState, propx_params
from perpetual.baselines import (
    Benade2Policy,
    DeficitGreedyPolicy,
    ItemPolicy,
    POLICY_NAMES,
    PrefixAlreadyUnfair,
    RoundRobinPolicy,
    StreamSpec,
    UtilGreedyPolicy,
    _STREAMS,
    lb_adversary_next,
    lb_potential_monitor,
    make_policy,
    run_lb_game,
    stream_generate,
)
from perpetual.framework import choose_action


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def _rounds(spec):
    return [list(v) for v in stream_generate(spec)]


def test_table1_stream():
    eps = 0.01
    rows = _rounds(StreamSpec("table1", 2, 6, params={"eps": eps}))
    assert rows[:3] == [[1.0, 1.0], [1.0, eps], [1.0, eps]]
    assert rows[3] == [eps, 1.0]
    assert rows[4] == [1.0, eps]
    assert rows[5] == [eps, 1.0]


def test_round_robin_alt_stream():
    rows = _rounds(StreamSpec("round_robin_alt", 3, 4, params={"eps": 0.25}))
    assert rows == [[1.0] * 3, [0.25] * 3, [1.0] * 3, [0.25] * 3]


def test_window_cycle_stream():
    rows = _rounds(StreamSpec("window_cycle", 2, 7))
    assert rows[:3] == [[1.0, 1.0], [0.3, 0.3], [0.3, 0.3]]
    assert rows[3] == [1.0, 1.0]


def test_benade_linear_stream():
    rows = _rounds(StreamSpec("benade_linear", 2, 25, params={"T": 400, "rho": 0.1}))
    assert rows[19] == [1.0, 0.1]
    assert rows[20] == [0.0, 0.0]


def test_greedy_eps_stream():
    rows = _rounds(StreamSpec("greedy_eps", 2, 3, params={"eps": 0.1}))
    assert rows == [[1.0, 1.0], [1.0, 0.1], [1.0, 0.1]]


def test_random_streams_deterministic_and_bounded():
    spec = StreamSpec("uniform_random", 3, 50, seed=12345)
    a = _rounds(spec)
    b = _rounds(spec)
    assert a == b  # identical spec -> identical stream, bit for bit
    assert all(0.0 <= x < 1.0 for row in a for x in row)
    c = _rounds(StreamSpec("uniform_random", 3, 50, seed=12346))
    assert a != c


def test_prng_contract_golden():
    """First draws are pinned: splitmix64-seeded xoshiro256** is a fixed,
    portable bit-exact contract."""
    from perpetual.prng import Xoshiro256StarStar

    rng = Xoshiro256StarStar(0)
    first = rng.u64s(3).tolist()
    rng2 = Xoshiro256StarStar(0)
    assert first == rng2.u64s(3).tolist()
    assert all(0 <= v < 2**64 for v in first)
    # a different seed diverges immediately
    assert Xoshiro256StarStar(1).u64s(1)[0] != first[0]


def test_bernoulli_and_choice_streams():
    rows = _rounds(StreamSpec("bernoulli", 2, 100, seed=3, params={"prob": 0.5}))
    assert set(x for row in rows for x in row) <= {0.0, 1.0}
    pool = [0.25, 0.5, 1.0]
    rows = _rounds(StreamSpec("choice", 2, 100, seed=4, params={"values": pool}))
    assert set(x for row in rows for x in row) <= set(pool)


def test_stream_spec_validation():
    with pytest.raises(ValueError):
        StreamSpec("nope", 2, 5)


@pytest.mark.parametrize("kind,n,kwargs,match", [
    ("choice", 2, {"seed": 1}, "'values'"),
    ("choice", 2, {"seed": 1, "params": {"values": []}}, "'values'"),
    ("window_cycle", 2, {"params": {"cycle": []}}, "'cycle'"),
    ("constant", 2, {"params": {"value": [1.0, 2.0, 3.0]}}, "'value'"),
    ("constant", 3, {"params": {"value": [1.0, 2.0]}}, "'value'"),
    ("table1", 3, {}, "n = 2"),
    ("benade_linear", 3, {}, "n = 2"),
    ("benade_linear", 2, {"params": {"T": -4}}, "'T'"),
    ("round_robin_alt", 2, {"params": {"eps": None}}, "round_robin_alt"),
    ("constant", 2, {"params": [1.0]}, "params"),
    ("uniform_random", 2, {}, "seed"),
    ("table1", 2, {"width": 2}, "random stream kind"),
    ("uniform_random", 2, {"seed": 1, "width": 0}, "width"),
    ("table1", 2, {"params": {"epsilon": 0.5}}, "'epsilon'"),
    ("benade_linear", 2, {"params": {"T": 400, "Rho": 0.1}}, "'Rho'"),
    ("uniform_random", 2, {"seed": 1, "params": {"prob": 0.5}}, "'prob'"),
    ("uniform_random", 2, {"seed": 1.9}, "seed"),
    ("uniform_random", 2, {"seed": True}, "seed"),
    ("uniform_random", 2, {"seed": "7"}, "seed"),
    ("uniform_random", 2, {"seed": -1}, "seed"),
    ("bernoulli", 2, {"seed": 2**64 + 5}, "seed"),
    ("table1", 2, {"seed": -1}, "seed"),
    ("bernoulli", 2, {"seed": 1, "params": {"prob": 7}}, "'prob'"),
    ("bernoulli", 2, {"seed": 1, "params": {"prob": -1}}, "'prob'"),
    ("bernoulli", 2, {"seed": 1, "params": {"prob": float("nan")}}, "'prob'"),
    ("round_robin_alt", 2, {"params": {"eps": -0.5}}, "'eps'"),
    ("greedy_eps", 2, {"params": {"eps": float("inf")}}, "'eps'"),
    ("table1", 2, {"params": {"eps": float("nan")}}, "'eps'"),
    ("benade_linear", 2, {"params": {"rho": -0.1}}, "'rho'"),
    ("constant", 2, {"params": {"value": -1}}, "'value'"),
    ("constant", 2, {"params": {"value": [1.0, float("inf")]}}, "'value'"),
    ("window_cycle", 2, {"params": {"cycle": [1.0, float("nan")]}}, "'cycle'"),
    ("choice", 2, {"seed": 1, "params": {"values": [0.5, -2]}}, "'values'"),
])
def test_stream_spec_checks_params_at_construction(kind, n, kwargs, match):
    with pytest.raises(ValueError, match=match) as info:
        StreamSpec(kind, n, 5, **kwargs)
    assert kind in str(info.value) or match == "width"


def test_stream_width_always_yields_a_matrix():
    rounds = list(stream_generate(StreamSpec("uniform_random", 3, 4, seed=2, width=1)))
    assert all(v.shape == (3, 1) for v in rounds)
    flat = list(stream_generate(StreamSpec("uniform_random", 3, 4, seed=2)))
    assert [v.ravel().tolist() for v in rounds] == [v.tolist() for v in flat]
    assert all(v.shape == (2, 1) for v in stream_generate(StreamSpec("table1", 2, 3, width=1)))


# (kind, n, length, seed, params, width) -> sha256[:16] of the float64 bytes of
# every round, recorded before the stream kinds became one table
STREAM_DIGESTS = [
    (("round_robin_alt", 3, 9, None, {"eps": 0.25}, None), "bfff6f7b177a3bef"),
    (("round_robin_alt", 5, 7, None, {}, None), "0209a2e02ca8da25"),
    (("greedy_eps", 4, 6, None, {"eps": 0.1}, None), "f9cbcba2eeac3a09"),
    (("greedy_eps", 2, 5, None, {}, None), "7399fd5e0913b208"),
    (("table1", 2, 11, None, {"eps": 0.05}, None), "389b75e667534332"),
    (("table1", 2, 5, None, {}, None), "2cb35645c844fdcb"),
    (("benade_linear", 2, 30, None, {"T": 100, "rho": 0.2}, None), "9549e7745b146c72"),
    (("benade_linear", 2, 12, None, {}, None), "37ae49444849d0ab"),
    (("window_cycle", 3, 10, None, {"cycle": [1, 0.5]}, None), "7608c001b61aa35c"),
    (("window_cycle", 2, 8, None, {}, None), "b724a90e310774fd"),
    (("constant", 3, 4, None, {"value": 2.5}, None), "add3ba32f642367c"),
    (("constant", 3, 4, None, {"value": [1, 2, 3]}, None), "07f5e2fce9b55767"),
    (("constant", 4, 3, None, {}, None), "cf966f1001f07510"),
    (("uniform_random", 2, 50, 1, {}, None), "b9af75f0cda75d57"),
    (("uniform_random", 5, 40, 2, {}, None), "9cf9a3386e91607b"),
    (("uniform_random", 3, 30, 7, {}, 4), "ffbd098222b9021b"),
    (("bernoulli", 3, 60, 3, {"prob": 0.3}, None), "c1e43218122f5559"),
    (("bernoulli", 2, 40, 4, {}, None), "246438c462ea2eb6"),
    (("choice", 3, 50, 5, {"values": [0.25, 0.5, 1.0]}, None), "347c367d19eec5a2"),
    (("choice", 6, 20, 6, {"values": [2, 0.1]}, None), "02808e16c52600ce"),
]


def test_stream_digests_cover_every_kind():
    assert {spec[0] for spec, _ in STREAM_DIGESTS} == set(_STREAMS)


@pytest.mark.parametrize("spec,expected", STREAM_DIGESTS)
def test_stream_values_digest(spec, expected):
    kind, n, length, seed, params, width = spec
    kwargs = {} if width is None else {"width": width}
    h = hashlib.sha256()
    for v in stream_generate(StreamSpec(kind, n, length, seed=seed, params=params, **kwargs)):
        assert v.shape == ((n,) if width is None else (n, width))
        h.update(np.asarray(v, dtype=float).tobytes())
    assert h.hexdigest()[:16] == expected


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def test_policy_round_robin():
    pol = RoundRobinPolicy(3)
    choices = []
    for _ in range(6):
        a = pol.play([1.0, 1.0, 1.0])
        choices.append(a)
    assert choices == [0, 1, 2, 0, 1, 2]
    assert pol.t == 6


def test_choose_is_a_policys_whole_round():
    """No policy overrides the round protocol (``play`` is prepare, ``choose``,
    update), and only round robin, which reads one, counts rounds."""
    policies = [cls for cls in vars(baselines).values()
                if isinstance(cls, type) and issubclass(cls, ItemPolicy)]
    assert len(policies) == len(POLICY_NAMES) + 1
    assert [cls.__name__ for cls in policies if "play" in vars(cls)] == ["ItemPolicy"]
    for name in POLICY_NAMES:
        assert hasattr(make_policy(name, 2), "t") == (name == "round_robin"), name


def test_util_greedy_fresh_tie():
    pol = UtilGreedyPolicy(2)
    assert pol.choose(pol.state.prepare([1.0, 1.0])) == 0


def test_util_greedy_counterexample_instance():
    """First item (1,1) goes to agent 0; the next ceil(1/eps) items (1, eps)
    all go to agent 1 (raising the minimum utility beats adding to the max)."""
    eps = 0.1
    pol = UtilGreedyPolicy(2)
    spec = StreamSpec("greedy_eps", 2, 1 + math.ceil(1 / eps), params={"eps": eps})
    choices = []
    for v in stream_generate(spec):
        a = pol.play(v)
        choices.append(a)
    assert choices[0] == 0
    assert all(a == 1 for a in choices[1:])


def test_util_greedy_matches_two_way_oracle():
    from perpetual.prng import Xoshiro256StarStar

    rng = Xoshiro256StarStar(8)
    pol = UtilGreedyPolicy(2)
    util = np.zeros(2)
    for _ in range(60):
        x = rng.doubles(2).tolist()
        post0 = min(util[0] + x[0], util[1])
        post1 = min(util[0], util[1] + x[1])
        expect = 0 if post0 >= post1 else 1
        a = pol.play(x)
        assert a == expect
        util[a] += x[a]


def test_deficit_greedy_table1_golden():
    eps = 0.01
    pol = DeficitGreedyPolicy(2)
    choices = []
    for v in stream_generate(StreamSpec("table1", 2, 6, params={"eps": eps})):
        a = pol.play(v)
        choices.append(a + 1)  # 1-indexed like the worked example
    assert choices == [1, 2, 2, 1, 2, 1]
    d = pol.state.deficits()
    assert d[0] == pytest.approx((2 - 2 * eps) / 2, abs=1e-12)
    assert d[1] == pytest.approx((3 - 3 * eps) / 2, abs=1e-12)


def test_deficit_greedy_growth_every_two_rounds():
    eps = 0.01
    pol = DeficitGreedyPolicy(2)
    maxima = []
    for t, v in enumerate(stream_generate(StreamSpec("table1", 2, 40, params={"eps": eps})), 1):
        a = pol.play(v)
        # from round 3 on the item always goes to the eps-valuing agent
        if t >= 3:
            assert v[a] == eps
        maxima.append(float(np.max(pol.state.deficits())))
    for t in range(6, 40, 2):
        assert maxima[t - 1] - maxima[t - 3] == pytest.approx((1 - eps) / 2, abs=1e-12)


def test_benade_params():
    assert Benade2Policy(2, 400).s == pytest.approx(math.sqrt(2 * math.log(1 + 2 * math.log(2) / 400)))
    assert make_policy("benade2", 2, T=100).s == Benade2Policy(2, 100).s


def test_benade2_symmetric_tie():
    pol = Benade2Policy(2, 100)
    assert pol.choose(pol.state.prepare([0.5, 0.5])) == 0
    with pytest.raises(ValueError):
        Benade2Policy(3, 100)


def test_benade2_linear_envy_window():
    pol = make_policy("benade2", 2, T=400)
    cross = np.zeros((2, 2))
    choices = []
    for v in stream_generate(StreamSpec("benade_linear", 2, 20, params={"T": 400, "rho": 0.1})):
        a = pol.play(v)
        cross[:, a] += v
        choices.append(a)
    assert choices == [0] * 20
    assert cross[1, 0] - cross[1, 1] == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Lower-bound adversary
# ---------------------------------------------------------------------------

def test_lb_adversary_values():
    assert lb_adversary_next([2.0, 2.0], 1.0) == [pytest.approx(2 / 3)] * 2
    assert lb_adversary_next([1.0, 1.0], 1.0) == [0.5, 0.5]
    x = lb_adversary_next([7 / 3, 5 / 3], 1.0)
    assert x[0] == pytest.approx(7 / 10)
    assert x[1] == pytest.approx(5 / 8)
    with pytest.raises(PrefixAlreadyUnfair):
        lb_adversary_next([0.5, 2.0], 1.0)


def test_lb_potential_monitor_values():
    phi, total = lb_potential_monitor([2.0, 2.0], 1.0)
    assert phi == pytest.approx(4 + 2 * math.log(2))
    assert total == 4.0
    n, c = 3, 2.0
    phi, _ = lb_potential_monitor([c] * n, c)
    assert phi == pytest.approx(n * (c + c * math.log(c)))


@pytest.mark.parametrize("name", ["round_robin", "util_greedy", "deficit_greedy",
                                  "potential", "constant", "benade2"])
def test_lb_game_forces_violation_n2(name):
    res = run_lb_game(make_policy(name, 2, T=9801), 2, 1.0, 9801)
    assert res.violation_round is not None
    assert res.violation_round <= 9800
    assert res.monitor_ok, res.worst_monitor_violation


def test_lb_game_constant_policy_fast_violation():
    res = run_lb_game(make_policy("constant", 2), 2, 1.0, 9801)
    assert res.violation_round is not None and res.violation_round <= 10


#: (policy, n, c) -> violation round of every criterion-04 game, as recorded
#: before the adversary read its slacks from the policy's state
LB_GOLDEN = {
    ("round_robin", 2, 1.0): 59, ("util_greedy", 2, 1.0): 67,
    ("deficit_greedy", 2, 1.0): 67, ("potential", 2, 1.0): 67,
    ("constant", 2, 1.0): 4, ("benade2", 2, 1.0): 4, ("exp_exact", 2, 1.0): 71,
    ("round_robin", 3, 1.0): 59, ("util_greedy", 3, 1.0): 5,
    ("deficit_greedy", 3, 1.0): 68, ("potential", 3, 1.0): 68, ("constant", 3, 1.0): 5,
    ("round_robin", 2, 2.0): 287, ("util_greedy", 2, 2.0): 303,
    ("deficit_greedy", 2, 2.0): 303, ("potential", 2, 2.0): 303,
    ("constant", 2, 2.0): 7, ("benade2", 2, 2.0): 7,
    ("round_robin", 5, 1.0): 74, ("util_greedy", 5, 1.0): 9,
    ("deficit_greedy", 5, 1.0): 89, ("potential", 5, 1.0): 89, ("constant", 5, 1.0): 9,
}


def test_lb_game_golden_rounds():
    """Criterion 04's games, set up as it sets them up, keep their violation
    rounds, and every monitor holds."""
    got = {}
    for name, n, c in LB_GOLDEN:
        limit = int(4900 * n * c * c)
        res = run_lb_game(make_policy(name, n, c=c, T=limit, k_max=9), n, c, limit)
        assert res.monitor_ok, (name, n, c, res.worst_monitor_violation)
        got[name, n, c] = res.violation_round
    assert got == LB_GOLDEN


class _PreparedTwice(ItemPolicy):
    """The potential rule with candidates and update each preparing the
    round from its raw values."""

    def play(self, values) -> int:
        action = choose_action(self.state.candidates_of(values), propx_params(self.n))
        self.state.apply(values, action)
        return action


def _recorded(policy):
    """``policy`` with the recipient of every round appended to ``policy.log``."""
    play, policy.log = policy.play, []

    def recorded(values):
        policy.log.append(play(values))
        return policy.log[-1]

    policy.play = recorded
    return policy


@pytest.mark.parametrize("n, c", [(2, 1.0), (3, 1.0), (2, 2.0), (5, 1.0)])
def test_potential_policy_reuses_prepared_item(n, c):
    """On criterion 04's games the policy that prepares each round once in
    ``play`` decides and ends exactly as one preparing it in candidates and
    update."""
    limit = int(4900 * n * c * c)
    once, twice = _recorded(make_policy("potential", n)), _recorded(_PreparedTwice(n))
    res_once, res_twice = run_lb_game(once, n, c, limit), run_lb_game(twice, n, c, limit)
    assert res_once.violation_round == res_twice.violation_round == LB_GOLDEN["potential", n, c]
    assert once.log == twice.log
    for key in ("bundle_value", "total_value", "missed_max"):
        assert np.array_equal(getattr(once.state, key), getattr(twice.state, key)), key


def test_potential_policy_prepares_each_round_once(monkeypatch):
    calls = []
    prepare = PropxState.prepare

    def counted(self, values):
        calls.append(values)
        return prepare(self, values)

    monkeypatch.setattr(PropxState, "prepare", counted)
    res = run_lb_game(make_policy("potential", 3), 3, 1.0, 4900 * 3)
    assert res.violation_round == len(calls) == LB_GOLDEN["potential", 3, 1.0]


@pytest.mark.parametrize("policy, c, rounds", [
    ("potential", 1.0, 67), ("potential", 1.125, 87), ("potential", 1.25, 111),
    ("potential", 1.375, 135), ("exp_exact", 1.0, 71), ("exp_exact", 1.125, 91),
    ("exp_exact", 1.25, 115), ("exp_exact", 1.375, 143)])
def test_lb_game_readme_table_rounds(policy, c, rounds):
    """The README's n = 2 table, at the CLI's defaults (k_max 12, one round
    past 4900 n c^2)."""
    res = run_lb_game(make_policy(policy, 2, c=c), 2, c, int(4900 * 2 * c * c) + 1)
    assert (res.violation_round, res.monitor_ok) == (rounds, True)


def test_lb_game_requires_c_at_least_one():
    with pytest.raises(ValueError):
        run_lb_game(make_policy("round_robin", 2), 2, 0.5, 100)


@pytest.mark.parametrize("n,c,max_rounds", [(2, 1.0, 500), (4, 1.0, 500), (3, 1.0, 0),
                                          (3, 1.0, -5), (3, math.nan, 500), (3, math.inf, 500)])
def test_lb_game_refuses_bad_arguments(n, c, max_rounds):
    """The slacks are read off the policy's n-agent state, so the game's n
    must be the policy's; c must be finite; and a game plays at least one
    round."""
    with pytest.raises(ValueError, match="n = |max_rounds|finite c"):
        run_lb_game(make_policy("potential", 3), n, c, max_rounds)
    assert run_lb_game(make_policy("potential", 3), 3, 1.0, 1).rounds_played == 1


def test_lb_game_envy_dominates_prop_deficit_at_violation():
    """At the first unfair round, max envy >= max proportionality deficit.
    With two agents the other bundle is worth v_i(G) - v_i(P_i) = 2 prop_i - util_i."""
    c = 1.0
    for name in ("round_robin", "potential", "constant"):
        res = run_lb_game(make_policy(name, 2), 2, c, 9801)
        assert res.violation_round is not None
        envy = float(np.max((2 * res.prop - res.util) - res.util))
        deficit = float(np.max(res.prop - res.util))
        assert envy >= deficit - 1e-9


def test_round_robin_violates_prop_on_alternating_stream():
    """Round robin on alternating 1/eps items exceeds deficit c = 5 within
    ceil(4c/(1-eps)) + 2 rounds (and not much earlier)."""
    eps, c = 0.01, 5.0
    pol = make_policy("round_robin", 2)
    tracker = PropxState(2)
    first_violation = None
    limit = math.ceil(4 * c / (1 - eps)) + 2
    for t, v in enumerate(stream_generate(
            StreamSpec("round_robin_alt", 2, limit + 2, params={"eps": eps})), 1):
        a = pol.play(v)
        tracker.apply(v, a)
        if first_violation is None and np.max(tracker.deficits()) > c:
            first_violation = t
    assert first_violation is not None
    assert first_violation <= limit + 2
    assert first_violation >= limit - 2 - 2
