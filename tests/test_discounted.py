"""Windowed deficits and gamma-discounted proportionality."""
from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from perpetual.allocation import PropxState, propx_params
from perpetual.discounted import GammaOutOfRange, c_gamma, c_gamma_prefix, g_gamma
from perpetual.framework import SQRT_E, PotentialParams, choose_action, verify_moment_witness
from perpetual.prng import Xoshiro256StarStar

from oracles import inflation_equiv_check, windowed_deficits


def _random_run(n, rounds, seed):
    """(values, recipient) rounds: n doubles, then one mapped to a recipient."""
    rng = Xoshiro256StarStar(seed)
    out = []
    for _ in range(rounds):
        *x, d = rng.doubles(n + 1)
        out.append((x, min(int(d * n), n - 1)))
    return out


def _step(s, values, recipient):
    """The state after one more round, leaving ``s`` as it was."""
    out = copy.deepcopy(s)
    out.apply(values, recipient)
    return out


# ---------------------------------------------------------------------------
# Windowed deficits
# ---------------------------------------------------------------------------

def test_windowed_deficit_basic():
    rounds = [([1.0, 1.0], 0)]
    assert windowed_deficits(rounds, 2, 2) == pytest.approx([-0.5, 0.5])
    rounds.append(([1.0, 1.0], 1))
    assert windowed_deficits(rounds, 2, 2)[0] == pytest.approx(0.0)
    # the first round falls out of the window
    rounds.append(([0.4, 0.4], 0))
    assert windowed_deficits(rounds, 2, 2)[1] == pytest.approx(0.7 - 1.0)


def test_windowed_deficit_full_window_matches_replay():
    n, T = 3, 40
    run = _random_run(n, T, seed=71)
    total = np.zeros(n)
    util = np.zeros(n)
    for t, (x, r) in enumerate(run, 1):
        total += np.asarray(x)
        util[r] += x[r]
        # W >= t: the window is the full history
        assert windowed_deficits(run[:t], n, T) == pytest.approx(total / n - util, abs=1e-12)


def test_window_forgets_unfairness():
    """A bounded window cannot witness unboundedly growing unfairness: give
    everything to agent 0 and the windowed deficit of agent 1 stays capped at
    W/n while the true deficit grows linearly."""
    n, W = 2, 5
    rounds = []
    true_deficit = 0.0
    for t in range(1, 101):
        rounds.append(([1.0, 1.0], 0))
        true_deficit += 0.5
    assert windowed_deficits(rounds, n, W)[1] == pytest.approx(W / n)
    assert true_deficit == 50.0


# ---------------------------------------------------------------------------
# Discounted state and candidates
# ---------------------------------------------------------------------------

def test_gamma_range():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(GammaOutOfRange):
            PropxState(2, bad)
    assert PropxState(2, 1.0).gamma == 1.0  # the undiscounted state
    # the discounted bounds need gamma < 1
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(GammaOutOfRange):
            c_gamma(propx_params(2), bad)


def test_discounted_step_example():
    """Two unit rounds to agent 0 at gamma = 1/2: agent 1's discounted deficit
    is (1/2) * (1/2) + 1/2 = 3/4."""
    s = PropxState(2, 0.5)
    s = _step(s, [1.0, 1.0], 0)
    s = _step(s, [1.0, 1.0], 0)
    assert s.deficits()[1] == pytest.approx(0.75, abs=1e-12)
    assert s.deficits()[0] == pytest.approx(-0.75, abs=1e-12)
    assert s.profile()[1] == pytest.approx(0.75, abs=1e-12)  # scale = 1


def test_discounted_state_matches_direct_sum():
    n, gamma, T = 3, 0.9, 60
    run = _random_run(n, T, seed=5)
    s = PropxState(n, gamma)
    for t, (x, r) in enumerate(run, 1):
        s.apply(x, r)
        # recompute gamma^(t-r)-weighted sums from scratch
        util = np.zeros(n)
        total = np.zeros(n)
        for r_t, (xv, rec) in enumerate(run[:t], 1):
            w = gamma ** (t - r_t)
            total += w * np.asarray(xv)
            util[rec] += w * xv[rec]
        assert np.allclose(s.total_value, total, rtol=1e-12, atol=1e-12)
        assert np.allclose(s.bundle_value, util, rtol=1e-12, atol=1e-12)


def test_discounted_candidates_match_step_profiles():
    n, gamma = 3, 0.8
    s = PropxState(n, gamma)
    params = propx_params(n)
    rng = Xoshiro256StarStar(9)
    for _ in range(50):
        x = rng.doubles(n).tolist()
        cands = s.candidates_of(x)
        for a in range(n):
            assert np.allclose(
                cands.profile(a), _step(s, x, a).profile(),
                rtol=1e-12, atol=1e-12,
            )
        s.apply(x, choose_action(cands, params))


@pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
def test_discounted_witness_always_verifies(gamma):
    n = 3
    s = PropxState(n, gamma)
    params = propx_params(n)
    for x, _ in _random_run(n, 120, seed=int(gamma * 100)):
        rep = verify_moment_witness(
            s.profile(), s.candidates_of(x), s.witness_of(x),
            params, gamma=gamma,
        )
        assert rep.ok, rep
        s.apply(x, choose_action(s.candidates_of(x), params))


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def test_g_gamma_values():
    assert g_gamma(1, 0.5) == pytest.approx(1.0)
    assert g_gamma(2, 0.5) == pytest.approx(1.25)
    # geometric limit 1 / (1 - gamma^2)
    assert g_gamma(10**6, 0.9) == pytest.approx(1 / (1 - 0.81), rel=1e-12)


def test_c_gamma_example_value():
    # n = 2, p = 1, sigma^2 = 1: closed form e * sqrt(4 + 2 sqrt(e) / (2 (1 - g^2)))
    params = propx_params(2)
    assert c_gamma(params, 0.5) == pytest.approx(
        math.e * math.sqrt(4 + 2 * SQRT_E / (2 * 0.75)), rel=1e-12
    )
    # at gamma = sqrt(1/2) the sigma term is exactly 2 sqrt(e)
    assert c_gamma(params, math.sqrt(0.5)) == pytest.approx(
        math.e * math.sqrt(4 + 2 * SQRT_E), rel=1e-12
    )


def test_c_gamma_prefix_value_with_sigma_sq_2():
    """The prefix bound, bit for bit, on an efx-sized instance (sigma^2 = 2)."""
    params = PotentialParams(m=30, n_ref=6, sigma_sq=2.0)
    p = params.p
    assert c_gamma_prefix(params, 0.5, 3) == math.e * math.sqrt(
        4.0 * p * p + 2.0 * SQRT_E * p * 2.0 * g_gamma(3, 0.5) / 6)


def test_c_gamma_limits_and_monotonicity():
    params = propx_params(2)
    # prefix bound increases with t and converges to the uniform bound
    gammas = [0.3, 0.7, 0.95]
    for g in gammas:
        vals = [c_gamma_prefix(params, g, t) for t in (1, 2, 5, 20, 200)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= c_gamma(params, g) + 1e-12
        assert c_gamma_prefix(params, g, 10**6) == pytest.approx(c_gamma(params, g), rel=1e-9)
    # higher gamma -> longer memory -> larger uniform bound
    vals = [c_gamma(params, g) for g in gammas]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("gamma,seed", [(0.9, 1), (0.99, 2), (0.5, 3)])
def test_discounted_run_respects_c_gamma(gamma, seed):
    n = 2
    s = PropxState(n, gamma)
    params = propx_params(n)
    bound = c_gamma(params, gamma)
    for t, (x, _) in enumerate(_random_run(n, 2000, seed=seed), 1):
        cands = s.candidates_of(x)
        s.apply(x, choose_action(cands, params))
        prefix = c_gamma_prefix(params, gamma, t)
        assert float(np.max(s.profile())) <= prefix + 1e-9
        assert prefix <= bound + 1e-12


# ---------------------------------------------------------------------------
# Inflation equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_inflation_equivalence(gamma):
    run = _random_run(3, 150, seed=13)
    ok, worst = inflation_equiv_check(gamma, run)
    assert ok, worst


def test_inflation_equivalence_respects_cap():
    # gamma = 0.5 -> beta^t overflows near t ~ 1024; the cap keeps it finite
    run = _random_run(2, 500, seed=2)
    ok, worst = inflation_equiv_check(0.5, run)
    assert ok
    assert math.isfinite(worst)
