"""Public decision-making over a fixed outcome set."""
from __future__ import annotations

import numpy as np
import pytest

from perpetual.allocation import PropxState, propx_candidates, propx_params
from perpetual.framework import DimensionMismatch, choose_action, safe_div, verify_moment_witness
from perpetual.prng import Xoshiro256StarStar
from perpetual.public_decisions import PdmState, pdm_candidates, pdm_params, pdm_witness


def _random_rounds(n, C, rounds, seed):
    rng = Xoshiro256StarStar(seed)
    return [
        np.array([rng.next_double() for _ in range(n * C)]).reshape(n, C)
        for _ in range(rounds)
    ]


def test_pdm_identity_round():
    s = PdmState(2, 2)
    v = [[1.0, 0.0], [0.0, 1.0]]
    cands = pdm_candidates(s, v)
    z = cands.profile(0)  # choose outcome A
    assert z[0] == 0.0
    assert z[1] == pytest.approx(0.5)  # d_2 = 1/2, V_2 = 1


def test_pdm_zero_round_noop():
    s = PdmState(2, 3)
    s.apply([[1.0, 0.2, 0.0], [0.4, 0.4, 0.9]], 2)
    before = s.profile()
    cands = pdm_candidates(s, np.zeros((2, 3)))
    for o in cands.action_ids():
        assert np.allclose(cands.profile(o), before)


def naive_pdm_profile(rounds, outcomes, n, candidate, final_round):
    history = list(zip(rounds, outcomes)) + [(np.asarray(final_round), candidate)]
    util = np.zeros(n)
    prop = np.zeros(n)
    run_max = np.zeros(n)
    for v, o in history:
        m_fav = v.max(axis=1)
        prop += m_fav / n
        util += v[:, o]
        run_max = np.maximum(run_max, m_fav)
    d = prop - util
    return np.array([safe_div(max(di, 0.0), vi) for di, vi in zip(d, run_max)])


def test_pdm_candidates_match_naive():
    n, C = 3, 4
    s = PdmState(n, C)
    params = pdm_params(n)
    rounds, outcomes = [], []
    for v in _random_rounds(n, C, 20, seed=31):
        cands = pdm_candidates(s, v)
        for o in range(C):
            naive = naive_pdm_profile(rounds, outcomes, n, o, v)
            assert np.allclose(cands.profile(o), naive, rtol=1e-12, atol=1e-12)
        o = choose_action(cands, params)
        s.apply(v, o)
        rounds.append(v)
        outcomes.append(o)


def test_pdm_witness_identity_round():
    s = PdmState(2, 2)
    w = pdm_witness(s, [[1.0, 0.0], [0.0, 1.0]])
    assert w.ref_actions == (0, 1)  # favorites, lowest index on ties
    assert np.allclose(w.delta[0], [-0.5, 0.5])
    assert np.allclose(w.delta[1], [0.5, -0.5])
    w0 = pdm_witness(s, np.zeros((2, 2)))
    assert np.allclose(w0.delta, 0.0)


@pytest.mark.parametrize("seed", [41, 42])
def test_pdm_witness_always_verifies(seed):
    n, C = 3, 4
    s = PdmState(n, C)
    params = pdm_params(n)
    for v in _random_rounds(n, C, 100, seed=seed):
        rep = verify_moment_witness(
            s.profile(), pdm_candidates(s, v), pdm_witness(s, v), params
        )
        assert rep.ok, rep
        s.apply(v, choose_action(pdm_candidates(s, v), params))


def test_run_max_independent_of_outcome_and_nondecreasing():
    n, C = 2, 3
    rounds = _random_rounds(n, C, 30, seed=55)
    baseline = None
    for pick in (0, C - 1):
        s = PdmState(n, C)
        for v in rounds:
            s.apply(v, pick)
        if baseline is None:
            baseline = s.run_max.copy()
        else:
            assert np.allclose(s.run_max, baseline)
    s = PdmState(n, C)
    prev = s.run_max.copy()
    for v in rounds:
        s.apply(v, 1)
        assert np.all(s.run_max >= prev)
        prev = s.run_max.copy()


def test_item_allocation_embeds_into_pdm():
    """With outcomes = agents and v_i(o) = x_i * 1[o = i], the public-decision
    deficits equal the item-allocation deficits at every prefix."""
    n = 3
    pdm = PdmState(n, n)
    prop = PropxState(n)
    params = propx_params(n)
    rng = Xoshiro256StarStar(60)
    for _ in range(60):
        x = np.array([rng.next_double() for _ in range(n)])
        a = choose_action(propx_candidates(prop, x), params)
        prop.apply(x, a)
        v = np.zeros((n, n))
        for i in range(n):
            v[i, i] = x[i]
        pdm.apply(v, a)
        assert np.allclose(pdm.deficits(), prop.deficits(), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_pdm_rejects_nonfinite_and_negative_values(bad):
    s = PdmState(2, 2)
    v = [[0.5, bad], [0.2, 0.1]]
    with pytest.raises(ValueError):
        pdm_candidates(s, v)
    with pytest.raises(ValueError):
        s.apply(v, 0)


def test_pdm_dimension_errors():
    s = PdmState(2, 3)
    with pytest.raises(DimensionMismatch):
        s.apply([[1.0, 0.0], [0.0, 1.0]], 0)
