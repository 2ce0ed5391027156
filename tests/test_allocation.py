"""Item-allocation instantiations: deficits, candidate sets, witnesses, the
EFc brute-force checker, and the fast-vs-naive oracle equivalences."""
from __future__ import annotations

import math

import numpy as np
import pytest

from perpetual.allocation import (
    EfcThresholdState,
    EfxState,
    PropxState,
    ValueNotInLedger,
    check_efk,
    efc_candidates,
    efc_params,
    efc_witness,
    efx_candidates,
    efx_params,
    efx_witness,
    propx_candidates,
    propx_params,
    propx_witness,
)
from perpetual.baselines import StreamSpec, stream_generate
from perpetual.framework import choose_action, safe_div, verify_moment_witness
from perpetual.prng import Xoshiro256StarStar
from perpetual.public_decisions import PdmState

from oracles import naive_efc, naive_efx


def _random_items(n, rounds, seed):
    rng = Xoshiro256StarStar(seed)
    return [np.array([rng.next_double() for _ in range(n)]) for _ in range(rounds)]


# ---------------------------------------------------------------------------
# PROP x c
# ---------------------------------------------------------------------------

def test_propx_fresh_unit_item():
    s = PropxState(2)
    cands = propx_candidates(s, [1.0, 1.0])
    z0 = cands.profile(0)  # give to agent 0
    assert z0[0] == 0.0  # recipient's deficit is negative
    assert z0[1] == pytest.approx(0.5)  # d = 1/2, U = 1


def test_propx_zero_item_noop():
    s = PropxState(2)
    s.apply([0.3, 0.7], 0)
    before = s.profile()
    cands = propx_candidates(s, [0.0, 0.0])
    for a in cands.action_ids():
        assert np.allclose(cands.profile(a), before)


def naive_propx_profile(items, allocations, n, candidate, final_item):
    """Recompute candidate profiles from the raw history, from scratch."""
    history = list(zip(items, allocations)) + [(final_item, candidate)]
    total = np.zeros(n)
    bundle = np.zeros(n)
    missed = np.zeros(n)
    for x, a in history:
        total += x
        bundle[a] += x[a]
        for i in range(n):
            if i != a:
                missed[i] = max(missed[i], x[i])
    d = total / n - bundle
    return np.array([safe_div(max(di, 0.0), u) for di, u in zip(d, missed)])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_propx_candidates_match_naive_recomputation(n):
    s = PropxState(n)
    params = propx_params(n)
    items, allocs = [], []
    for t, x in enumerate(_random_items(n, 50, seed=100 + n)):
        cands = propx_candidates(s, x)
        for a in range(n):
            naive = naive_propx_profile(items, allocs, n, a, x)
            fast = cands.profile(a)
            assert np.allclose(fast, naive, rtol=1e-12, atol=1e-12)
        a = choose_action(cands, params)
        s.apply(x, a)
        items.append(x)
        allocs.append(a)


def test_propx_witness_by_hand():
    s = PropxState(2)
    w = propx_witness(s, [1.0, 0.0])
    assert np.allclose(w.delta[0], [-0.5, 0.5])  # s_1 = 1
    assert np.allclose(w.delta[1], [0.0, 0.0])  # s_2 = 0
    w = propx_witness(s, [0.0, 0.0])
    assert np.allclose(w.delta, 0.0)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propx_witness_always_verifies(n, seed):
    s = PropxState(n)
    params = propx_params(n)
    for x in _random_items(n, 100, seed=seed):
        z_prev = s.profile()
        cands = propx_candidates(s, x)
        rep = verify_moment_witness(z_prev, cands, propx_witness(s, x), params)
        assert rep.ok, rep
        # first moment holds with equality for this construction
        assert abs(rep.worst_first_moment) < 1e-12
        s.apply(x, choose_action(cands, params))


def test_missed_scale_nondecreasing():
    n = 3
    s = PropxState(n)
    prev = s.missed_max.copy()
    for x in _random_items(n, 80, seed=5):
        s.apply(x, int(np.argmax(x)))
        assert np.all(s.missed_max >= prev)
        prev = s.missed_max.copy()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_states_reject_nonfinite_and_negative_items(bad):
    item = [0.5, bad, 0.25]
    for state, candidates in ((PropxState(3), propx_candidates),
                              (PropxState(3, gamma=0.9), propx_candidates),
                              (EfxState(3), efx_candidates),
                              (EfcThresholdState(3, [0.25, 0.5]), efc_candidates)):
        with pytest.raises(ValueError):
            candidates(state, item)
        with pytest.raises(ValueError):
            state.apply(item, 0)


@pytest.mark.parametrize("bad", [-1, 3])
def test_apply_rejects_action_ids_outside_range(bad):
    """Recipients lie in [0, n) and pdm outcomes in [0, num_outcomes); a
    rejected round leaves the state as it was."""
    item = [0.5, 0.25, 0.5]
    for state, values in ((PropxState(3), item),
                          (PropxState(3, gamma=0.9), item),
                          (EfxState(3), item),
                          (EfcThresholdState(3, [0.25, 0.5]), item),
                          (PdmState(3, 3), [item] * 3)):
        before = state.profile()
        with pytest.raises(ValueError, match="action id"):
            state.apply(values, bad)
        assert np.array_equal(state.profile(), before)
        state.apply(values, 2)  # the last id in range is accepted


@pytest.mark.parametrize("theta", [[], [math.nan], [math.inf], [0.5, 0.5], [0.0], [-1.0],
                                   [0.5, math.nan]])
def test_efc_rejects_bad_theta(theta):
    with pytest.raises(ValueError, match="theta"):
        EfcThresholdState(2, theta)


def test_envy_from_deficit_inequality():
    # max_j v_i(P_j) - v_i(P_i) >= Prop_i - v_i(P_i) at every prefix
    n = 4
    efx = EfxState(n)
    total = np.zeros(n)
    params = efx_params(n)
    for x in _random_items(n, 120, seed=9):
        a = choose_action(efx_candidates(efx, x), params)
        efx.apply(x, a)
        total += x
        for i in range(n):
            prop_i = total[i] / n
            best = max(efx.cross_value[i, j] for j in range(n))
            assert best >= prop_i - 1e-9


# ---------------------------------------------------------------------------
# EF x c
# ---------------------------------------------------------------------------

def test_efx_fresh_unit_item():
    s = EfxState(2)
    cands = efx_candidates(s, [1.0, 1.0])
    z = cands.profile(0)  # give to agent 0
    assert z[s.quality_index(1, 0)] == pytest.approx(1.0)
    assert z[s.quality_index(0, 1)] == 0.0


def test_efx_zero_item_noop():
    s = EfxState(3)
    s.apply([0.5, 0.2, 0.9], 1)
    before = s.profile()
    cands = efx_candidates(s, [0.0, 0.0, 0.0])
    for a in cands.action_ids():
        assert np.allclose(cands.profile(a), before)


@pytest.mark.parametrize("n", [2, 4])
def test_efx_candidates_match_naive(n):
    s = EfxState(n)
    params = efx_params(n)
    items, allocs = [], []
    for x in _random_items(n, 30, seed=200 + n):
        cands = efx_candidates(s, x)
        logs = cands.log_phi(params)
        p = params.p
        for a in range(n):
            naive = naive_efx([*zip(items, allocs), (x, a)], n)
            assert np.allclose(cands.profile(a), naive, rtol=1e-12, atol=1e-12)
            # swap-evaluated log potential equals the plain-arithmetic one
            naive_log = math.log(sum((u * u + 4 * p * p) ** p for u in naive))
            assert logs[a] == pytest.approx(naive_log, rel=1e-12)
        a = choose_action(cands, params)
        s.apply(x, a)
        items.append(x)
        allocs.append(a)


def test_efx_witness_by_hand():
    s = EfxState(2)
    w = efx_witness(s, [1.0, 0.0])
    q = s.quality_index(0, 1)
    assert w.delta[q, 1] == pytest.approx(1.0)  # alpha = 1 (scale 0, x = 1)
    assert w.delta[q, 0] == pytest.approx(-1.0)
    assert np.allclose(w.delta[s.quality_index(1, 0)], 0.0)  # x_2 = 0


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", [10, 11])
def test_efx_witness_always_verifies(n, seed):
    s = EfxState(n)
    params = efx_params(n)
    for x in _random_items(n, 80, seed=seed):
        rep = verify_moment_witness(
            s.profile(), efx_candidates(s, x), efx_witness(s, x), params
        )
        assert rep.ok, rep
        s.apply(x, choose_action(efx_candidates(s, x), params))


def test_pair_scale_nondecreasing():
    n = 3
    s = EfxState(n)
    prev = s.pair_scale.copy()
    for x in _random_items(n, 60, seed=13):
        s.apply(x, int(np.argmin(x)))
        assert np.all(s.pair_scale >= prev)
        prev = s.pair_scale.copy()


# ---------------------------------------------------------------------------
# EFc thresholds
# ---------------------------------------------------------------------------

def test_efc_fresh_unit_item():
    s = EfcThresholdState(2, [1.0])
    cands = efc_candidates(s, [1.0, 1.0])
    z = cands.profile(0)
    assert z[s.quality_index(1, 0, 0)] == pytest.approx(1.0)
    assert z[s.quality_index(0, 1, 0)] == 0.0


def test_efc_ledger_enforced():
    s = EfcThresholdState(2, [0.5, 1.0])
    with pytest.raises(ValueNotInLedger):
        s.apply([0.7, 0.5], 0)
    with pytest.raises(ValueNotInLedger):
        s.apply([0.25, 0.5], 0)  # below the smallest entry
    with pytest.raises(ValueNotInLedger):
        s.apply([1.0, 1.5], 0)  # above the largest entry
    s.apply([0.5, 1.0], 0)  # fine
    s.apply([0.0, 0.5], 1)  # zeros always allowed
    s.apply([-0.0, 1.0], 1)  # and so is -0.0
    assert s.counts[:, :, 0].tolist() == [[1, 0], [1, 2]]


def test_efc_alternating_unit_items():
    s = EfcThresholdState(2, [1.0])
    for t in range(4):
        s.apply([1.0, 1.0], t % 2)
        assert np.max(s.profile()) <= 1.0


def test_efc_candidates_match_naive():
    n, theta = 3, [0.25, 0.5, 1.0]
    s = EfcThresholdState(n, theta)
    params = efc_params(n, len(theta))
    spec = StreamSpec("choice", n, 40, seed=77, params={"values": theta})
    items, allocs = [], []
    for x in stream_generate(spec):
        cands = efc_candidates(s, x)
        for a in range(n):
            naive = naive_efc([*zip(items, allocs), (x, a)], n, theta)
            assert np.array_equal(cands.profile(a), naive)
        a = choose_action(cands, params)
        s.apply(x, a)
        items.append(x)
        allocs.append(a)


@pytest.mark.parametrize("seed", [20, 21])
def test_efc_witness_always_verifies(seed):
    n, theta = 3, [0.25, 0.5, 0.75, 1.0]
    s = EfcThresholdState(n, theta)
    params = efc_params(n, len(theta))
    for x in stream_generate(StreamSpec("choice", n, 80, seed=seed, params={"values": theta})):
        rep = verify_moment_witness(
            s.profile(), efc_candidates(s, x), efc_witness(s, x), params
        )
        assert rep.ok, rep
        s.apply(x, choose_action(efc_candidates(s, x), params))


def test_check_efk_by_hand():
    s = EfcThresholdState(2, [1.0])
    assert all(check_efk(s, 0).values())  # empty bundles
    s.apply([1.0, 1.0], 0)
    s.apply([1.0, 1.0], 0)
    # P_0 = {1,1}, P_1 = {}: envy of agent 1 toward 0 is 2 > top-1 sum 1
    assert not check_efk(s, 1)[(1, 0)]
    s.apply([1.0, 1.0], 1)
    # now P_1 = {1}: envy 1 <= top-1 value 1
    assert all(check_efk(s, 1).values())
    # a k beyond every bundle size removes whole bundles
    assert check_efk(s, 2**70) == check_efk(s, 3)
