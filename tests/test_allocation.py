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
    efc_params,
    efx_params,
    propx_params,
)
from perpetual.baselines import StreamSpec, stream_generate
from perpetual.framework import DimensionMismatch, choose_action, normalized, verify_moment_witness
from perpetual.prng import Xoshiro256StarStar
from perpetual.public_decisions import PdmState, pdm_params

from oracles import applied_oracle, naive_efc, naive_efx, naive_propx


def _random_items(n, rounds, seed):
    rng = Xoshiro256StarStar(seed)
    return [rng.doubles(n) for _ in range(rounds)]


# ---------------------------------------------------------------------------
# PROP x c
# ---------------------------------------------------------------------------

def test_propx_fresh_unit_item():
    s = PropxState(2)
    cands = s.candidates_of([1.0, 1.0])
    z0 = cands.profile(0)  # give to agent 0
    assert z0[0] == 0.0  # recipient's deficit is negative
    assert z0[1] == pytest.approx(0.5)  # d = 1/2, U = 1


def test_propx_zero_item_noop():
    s = PropxState(2)
    s.apply([0.3, 0.7], 0)
    before = s.profile()
    cands = s.candidates_of([0.0, 0.0])
    for a in cands.action_ids():
        assert np.allclose(cands.profile(a), before)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_propx_candidates_match_naive_recomputation(n):
    s = PropxState(n)
    params = propx_params(n)
    items, allocs = [], []
    for t, x in enumerate(_random_items(n, 50, seed=100 + n)):
        cands = s.candidates_of(x)
        for a in range(n):
            naive = naive_propx([*zip(items, allocs), (x, a)], n)
            fast = cands.profile(a)
            assert np.allclose(fast, naive, rtol=1e-12, atol=1e-12)
        a = choose_action(cands, params)
        s.apply(x, a)
        items.append(x)
        allocs.append(a)


def test_propx_witness_by_hand():
    s = PropxState(2)
    w = s.witness_of([1.0, 0.0])
    assert np.allclose(w.delta[0], [-0.5, 0.5])  # s_1 = 1
    assert np.allclose(w.delta[1], [0.0, 0.0])  # s_2 = 0
    w = s.witness_of([0.0, 0.0])
    assert np.allclose(w.delta, 0.0)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propx_witness_always_verifies(n, seed):
    s = PropxState(n)
    params = propx_params(n)
    for x in _random_items(n, 100, seed=seed):
        z_prev = s.profile()
        cands = s.candidates_of(x)
        rep = verify_moment_witness(z_prev, cands, s.witness_of(x), params)
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


def _aggregates(state) -> dict:
    return {k: v.copy() for k, v in vars(state).items() if isinstance(v, np.ndarray)}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: every state with one good round: propx, discounted, efx, efc and pdm
def _states_with_a_round():
    item = [0.5, 0.25, 0.5]
    return [(PropxState(3), item), (PropxState(3, gamma=0.9), item), (EfxState(3), item),
            (EfcThresholdState(3, [0.25, 0.5]), item),
            (PdmState(3, 2), [[0.5, 0.25], [0.0, 0.5], [0.25, 0.25]])]


_ENTRY_POINTS = (lambda s, v: s.prepare(v), lambda s, v: s.candidates_of(v),
                 lambda s, v: s.witness_of(v), lambda s, v: s.apply(v, 0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, 0.3, "shape", "2-D"])
def test_states_reject_nonfinite_and_negative_items(bad):
    """``prepare``, the raw candidates and witness and ``apply`` reject a bad
    round with one exception type: ``ValueError`` for a bad value,
    ``ValueNotInLedger`` for an efc value off the ledger and
    ``DimensionMismatch`` for a wrong shape.  The rejected round leaves the
    state as it was."""
    for state, good in _states_with_a_round():
        state.apply(good, 1)
        values = np.array(good)
        if bad == "shape":
            values, expected = values[:-1], DimensionMismatch
        elif bad == "2-D":
            values, expected = values[None], DimensionMismatch
        else:
            values.flat[1] = bad
            off_ledger = bad == 0.3 and isinstance(state, EfcThresholdState)
            expected = ValueNotInLedger if off_ledger else ValueError
        if expected is ValueError and bad == 0.3:
            continue  # 0.3 is a good value off the ledger
        before = _aggregates(state)
        for call in _ENTRY_POINTS:
            with pytest.raises(ValueError) as raised:
                call(state, values)
            assert type(raised.value) is expected, (state, call)
            after = _aggregates(state)
            assert before.keys() == after.keys()
            assert all(_same_bits(before[k], after[k]) for k in before)


def _round_values(state, rng, t):
    """Round t's values for ``state``: zero rounds, rounds of tied values,
    and random ones; efc values are the ledger's, each threshold included."""
    shape = (state.n, state.num_outcomes) if isinstance(state, PdmState) else (state.n,)
    if isinstance(state, EfcThresholdState):
        return rng.choice([0.0, *state.theta], size=shape)
    if t % 4 == 0:
        return np.zeros(shape)
    if t % 4 == 1:
        return np.full(shape, rng.choice([0.25, 0.5, 1.0]))
    return rng.random(shape).round(2 if t % 4 == 2 else 17)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_prepared_path_equals_raw_path(n):
    """One prepared item gives the bits of the raw entry points: the
    candidates (base, idx, val) and witness (refs, delta) from the item equal
    the raw adapters', and the state after ``update(item, action)`` equals
    ``applied_oracle``, which reads the raw values.  Each round's item serves
    candidates, witness and update in that order, as in the run loop."""
    rng = np.random.default_rng(n)
    for state, params in ((PropxState(n), propx_params(n)),
                          (PropxState(n, gamma=0.7), propx_params(n)),
                          (EfxState(n), efx_params(n)),
                          (EfcThresholdState(n, [0.25, 0.5, 1.0]), efc_params(n, 3)),
                          (PdmState(n, 3), pdm_params(n))):
        for t in range(60):
            values = _round_values(state, rng, t)
            raw_c, raw_w = state.candidates_of(values), state.witness_of(values)
            item = state.prepare(values)
            cands, w = state.candidates(item), state.witness(item)
            for a, b in ((cands.base, raw_c.base), (cands.idx, raw_c.idx),
                         (cands.val, raw_c.val), (w.delta, raw_w.delta)):
                assert _same_bits(a, b), (state, t)
            assert w.ref_actions == raw_w.ref_actions
            # the rule's pick, or a random action for a spread of recipients
            action = choose_action(cands, params) if t % 2 else int(rng.integers(len(cands.idx)))
            expected = applied_oracle(state, values, action)
            state.update(item, action)
            assert all(_same_bits(getattr(state, k), v) for k, v in expected.items()), (state, t)


@pytest.mark.parametrize("bad", [-1, 3, 1.5, "1", None, True])
def test_apply_rejects_action_ids_outside_range(bad):
    """Recipients are integers in [0, n) and pdm outcomes integers in
    [0, num_outcomes); a rejected round leaves the state as it was."""
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
        state.apply(values, np.int64(2))  # and so is a numpy integer


def _pair_profile_from_scratch(state) -> np.ndarray:
    return normalized(state._gaps(), state.scale)[~np.eye(state.n, dtype=bool)].ravel()


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("raw", [False, True], ids=["prepared", "raw"])
def test_pair_view_stays_current(n, raw):
    """A pair state's profile is computed once per update: after every round
    it equals the profile from scratch and the next round's candidate base,
    and it is read-only.  A rejected round or action id leaves it as it was,
    and an array returned before an update keeps its values after it."""
    rng = np.random.default_rng(n)
    for state in (EfxState(n), EfcThresholdState(n, [0.5]),
                  EfcThresholdState(n, [0.25, 0.5, 1.0])):
        bad_rounds = [np.full(n, math.nan), np.zeros(n + 1)]
        if isinstance(state, EfcThresholdState):
            bad_rounds.append(np.full(n, 0.3))  # off the ledger
        for t in range(40):
            values = _round_values(state, rng, t)
            held = state.profile()
            kept = held.copy()
            for bad in bad_rounds:
                with pytest.raises(ValueError):
                    state.apply(bad, 0) if raw else state.prepare(bad)
            item = state.prepare(values)
            cands = state.candidates_of(values) if raw else state.candidates(item)
            with pytest.raises(ValueError, match="action id"):
                state.apply(values, n) if raw else state.update(item, n)
            assert np.array_equal(state.profile(), kept), (state, t)
            assert np.array_equal(cands.base, kept), (state, t)
            action = int(rng.integers(n))
            state.apply(values, action) if raw else state.update(item, action)
            assert np.array_equal(held, kept), (state, t)
            z = state.profile()
            assert np.array_equal(z, _pair_profile_from_scratch(state)), (state, t)
            with pytest.raises(ValueError):
                z[0] = 1.0


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
        a = choose_action(efx.candidates_of(x), params)
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
    cands = s.candidates_of([1.0, 1.0])
    z = cands.profile(0)  # give to agent 0
    assert z[s.quality_index(1, 0)] == pytest.approx(1.0)
    assert z[s.quality_index(0, 1)] == 0.0


def test_quality_index_numbers_the_pairs_and_refuses_the_rest():
    """The variables are numbered 0..m-1 in (i, j, l) order, i != j, for
    scalars and elementwise on arrays; a diagonal or out-of-range (i, j, l)
    has no variable and raises instead of aliasing another pair."""
    for state in (EfxState(3), EfcThresholdState(3, [0.25, 0.5])):
        ijl = [(i, j, l) for i in range(3) for j in range(3) if i != j for l in range(state.L)]
        assert [state.quality_index(*p) for p in ijl] == list(range(state.m))
        assert np.array_equal(state.quality_index(*np.array(ijl).T), np.arange(state.m))
        for bad in ((1, 1, 0), (0, 3, 0), (-1, 0, 0), (0, 1, state.L), (0, 1, -1)):
            with pytest.raises(ValueError, match=rf"pair \({bad[0]}, {bad[1]}\) at layer {bad[2]}"):
                state.quality_index(*bad)
        with pytest.raises(ValueError, match=r"pair \(2, 2\)"):
            state.quality_index(np.array([0, 2, 1]), np.array([1, 2, 1]))


def test_efx_zero_item_noop():
    s = EfxState(3)
    s.apply([0.5, 0.2, 0.9], 1)
    before = s.profile()
    cands = s.candidates_of([0.0, 0.0, 0.0])
    for a in cands.action_ids():
        assert np.allclose(cands.profile(a), before)


@pytest.mark.parametrize("n", [2, 4])
def test_efx_candidates_match_naive(n):
    s = EfxState(n)
    params = efx_params(n)
    items, allocs = [], []
    for x in _random_items(n, 30, seed=200 + n):
        cands = s.candidates_of(x)
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
    w = s.witness_of([1.0, 0.0])
    q = s.quality_index(0, 1)
    assert w.delta[q, 1] == pytest.approx(1.0)  # alpha = 1 (scale 0, x = 1)
    assert w.delta[q, 0] == pytest.approx(-1.0)
    assert np.allclose(w.delta[s.quality_index(1, 0)], 0.0)  # x_2 = 0


def _pair_witness_by_loops(state, x) -> np.ndarray:
    """Row quality_index(i, j, l) holds alpha = step_i / max{scale[i, j, l], step_i}
    at column j and -alpha at column i (0 where that maximum is 0)."""
    n, L = state.n, state.L
    if isinstance(state, EfcThresholdState):
        step = [[float(v >= th) for th in state.theta] for v in x]
        scale = np.ones((n, n, L))
    else:
        step, scale = [[v] for v in x], state.pair_scale[..., None]
    delta = np.zeros((state.m, n))
    for i in range(n):
        for j in range(n):
            for l in range(L):
                top = max(scale[i, j, l], step[i][l])
                if i != j and top > 0:
                    q = state.quality_index(i, j, l)
                    delta[q, j], delta[q, i] = step[i][l] / top, -step[i][l] / top
    return delta


@pytest.mark.parametrize("n,theta", [(2, None), (3, None), (8, None), (3, [0.5]),
                                     (3, [0.25, 0.5, 1.0]), (8, [0.5]), (8, [0.25, 0.5, 1.0])])
def test_pair_witness_entry_for_entry(n, theta):
    """Every entry of the pair witness equals the matrix built by loops."""
    state = EfxState(n) if theta is None else EfcThresholdState(n, theta)
    rng = np.random.default_rng(n * 10 + state.L)
    for t in range(30):
        values = _round_values(state, rng, t)
        w = state.witness_of(values)
        assert w.ref_actions == tuple(range(state.n))
        assert np.array_equal(w.delta, _pair_witness_by_loops(state, values)), t
        state.apply(values, int(rng.integers(state.n)))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", [10, 11])
def test_efx_witness_always_verifies(n, seed):
    s = EfxState(n)
    params = efx_params(n)
    for x in _random_items(n, 80, seed=seed):
        rep = verify_moment_witness(
            s.profile(), s.candidates_of(x), s.witness_of(x), params
        )
        assert rep.ok, rep
        s.apply(x, choose_action(s.candidates_of(x), params))


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
    cands = s.candidates_of([1.0, 1.0])
    z = cands.profile(0)
    assert z[s.quality_index(1, 0, 0)] == pytest.approx(1.0)
    assert z[s.quality_index(0, 1, 0)] == 0.0


def test_efc_ledger_enforced():
    s = EfcThresholdState(2, [0.5, 1.0])
    with pytest.raises(ValueNotInLedger):
        s.apply([0.7, 0.5], 0)
    with pytest.raises(ValueNotInLedger):
        s.candidates_of([0.7, 0.5])
    with pytest.raises(ValueNotInLedger):
        s.witness_of([0.5, 0.7])
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
        cands = s.candidates_of(x)
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
            s.profile(), s.candidates_of(x), s.witness_of(x), params
        )
        assert rep.ok, rep
        s.apply(x, choose_action(s.candidates_of(x), params))


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
