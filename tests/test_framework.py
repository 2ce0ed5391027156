"""Core framework: potential arithmetic, action choice, closed-form bounds,
and moment-witness verification."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perpetual import allocation, public_decisions
from perpetual.framework import (
    CandidateSet,
    DimensionMismatch,
    EmptyCandidateSet,
    MomentWitness,
    NonpositiveC,
    PotentialParams,
    anytime_psi_bound,
    bound_disappointed,
    choose_action,
    ct_threshold,
    default_p,
    disappointed_count,
    one_step_growth_bound,
    one_step_growth_check,
    profile_psi,
    WitnessReport,
    verify_moment_witness,
)

SQRT_E = math.sqrt(math.e)


def from_profiles(profiles) -> CandidateSet:
    """Dense candidate set from (action_id, profile) pairs with ids 0, 1, ...
    in order: every action touches every entry of a zero base."""
    profiles = [(int(a), np.asarray(z, dtype=float)) for a, z in profiles]
    if not profiles:
        raise EmptyCandidateSet("no candidate profiles")
    if [a for a, _ in profiles] != list(range(len(profiles))):
        raise ValueError("action ids must be 0, 1, ... in order")
    m = len(profiles[0][1])
    if any(z.shape != (m,) for _, z in profiles):
        raise DimensionMismatch("candidate profiles differ in length")
    val = np.array([z for _, z in profiles])
    return CandidateSet(np.zeros(m), np.broadcast_to(np.arange(m), val.shape), val)


def brute_force_phi(z, p):
    """Plain-arithmetic potential, the oracle for all log-domain paths."""
    return sum((u * u + 4 * p * p) ** p for u in z)


def test_default_p():
    assert default_p(1) == 1.0
    assert default_p(2) == 1.0
    assert default_p(3) == pytest.approx(math.log(3))
    assert default_p(100) == pytest.approx(math.log(100))


@pytest.mark.parametrize("u", [0.0, 0.5, 1.0, 17.3, 1e3, 1e6])
@pytest.mark.parametrize("p", [1.0, 1.5, math.log(5)])
def test_log_potential_component_matches_direct(u, p):
    """The component f(u) = (u^2 + 4 p^2)^p, which both kernels evaluate in
    logs: Psi of a one-entry profile is f(u)^(1/p), and ln Phi of a one-entry
    candidate is ln f(u)."""
    params = PotentialParams(m=1, n_ref=1, p=p)
    assert profile_psi([u], params) == pytest.approx(u * u + 4 * p * p, rel=1e-12)
    log_phi = CandidateSet([0.0], [[0]], [[u]]).log_phi(params)[0]
    assert math.exp(log_phi) == pytest.approx((u * u + 4 * p * p) ** p, rel=1e-12)


def test_profile_psi_simple_values():
    params = PotentialParams(m=2, n_ref=2)
    assert profile_psi([0, 0], params) == pytest.approx(8, rel=1e-12)
    assert profile_psi([2, 0], params) == pytest.approx(12, rel=1e-12)


def test_profile_psi_p_ln3():
    p = math.log(3)
    params = PotentialParams(m=3, n_ref=2, p=p)
    expected = math.exp(math.log(3 * (1 + 4 * p * p) ** p) / p)
    assert profile_psi([1, 1, 1], params) == pytest.approx(expected, rel=1e-12)


def test_profile_psi_zero_floor_and_monotonicity():
    for m, p in [(2, 1.0), (4, math.log(4)), (6, 2.0)]:
        params = PotentialParams(m=m, n_ref=2, p=p)
        floor = math.exp(math.log(m) / p) * 4 * p * p
        assert profile_psi([0.0] * m, params) == pytest.approx(floor, rel=1e-12)
        z = np.linspace(0, 3, m)
        bumped = z.copy()
        bumped[0] += 0.5
        assert profile_psi(bumped, params) >= profile_psi(z, params)


def test_choose_action_basic_and_ties():
    params = PotentialParams(m=2, n_ref=2)
    cands = from_profiles([(0, [0, 0]), (1, [1, 0])])
    assert choose_action(cands, params) == 0
    # equal potentials -> lowest action id
    cands = from_profiles([(0, [1, 0]), (1, [0, 1])])
    assert choose_action(cands, params) == 0


@pytest.mark.parametrize("seed", range(20))
def test_choose_action_matches_brute_force(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 6)
    p = default_p(m)
    params = PotentialParams(m=m, n_ref=2, p=p)
    # values on a 0.25 grid, like the documented invariant
    profs = [(a, [0.25 * rng.randint(0, 20) for _ in range(m)]) for a in range(rng.randint(2, 5))]
    expected = min(range(len(profs)), key=lambda a: (brute_force_phi(profs[a][1], p), a))
    assert choose_action(from_profiles(profs), params) == expected


def test_choose_action_empty_raises():
    with pytest.raises(EmptyCandidateSet):
        from_profiles([])


def test_candidate_patch_form_equivalence():
    p = math.log(4)
    params = PotentialParams(m=4, n_ref=2, p=p)
    base = np.array([0.5, 1.0, 0.0, 2.0])
    # action 2 rewrites entry 3 with its base value: the base profile itself
    patched = CandidateSet(base, [[0, 3], [1, 2], [3, 0]], [[3.0, 2.0], [0.25, 1.5], [2.0, 0.5]])
    assert patched.action_ids() == [0, 1, 2]
    assert np.array_equal(patched.profile(0), [3.0, 1.0, 0.0, 2.0])
    assert np.array_equal(patched.profile(2), base)
    dense = from_profiles([(a, patched.profile(a)) for a in patched.action_ids()])
    lp, ld = patched.log_phi(params), dense.log_phi(params)
    for a in patched.action_ids():
        expected = math.log(brute_force_phi(patched.profile(a), p))
        assert lp[a] == pytest.approx(expected, rel=1e-12)
        assert ld[a] == pytest.approx(expected, rel=1e-12)


def test_candidate_set_shape_checks():
    with pytest.raises(EmptyCandidateSet):
        CandidateSet([0.0, 1.0], np.zeros((0, 1)), np.zeros((0, 1)))
    with pytest.raises(DimensionMismatch):
        CandidateSet([0.0, 1.0], [[0], [1]], [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DimensionMismatch):
        from_profiles([(0, [1.0, 2.0]), (1, [1.0])])
    with pytest.raises(ValueError):
        from_profiles([(1, [1.0, 2.0])])  # ids must start at 0


def test_disappointed_count():
    assert disappointed_count([0, 0, 0], 0) == 0
    assert disappointed_count([3, 1, 0.5], 1) == 1  # strict: 1 is not counted
    rng = random.Random(3)
    for _ in range(50):
        z = [rng.uniform(0, 5) for _ in range(rng.randint(1, 8))]
        c = rng.uniform(0, 5)
        assert disappointed_count(z, c) == sum(1 for v in z if v > c)


def test_bound_disappointed_values():
    params = PotentialParams(m=2, n_ref=2, sigma_sq=1.0)
    assert bound_disappointed(0, 2, params) == pytest.approx(2.0, rel=1e-12)
    assert bound_disappointed(0, 4, params) == pytest.approx(0.5, rel=1e-12)
    assert bound_disappointed(100, 10, params) == pytest.approx(
        2 * (4 + 100 * SQRT_E) / 100, rel=1e-12
    )
    with pytest.raises(NonpositiveC):
        bound_disappointed(10, 0.0, params)


def test_bound_disappointed_monotonicity():
    params = PotentialParams(m=4, n_ref=3, sigma_sq=2.0)
    for t in (0, 10, 100):
        vals = [bound_disappointed(t, c, params) for c in (0.5, 1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for c in (0.5, 2.0):
        vals = [bound_disappointed(t, c, params) for t in (0, 1, 10, 100, 1000)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_ct_threshold_values_and_guarantee():
    params = PotentialParams(m=2, n_ref=2, sigma_sq=1.0)
    assert ct_threshold(0, params) == pytest.approx(4.0, rel=1e-12)
    p3 = PotentialParams(m=3, n_ref=2, p=math.log(3))
    assert ct_threshold(0, p3) == pytest.approx(2 * math.e * math.log(3), rel=1e-12)
    for params in (params, p3, PotentialParams(m=12, n_ref=4, sigma_sq=2.0)):
        for t in (0, 1, 17, 1000, 10**6):
            assert bound_disappointed(t, ct_threshold(t, params), params) < 1.0


@pytest.mark.parametrize("params", [PotentialParams(m=12, n_ref=4, sigma_sq=2.0),
                                    PotentialParams(m=6, n_ref=3, sigma_sq=0.5, p=1.7)])
def test_bounds_share_the_written_out_envelope(params):
    """Every closed-form bound is built on 4 p^2 + 2 sqrt(e) p sigma^2 t / n,
    bit for bit (ct_threshold is a CSV column), sigma^2 included."""
    p, m = params.p, params.m
    for t in (0, 1, 17, 1000):
        inner = 4.0 * p * p + 2.0 * SQRT_E * p * params.sigma_sq * t / params.n_ref
        assert ct_threshold(t, params) == math.exp(math.log(m) / p) * math.sqrt(inner)
        assert anytime_psi_bound(t, params) == math.exp(math.log(m) / p) * inner
        assert bound_disappointed(t, 3.0, params) == math.exp(
            math.log(m) + p * (math.log(inner) - 2.0 * math.log(3.0)))


def test_one_step_growth_check():
    params = PotentialParams(m=2, n_ref=2, sigma_sq=1.0)
    assert one_step_growth_check(8.0, 8.0, params)
    assert one_step_growth_check(8.0, 8.0 + 2 * SQRT_E, params)  # exactly at the bound
    assert not one_step_growth_check(8.0, 18.0, params)
    assert one_step_growth_bound(params) == pytest.approx(2 * SQRT_E, rel=1e-12)


def test_anytime_psi_bound_at_zero():
    params = PotentialParams(m=3, n_ref=2, p=math.log(3))
    # at t=0 the bound equals the zero-profile floor
    assert anytime_psi_bound(0, params) == pytest.approx(
        profile_psi([0, 0, 0], params), rel=1e-12
    )


def _simple_candidates(z_next_by_action):
    return from_profiles(list(z_next_by_action.items()))


def test_verify_moment_witness_pass():
    params = PotentialParams(m=1, n_ref=2, sigma_sq=1.0)
    z_prev = [1.0]
    cands = _simple_candidates({0: [0.5], 1: [1.5]})
    w = MomentWitness(ref_actions=(0, 1), delta=np.array([[-0.5, 0.5]]))
    assert verify_moment_witness(z_prev, cands, w, params).ok


def test_verify_moment_witness_first_moment_fail():
    params = PotentialParams(m=1, n_ref=2, sigma_sq=1.0)
    cands = _simple_candidates({0: [1.6], 1: [1.6]})
    w = MomentWitness(ref_actions=(0, 1), delta=np.array([[0.6, 0.6]]))
    rep = verify_moment_witness([1.0], cands, w, params)
    assert not rep.first_moment_ok
    assert rep.worst_first_moment == pytest.approx(1.2)


def test_verify_moment_witness_shift_fail_and_dims():
    params = PotentialParams(m=1, n_ref=2, sigma_sq=1.0)
    cands = _simple_candidates({0: [2.0], 1: [0.0]})
    w = MomentWitness(ref_actions=(0, 1), delta=np.array([[-0.5, 0.5]]))
    rep = verify_moment_witness([1.0], cands, w, params)
    assert not rep.shift_ok and rep.worst_shift_violation == pytest.approx(1.5)
    with pytest.raises(DimensionMismatch):
        verify_moment_witness([1.0, 2.0], cands, w, params)


def test_verify_moment_witness_rejects_unknown_reference_action():
    params = PotentialParams(m=1, n_ref=2, sigma_sq=1.0)
    cands = _simple_candidates({0: [0.5], 1: [1.5]})
    # the rule of ``allocation._check_action``: an integer, not a bool, in range
    for bad in (-1, 2, 0.5, True):
        w = MomentWitness(ref_actions=(0, bad), delta=np.array([[-0.5, 0.5]]))
        with pytest.raises(DimensionMismatch, match=f"reference action id {bad} "):
            verify_moment_witness([1.0], cands, w, params)


def loop_witness_report(z_prev, cands, w, params, tol=1e-9, gamma=1.0) -> WitnessReport:
    """The shift check one reference action at a time, each candidate profile
    built on its own: the oracle for the one-pass check."""
    z_prev = np.asarray(z_prev, dtype=float)
    delta = np.asarray(w.delta, dtype=float)
    worst_shift = 0.0
    for k, a in enumerate(w.ref_actions):
        z_next = cands.base.copy()
        z_next[cands.idx[a]] = cands.val[a]
        allowed = np.maximum(gamma * z_prev + delta[:, k], 0.0)
        worst_shift = max(worst_shift, float(np.max(z_next - allowed)))
    worst_first = float(np.max(delta.sum(axis=1)))
    worst_second = float(np.max((delta * delta).sum(axis=1)))
    return WitnessReport(
        shift_ok=worst_shift <= tol,
        first_moment_ok=worst_first <= tol,
        second_moment_ok=worst_second <= params.sigma_sq + tol,
        range_ok=bool(np.all(np.abs(delta) <= 1.0 + tol)),
        worst_shift_violation=worst_shift,
        worst_first_moment=worst_first,
        worst_second_moment=worst_second,
    )


_UNIT = st.floats(0.0, 1.0)


@st.composite
def witness_rounds(draw):
    """A candidate set of 1-4 actions touching 1..m distinct entries each, a
    witness whose reference actions may repeat, gamma in (0, 1], and with
    ``slack`` a previous profile high enough that every residual is negative."""
    m, actions, n_ref = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    width = draw(st.integers(1, m))
    idx = [draw(st.permutations(range(m)))[:width] for _ in range(actions)]
    val = draw(st.lists(st.lists(_UNIT, min_size=width, max_size=width),
                        min_size=actions, max_size=actions))
    base = draw(st.lists(_UNIT, min_size=m, max_size=m))
    refs = tuple(draw(st.lists(st.integers(0, actions - 1), min_size=n_ref, max_size=n_ref)))
    delta = draw(st.lists(st.lists(st.floats(-1.5, 1.5), min_size=n_ref, max_size=n_ref),
                          min_size=m, max_size=m))
    gamma = draw(st.sampled_from([1.0, 0.9, 0.5]))
    slack = draw(st.booleans())
    z_prev = [v + (5.0 if slack else 0.0) for v in draw(st.lists(_UNIT, min_size=m, max_size=m))]
    return (PotentialParams(m=m, n_ref=n_ref), z_prev, CandidateSet(base, idx, val),
            MomentWitness(refs, np.array(delta)), gamma, slack)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(witness_rounds())
def test_verify_moment_witness_matches_per_action_loop(case):
    params, z_prev, cands, w, gamma, slack = case
    report = verify_moment_witness(z_prev, cands, w, params, gamma=gamma)
    assert report == loop_witness_report(z_prev, cands, w, params, gamma=gamma)
    if slack:  # gamma z + delta >= 0.5 * 5 - 1.5 = 1 >= every candidate entry
        assert report.worst_shift_violation == 0.0 and report.shift_ok


@pytest.mark.parametrize("inst", ["discounted", "pdm", "efc"])
def test_verify_moment_witness_matches_per_action_loop_on_instantiations(inst):
    """gamma < 1 (discounted), repeated favourite outcomes (pdm) and 2 (n-1) L
    touched entries per action (efc), along a potential-rule run."""
    n, gamma = 4, 1.0
    rng = np.random.default_rng(5)
    if inst == "discounted":
        gamma = 0.7
        state, params = allocation.PropxState(n, gamma), allocation.propx_params(n)
        draw = lambda: rng.random(n)
    elif inst == "pdm":
        state, params = public_decisions.PdmState(n, 2), public_decisions.pdm_params(n)
        draw = lambda: rng.random((n, 2))
    else:
        theta = [0.25, 0.5, 1.0]
        state = allocation.EfcThresholdState(n, theta)
        params = allocation.efc_params(n, len(theta))
        draw = lambda: rng.choice([0.0, *theta], n)
    repeats = 0
    for _ in range(60):
        values = draw()
        z_prev, cands, w = state.profile(), state.candidates_of(values), state.witness_of(values)
        repeats += len(set(w.ref_actions)) < len(w.ref_actions)
        report = verify_moment_witness(z_prev, cands, w, params, gamma=gamma)
        assert report == loop_witness_report(z_prev, cands, w, params, gamma=gamma)
        state.apply(values, choose_action(cands, params))
    assert inst != "pdm" or repeats > 0


def test_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(m=2, n_ref=2, p=0.5)
    with pytest.raises(ValueError):
        PotentialParams(m=0, n_ref=2)
    with pytest.raises(ValueError):
        PotentialParams(m=2, n_ref=2, sigma_sq=0.0)


@pytest.mark.parametrize("key,value", [("p", math.nan), ("p", math.inf), ("p", 1e200),
                                       ("sigma_sq", math.nan), ("sigma_sq", math.inf)])
def test_params_refuse_nonfinite_p_and_sigma_sq(key, value):
    """A NaN or infinite p or sigma_sq, or a p whose 4 p^2 overflows, is
    refused: every potential term would be NaN and every bound inf."""
    with pytest.raises(ValueError, match=f"'{key}'"):
        PotentialParams(m=2, n_ref=2, **{key: value})
