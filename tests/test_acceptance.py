"""Acceptance gate: one test (and one pass/fail line) per headline guarantee.

Each test prints an explicit ``[criterion NN] PASS/FAIL`` line in addition to
the pytest verdict, so a verbose run reads as a checklist.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from perpetual import allocation, discounted as disc, exact_game as eg, public_decisions as pdm_mod
from perpetual.baselines import StreamSpec, make_policy, run_lb_game, stream_generate
from perpetual.cli import cli_dispatch
from perpetual.discounted import (
    WindowState,
    c_gamma,
    inflation_equiv_check,
    windowed_deficit,
)
from perpetual.framework import (
    choose_action,
    ct_threshold,
    one_step_growth_bound,
    profile_psi,
    safe_div,
    verify_moment_witness,
)
from perpetual.prng import Xoshiro256StarStar

from oracles import efk_oracle, naive_efc, naive_efx


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def _uniform(n, length, seed):
    return stream_generate(StreamSpec("uniform_random", n, length, seed=seed))


# ---------------------------------------------------------------------------
# 1. prefix-wise proportionality bound
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _propx_run(n, seed):
    """The potential rule on a 1e4-round uniform stream, through the same path
    as ``simulate`` (PropxState -> propx_candidates -> choose_action).
    Returns the worst prefix slack max_{d_i > 0} (d_i - ct * U_i) and the
    worst one-step growth slack of Psi; criteria 01 and 02 share the run."""
    state = allocation.PropxState(n)
    params = allocation.propx_params(n)
    growth = one_step_growth_bound(params)
    psi = profile_psi(state.profile(), params)
    worst_prefix = worst_growth = -math.inf
    for t, x in enumerate(_uniform(n, 10_000, seed), 1):
        state.apply(x, choose_action(allocation.propx_candidates(state, x), params))
        nxt = profile_psi(state.profile(), params)
        worst_growth = max(worst_growth, nxt - psi - growth)
        psi = nxt
        d = state.deficits()
        owed = d > 0.0
        if owed.any():
            slack = d[owed] - ct_threshold(t, params) * state.missed_max[owed]
            worst_prefix = max(worst_prefix, float(slack.max()))
    return worst_prefix, worst_growth


def test_criterion_01_prefix_proportionality_bound():
    worst = -math.inf
    for n in (2, 3, 5):
        for seed in range(20):
            worst = max(worst, _propx_run(n, seed)[0])
    _report(1, "max positive deficit <= ct * missed-scale at every prefix "
               "(n in {2,3,5}, 20 seeds, length 1e4)",
            worst <= 1e-9, f"worst slack {worst:.3e}")


# ---------------------------------------------------------------------------
# 2. one-step potential growth
# ---------------------------------------------------------------------------

def _generic_growth_slack(state, candidates, params, rounds):
    bound = one_step_growth_bound(params)
    worst = -math.inf
    psi = profile_psi(state.profile(), params)
    for values in rounds:
        cands = candidates(state, values)
        state.apply(values, choose_action(cands, params))
        nxt = profile_psi(state.profile(), params)
        worst = max(worst, nxt - psi - bound)
        psi = nxt
    return worst


def test_criterion_02_one_step_growth_bound():
    worst = -math.inf
    for n in (2, 3, 5):
        for seed in range(20):
            worst = max(worst, _propx_run(n, seed)[1])
    n = 3
    worst = max(worst, _generic_growth_slack(
        allocation.EfxState(n), allocation.efx_candidates,
        allocation.efx_params(n), _uniform(n, 1000, seed=90)))
    worst = max(worst, _generic_growth_slack(
        pdm_mod.PdmState(n, 4), pdm_mod.pdm_candidates, pdm_mod.pdm_params(n),
        stream_generate(StreamSpec("uniform_random", n, 1000, seed=91, width=4))))
    theta = [0.25, 0.5, 1.0]
    worst = max(worst, _generic_growth_slack(
        allocation.EfcThresholdState(n, theta), allocation.efc_candidates,
        allocation.efc_params(n, len(theta)),
        stream_generate(StreamSpec("choice", n, 1000, seed=92,
                                   params={"values": theta}))))
    _report(2, "psi growth per round <= 2 sqrt(e) p sigma^2 m^(1/p) / n on all runs",
            worst <= 1e-9, f"worst slack {worst:.3e}")


# ---------------------------------------------------------------------------
# 3. exact game value via CLI
# ---------------------------------------------------------------------------

def test_criterion_03_exact_aux_value(capsys):
    code = cli_dispatch(["exact", "aux", "--n", "2", "--c", "1", "--state", "2,2"])
    out = capsys.readouterr().out.strip()
    with capsys.disabled():
        _report(3, "exact aux --n 2 --c 1 --state 2,2 prints 10, exit 0",
                code == 0 and out == "10", f"exit {code}, output {out!r}")


# ---------------------------------------------------------------------------
# 4. lower-bound game forces a violation for every policy
# ---------------------------------------------------------------------------

def test_criterion_04_lower_bound_game():
    failures = []
    for n, c in ((2, 1.0), (3, 1.0), (2, 2.0), (5, 1.0)):
        limit = int(4900 * n * c * c)
        names = ["round_robin", "util_greedy", "deficit_greedy", "potential",
                 "constant"]
        if n == 2:
            names.append("benade2")
        if (n, c) == (2, 1.0):
            names.append("exp_exact")
        for name in names:
            pol = make_policy(name, n, c=c, T=limit, k_max=9)
            res = run_lb_game(pol, n, c, limit)
            if res.violation_round is None or res.violation_round > limit:
                failures.append(f"{name}@(n={n},c={c}): no violation")
            elif not res.monitor_ok:
                failures.append(f"{name}@(n={n},c={c}): monitor "
                                f"{res.worst_monitor_violation:.3e}")
    _report(4, "adversary forces bPROP(c) violation within 4900 n c^2 rounds, "
               "all invariants monitored", not failures, "; ".join(failures))


# ---------------------------------------------------------------------------
# 5. worked-allocation golden
# ---------------------------------------------------------------------------

def test_criterion_05_deficit_greedy_golden():
    eps = 0.01
    pol = make_policy("deficit_greedy", 2)
    choices = []
    for v in stream_generate(StreamSpec("table1", 2, 6, params={"eps": eps})):
        a = pol.choose(v)
        pol.update(v, a)
        choices.append(a + 1)
    d = pol.state.deficits()
    ok = (choices == [1, 2, 2, 1, 2, 1]
          and abs(d[0] - (2 - 2 * eps) / 2) <= 1e-12
          and abs(d[1] - (3 - 3 * eps) / 2) <= 1e-12)
    _report(5, "deficit-greedy on the alternating 1/eps stream reproduces the "
               "worked allocation and round-6 deficits",
            ok, f"choices {choices}, deficits {d}")


# ---------------------------------------------------------------------------
# 6. two-agent hedging rule on the linear-envy stream
# ---------------------------------------------------------------------------

def test_criterion_06_benade2_linear_envy():
    pol = make_policy("benade2", 2, T=400)
    cross = np.zeros((2, 2))
    choices = []
    for v in stream_generate(StreamSpec("benade_linear", 2, 20,
                                        params={"T": 400, "rho": 0.1})):
        a = pol.choose(v)
        pol.update(v, a)
        cross[:, a] += v
        choices.append(a)
    envy = cross[1, 0] - cross[1, 1]
    ok = choices == [0] * 20 and abs(envy - 2.0) <= 1e-12
    _report(6, "two-agent hedging rule gives the first 20 items to one agent; "
               "the other's envy is 2.0 at t=20", ok, f"envy {envy!r}")


# ---------------------------------------------------------------------------
# 7. classical envy-freeness up to ceil(ct) items
# ---------------------------------------------------------------------------

def test_criterion_07_classical_ef_up_to_k():
    n, theta = 3, [0.25, 0.5, 1.0, 2.0]
    # the ledger caps values at 2; rescale sigma handling is unaffected since
    # only the counts enter the deficits
    params = allocation.efc_params(n, len(theta))
    ok = True
    for seed in (70, 71):
        state = allocation.EfcThresholdState(n, theta)
        bundles = [[] for _ in range(n)]
        for t, v in enumerate(stream_generate(
                StreamSpec("choice", n, 2000, seed=seed,
                           params={"values": theta})), 1):
            a = choose_action(allocation.efc_candidates(state, v), params)
            state.apply(v, a)
            bundles[a].append(list(v))
            k = math.ceil(ct_threshold(t, params))
            checks = allocation.check_efk(state, k)
            if not all(checks.values()):
                ok = False
            for i in range(n):
                for j in range(n):
                    if i != j and not efk_oracle(bundles, i, j, k):
                        ok = False
    _report(7, "threshold-count rule is envy-free up to ceil(ct) items at "
               "every prefix (fast check and full-history oracle)", ok)


# ---------------------------------------------------------------------------
# 8. discounted time-uniform bound
# ---------------------------------------------------------------------------

def test_criterion_08_discounted_uniform_bound():
    gamma, n = 0.9, 2
    params = allocation.propx_params(n)
    bound = c_gamma(params, gamma)
    worst = -math.inf
    streams = (
        _uniform(n, 100_000, 101),
        stream_generate(StreamSpec("bernoulli", n, 100_000, seed=202,
                                   params={"prob": 0.9})),
    )
    for stream in streams:
        state = allocation.PropxState(n, gamma)
        for v in stream:
            cands = allocation.propx_candidates(state, v)
            state.apply(v, choose_action(cands, params))
            worst = max(worst, float(np.max(state.profile())) - bound)
    # dual-ledger equivalence on a fresh policy-driven prefix
    state = allocation.PropxState(n, gamma)
    run = []
    for v in _uniform(n, 200, seed=303):
        a = choose_action(allocation.propx_candidates(state, v), params)
        state.apply(v, a)
        run.append((v, a))
    infl_ok, infl_worst = inflation_equiv_check(gamma, run, rel_tol=1e-9)
    _report(8, "discounted deficits stay below c_gamma on 1e5-round random "
               "streams; inflated ledger matches for t <= 200",
            worst <= 1e-9 and infl_ok,
            f"worst slack {worst:.3e}, inflation {infl_worst:.3e}")


# ---------------------------------------------------------------------------
# 9. bounded windows hide linear unfairness
# ---------------------------------------------------------------------------

def test_criterion_09_window_counterexample():
    n, W = 2, 3
    win = WindowState(n, window=W)
    total = np.zeros(n)
    util = np.zeros(n)
    ok = True
    for t, v in enumerate(stream_generate(StreamSpec("window_cycle", n, 300)), 1):
        a = 0 if t % 3 == 1 else 1
        win.apply(v, a)
        total += np.asarray(v)
        util[a] += v[a]
        if t >= 3:
            if max(windowed_deficit(win, i) for i in range(n)) > 0.2 + 1e-9:
                ok = False
        if t % 3 == 0:
            K = t // 3
            full = total[1] / n - util[1]
            if abs(full - 0.2 * K) > 1e-9:
                ok = False
    _report(9, "windowed deficits stay <= 0.2 while the full-history deficit "
               "grows as 0.2 K at t = 3K", ok)


# ---------------------------------------------------------------------------
# 10. oracle equivalence suite
# ---------------------------------------------------------------------------

def _naive_propx(history, n, cand, values):
    rounds = history + [(np.asarray(values, float), cand)]
    total = np.zeros(n)
    util = np.zeros(n)
    scale = np.zeros(n)
    for x, a in rounds:
        total += x
        util[a] += x[a]
        for i in range(n):
            if i != a:
                scale[i] = max(scale[i], x[i])
    d = total / n - util
    return np.array([safe_div(max(di, 0.0), si) for di, si in zip(d, scale)])


def _naive_pdm(history, n, cand, values):
    rounds = history + [(np.asarray(values, float), cand)]
    util = np.zeros(n)
    prop = np.zeros(n)
    run_max = np.zeros(n)
    for v, o in rounds:
        fav = v.max(axis=1)
        prop += fav / n
        util += v[:, o]
        run_max = np.maximum(run_max, fav)
    d = prop - util
    return np.array([safe_div(max(di, 0.0), vi) for di, vi in zip(d, run_max)])


def _naive_discounted(history, n, gamma, cand, values):
    rounds = history + [(np.asarray(values, float), cand)]
    T = len(rounds)
    total = np.zeros(n)
    util = np.zeros(n)
    scale = np.zeros(n)
    for t, (x, a) in enumerate(rounds, 1):
        w = gamma ** (T - t)
        total += w * x
        util[a] += w * x[a]
        for i in range(n):
            if i != a:
                scale[i] = max(scale[i], x[i])
    d = total / n - util
    return np.array([safe_div(max(di, 0.0), si) for di, si in zip(d, scale)])


def _run_candidate_oracle(state, candidates, params, stream, naive, actions):
    history = []
    ok = True
    for values in stream:
        x = np.asarray(values, float)
        cands = candidates(state, x)
        for a in actions:
            if not np.allclose(cands.profile(a), naive(history, a, x),
                               rtol=1e-12, atol=1e-12):
                ok = False
        chosen = choose_action(cands, params)
        state.apply(x, chosen)
        history.append((x, chosen))
    return ok


def _witness_suite(state, candidates, witness, params, stream, gamma=1.0):
    for values in stream:
        rep = verify_moment_witness(state.profile(), candidates(state, values),
                                    witness(state, values), params, gamma=gamma)
        if not rep.ok:
            return False
        state.apply(values, choose_action(candidates(state, values), params))
    return True


def test_criterion_10_oracle_equivalence_suite():
    import random

    ok = True

    # fast candidate evaluation vs full-history recomputation, 50 rounds each
    ok &= _run_candidate_oracle(
        allocation.PropxState(5), allocation.propx_candidates,
        allocation.propx_params(5), _uniform(5, 50, seed=1),
        lambda h, a, x: _naive_propx(h, 5, a, x), range(5))
    ok &= _run_candidate_oracle(
        allocation.EfxState(4), allocation.efx_candidates,
        allocation.efx_params(4), _uniform(4, 50, seed=2),
        lambda h, a, x: naive_efx(h + [(x, a)], 4), range(4))
    theta = [0.25, 0.5, 1.0]
    ok &= _run_candidate_oracle(
        allocation.EfcThresholdState(3, theta), allocation.efc_candidates,
        allocation.efc_params(3, 3),
        stream_generate(StreamSpec("choice", 3, 50, seed=3,
                                   params={"values": theta})),
        lambda h, a, x: naive_efc(h + [(x, a)], 3, theta), range(3))
    ok &= _run_candidate_oracle(
        pdm_mod.PdmState(4, 3), pdm_mod.pdm_candidates, pdm_mod.pdm_params(4),
        stream_generate(StreamSpec("uniform_random", 4, 50, seed=4, width=3)),
        lambda h, a, x: _naive_pdm(h, 4, a, x), range(3))
    ok &= _run_candidate_oracle(
        allocation.PropxState(3, 0.9), allocation.propx_candidates,
        allocation.propx_params(3), _uniform(3, 50, seed=5),
        lambda h, a, x: _naive_discounted(h, 3, 0.9, a, x), range(3))

    # lp_solve vs grid oracle
    rng = random.Random(10)
    q = 400
    for _ in range(25):
        x = tuple(Fraction(rng.randint(0, 32), 8) for _ in range(2))
        for i in range(2):
            y, _ = eg.lp_solve(x, i)
            mu = x[1 - i]
            best = max(min(x[i] - Fraction(k, q), mu + Fraction(k, q))
                       for k in range(q + 1))
            if not (best <= y and y - best <= Fraction(2, q)):
                ok = False

    # pruned vs unpruned dominated-region equality, k <= 4
    pruned = eg.FrontierBuilder(2, prune=True)
    raw = eg.FrontierBuilder(2, prune=False)
    grid = [Fraction(k, 4) for k in range(17)]
    for k in range(5):
        p, r = pruned.get(k), raw.get(k)
        for x0 in grid:
            for x1 in grid:
                x = (x0, x1)
                if any(eg.dominates(pt, x) for pt in p) != any(
                        eg.dominates(pt, x) for pt in r):
                    ok = False

    # moment witnesses on 1e3 random rounds per instantiation
    ok &= _witness_suite(allocation.PropxState(3), allocation.propx_candidates,
                         allocation.propx_witness, allocation.propx_params(3),
                         _uniform(3, 1000, seed=6))
    ok &= _witness_suite(allocation.EfxState(3), allocation.efx_candidates,
                         allocation.efx_witness, allocation.efx_params(3),
                         _uniform(3, 1000, seed=7))
    ok &= _witness_suite(allocation.EfcThresholdState(3, theta),
                         allocation.efc_candidates, allocation.efc_witness,
                         allocation.efc_params(3, 3),
                         stream_generate(StreamSpec("choice", 3, 1000, seed=8,
                                                    params={"values": theta})))
    ok &= _witness_suite(pdm_mod.PdmState(3, 3), pdm_mod.pdm_candidates,
                         pdm_mod.pdm_witness, pdm_mod.pdm_params(3),
                         stream_generate(StreamSpec("uniform_random", 3, 1000,
                                                    seed=9, width=3)))
    ok &= _witness_suite(allocation.PropxState(2, 0.9), allocation.propx_candidates,
                         allocation.propx_witness, allocation.propx_params(2),
                         _uniform(2, 1000, seed=10), gamma=0.9)

    _report(10, "fast paths match naive recomputation; witnesses verify on "
                "1e3 random rounds per instantiation", bool(ok))
