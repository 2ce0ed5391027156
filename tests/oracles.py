"""Oracles shared by the test modules: full-history ones, each recomputing from
the whole round history what a state keeps as running aggregates, a one-round
one for the state updates, a round-by-round one for the block-wise witness
check, the windowed deficits and the inflated ledger of the limited-memory
results, the ``Fraction`` LP, and linear ``Fraction`` scans for the exact
solver's AUX and EXP."""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from perpetual.allocation import EfcThresholdState, EfxState, PropxState
from perpetual.discounted import _check_gamma
from perpetual.exact_game import INF, _lp, _scaled, is_inf
from perpetual.framework import normalized, verify_moment_witness
from perpetual.public_decisions import PdmState
from perpetual.simulate import _play, build_harness


def safe_div(x: float, y: float) -> float:
    """Total scale division: x / y when y > 0, else 0 (the 0/0 convention
    of every scale-normalized deficit)."""
    return x / y if y > 0 else 0.0


def efk_oracle(bundles, i, j, k):
    """Recompute from full history: remove the k highest v_i items from P_j."""
    vals = sorted((v[i] for v in bundles[j]), reverse=True)
    envy = sum(vals) - sum(v[i] for v in bundles[i])
    return envy - sum(vals[:k]) <= 1e-9


def naive_propx(rounds, n, gamma=1.0):
    """The PROP-times-c profile after ``rounds``, a list of (values,
    recipient), with round t of T weighted by gamma^(T-t); gamma = 1 is the
    undiscounted case (the weights 1.0 ** k are exact)."""
    T = len(rounds)
    total = np.zeros(n)
    util = np.zeros(n)
    scale = np.zeros(n)
    for t, (x, a) in enumerate(rounds, 1):
        x = np.asarray(x, float)
        w = gamma ** (T - t)
        total += w * x
        util[a] += w * x[a]
        for i in range(n):
            if i != a:
                scale[i] = max(scale[i], x[i])
    d = total / n - util
    return np.array([safe_div(max(di, 0.0), si) for di, si in zip(d, scale)])


def naive_pdm(rounds, n):
    """The public-decision profile after ``rounds``, a list of (values,
    outcome) with values of shape (n, outcomes)."""
    util = np.zeros(n)
    prop = np.zeros(n)
    run_max = np.zeros(n)
    for v, o in rounds:
        v = np.asarray(v, float)
        fav = v.max(axis=1)
        prop += fav / n
        util += v[:, o]
        run_max = np.maximum(run_max, fav)
    d = prop - util
    return np.array([safe_div(max(di, 0.0), vi) for di, vi in zip(d, run_max)])


def naive_efx(rounds, n):
    """The EF-times-c profile after ``rounds``, a list of (values, recipient)."""
    cross = np.zeros((n, n))
    scale = np.zeros((n, n))
    for x, a in rounds:
        cross[:, a] += np.asarray(x, float)
        for i in range(n):
            if i != a:
                scale[i, a] = max(scale[i, a], x[i])
    ref = EfxState(n)
    z = np.zeros(ref.m)
    for i in range(n):
        for j in range(n):
            if i != j:
                envy = cross[i, j] - cross[i, i]
                z[ref.quality_index(i, j)] = safe_div(max(envy, 0.0), scale[i, j])
    return z


def naive_efc(rounds, n, theta):
    """The EFc threshold-count profile after ``rounds`` of (values, recipient)."""
    ref = EfcThresholdState(n, theta)
    counts = np.zeros((n, n, len(theta)))
    for x, a in rounds:
        for i in range(n):
            for l, th in enumerate(sorted(theta)):
                if x[i] >= th:
                    counts[i, a, l] += 1
    z = np.zeros(ref.m)
    for i in range(n):
        for j in range(n):
            if i != j:
                for l in range(len(theta)):
                    z[ref.quality_index(i, j, l)] = max(
                        counts[i, j, l] - counts[i, i, l], 0.0)
    return z


def windowed_deficits(rounds, n: int, window: int) -> np.ndarray:
    """Each agent's deficit over the last ``window`` of ``rounds``, a list of
    (values, recipient): 1/n of its windowed total less its windowed receipts."""
    last = rounds[-window:]
    prop = sum((np.asarray(v, float) for v, _ in last), np.zeros(n)) / n
    got = np.array([sum(v[i] for v, r in last if r == i) for i in range(n)], float)
    return prop - got


#: the inflation check's relative tolerance, and its round cap (beta^t overflows past desk scale)
INFLATION_REL_TOL = 1e-9
INFLATION_MAX_ROUNDS = 200


def inflation_equiv_check(gamma: float, rounds) -> tuple[bool, float]:
    """Dual-ledger equivalence: the decay ledger (aggregates multiplied by
    gamma each round) and the beta-inflated ledger (beta = 1/gamma; the
    round-t contribution enters weighted by beta^t and is never decayed)
    describe the same normalized deficits after rescaling,
    z^{t,gamma} = beta^(-t) * z-bar^t.

    ``rounds`` is an iterable of (values, recipient); only the first
    ``INFLATION_MAX_ROUNDS`` are checked.
    Returns (pass, worst relative difference over all prefixes).
    """
    _check_gamma(gamma)
    beta = 1.0 / gamma
    decay = None
    worst = 0.0
    weight = 1.0  # beta^t
    for t, (values, recipient) in enumerate(rounds, start=1):
        if t > INFLATION_MAX_ROUNDS:
            break
        x = np.asarray(values, dtype=float)
        if decay is None:
            decay = PropxState(len(x), gamma)
            bar_util = np.zeros(len(x))
            bar_total = np.zeros(len(x))
        decay.apply(x, recipient)
        weight *= beta
        bar_total += weight * x
        bar_util[recipient] += weight * x[recipient]
        # the scale is undecayed in both ledgers
        z_bar = normalized(bar_total / decay.n - bar_util, decay.missed_max)
        z = decay.profile()
        z_from_bar = z_bar / weight
        denom = np.maximum(np.abs(z), np.abs(z_from_bar))
        rel = np.where(denom > 0, np.abs(z - z_from_bar) / np.maximum(denom, 1e-300), 0.0)
        worst = max(worst, float(np.max(rel)))
    return worst <= INFLATION_REL_TOL, worst


def applied_oracle(state, values, action) -> dict:
    """The aggregates ``state`` holds after the round (values, action), by
    update formulas that read the raw values and no prepared item: attribute
    name -> array."""
    v = np.asarray(values, float)
    if isinstance(state, PdmState):
        fav = v.max(axis=1)
        return {"prop": state.prop + fav / state.n, "util": state.util + v[:, action],
                "run_max": np.maximum(state.run_max, fav)}
    missed = v.copy()
    missed[action] = 0.0
    if isinstance(state, PropxState):
        bundle = state.bundle_value * state.gamma
        bundle[action] += v[action]
        return {"bundle_value": bundle, "total_value": state.total_value * state.gamma + v,
                "missed_max": np.maximum(state.missed_max, missed)}
    if isinstance(state, EfxState):
        cross, scale = state.cross_value.copy(), state.pair_scale.copy()
        cross[:, action] += v
        scale[:, action] = np.maximum(scale[:, action], missed)
        return {"cross_value": cross, "pair_scale": scale}
    counts = state.counts.copy()
    counts[:, action, :] += v[:, None] >= np.array(state.theta)
    return {"counts": counts}


def verify_moments_oracle(cfg):
    """``verify_moments_run`` one round at a time: each round's witness is
    checked by ``verify_moment_witness`` in its round and folded in order."""
    h = build_harness(cfg)
    ok, worst = True, 0.0

    def check(item, cands):
        nonlocal ok, worst
        report = verify_moment_witness(h.state.profile(), cands, h.state.witness(item),
                                       h.params, gamma=h.shift_gamma)
        ok = ok and report.ok
        worst = max(worst, report.worst_shift_violation, report.worst_first_moment,
                    max(0.0, report.worst_second_moment - h.params.sigma_sq))

    for _ in _play(cfg, h, check):
        pass
    return ok, worst


def lp_solve(x: tuple, i: int) -> tuple:
    """Maximize y subject to y + (n-1) z <= x_i, y - z <= x_j (j != i),
    0 <= z <= 1.  Closed form: with mu = min_{j != i} x_j,
    z* = clamp((x_i - mu)/n, 0, 1) and Y = min(x_i - (n-1) z*, mu + z*);
    infinite coordinates are resolved before any subtraction.  Solved by
    the exact solver's integer LP, ``exact_game._lp``.

    Returns (Y, z*) with Y extended-rational and z* a Fraction in [0, 1].
    """
    n = len(x)
    (xs,), scale = _scaled([x])
    unit = n * scale
    top = max((v for v in xs if v != INF), default=0) + unit
    xs = np.array([top if v == INF else v for v in xs], dtype=object)
    (y,), (z,) = _lp(xs[i:i + 1], np.delete(xs, i).min(keepdims=True), n, unit)
    return INF if y == n * top else Fraction(y, unit), Fraction(z, unit)


def surplus_update(delta: tuple, values: tuple, recipient: int) -> tuple:
    """Shifted-surplus step: the recipient gains (n-1) times their value,
    everyone else loses theirs."""
    n = len(delta)
    return tuple(
        delta[j] + (n - 1) * values[j] if j == recipient else delta[j] - values[j]
        for j in range(n)
    )


def dominates(p: tuple, x: tuple) -> bool:
    """Strict domination in every coordinate; INF > any finite value."""
    return all(pi > xi for pi, xi in zip(p, x))


def oracle_aux(x, builder, k_max):
    """The Fraction domination scan over FrontierBuilder.get levels, D^0 up;
    a state with a negative coordinate has already lost."""
    if any(not is_inf(v) and v < 0 for v in x):
        return 0
    for k in range(k_max + 1):
        if any(dominates(p, x) for p in builder.get(k)):
            return k
    return k_max + 1


def oracle_exp_policy(delta, values, builder, k_max):
    """The recipient whose ``surplus_update`` post-state has the largest
    ``oracle_aux``, every recipient scanned; ties -> lowest index."""
    taus = [oracle_aux(surplus_update(delta, values, i), builder, k_max)
            for i in range(len(delta))]
    return taus.index(max(taus))
