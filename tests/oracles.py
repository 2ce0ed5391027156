"""Full-history oracles shared by the test modules: each recomputes from the
whole round history what a state keeps as running aggregates."""
from __future__ import annotations

import numpy as np

from perpetual.allocation import EfcThresholdState, EfxState
from perpetual.framework import safe_div


def efk_oracle(bundles, i, j, k):
    """Recompute from full history: remove the k highest v_i items from P_j."""
    vals = sorted((v[i] for v in bundles[j]), reverse=True)
    envy = sum(vals) - sum(v[i] for v in bundles[i])
    return envy - sum(vals[:k]) <= 1e-9


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
