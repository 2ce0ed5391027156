"""Inequality metrics over deficit profiles: Gini and the Gini mean difference,
plus the potential-based GMD envelope."""
from __future__ import annotations

import math

import numpy as np

from .framework import PotentialParams


def metrics(z) -> tuple[float, float]:
    """(Gini(z), GMD(z)) from one sort.  Gini(z) = (1 / (2 m T)) *
    sum_{q,q'} |z_q - z_q'| with T = sum z, by convention 0 for the all-zero
    profile, via the sorted prefix-sum identity in O(m log m); the Gini mean
    difference (1/m^2) sum_{q,q'} |z_q - z_q'| = 2 * mean * Gini."""
    z = np.asarray(z, dtype=float)
    m = len(z)
    total = float(z.sum())
    if total <= 0.0:
        return 0.0, 0.0
    # sum over ordered pairs of |z_q - z_q'| = 2 * sum_k (2k - m - 1) z_(k), k = 1..m
    pairwise = 2.0 * float((np.arange(1 - m, m, 2) * np.sort(z)).sum())
    g = pairwise / (2.0 * m * total)
    return g, 2.0 * (total / m) * g


def gini(z) -> float:
    """Gini(z); see ``metrics``."""
    return metrics(z)[0]


def gmd(z) -> float:
    """Gini mean difference GMD(z); see ``metrics``."""
    return metrics(z)[1]


def gmd_bound(psi: float, params: PotentialParams) -> float:
    """Envelope GMD(z) <= 2 * m^(-1/(2p)) * sqrt(Psi)."""
    return 2.0 * math.exp(-math.log(params.m) / (2.0 * params.p)) * math.sqrt(psi)
