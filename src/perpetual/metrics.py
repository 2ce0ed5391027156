"""Inequality metrics over deficit profiles: Gini and the Gini mean difference,
plus the potential-based GMD envelope."""
from __future__ import annotations

import math

import numpy as np

from .framework import PotentialParams


def metrics_rows(z) -> tuple[np.ndarray, np.ndarray]:
    """(Gini, GMD) of each row of z (rounds, m), from one sort.  Gini(z) =
    (1 / (2 m T)) * sum_{q,q'} |z_q - z_q'| with T = sum z (0 when T <= 0),
    via the sorted prefix-sum identity in O(m log m); the Gini mean
    difference (1/m^2) sum_{q,q'} |z_q - z_q'| = 2 * mean * Gini."""
    m = z.shape[1]
    total = z.sum(axis=1)
    live = ~(total <= 0.0)
    # sum over ordered pairs of |z_q - z_q'| = 2 * sum_k (2k - m - 1) z_(k), k = 1..m
    pairwise = 2.0 * (np.arange(1 - m, m, 2) * np.sort(z, axis=1)).sum(axis=1)
    g = np.divide(pairwise, 2.0 * m * total, out=np.zeros(len(z)), where=live)
    return g, 2.0 * np.divide(total, m, out=np.zeros(len(z)), where=live) * g


def metrics(z) -> tuple[float, float]:
    """(Gini(z), GMD(z)) of one profile; see ``metrics_rows``."""
    g, d = metrics_rows(np.asarray(z, dtype=float)[None])
    return float(g[0]), float(d[0])


def gini(z) -> float:
    """Gini(z); see ``metrics``."""
    return metrics(z)[0]


def gmd(z) -> float:
    """Gini mean difference GMD(z); see ``metrics``."""
    return metrics(z)[1]


def gmd_bound(psi: float, params: PotentialParams) -> float:
    """Envelope GMD(z) <= 2 * m^(-1/(2p)) * sqrt(Psi); psi may hold one
    Psi per row."""
    return 2.0 * math.exp(-math.log(params.m) / (2.0 * params.p)) * np.sqrt(psi)
