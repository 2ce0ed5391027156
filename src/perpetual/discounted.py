"""Limited-memory variants: windowed deficits (for the counterexample) and
the bounds of gamma-discounted proportionality.

The discounted state is ``allocation.PropxState(n, gamma)``: the same
candidates, witness and parameters as the undiscounted case, with the moment
witness verified against the gamma-shift form.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from .allocation import GammaOutOfRange, PropxState
from .framework import SQRT_E, PotentialParams, _envelope, normalized


def _check_gamma(gamma: float) -> float:
    if not (0.0 < gamma < 1.0):
        raise GammaOutOfRange("gamma must lie in (0, 1)")
    return float(gamma)


class WindowState:
    """Ring buffer of the last W rounds' (values, recipient)."""

    def __init__(self, n: int, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.n = n
        self.window = window
        self.buffer: deque = deque(maxlen=window)

    def apply(self, values, recipient: int) -> None:
        self.buffer.append((np.asarray(values, dtype=float).copy(), recipient))


def windowed_deficit(s: WindowState, agent: int) -> float:
    """d_i over the buffered window: (1/n) * windowed total - windowed receipts."""
    prop = sum(v[agent] for v, _ in s.buffer) / s.n
    got = sum(v[agent] for v, r in s.buffer if r == agent)
    return float(prop - got)


def g_gamma(t: int, gamma: float) -> float:
    """G_gamma(t) = sum_{l=0}^{t-1} gamma^(2l) = (1 - gamma^(2t)) / (1 - gamma^2)."""
    _check_gamma(gamma)
    return (1.0 - gamma ** (2 * t)) / (1.0 - gamma * gamma)


def c_gamma_prefix(params: PotentialParams, gamma: float, t: int) -> float:
    """Prefix bound e * sqrt(4 p^2 + 2 sqrt(e) p sigma^2 G_gamma(t) / n)."""
    return math.e * math.sqrt(_envelope(g_gamma(t, gamma), params))


def c_gamma(params: PotentialParams, gamma: float) -> float:
    """Time-uniform bound: c_gamma = e * sqrt(4 p^2 + 2 sqrt(e) p sigma^2 / (n (1 - gamma^2)))."""
    _check_gamma(gamma)
    p = params.p
    inner = 4.0 * p * p + 2.0 * SQRT_E * p * params.sigma_sq / (params.n_ref * (1.0 - gamma * gamma))
    return math.e * math.sqrt(inner)


def inflation_equiv_check(gamma: float, rounds, rel_tol: float = 1e-9,
                          max_rounds: int = 200) -> tuple[bool, float]:
    """Dual-ledger equivalence: the decay ledger (aggregates multiplied by
    gamma each round) and the beta-inflated ledger (beta = 1/gamma; the
    round-t contribution enters weighted by beta^t and is never decayed)
    describe the same normalized deficits after rescaling,
    z^{t,gamma} = beta^(-t) * z-bar^t.

    ``rounds`` is an iterable of (values, recipient).  Capped at
    ``max_rounds`` because beta^t overflows beyond desk scale.
    Returns (pass, worst relative difference over all prefixes).
    """
    _check_gamma(gamma)
    beta = 1.0 / gamma
    decay = None
    worst = 0.0
    weight = 1.0  # beta^t
    for t, (values, recipient) in enumerate(rounds, start=1):
        if t > max_rounds:
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
    return worst <= rel_tol, worst
