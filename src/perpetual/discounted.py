"""The bounds of gamma-discounted proportionality: G_gamma(t), the prefix
bound c_gamma(t) and the time-uniform bound c_gamma.

The discounted state is ``allocation.PropxState(n, gamma)``: the same
candidates, witness and parameters as the undiscounted case, with the moment
witness verified against the gamma-shift form.
"""
from __future__ import annotations

import math

from .allocation import GammaOutOfRange
from .framework import SQRT_E, PotentialParams, _envelope


def _check_gamma(gamma: float) -> float:
    if not (0.0 < gamma < 1.0):
        raise GammaOutOfRange("gamma must lie in (0, 1)")
    return float(gamma)


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
