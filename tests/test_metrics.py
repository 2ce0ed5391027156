"""Gini, Gini mean difference, and the potential-based GMD envelope."""
from __future__ import annotations

import math

import numpy as np
import pytest

from perpetual.allocation import PropxState, propx_candidates, propx_params
from perpetual.framework import choose_action, profile_psi
from perpetual.metrics import gini, gmd, gmd_bound
from perpetual.prng import Xoshiro256StarStar


def pairwise_abs_sum(z):
    return sum(abs(a - b) for a in z for b in z)


def test_gini_examples():
    assert gini([0.0, 0.0]) == 0.0
    assert gini([1.0, 1.0, 1.0]) == 0.0
    assert gini([1.0, 0.0]) == pytest.approx(0.5)
    assert gini([2.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75)


def test_gmd_examples():
    assert gmd([1.0, 0.0]) == pytest.approx(0.5)
    assert gmd([]) == 0.0
    assert gmd([3.0]) == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gini_gmd_match_quadratic_oracle(seed):
    rng = Xoshiro256StarStar(seed)
    for _ in range(30):
        m = 2 + rng.next_index(9)
        z = [3.0 * rng.next_double() for _ in range(m)]
        pair = pairwise_abs_sum(z)
        total = sum(z)
        assert gini(z) == pytest.approx(pair / (2 * m * total), rel=1e-12)
        assert gmd(z) == pytest.approx(pair / (m * m), rel=1e-12)
        # dual formula: GMD = 2 * mean * Gini, which is how gmd computes it
        assert gmd(z) == 2 * np.mean(z) * gini(z)


def test_gini_scale_invariance_and_range():
    rng = Xoshiro256StarStar(9)
    for _ in range(20):
        z = [rng.next_double() for _ in range(5)]
        g = gini(z)
        assert 0.0 <= g < 1.0
        assert gini([7.5 * v for v in z]) == pytest.approx(g, rel=1e-12)


def test_gmd_bound_holds_along_a_run():
    n = 4
    state = PropxState(n)
    params = propx_params(n)
    rng = Xoshiro256StarStar(23)
    for _ in range(300):
        x = np.array([rng.next_double() for _ in range(n)])
        a = choose_action(propx_candidates(state, x), params)
        state.apply(x, a)
        z = state.profile()
        bound = gmd_bound(profile_psi(z, params), params)
        assert gmd(z) <= bound + 1e-9


def test_gmd_bound_closed_form():
    params = propx_params(4)  # m = 4, p = ln 4
    psi = 9.0
    expected = 2.0 * math.exp(-math.log(4) / (2 * params.p)) * 3.0
    assert gmd_bound(psi, params) == pytest.approx(expected, rel=1e-12)
