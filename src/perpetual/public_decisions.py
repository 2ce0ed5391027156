"""Case 2: approximately-proportional online public decision-making.

A fixed candidate set C; each round every agent values every outcome, exactly
one outcome is chosen, and agent i's proportional benchmark advances by
M_i / n where M_i is i's favorite-outcome value this round.  Deficits are
normalized by the running maximum V_i (which is independent of the chosen
outcome).
"""
from __future__ import annotations

import numpy as np

from .allocation import _as_values, _check_action, proportional_delta, propx_params
from .framework import CandidateSet, MomentWitness, normalized


class PdmState:
    """Per-agent aggregates u_i (realized utility), Prop_i, and running max V_i."""

    def __init__(self, n: int, num_outcomes: int):
        if n < 2 or num_outcomes < 1:
            raise ValueError("need n >= 2 agents and at least one outcome")
        self.n = n
        self.num_outcomes = num_outcomes
        self.util = np.zeros(n)
        self.prop = np.zeros(n)
        self.run_max = np.zeros(n)

    def deficits(self) -> np.ndarray:
        return self.prop - self.util

    def profile(self) -> np.ndarray:
        return normalized(self.deficits(), self.run_max)

    def apply(self, values, outcome: int) -> None:
        v = _as_values(values, self.n, self.num_outcomes)
        _check_action(outcome, self.num_outcomes)
        m_fav = v.max(axis=1)
        self.prop += m_fav / self.n
        self.util += v[:, outcome]
        np.maximum(self.run_max, m_fav, out=self.run_max)


def pdm_candidates(s: PdmState, values) -> CandidateSet:
    """Outcome o's profile in row o, every entry touched; the scale
    V' = max{V, M} is computed once, independent of the outcome."""
    v = _as_values(values, s.n, s.num_outcomes)
    m_fav = v.max(axis=1)
    d = s.deficits() + m_fav / s.n
    z = normalized(d - v.T, np.maximum(s.run_max, m_fav))
    return CandidateSet(np.zeros(s.n), np.broadcast_to(np.arange(s.n), z.shape), z)


def pdm_witness(s: PdmState, values) -> MomentWitness:
    """Reference action k = agent k's favorite outcome (lowest index on ties);
    s_i = M_i / V'_i in ``proportional_delta``."""
    v = _as_values(values, s.n, s.num_outcomes)
    m_fav = v.max(axis=1)
    delta = proportional_delta(normalized(m_fav, np.maximum(s.run_max, m_fav)))
    return MomentWitness(ref_actions=tuple(int(o) for o in np.argmax(v, axis=1)), delta=delta)


#: one deficit per agent and n reference outcomes, sigma^2 = 1: the PROP x c parameters
pdm_params = propx_params
