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
from .framework import CandidateSet, MomentWitness, RoundState, normalized


class PdmState(RoundState):
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

    def prepare(self, values) -> tuple:
        """The values v, favorites M and scale V' = max{V, M}, one for every outcome."""
        v = _as_values(values, self.n, self.num_outcomes)
        m_fav = v.max(axis=1)
        return v, m_fav, np.maximum(self.run_max, m_fav)

    def candidates(self, item) -> CandidateSet:
        """Outcome o's profile in row o, every entry touched."""
        v, m_fav, scale = item
        z = normalized(self.deficits() + m_fav / self.n - v.T, scale)
        return CandidateSet(np.zeros(self.n), np.broadcast_to(np.arange(self.n), z.shape), z)

    def witness(self, item) -> MomentWitness:
        """Reference action k is agent k's favorite (lowest index on ties); s_i = M_i / V'_i."""
        v, m_fav, scale = item
        return MomentWitness(tuple(int(o) for o in np.argmax(v, axis=1)),
                             proportional_delta(normalized(m_fav, scale)))

    def update(self, item, outcome: int) -> None:
        v, m_fav, scale = item
        _check_action(outcome, self.num_outcomes)
        self.prop += m_fav / self.n
        self.util += v[:, outcome]
        self.run_max[:] = scale


pdm_candidates, pdm_witness = RoundState.candidates_of, RoundState.witness_of

#: one deficit per agent and n reference outcomes, sigma^2 = 1: the PROP x c parameters
pdm_params = propx_params
