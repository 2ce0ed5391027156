"""Perpetual online fair decision-making: deficit potentials, fairness
instantiations, adversarial lower bounds, discounted memory, and the exact
proportionality-game solver."""

from .framework import (
    ABS_TOL,
    CandidateSet,
    DimensionMismatch,
    EmptyCandidateSet,
    MomentWitness,
    NonpositiveC,
    PotentialParams,
    REL_TOL,
    anytime_psi_bound,
    bound_disappointed,
    choose_action,
    ct_threshold,
    default_p,
    disappointed_count,
    log_potential_component,
    normalized,
    one_step_growth_bound,
    one_step_growth_check,
    profile_psi,
    safe_div,
    verify_moment_witness,
)

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "CandidateSet",
    "DimensionMismatch",
    "EmptyCandidateSet",
    "MomentWitness",
    "NonpositiveC",
    "PotentialParams",
    "anytime_psi_bound",
    "bound_disappointed",
    "choose_action",
    "ct_threshold",
    "default_p",
    "disappointed_count",
    "log_potential_component",
    "normalized",
    "one_step_growth_bound",
    "one_step_growth_check",
    "profile_psi",
    "safe_div",
    "verify_moment_witness",
]

__version__ = "0.1.0"
