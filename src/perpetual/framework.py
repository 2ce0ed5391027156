"""Generic deficit framework and the p-potential greedy rule.

State is summarized by a nonnegative deficit profile z of length m.  Each round
a candidate set of hypothetical post-step profiles arrives and the rule picks
the action minimizing the potential

    Psi = (sum_q (z_q^2 + 4 p^2)^p)^(1/p).

All potential arithmetic happens in the log domain (log-sum-exp): with
p = ln m and deficits growing like sqrt(t), the raw summands overflow doubles
on long runs.  Closed-form bounds from the analysis (one-step growth, any-time
potential, disappointed-count, c_t threshold) are exposed as runtime checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SQRT_E = math.sqrt(math.e)

#: absolute tolerance for inequality checks
ABS_TOL = 1e-9


class EmptyCandidateSet(ValueError):
    pass


class NonpositiveC(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


def default_p(m: int) -> float:
    """Default potential exponent: 1 for m <= 2, ln m otherwise."""
    return 1.0 if m <= 2 else math.log(m)


@dataclass(frozen=True)
class PotentialParams:
    """Fixed parameters of one instantiation: m = |Q|, reference-action count
    n_ref, second-moment budget sigma_sq, and the exponent p (real, >= 1)."""

    m: int
    n_ref: int
    sigma_sq: float = 1.0
    p: float = field(default=0.0)

    def __post_init__(self):
        if self.m < 1 or self.n_ref < 1 or self.sigma_sq <= 0:
            raise ValueError("m, n_ref must be positive and sigma_sq > 0")
        if self.p == 0.0:
            object.__setattr__(self, "p", default_p(self.m))
        if self.p < 1.0:
            raise ValueError("p must be >= 1")


def profile_psi(z, params: PotentialParams) -> float:
    """Psi = Phi^(1/p), computed as exp(logsumexp / p)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (params.m,):
        raise DimensionMismatch(f"profile length {z.shape} != m={params.m}")
    p = params.p
    logf = p * np.log(z * z + 4.0 * p * p)
    mx = float(logf.max())
    return math.exp((mx + math.log(float(np.exp(logf - mx).sum()))) / p)


class CandidateSet:
    """Hypothetical post-step deficit profiles, one per feasible action.

    One array form: a base profile of length m plus, per action, the entries
    that action changes -- ``idx`` and ``val`` of shape (actions, touched),
    where the action id is the row index.  Candidate a is the base with
    ``base[idx[a]] = val[a]``.  The allocation instantiations touch O(n) or
    O(nL) entries per action; pdm touches all of them.
    """

    def __init__(self, base, idx, val):
        self.base = np.asarray(base, dtype=float)
        self.idx = np.asarray(idx, dtype=np.intp)
        self.val = np.asarray(val, dtype=float)
        if self.idx.ndim != 2 or self.idx.shape[0] == 0:
            raise EmptyCandidateSet("no candidate profiles")
        if self.idx.shape[1] == 0 or self.val.shape != self.idx.shape:
            raise DimensionMismatch(f"need idx and val of one shape (actions, touched >= 1); "
                                    f"got {self.idx.shape} and {self.val.shape}")

    def action_ids(self) -> list[int]:
        return list(range(self.idx.shape[0]))

    def profile(self, action_id: int) -> np.ndarray:
        z = self.base.copy()
        z[self.idx[action_id]] = self.val[action_id]
        return z

    def log_phi(self, params: PotentialParams) -> np.ndarray:
        """ln Phi of every action, by single-term swaps around the shared base
        sum: Phi(a) = Phi(base) + sum_k (f(val[a, k]) - f(base[idx[a, k]])),
        scaled by the base's largest term.  Each row accumulates its swaps
        left to right, so actions with equal entries get equal sums."""
        p = params.p
        four_p2 = 4.0 * p * p
        logf = p * np.log(self.base * self.base + four_p2)
        mx = logf.max()
        scaled = np.exp(logf - mx)
        terms = np.exp(p * np.log(self.val * self.val + four_p2) - mx)
        terms -= scaled[self.idx]
        terms[:, 0] += scaled.sum()
        return mx + np.log(np.add.accumulate(terms, axis=1)[:, -1])


def choose_action(candidates: CandidateSet, params: PotentialParams) -> int:
    """argmin_a Psi(a); exact ties go to the lowest action id."""
    return int(np.argmin(candidates.log_phi(params)))


def _envelope(t: float, params: PotentialParams) -> float:
    """4 p^2 + 2 sqrt(e) p sigma^2 t / n, the envelope inside every
    closed-form bound (t is G_gamma(t) in the discounted prefix bound)."""
    p = params.p
    return 4.0 * p * p + 2.0 * SQRT_E * p * params.sigma_sq * t / params.n_ref


def disappointed_count(z, c: float) -> int:
    """|{q : z_q > c}| (strict)."""
    if c < 0:
        raise NonpositiveC("c must be >= 0")
    z = np.asarray(z, dtype=float)
    return int(np.count_nonzero(z > c))


def bound_disappointed(t: int, c: float, params: PotentialParams) -> float:
    """Closed-form cap on the number of c-disappointed variables at time t:
    m * ((4 p^2 + 2 sqrt(e) p sigma^2 t / n) / c^2)^p, evaluated in logs."""
    if c <= 0:
        raise NonpositiveC("c must be > 0")
    p, m = params.p, params.m
    return math.exp(math.log(m) + p * (math.log(_envelope(t, params)) - 2.0 * math.log(c)))


def ct_threshold(t: int, params: PotentialParams) -> float:
    """c_t = m^(1/p) * sqrt(4 p^2 + 2 sqrt(e) p sigma^2 t / n); guarantees
    bound_disappointed(t, c_t) < 1, i.e. no variable is c_t-disappointed."""
    return math.exp(math.log(params.m) / params.p) * math.sqrt(_envelope(t, params))


def one_step_growth_bound(params: PotentialParams) -> float:
    """Per-round additive growth allowance for Psi."""
    p = params.p
    return 2.0 * SQRT_E * p * params.sigma_sq * math.exp(math.log(params.m) / p) / params.n_ref


def one_step_growth_check(psi_prev: float, psi_next: float, params: PotentialParams) -> bool:
    return psi_next <= psi_prev + one_step_growth_bound(params) + ABS_TOL


def anytime_psi_bound(t: int, params: PotentialParams) -> float:
    """Any-time potential bound m^(1/p) (4 p^2 + 2 sqrt(e) p sigma^2 t / n)."""
    return math.exp(math.log(params.m) / params.p) * _envelope(t, params)


@dataclass(frozen=True)
class MomentWitness:
    """Certificate for one round: n_ref reference action ids (repeats allowed)
    and the m x n_ref increment matrix Delta."""

    ref_actions: tuple[int, ...]
    delta: np.ndarray  # shape (m, n_ref)


@dataclass
class WitnessReport:
    shift_ok: bool
    first_moment_ok: bool
    second_moment_ok: bool
    range_ok: bool
    worst_shift_violation: float
    worst_first_moment: float
    worst_second_moment: float

    @property
    def ok(self) -> bool:
        return self.shift_ok and self.first_moment_ok and self.second_moment_ok and self.range_ok


def verify_moment_witness(
    z_prev,
    candidates: CandidateSet,
    w: MomentWitness,
    params: PotentialParams,
    tol: float = ABS_TOL,
    gamma: float = 1.0,
) -> WitnessReport:
    """Check the shift / first-moment / second-moment conditions.

    Shift: for each reference action a_k, the candidate profile satisfies
    z_next <= [gamma * z_prev + Delta[:, k]]_+ + tol entrywise (gamma = 1 for
    the undiscounted framework, < 1 for the discounted shift form).
    First moment: row sums of Delta <= 0.  Second: row sums of squares
    <= sigma^2.  Entries must lie in [-1, 1].  Every reference action id
    must be a candidate's, in [0, actions).
    """
    z_prev = np.asarray(z_prev, dtype=float)
    delta = np.asarray(w.delta, dtype=float)
    if z_prev.shape != (params.m,) or delta.shape != (params.m, params.n_ref):
        raise DimensionMismatch(
            f"expected z ({params.m},) and delta ({params.m},{params.n_ref}); "
            f"got {z_prev.shape} and {delta.shape}"
        )
    if len(w.ref_actions) != params.n_ref:
        raise DimensionMismatch("ref_actions length != n_ref")
    for a in w.ref_actions:
        if not 0 <= a < len(candidates.idx):
            raise DimensionMismatch(f"reference action id {a} outside [0, {len(candidates.idx)})")
    refs = np.array(w.ref_actions)

    range_ok = float(np.abs(delta).max()) <= 1.0 + tol
    worst_first = float(delta.sum(axis=1).max())
    worst_second = float((delta * delta).sum(axis=1).max())

    # row k of z_next is the candidate profile of reference action k
    z_next = np.repeat(candidates.base[None, :], len(refs), axis=0)
    z_next[np.arange(len(refs))[:, None], candidates.idx[refs]] = candidates.val[refs]
    allowed = np.maximum(gamma * z_prev + delta.T, 0.0)
    worst_shift = max(0.0, float((z_next - allowed).max()))

    return WitnessReport(
        shift_ok=worst_shift <= tol,
        first_moment_ok=worst_first <= tol,
        second_moment_ok=worst_second <= params.sigma_sq + tol,
        range_ok=range_ok,
        worst_shift_violation=worst_shift,
        worst_first_moment=worst_first,
        worst_second_moment=worst_second,
    )


def safe_div(x: float, y: float) -> float:
    """Total scale division: x / y when y > 0, else 0 (the 0/0 convention
    used by every scale-normalized deficit)."""
    return x / y if y > 0 else 0.0


def normalized(d, scale) -> np.ndarray:
    """Elementwise [d]_+ / scale with the 0/0 convention of ``safe_div``:
    entries whose scale is not positive are 0.  ``scale`` broadcasts against
    ``d``, which sets the shape."""
    d = np.maximum(d, 0.0)
    return np.divide(d, scale, out=np.zeros(d.shape), where=scale > 0)
