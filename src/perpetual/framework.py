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
from dataclasses import dataclass, field, fields

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


def psi_rows(z, params: PotentialParams) -> list[float]:
    """Psi = Phi^(1/p) of each row of z (rounds, m), computed as
    exp(logsumexp / p); the final exp and log run per row in ``math``."""
    if z.shape[1:] != (params.m,):
        raise DimensionMismatch(f"profile shape {z.shape[1:]} != ({params.m},)")
    p = params.p
    logf = p * np.log(z * z + 4.0 * p * p)
    mx = logf.max(axis=1)
    sums = np.exp(logf - mx[:, None]).sum(axis=1)
    return [math.exp((a + math.log(s)) / p) for a, s in zip(mx.tolist(), sums.tolist())]


def profile_psi(z, params: PotentialParams) -> float:
    """Psi of one profile; see ``psi_rows``."""
    return psi_rows(np.asarray(z, dtype=float)[None], params)[0]


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
        p, m = params.p, len(self.base)
        f = np.concatenate((self.base, self.val.ravel()))  # every term, in one pass, in place
        f *= f
        f += 4.0 * p * p
        np.log(f, out=f)
        f *= p
        mx = f[:m].max()
        f -= mx
        np.exp(f, out=f)
        scaled, terms = f[:m], f[m:].reshape(self.val.shape)
        terms -= scaled[self.idx]
        terms[:, 0] += scaled.sum()
        return mx + np.log(np.add.accumulate(terms, axis=1)[:, -1])


def choose_action(candidates: CandidateSet, params: PotentialParams) -> int:
    """argmin_a Psi(a); exact ties go to the lowest action id."""
    return int(candidates.log_phi(params).argmin())


def _envelope(t: float, params: PotentialParams) -> float:
    """4 p^2 + 2 sqrt(e) p sigma^2 t / n, the envelope inside every
    closed-form bound (t is G_gamma(t) in the discounted prefix bound)."""
    p = params.p
    return 4.0 * p * p + 2.0 * SQRT_E * p * params.sigma_sq * t / params.n_ref


def disappointed_rows(z, c) -> np.ndarray:
    """|{q : z_q > c}| (strict) of each row of z (rounds, m); c is one
    threshold or one per row."""
    c = np.asarray(c, dtype=float)
    if (c < 0).any():
        raise NonpositiveC("c must be >= 0")
    return (z > c[..., None]).sum(axis=1)


def disappointed_count(z, c: float) -> int:
    """|{q : z_q > c}| of one profile; see ``disappointed_rows``."""
    return int(disappointed_rows(np.asarray(z, dtype=float)[None], c)[0])


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


class RoundState:
    """``prepare(values)`` checks a round, the one place a bad round is rejected, and returns
    the item ``candidates``, ``witness`` and ``update(item, action)`` read until the update."""
    gamma = 1.0  # the shift factor the state's witnesses are checked against

    def apply(self, values, action: int) -> None:
        self.update(self.prepare(values), action)

    def candidates_of(self, values) -> CandidateSet:
        return self.candidates(self.prepare(values))

    def witness_of(self, values) -> MomentWitness:
        return self.witness(self.prepare(values))


@dataclass
class WitnessReport:
    """One round's checks; from ``check_witness_rows``, one entry per round."""

    shift_ok: bool
    first_moment_ok: bool
    second_moment_ok: bool
    range_ok: bool
    worst_shift_violation: float
    worst_first_moment: float
    worst_second_moment: float

    @property
    def ok(self) -> bool:
        return self.shift_ok & self.first_moment_ok & self.second_moment_ok & self.range_ok


def valid_id(a, count: int) -> bool:
    """An action id is an integer (not a bool) in [0, count)."""
    return type(a) is not bool and isinstance(a, (int, np.integer)) and 0 <= a < count


def witness_row(z_prev, candidates: CandidateSet, w: MomentWitness,
                params: PotentialParams) -> tuple:
    """Check one round's witness dimensions and reference action ids (each a
    candidate's) and return (z_prev, base, idx[refs], val[refs], delta)."""
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
        if not valid_id(a, len(candidates.idx)):
            raise DimensionMismatch(f"reference action id {a!r} is not an integer in "
                                    f"[0, {len(candidates.idx)})")
    refs = np.array(w.ref_actions)
    return z_prev, candidates.base, candidates.idx[refs], candidates.val[refs], delta


def check_witness_rows(rows, params: PotentialParams, tol: float = ABS_TOL,
                       gamma: float = 1.0) -> WitnessReport:
    """Check the shift / first-moment / second-moment conditions of a block
    of rounds, each given by ``witness_row``, stacked on a leading axis.

    Shift: for each reference action a_k, the candidate profile satisfies
    z_next <= [gamma * z_prev + Delta[:, k]]_+ + tol entrywise (gamma = 1 for
    the undiscounted framework, < 1 for the discounted shift form).
    First moment: row sums of Delta <= 0.  Second: row sums of squares
    <= sigma^2.  Entries must lie in [-1, 1].  Reductions run along the last
    axis of C-contiguous arrays, so a round gets the same bits in any block."""
    z_prev, base, idx, val, delta = (np.array(a) for a in zip(*rows))
    rounds, n_ref, m = *idx.shape[:2], base.shape[1]
    worst_first = delta.sum(axis=2).max(axis=1)
    worst_second = (delta * delta).sum(axis=2).max(axis=1)

    # row k of z_next[r] is the candidate profile of round r's reference action k,
    # patched through a flat view of the C-contiguous repeat
    z_next = np.repeat(base[:, None, :], n_ref, axis=1)
    z_next.reshape(-1)[idx + np.arange(0, z_next.size, m).reshape(rounds, n_ref, 1)] = val
    allowed = np.maximum(gamma * z_prev[:, None, :] + delta.transpose(0, 2, 1), 0.0)
    over = (z_next - allowed).reshape(rounds, -1).max(axis=1)
    worst_shift = np.where(over > 0.0, over, 0.0)

    return WitnessReport(
        shift_ok=worst_shift <= tol,
        first_moment_ok=worst_first <= tol,
        second_moment_ok=worst_second <= params.sigma_sq + tol,
        range_ok=np.abs(delta).reshape(rounds, -1).max(axis=1) <= 1.0 + tol,
        worst_shift_violation=worst_shift,
        worst_first_moment=worst_first,
        worst_second_moment=worst_second,
    )


def verify_moment_witness(z_prev, candidates: CandidateSet, w: MomentWitness,
                          params: PotentialParams, tol: float = ABS_TOL,
                          gamma: float = 1.0) -> WitnessReport:
    """The checks of ``check_witness_rows`` for one round."""
    block = check_witness_rows([witness_row(z_prev, candidates, w, params)], params, tol, gamma)
    return WitnessReport(*(getattr(block, f.name)[0].item() for f in fields(WitnessReport)))


def normalized(d, scale) -> np.ndarray:
    """Elementwise [d]_+ / scale, with the 0/0 convention of every
    scale-normalized deficit: entries whose scale is not positive are 0.
    ``scale`` broadcasts against ``d``, which sets the shape."""
    d = np.maximum(d, 0.0)
    return np.divide(d, scale, out=np.zeros(d.shape), where=scale > 0)
