"""Online item allocation instantiations: PROP-times-c (optionally
gamma-discounted), EF-times-c, and classical EFc via threshold counts.

Each state stores fixed-shape running aggregates only (bundle values, totals,
missed-item maxima, pair scales, threshold counts) -- never item lists; the
EFc threshold counts alone also answer the classical EF-up-to-k check.
Deficits are recomputed from aggregates each round; aggregates update
incrementally.
Candidate builders return every action's touched entries as one array.
"""
from __future__ import annotations

import math

import numpy as np

from .framework import (
    CandidateSet,
    DimensionMismatch,
    MomentWitness,
    PotentialParams,
    normalized,
)


class ValueNotInLedger(ValueError):
    pass


class GammaOutOfRange(ValueError):
    pass


def _as_values(values, *shape: int) -> np.ndarray:
    """The round's values as floats, once they have ``shape`` and every one
    is finite and nonnegative."""
    v = np.asarray(values, dtype=float)
    if v.shape != shape:
        raise DimensionMismatch(f"values have shape {v.shape}, expected {shape}")
    if not (v.min() >= 0.0 and v.max() < math.inf):
        raise ValueError("values must be finite and nonnegative")
    return v


def _missed(x: np.ndarray, recipient: int) -> np.ndarray:
    """The item's values to everyone but the recipient (0 for the recipient)."""
    out = x.copy()
    out[recipient] = 0.0
    return out


def proportional_delta(s: np.ndarray) -> np.ndarray:
    """Case-1 increments for normalized item sizes s: Delta_i(i) = -(1-1/n) s_i
    and Delta_i(a) = s_i / n otherwise.  Rows sum to 0 exactly and row squared
    sums are (n-1) s_i^2 / n <= 1."""
    n = len(s)
    delta = np.repeat(s[:, None] / n, n, axis=1)
    np.fill_diagonal(delta, -(1.0 - 1.0 / n) * s)
    return delta


# ---------------------------------------------------------------------------
# Case 1: proportionality scaled by the largest missed item (PROP x c)
# ---------------------------------------------------------------------------

class PropxState:
    """Per-agent aggregates: bundle value v_i(P_i), total value v_i(G), and
    missed-item max U_i.

    With gamma < 1 the value aggregates are discounted by decay-then-add
    updates (multiply by gamma, then add the round's contribution), matching
    the gamma^(t-r) weights exactly; gamma = 1 multiplies by 1.0, which is
    exact, so it is the undiscounted state.  The scale U_i is never decayed:
    a decaying scale would shrink the recipient's denominator along with its
    deficit and break the gamma-shift moment conditions, whereas the plain
    running maximum carries the Case-1 Delta formulas over verbatim.
    """

    def __init__(self, n: int, gamma: float = 1.0):
        if n < 2:
            raise ValueError("need at least 2 agents")
        if not 0.0 < gamma <= 1.0:
            raise GammaOutOfRange("gamma must lie in (0, 1]")
        self.n = n
        self.gamma = float(gamma)
        self.bundle_value = np.zeros(n)
        self.total_value = np.zeros(n)
        self.missed_max = np.zeros(n)
        self._touched = np.arange(n)[:, None]  # candidate a swaps entry a

    def deficits(self) -> np.ndarray:
        """d_i = v_i(G)/n - v_i(P_i), sign kept."""
        return self.total_value / self.n - self.bundle_value

    def profile(self) -> np.ndarray:
        return normalized(self.deficits(), self.missed_max)

    def apply(self, values, recipient: int) -> None:
        x = _as_values(values, self.n)
        self.bundle_value *= self.gamma
        self.total_value *= self.gamma
        self.total_value += x
        self.bundle_value[recipient] += x[recipient]
        np.maximum(self.missed_max, _missed(x, recipient), out=self.missed_max)


def propx_candidates(s: PropxState, values) -> CandidateSet:
    """Post-decay hypothetical profiles per recipient: the base is the
    everyone-missed profile; candidate a swaps entry a."""
    n = s.n
    x = _as_values(values, n)
    d = s.gamma * s.deficits()
    z_miss = normalized(d + x / n, np.maximum(s.missed_max, x))
    z_recv = normalized(d - (1.0 - 1.0 / n) * x, s.missed_max)
    return CandidateSet(z_miss, s._touched, z_recv[:, None])


def propx_witness(s: PropxState, values) -> MomentWitness:
    """Reference actions are the n recipients, with s_i = x_i / max{U_i, x_i}
    in ``proportional_delta``.  For gamma < 1 the same Delta is verified
    against the gamma-shift form [gamma z + Delta]_+."""
    x = _as_values(values, s.n)
    delta = proportional_delta(normalized(x, np.maximum(s.missed_max, x)))
    return MomentWitness(ref_actions=tuple(range(s.n)), delta=delta)


def propx_params(n: int, p: float = 0.0) -> PotentialParams:
    return PotentialParams(m=n, n_ref=n, sigma_sq=1.0, p=p)


# ---------------------------------------------------------------------------
# Pairwise quality variables (Cases 3 and 4)
# ---------------------------------------------------------------------------

def _off_diagonal(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def _touching(into: np.ndarray, out_of: np.ndarray) -> np.ndarray:
    """Per action a, the entries of the ordered pairs that contain a, in patch
    order: for each i != a, into[i, a] then out_of[a, i] -- single entries for
    (n, n) inputs, interleaved per threshold l for (n, n, L) inputs.  Returns
    shape (n, 2 (n-1) L)."""
    n = into.shape[0]
    both = np.stack([np.swapaxes(into, 0, 1), out_of], axis=-1)
    return both[_off_diagonal(n)].reshape(n, -1)


def _pair_columns(n: int, per_pair: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in the (m, n) witness matrix of each row's +step (at
    reference action j) and -step (at i), rows in pair-major (i, j[, l]) order."""
    i, j = np.nonzero(_off_diagonal(n))
    rows = np.arange(len(i) * per_pair) * n
    return rows + np.repeat(j, per_pair), rows + np.repeat(i, per_pair)


def _pair_delta(s, step: np.ndarray) -> np.ndarray:
    """Witness increments of pairwise quality variables: row (i, j[, l]) has
    +step at reference action j and -step at i.  ``step`` is (n, n) or
    (n, n, L), indexed by the row's own (i, j[, l]); the diagonal is unused.
    ``s._columns`` is ``_pair_columns`` for the state's shape."""
    per_row = step[s._off].ravel()
    delta = np.zeros(per_row.size * s.n)
    delta[s._columns[0]] = per_row
    delta[s._columns[1]] = -per_row
    return delta.reshape(per_row.size, s.n)


# ---------------------------------------------------------------------------
# Case 3: pairwise envy scaled by the largest item in the envied bundle
# ---------------------------------------------------------------------------

class EfxState:
    """Cross-values v_i(P_j) and pair scales s_(i,j) = max value i assigns to
    an item in j's bundle.  Quality variables are ordered pairs i != j."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need at least 2 agents")
        self.n = n
        self.cross_value = np.zeros((n, n))
        self.pair_scale = np.zeros((n, n))  # diagonal unused
        self._off = _off_diagonal(n)
        pairs = np.zeros((n, n), dtype=np.intp)
        pairs[self._off] = np.arange(self.m)  # pair_index(i, j)
        self._touched = _touching(pairs, pairs)
        self._columns = _pair_columns(n, 1)

    @property
    def m(self) -> int:
        return self.n * (self.n - 1)

    def pair_index(self, i: int, j: int) -> int:
        return i * (self.n - 1) + (j if j < i else j - 1)

    def _envy(self) -> np.ndarray:
        """envy[i, j] = v_i(P_j) - v_i(P_i)."""
        return self.cross_value - np.diag(self.cross_value)[:, None]

    def profile(self) -> np.ndarray:
        return normalized(self._envy(), self.pair_scale)[self._off]

    def apply(self, values, recipient: int) -> None:
        x = _as_values(values, self.n)
        self.cross_value[:, recipient] += x
        col = self.pair_scale[:, recipient]
        np.maximum(col, _missed(x, recipient), out=col)


def efx_candidates(s: EfxState, values) -> CandidateSet:
    """Base = current profile; candidate r patches only the 2(n-1) pairs that
    contain r: (i, r), where i's envy toward r grows by x_i, and (r, i), where
    r's envy toward i shrinks by x_r."""
    x = _as_values(values, s.n)
    envy = s._envy()
    into = normalized(envy + x[:, None], np.maximum(s.pair_scale, x[:, None]))
    out_of = normalized(envy - x[:, None], s.pair_scale)
    return CandidateSet(s.profile(), s._touched, _touching(into, out_of))


def efx_witness(s: EfxState, values) -> MomentWitness:
    """Pair (i,j) row: alpha = x_i / max{s_(i,j), x_i}; +alpha at reference
    action j, -alpha at i, zeros elsewhere.  sigma^2 = 2."""
    x = _as_values(values, s.n)
    alpha = normalized(np.broadcast_to(x[:, None], (s.n, s.n)),
                       np.maximum(s.pair_scale, x[:, None]))
    return MomentWitness(ref_actions=tuple(range(s.n)), delta=_pair_delta(s, alpha))


def efx_params(n: int, p: float = 0.0) -> PotentialParams:
    return PotentialParams(m=n * (n - 1), n_ref=n, sigma_sq=2.0, p=p)


# ---------------------------------------------------------------------------
# Case 4: classical EFc via threshold counts over a fixed value ledger
# ---------------------------------------------------------------------------

class EfcThresholdState:
    """Counts C[i, j, l] = #{g in P_j : v_i(g) >= theta[l]} over a fixed
    sorted ledger theta of distinct positive values (known in advance).

    The counts are the whole ledger: with layer widths
    w_l = theta[l] - theta[l-1] (theta[-1] = 0), agent i's multiset of
    values in P_j is determined by C[i, j, :], so v_i(P_j) = sum_l w_l C[i, j, l]
    and the sum of its k largest values is sum_l w_l min(k, C[i, j, l]).
    """

    def __init__(self, n: int, theta):
        if n < 2:
            raise ValueError("need at least 2 agents")
        th = sorted(float(v) for v in theta)
        if len(th) != len(set(th)) or any(v <= 0 for v in th):
            raise ValueError("theta must be distinct positive values")
        self.n = n
        self.theta = th
        self.L = len(th)
        self.counts = np.zeros((n, n, self.L), dtype=np.int64)
        self._theta = np.array(th)
        self._ledger = np.array([0.0, *th])  # the values a round may hold
        self._widths = np.diff(self._ledger)
        self._layers = np.arange(self.L)
        self._off = _off_diagonal(n)
        quality = np.zeros((n, n, self.L), dtype=np.intp)
        quality[self._off] = np.arange(self.m).reshape(-1, self.L)  # quality_index
        self._touched = _touching(quality, quality)
        self._columns = _pair_columns(n, self.L)

    @property
    def m(self) -> int:
        return self.n * (self.n - 1) * self.L

    def quality_index(self, i: int, j: int, l: int) -> int:
        pair = i * (self.n - 1) + (j if j < i else j - 1)
        return pair * self.L + l

    def _indicator_counts(self, values) -> np.ndarray:
        """s[i, l] = 1 if v_i(g) >= theta[l]."""
        x = _as_values(values, self.n)
        k = np.searchsorted(self._theta, x, side="right")  # #{l : theta[l] <= x_i}
        stray = self._ledger[k] != x
        if stray.any():
            raise ValueNotInLedger(f"value {x[stray][0]} not in the declared ledger")
        return (k[:, None] > self._layers).astype(np.int64)

    def _gaps(self) -> np.ndarray:
        """gap[i, j, l] = C[i, j, l] - C[i, i, l]."""
        own = self.counts[np.arange(self.n), np.arange(self.n)]
        return self.counts - own[:, None, :]

    def profile(self) -> np.ndarray:
        return np.maximum(self._gaps()[self._off], 0).ravel().astype(float)

    def apply(self, values, recipient: int) -> None:
        self.counts[:, recipient, :] += self._indicator_counts(values)


def efc_candidates(s: EfcThresholdState, values) -> CandidateSet:
    """Base = current profile; candidate a touches only the 2(n-1)L entries of
    pairs containing a."""
    ind = s._indicator_counts(values)[:, None, :]
    gaps = s._gaps()
    into = np.maximum(gaps + ind, 0)
    out_of = np.maximum(gaps - ind, 0)
    return CandidateSet(s.profile(), s._touched, _touching(into, out_of))


def efc_witness(s: EfcThresholdState, values) -> MomentWitness:
    """Row (i,j,l): -1[v_i >= theta_l] at reference action i, +1[v_i >= theta_l]
    at j, zeros elsewhere.  sigma^2 = 2."""
    ind = s._indicator_counts(values).astype(float)
    step = np.broadcast_to(ind[:, None, :], (s.n, s.n, s.L))
    return MomentWitness(ref_actions=tuple(range(s.n)), delta=_pair_delta(s, step))


def efc_params(n: int, L: int, p: float = 0.0) -> PotentialParams:
    return PotentialParams(m=n * (n - 1) * L, n_ref=n, sigma_sq=2.0, p=p)


def check_efk(s: EfcThresholdState, k: int, tol: float = 1e-9) -> dict[tuple[int, int], bool]:
    """Envy-free up to k items per ordered pair (i, j): removing the k highest
    v_i-valued goods from P_j leaves no envy.  Exact for every k, from the
    layer-cake sums over the threshold counts."""
    if k < 0:
        raise ValueError("k must be >= 0")
    envy = s._gaps() @ s._widths
    top_k = np.minimum(s.counts, min(k, int(s.counts.max(initial=0)))) @ s._widths
    ok = np.maximum(envy, 0.0) <= top_k + tol
    i, j = np.nonzero(s._off)
    return {(int(a), int(b)): bool(v) for a, b, v in zip(i, j, ok[s._off])}
