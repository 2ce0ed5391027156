"""Online item allocation instantiations: PROP-times-c (optionally
gamma-discounted), EF-times-c, and classical EFc via threshold counts.

Each state stores fixed-shape running aggregates only (bundle values, totals,
missed-item maxima, pair scales, threshold counts) -- never item lists; the
EFc threshold counts alone also answer the classical EF-up-to-k check.
Deficits are recomputed from aggregates each round; aggregates update
incrementally.  Each state prepares a round once (``framework.RoundState``);
its candidates return every action's touched entries as one array.

EF-times-c and EFc share one pairwise kernel (``_PairState``): one quality
variable per ordered pair and layer, the gap to the agent's own bundle over
a scale.  EF-times-c runs it on one layer of cross-values over the pair
scales; EFc runs it on the L threshold-count layers over a unit scale.
"""
from __future__ import annotations

import math

import numpy as np

from .framework import (
    ABS_TOL,
    CandidateSet,
    DimensionMismatch,
    MomentWitness,
    PotentialParams,
    RoundState,
    normalized,
    valid_id,
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


def _check_action(a: int, count: int) -> None:
    """Accept only an integer action id (recipient or outcome) in [0, count)."""
    if not valid_id(a, count):
        raise ValueError(f"action id {a!r} is not an integer in [0, {count})")


def _raise_missed(scale: np.ndarray, raised: np.ndarray, recipient: int) -> None:
    """``scale`` = the prepared max{scale, x} but at the recipient's entry."""
    own = scale[recipient]
    scale[:] = raised
    scale[recipient] = own


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

class PropxState(RoundState):
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

    def prepare(self, values) -> tuple:
        """The item x and the missed scale max{U, x}."""
        x = _as_values(values, self.n)
        return x, np.maximum(self.missed_max, x)

    def candidates(self, item) -> CandidateSet:
        """Post-decay hypothetical profiles per recipient: the base is the
        everyone-missed profile; candidate a swaps entry a."""
        x, scale = item
        d = self.gamma * self.deficits()
        z_recv = normalized(d - (1.0 - 1.0 / self.n) * x, self.missed_max)
        return CandidateSet(normalized(d + x / self.n, scale), self._touched, z_recv[:, None])

    def witness(self, item) -> MomentWitness:
        """Reference actions are the n recipients, with s_i = x_i / max{U_i, x_i}
        in ``proportional_delta``.  For gamma < 1 the same Delta is verified
        against the gamma-shift form [gamma z + Delta]_+."""
        return MomentWitness(tuple(range(self.n)), proportional_delta(normalized(*item)))

    def update(self, item, recipient: int) -> None:
        x, scale = item
        _check_action(recipient, self.n)
        self.bundle_value *= self.gamma
        self.total_value *= self.gamma
        self.total_value += x
        self.bundle_value[recipient] += x[recipient]
        _raise_missed(self.missed_max, scale, recipient)


def propx_params(n: int, p: float = 0.0) -> PotentialParams:
    return PotentialParams(m=n, n_ref=n, sigma_sq=1.0, p=p)


# ---------------------------------------------------------------------------
# Pairwise quality variables (Cases 3 and 4)
# ---------------------------------------------------------------------------

def _take_pairs(a: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The (n (n-1), ...) rows of an (n, n, ...) array at the ordered pairs
    i != j, in pair-major order; ``pairs`` is their flat (i, j) positions."""
    return a.reshape(len(a) ** 2, -1).take(pairs, axis=0)


def _touching(into: np.ndarray, out_of: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Per action a, the entries of the ordered pairs that contain a, in patch
    order: for each i != a, into[i, a, l] then out_of[a, i, l], interleaved
    per layer l.  Returns shape (n, 2 (n-1) L)."""
    both = np.stack([np.swapaxes(into, 0, 1), out_of], axis=-1)
    return _take_pairs(both, pairs).reshape(len(into), -1)


class _PairState(RoundState):
    """One quality variable per ordered pair (i, j), i != j, and layer l:
    [held[i, j, l] - held[i, i, l]]_+ / scale[i, j, l], where ``held`` is
    (n, n, L) and ``scale`` broadcasts against it.  A round adds its (n, 1, L)
    step to the recipient's column of ``held``; each subclass's ``prepare``
    checks the round and returns that step and max{scale, step}."""

    def __init__(self, n: int, held: np.ndarray, scale):
        if n < 2:
            raise ValueError("need at least 2 agents")
        self.n = n
        self.held = held
        self.scale = scale
        self.L = held.shape[2]
        self._pairs = np.flatnonzero(~np.eye(n, dtype=bool))
        quality = np.zeros((n * n, self.L), dtype=np.intp)
        quality[self._pairs] = np.arange(self.m).reshape(-1, self.L)  # quality_index
        quality = quality.reshape(held.shape)
        self._touched = _touching(quality, quality, self._pairs)
        # a round's gaps into and out of the recipient and their scales, stacked
        # for one normalize; ``_patches`` gathers each action's patch from it
        self._steps, self._scales = np.empty((2, 2, *held.shape))
        self._patches = _touching(*np.arange(self._steps.size).reshape(self._steps.shape),
                                  self._pairs)
        self._view = None  # (gaps, profile) until the next update
        # flat positions in the (m, n) witness matrix of each row's +step (at
        # reference action j) and -step (at i), rows in (i, j, l) order
        i, j = np.divmod(self._pairs, n)
        rows = np.arange(self.m) * n
        self._columns = rows + np.repeat(j, self.L), rows + np.repeat(i, self.L)

    @property
    def m(self) -> int:
        return self.n * (self.n - 1) * self.L

    def quality_index(self, i: int, j: int, l: int = 0) -> int:
        return (i * (self.n - 1) + (j if j < i else j - 1)) * self.L + l

    def _gaps(self) -> np.ndarray:
        """gap[i, j, l] = held[i, j, l] - held[i, i, l]."""
        own = self.held.reshape(self.n * self.n, self.L)[::self.n + 1]
        return self.held - own[:, None, :]

    def _derived(self) -> tuple:
        """(gaps, profile), computed on the first read after an update; the
        profile is read-only and is replaced, never written, by the next."""
        if self._view is None:
            gaps = self._gaps()
            profile = _take_pairs(normalized(gaps, self.scale), self._pairs).ravel()
            profile.flags.writeable = False
            self._view = gaps, profile
        return self._view

    def profile(self) -> np.ndarray:
        return self._derived()[1]

    def candidates(self, item) -> CandidateSet:
        """Base = current profile; candidate r patches only the 2(n-1)L entries
        of the pairs that contain r: (i, r), whose gap grows by step_i (and
        whose scale rises to it), and (r, i), whose gap shrinks by step_r."""
        step, scale = item
        gaps, profile = self._derived()
        np.add(gaps, step, out=self._steps[0])
        np.subtract(gaps, step, out=self._steps[1])
        self._scales[0] = scale
        self._scales[1] = self.scale
        patch = normalized(self._steps, self._scales).take(self._patches)
        return CandidateSet(profile, self._touched, patch)

    def witness(self, item) -> MomentWitness:
        """Row (i, j, l): alpha = step_i / max{scale[i, j, l], step_i} at
        reference action j, -alpha at i, zeros elsewhere.  sigma^2 = 2."""
        step, scale = item
        alpha = normalized(np.broadcast_to(step, self.held.shape), scale)
        per_row = _take_pairs(alpha, self._pairs).ravel()
        delta = np.zeros(self.m * self.n)
        delta[self._columns[0]] = per_row
        delta[self._columns[1]] = -per_row
        return MomentWitness(tuple(range(self.n)), delta.reshape(self.m, self.n))


# ---------------------------------------------------------------------------
# Case 3: pairwise envy scaled by the largest item in the envied bundle
# ---------------------------------------------------------------------------

class EfxState(_PairState):
    """Cross-values v_i(P_j) and pair scales s_(i,j) = max value i assigns to
    an item in j's bundle: one layer, ``held`` and ``scale`` are views onto
    them.  Quality variables are ordered pairs i != j."""

    def __init__(self, n: int):
        self.cross_value = np.zeros((n, n))
        self.pair_scale = np.zeros((n, n))  # diagonal unused
        super().__init__(n, self.cross_value[..., None], self.pair_scale[..., None])

    def prepare(self, values) -> tuple:
        """The item's values are the step: (i, r)'s envy grows by x_i if r receives."""
        step = _as_values(values, self.n)[:, None, None]
        return step, np.maximum(self.scale, step)

    def update(self, item, recipient: int) -> None:
        _check_action(recipient, self.n)
        self._view = None
        self.cross_value[:, recipient] += item[0][:, 0, 0]
        _raise_missed(self.pair_scale[:, recipient], item[1][:, recipient, 0], recipient)


def efx_params(n: int, p: float = 0.0) -> PotentialParams:
    return PotentialParams(m=n * (n - 1), n_ref=n, sigma_sq=2.0, p=p)


# ---------------------------------------------------------------------------
# Case 4: classical EFc via threshold counts over a fixed value ledger
# ---------------------------------------------------------------------------

class EfcThresholdState(_PairState):
    """Counts C[i, j, l] = #{g in P_j : v_i(g) >= theta[l]} over a fixed
    sorted ledger theta of distinct positive values (known in advance): the
    pairwise kernel on the L threshold layers with unit scale.

    The counts are the whole ledger: with layer widths
    w_l = theta[l] - theta[l-1] (theta[-1] = 0), agent i's multiset of
    values in P_j is determined by C[i, j, :], so v_i(P_j) = sum_l w_l C[i, j, l]
    and the sum of its k largest values is sum_l w_l min(k, C[i, j, l]).
    """

    def __init__(self, n: int, theta):
        th = sorted(float(v) for v in theta)
        if not th or len(th) != len(set(th)) or not all(0.0 < v < math.inf for v in th):
            raise ValueError(f"theta must be nonempty, distinct, positive and finite; got {theta!r}")
        self.theta = th
        self.counts = np.zeros((n, n, len(th)), dtype=np.int64)
        super().__init__(n, self.counts, 1.0)
        self._theta = np.array(th)
        self._ledger = np.array([0.0, *th])  # the values a round may hold
        self._widths = np.diff(self._ledger)
        self._layers = np.arange(self.L)

    def prepare(self, values) -> tuple:
        """The threshold indicators (1 where v_i(g) >= theta[l]) and the never-raised unit scale."""
        x = _as_values(values, self.n)
        k = np.searchsorted(self._theta, x, side="right")  # #{l : theta[l] <= x_i}
        stray = self._ledger[k] != x
        if stray.any():
            raise ValueNotInLedger(f"value {x[stray][0]} not in the declared ledger")
        return (k[:, None, None] > self._layers).astype(np.int64), self.scale

    def update(self, item, recipient: int) -> None:
        _check_action(recipient, self.n)
        self._view = None
        self.counts[:, recipient, :] += item[0][:, 0]


def efc_params(n: int, L: int, p: float = 0.0) -> PotentialParams:
    return PotentialParams(m=n * (n - 1) * L, n_ref=n, sigma_sq=2.0, p=p)


def check_efk(s: EfcThresholdState, k: int) -> dict[tuple[int, int], bool]:
    """Envy-free up to k items per ordered pair (i, j): removing the k highest
    v_i-valued goods from P_j leaves no envy.  Exact for every k, from the
    layer-cake sums over the threshold counts."""
    if k < 0:
        raise ValueError("k must be >= 0")
    envy = s._gaps() @ s._widths
    top_k = np.minimum(s.counts, min(k, int(s.counts.max(initial=0)))) @ s._widths
    ok = (np.maximum(envy, 0.0) <= top_k + ABS_TOL).ravel()
    return {divmod(int(q), s.n): bool(ok[q]) for q in s._pairs}
