"""Exact solver for the unit-scale proportionality game.

State is the shifted surplus delta_i = n*v_i(P_i) - v_i(G) + n*c; the game is
alive while every coordinate is >= 0.  D^k is the set of frontier points whose
strictly-dominated region is exactly the set of states from which an adversary
can force a violation within k rounds; AUX finds the smallest such k and EXP
picks the recipient maximizing it.  The levels are nested -- every point of
D^k is weakly below some point of D^{k+1}, as a violation forced within k
rounds is also forced within k + 1 -- so "D^k dominates x" is monotone in k:
AUX bisects k over the levels already built, and EXP probes each later
recipient once, at the best horizon so far.  The game is symmetric in the
agents, so every level is closed under permuting coordinates: a step prunes
the sorted forms of its points, then adds their permutations.  For n = 2 a
heap merge evaluates one of each two mirror pairs of points; every other step
evaluates the LP on integer arrays, a block of tuples at a time, and prunes
each block against the front kept so far.

Everything here is exact -- domination is a strict inequality and the
reference value aux((2,2)) = 10 must be bit-certain.  The one float is
``INF`` (``math.inf``), the unbounded coordinate at the API and inside the
solver alike; it compares exactly with every int and ``Fraction``, and no path
subtracts INF from INF or multiplies it by 0, so no nan arises.  Inside, the
solver runs on integers: the LP only ever divides by n, so every D^k
coordinate is a multiple of 1/n**k, and level k is kept as integer tuples at
scale n**k, INF as it is.  A step reads a level at its own scale and evaluates
the LP at n times it, where the LP has no division; the array step swaps INF
for a finite sentinel, on int64 when the coordinates fit and on Python ints
otherwise.  At the API boundary coordinates are ``Fraction`` (or int) or
``INF``, which ``float('inf')`` also reads as; every other float is refused.
``FrontierBuilder.get`` is the ``Fraction`` view of a level for callers
outside the solver.  A queried state, and each of EXP's post-states, is an
integer tuple over one common denominator, INF as it is; a level probe turns
it into integer thresholds at the level's scale.
"""
from __future__ import annotations

import heapq
import itertools
import math
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from numbers import Rational
from operator import gt

import numpy as np


class KMaxExceeded(RuntimeError):
    pass


class FrontierSizeExceeded(RuntimeError):
    pass


#: the one unbounded coordinate, at the API and inside the integer kernel
INF = math.inf

#: default largest horizon k that aux and exp_policy search
K_MAX = 12
#: most points a level may reach while it is built (FrontierSizeExceeded past it)
FRONTIER_CAP = 10**6


def is_inf(v) -> bool:
    # the type test first: Fraction == float goes through numbers.Rational
    return type(v) is float and v == INF


# ---------------------------------------------------------------------------
# Boundary conversions
# ---------------------------------------------------------------------------

def _scaled(points) -> tuple:
    """``points`` as integer tuples at their least common denominator, and
    that scale."""
    scale = math.lcm(*{v.denominator for p in points for v in p if not is_inf(v)})
    return [tuple([INF if is_inf(v) else int(v.numerator) * scale // int(v.denominator)
                   for v in p]) for p in points], scale


def _to_fractions(level, scale: int) -> frozenset:
    value = {v: v if v == INF else Fraction(v, scale) for v in {v for p in level for v in p}}
    return frozenset(tuple(map(value.__getitem__, p)) for p in level)


# ---------------------------------------------------------------------------
# The LP
# ---------------------------------------------------------------------------

def _lp(x, mu, n: int, unit: int) -> tuple:
    """(Y, z*) elementwise at scale ``unit`` (the integer standing for 1),
    from integer arrays x, mu at scale ``unit`` / n: at scale ``unit`` they
    read n x and n mu, so the LP's (x - mu) / n is x - mu.  INF is a finite
    sentinel T at least ``unit`` past every finite coordinate: it gives
    Y(T, mu) = n mu + unit, Y(x, T) = n x and Y(T, T) = n T."""
    z = np.minimum(np.maximum(x - mu, 0), unit)
    y = np.minimum(n * x - (n - 1) * z, n * mu + z)
    # exact feasibility check on every value
    assert (y + (n - 1) * z <= n * x).all()
    assert (y - z <= n * mu).all()
    return y, z


# ---------------------------------------------------------------------------
# Frontiers
# ---------------------------------------------------------------------------

def _axis_level(n: int) -> list:
    """D^0 at scale 1, sorted descending."""
    return sorted((tuple(0 if j == i else INF for j in range(n)) for i in range(n)),
                  reverse=True)


def _step(pts: list, n: int, unit: int, prune: bool) -> list:
    """The next level from ``pts``, distinct integer tuples at scale
    ``unit`` / n, sorted descending: for every ordered n-tuple of points,
    coordinate i of the generated point is the LP value of the tuple's i-th
    coordinates.  Returns the level sorted descending, at scale ``unit``.
    Pruning the input first would change nothing, as the LP is monotone in
    its inputs.  For n = 2 an input that reads the same mirrored and reversed
    has strictly falling first and strictly rising second coordinates: it is
    a mirror-closed staircase.  Only then does the pruned step take the heap
    merge ``_step2``, and the level is the kept half (y0 >= y1, descending)
    followed by its mirrors, reversed, the diagonal point once.  Every other
    input takes the array step ``_stepn``.  Each step counts the unfolded
    level it keeps against ``FRONTIER_CAP`` as it keeps points, so no count
    is needed after unfolding."""
    if n == 2 and prune and [(b, a) for a, b in reversed(pts)] == pts:
        kept = _step2(pts, unit)
        return kept + [(b, a) for a, b in reversed(kept) if a != b]
    return _stepn(pts, n, unit, prune)


#: generated points per block of the array step
_BLOCK = 1 << 16
#: a cover table of the array step has about 2**_TABLE_BITS cells at most
_TABLE_BITS = 20


def _unique(rows, span: int):
    """The distinct rows of an array of integers in [0, span), sorted
    descending."""
    key = rows[:, 0]
    for i in range(1, rows.shape[1]):
        key = key * span + rows[:, i]
    order = np.argsort(key)[::-1]
    key = key[order]
    return rows[order[np.concatenate(([True], key[1:] != key[:-1]))]]


def _front(rows):
    """The rows no other row covers, from distinct rows sorted descending:
    there, no row covers an earlier one, and each covers itself."""
    # of the rows equal but in the last coordinate, the first covers the rest
    rows = rows[np.concatenate(([True], (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)))]
    kept = rows[:0]
    for s in range(0, len(rows), 256):
        chunk = rows[s:s + 256]
        by = np.concatenate([kept, chunk])
        below = True
        for i in range(rows.shape[1]):
            below = below & (chunk[:, i, None] <= by[:, i])
        kept = np.concatenate([kept, chunk[np.count_nonzero(below, axis=1) == 1]])
    return kept


def _cover_test(by):
    """Whether rows are weakly below some row of ``by`` (nonnegative), from
    a table over a grid of the first n - 1 coordinates of the largest last
    coordinate at or above each cell.  A grid coarser than every distinct
    value (past ``_TABLE_BITS``) misses some covered rows, never more."""
    grids = []
    for j in range(by.shape[1] - 1):
        values = np.unique(by[:, j])
        grids.append(values[::-(-len(values) >> (_TABLE_BITS // (by.shape[1] - 1)))])
    table = np.full([len(g) + 1 for g in grids], -1, by.dtype)
    np.maximum.at(table, tuple(np.searchsorted(g, by[:, j], "right") - 1
                               for j, g in enumerate(grids)), by[:, -1])
    for axis in range(len(grids)):
        table = np.flip(np.maximum.accumulate(np.flip(table, axis), axis), axis)
    return lambda rows: table[tuple(np.searchsorted(g, rows[:, j])
                                    for j, g in enumerate(grids))] >= rows[:, -1]


def _stepn(pts: list, n: int, unit: int, prune: bool) -> list:
    """``_step`` on integer arrays, a block of tuples at a time: those whose
    first n - 1 points' indices fall in a range, against every last point.

    Inputs are offset by their least finite coordinate ``lo`` and INF is the
    finite sentinel ``top`` that ``_lp`` expects, so each LP value lies in
    [0, n * top], offset by n * lo, and a point packs into one key below
    ``span ** n``: on int64 when that fits, on Python ints (``dtype=object``)
    otherwise.  A permutation-closed input generates a permutation-closed
    set, whose maximal points are the permutations of its maximal sorted
    forms: the step keeps sorted forms and unfolds them at the end.  Pruned,
    it keeps the front of the points generated so far, counted unfolded
    against the cap after each block; a block first drops the tuple prefixes
    whose image of the all-INF point, a bound on all their images as the LP
    is monotone, the front covers, then the generated points it covers."""
    finite = [v for p in pts for v in p if v != INF]
    lo = min(finite, default=0)
    top = max(finite, default=0) - lo + unit
    span = n * top + 1
    dtype = np.int64 if span ** n < 1 << 63 else object
    level = np.array([[top if v == INF else v - lo for v in p] for p in pts],
                     dtype=dtype).reshape(-1, n)
    folded = prune and set(pts) == {q for p in pts for q in itertools.permutations(p)}
    # the coordinate orders a kept sorted form unfolds to
    orders = np.array(list(itertools.permutations(range(n))))

    def images(idx, last):
        """The points the tuples (level[idx[0]], ..., level[idx[-1]], q)
        generate, for q in ``last``, one row each."""
        tup = [level[i][:, None] for i in idx] + [last[None]]
        y = np.empty((len(idx[0]), len(last), n), dtype)
        for i, t in enumerate(tup):
            mu = top  # at least every coordinate
            for u in tup:
                if u is not t:
                    mu = np.minimum(mu, u[..., i])
            y[..., i] = _lp(t[..., i], mu, n, unit)[0]
        y = y.reshape(-1, n)
        if folded:
            y.sort(axis=1)
        return y

    kept = out = level[:0]
    covered = None
    total = len(level) ** (n - 1)
    size = _BLOCK // (len(level) + 1) + 1
    for start in range(0, total, size):
        idx = np.unravel_index(np.arange(start, min(start + size, total)), (len(level),) * (n - 1))
        if prune and len(kept):
            covered = covered or _cover_test(kept)
            idx = [i[~covered(images(idx, np.full((1, n), top, dtype)))] for i in idx]
        y = images(idx, level)
        if covered:
            y = y[~covered(y)]
        if len(y):
            kept = _unique(np.concatenate([kept, y]), span)
            if prune:
                kept, covered = _front(kept), None
            out = _unique(kept[:, orders].reshape(-1, n), span) if folded else kept
            if len(out) > FRONTIER_CAP:
                raise FrontierSizeExceeded(f"frontier exceeds {FRONTIER_CAP} points")
    return [tuple(INF if v == n * top else v + n * lo for v in p) for p in out.tolist()]


def _step2(pts: list, unit: int) -> list:
    """The pruned n = 2 step from a mirror-closed staircase ``pts``, folded to
    y0 >= y1: a heap merge of the rows' staircases.

    Row ia pairs a = pts[ia] with each b = pts[ib] of its window; with
    b0 <= a0 and b1 >= a1, ``_lp`` gives y0 = a0 + b0, or 2 b0 + unit once
    a0 - b0 > unit, and y1 likewise (an INF a0 or b1 takes the second
    case).  A b before a gives (2 a0, 2 b1), below 2 a.  The window ends at
    the first b with b1 >= a1 + unit (the later ones all give
    y1 = 2 a1 + unit, and a lower y0), and at the last ib with
    b0 >= p0[ia+1] - unit: past it rows ia and ia + 1 both give
    y0 = 2 b0 + unit, and row ia + 1, whose window reaches at least as far,
    the larger y1.  As point N-1-i is point i mirrored, the pairs (ia, ib)
    and (N-1-ib, N-1-ia) give mirror points, so only ia + ib <= N - 1 is
    evaluated.  A pair cut by any of these leads, by a mirror (which lowers
    ib) or a step to row ia + 1 (which keeps ib), to an evaluated pair whose
    point covers its own.  No evaluated point needs folding: with
    ib <= N-1-ia, b comes no later than a mirrored, so b0 >= a1 and
    b1 <= a0, and as the LP value is monotone in both inputs,
    y0 >= lp(a0, a1) >= y1.

    Along a row y0 strictly falls and y1 never falls, so a heap keyed on
    (-y0, -y1), started from every row's first point (the pair (a, a) gives
    2 a, INF included), pops the generated points in
    descending order, and a popped point is kept exactly when its y1 beats
    the best kept so far.  After each pop the row jumps, by one ``bisect``,
    to its next ib whose y1 = min(a1 + b1, 2 a1 + unit) can beat that best;
    no point jumped over could be kept.  ``best`` starts at -INF, below
    every coordinate, negative ones included.  A row ends once
    2 a1 + unit <= best, before ``best - a1`` is formed: best reaches INF
    only from the point (INF, INF), so INF - INF is never formed."""
    firsts = [-p0 for p0, _ in pts]
    one = [p1 for _, p1 in pts]
    last = len(pts) - 1
    ends = []
    for ia, (a0, a1) in enumerate(pts):
        end = min(bisect_left(one, a1 + unit),
                  bisect_right(firsts, unit - pts[ia + 1][0]) - 1 if ia < last else last,
                  last - ia)
        if end < ia:
            break
        ends.append(end)
    # ascending in -a0, so already a heap
    heap = [(-2 * a0, -2 * a1, ia, ia)
            for ia, (a0, a1) in enumerate(pts[:len(ends)])]
    kept = []
    best = -INF
    while heap:
        k0, k1, ia, ib = heap[0]  # (-y0, -y1, row, column)
        if -k1 > best:
            best = -k1
            kept.append((-k0, best))
            # unfolding adds the mirror of every kept point but the diagonal
            # one, which is kept last (it has the largest y1)
            if 2 * len(kept) - (-k0 == best) > FRONTIER_CAP:
                raise FrontierSizeExceeded(f"frontier exceeds {FRONTIER_CAP} points")
        a0, a1 = pts[ia]
        ib = (bisect_right(one, best - a1, ib + 1, ends[ia] + 1)
              if 2 * a1 + unit > best else last + 1)
        if ib <= ends[ia]:
            b0, b1 = pts[ib]
            heapq.heapreplace(heap, (-(a0 + b0 if a0 - b0 <= unit else 2 * b0 + unit),
                                     -(a1 + b1 if b1 - a1 <= unit else 2 * a1 + unit), ia, ib))
        else:
            heapq.heappop(heap)
    return kept


def next_frontier(points, n: int, prune: bool = True) -> frozenset:
    """D^{k+1} from D^k: for every ordered n-tuple of D^k points, coordinate i
    of the generated point is the LP value of the tuple's i-th coordinates.
    ``points`` may hold points that others dominate."""
    pts, scale = _scaled(points)
    return _to_fractions(_step(sorted(set(pts), reverse=True), n, n * scale, prune), n * scale)


class FrontierBuilder:
    """Lazily builds and caches D^0, D^1, ... for a fixed n as integer
    levels; ``get`` converts one to ``Fraction`` each time it is asked for."""

    def __init__(self, n: int, progress=None):
        if n < 2:
            raise ValueError("need at least 2 agents")
        self.n = n
        self.progress = progress  # called as progress(k, points, ns) after building level k
        self._levels = [_axis_level(n)]
        self._firsts: dict[int, list] = {}  # n = 2 staircases: negated coordinate 0

    def level(self, k: int) -> list:
        """Level k: integer tuples at scale n**k, sorted descending."""
        if k < 0:
            raise ValueError("k must be >= 0")
        n = self.n
        while len(self._levels) <= k:
            j = len(self._levels)
            start = time.perf_counter_ns()
            self._levels.append(_step(self._levels[-1], n, n ** j, True))
            if self.progress:
                self.progress(j, len(self._levels[j]), time.perf_counter_ns() - start)
        return self._levels[k]

    def _covers(self, k: int, x: list, den: int) -> bool:
        """Whether some point of level k strictly dominates the state ``x``,
        integers over ``den`` with INF as it is.  At level k the state
        becomes integer thresholds t_i = floor(x_i * n**k / den): an integer
        p exceeds x_i * n**k / den exactly when it exceeds t_i, and an INF
        coordinate is INF itself, which nothing exceeds."""
        level = self.level(k)
        scale = self.n ** k
        t = [INF if v == INF else v * scale // den for v in x]
        if self.n == 2:
            # the points with p0 > t0 are a prefix; its last point has the largest p1
            firsts = self._firsts.get(k)
            if firsts is None:
                firsts = self._firsts[k] = [-p0 for p0, _ in level]
            i = bisect_left(firsts, -t[0])
            return i > 0 and level[i - 1][1] > t[1]
        return any(all(map(gt, p, t)) for p in level)

    def get(self, k: int) -> frozenset:
        return _to_fractions(self.level(k), self.n ** k)


# ---------------------------------------------------------------------------
# AUX and EXP
# ---------------------------------------------------------------------------

def _checked(n: int, builder: FrontierBuilder | None, k_max: int, *vectors) -> FrontierBuilder:
    """The builder to use, once k_max >= 0 and every vector has n rational
    (not bool) or INF coordinates."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    for x in vectors:
        if len(x) != n:
            raise ValueError(f"{len(x)} coordinates given, expected n = {n}")
        if not all(type(v) is Fraction or type(v) is int or is_inf(v)
                   or (isinstance(v, Rational) and not isinstance(v, bool)) for v in x):
            raise ValueError(f"coordinates must be Fraction, int or INF: {x!r}")
    if builder is None:
        return FrontierBuilder(n)
    if builder.n != n:
        raise ValueError(f"builder is for n = {builder.n}, not n = {n}")
    return builder


def _horizon(x: list, den: int, builder: FrontierBuilder, k_max: int, lo: int = 0) -> int:
    """aux on a checked state ``x``, integers over ``den`` with INF as it
    is, given that no level below ``lo`` dominates it; k_max + 1 when no D^k
    with k <= k_max does.  As the levels are nested, it bisects over the
    levels already built up to k_max and past them scans upward, so it
    builds no level that a scan from D^0 would not build."""
    if min(x) < 0:
        return 0  # already lost, whatever the other coordinates are
    top = min(len(builder._levels) - 1, k_max)
    if lo <= top and builder._covers(top, x, den):
        hi = top
        while lo < hi:
            mid = (lo + hi) // 2
            if builder._covers(mid, x, den):
                hi = mid
            else:
                lo = mid + 1
        return lo
    for k in range(max(lo, top + 1), k_max + 1):
        if builder._covers(k, x, den):
            return k
    return k_max + 1


def aux(x: tuple, n: int, k_max: int = K_MAX, builder: FrontierBuilder | None = None) -> int:
    """Smallest k such that some D^k point dominates x, i.e. the minimum
    number of rounds in which an adversary can force a violation from x; 0
    when a coordinate of x is already negative, even beside an INF one."""
    builder = _checked(n, builder, k_max, x)
    (x,), den = _scaled([x])
    k = _horizon(x, den, builder, k_max)
    if k > k_max:
        raise KMaxExceeded(f"no D^k dominates the state for k <= {k_max}")
    return k


def exp_policy(delta: tuple, values: tuple, n: int, k_max: int = K_MAX,
               builder: FrontierBuilder | None = None) -> int:
    """Give the item to the recipient whose post-state survives longest
    (largest AUX; beyond-k_max counts as best); ties -> lowest index.  In
    the post-state the recipient gains (n-1) times their value and everyone
    else loses theirs, on integers over one common denominator of delta and
    the item, whose values are checked finite before any is subtracted, so
    an INF coordinate stays INF.  A later recipient wins only if D^best, at
    the best horizon so far, does not dominate its post-state; only then is
    its horizon searched, from best + 1 up."""
    builder = _checked(n, builder, k_max, delta, values)
    (d, u), den = _scaled([delta, values])
    if not all(0 <= uj <= den for uj in u):
        raise ValueError("item values must be rationals in [0, 1]")
    missed = [dj - uj for dj, uj in zip(d, u)]
    best, best_tau = 0, -1
    for i in range(n):
        x = missed.copy()
        x[i] = d[i] + (n - 1) * u[i]
        if best_tau < 0:
            best_tau = _horizon(x, den, builder, k_max)
        elif min(x) >= 0 and not builder._covers(best_tau, x, den):
            best, best_tau = i, _horizon(x, den, builder, k_max, best_tau + 1)
        if best_tau > k_max:
            break
    return best
