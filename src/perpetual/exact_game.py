"""Exact solver for the unit-scale proportionality game.

State is the shifted surplus delta_i = n*v_i(P_i) - v_i(G) + n*c; the game is
alive while every coordinate is >= 0.  D^k is the set of frontier points whose
strictly-dominated region is exactly the set of states from which an adversary
can force a violation within k rounds; AUX finds the smallest such k and EXP
picks the recipient maximizing it.

Everything here is exact, and floating point is forbidden in this module --
domination is a strict inequality and the reference value aux((2,2)) = 10 must
be bit-certain.  Inside, the solver runs on Python integers: the LP only ever
divides by n, so every D^k coordinate is a multiple of 1/n**k, and level k is
kept as integer tuples at scale n**k.  Multiplying a level by n makes each
division of the next LP an exact integer division.  An unbounded coordinate is
the integer sentinel ``_INF``, which is never scaled and exceeds every finite
coordinate.  At the API boundary coordinates are ``Fraction`` (or int) or the
``INF`` singleton: ``FrontierBuilder.get`` converts a level once and caches
it, and ``aux`` turns the queried state into integer thresholds per level.
"""
from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from numbers import Rational
from operator import ge, gt


class KMaxExceeded(RuntimeError):
    pass


class FrontierSizeExceeded(RuntimeError):
    pass


class _Infinity:
    """Positive infinity for extended-rational coordinates.  a + INF = INF,
    min(a, INF) = a, INF - finite = INF; INF - INF is a hard error."""

    __slots__ = ()

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __lt__(self, other):
        return False

    def __ge__(self, other):
        return True

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("extended-rational-inf")

    def __add__(self, other):
        return INF

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Infinity):
            raise ArithmeticError("inf - inf is undefined")
        return INF

    def __rsub__(self, other):
        raise ArithmeticError("finite - inf is not used here")

    def __repr__(self):
        return "inf"


INF = _Infinity()

#: INF inside the integer kernel, and the bound the boundary puts on scaled
#: finite inputs: one LP step maps inputs below _FINITE to outputs far below
#: _INF.
_INF = 1 << 1024
_FINITE = 1 << 512

#: default largest horizon k that aux and exp_policy search
K_MAX = 12
#: most points a level may reach while it is built (FrontierSizeExceeded past it)
FRONTIER_CAP = 10**6


def is_inf(v) -> bool:
    return isinstance(v, _Infinity)


# ---------------------------------------------------------------------------
# Boundary conversions
# ---------------------------------------------------------------------------

def _scaled(points, n: int) -> tuple:
    """``points`` as integer tuples at n times their least common denominator,
    so every finite coordinate is a multiple of n; and that scale."""
    scale = n * math.lcm(*{v.denominator for p in points for v in p if not is_inf(v)})
    ints = [tuple(_INF if is_inf(v) else v.numerator * scale // v.denominator for v in p)
            for p in points]
    if any(v != _INF and abs(v) >= _FINITE for p in ints for v in p):
        raise ValueError("coordinate too large for the exact solver")
    return ints, scale


def _to_fractions(level, scale: int) -> frozenset:
    return frozenset(tuple(INF if v == _INF else Fraction(v, scale) for v in p)
                     for p in level)


# ---------------------------------------------------------------------------
# The LP
# ---------------------------------------------------------------------------

def _lp(xi: int, mu: int, n: int, unit: int) -> tuple:
    """(Y, z*) at scale ``unit`` (the integer standing for 1) on coordinates
    that are multiples of n or ``_INF``, so (xi - mu) // n is exact."""
    if xi == _INF:
        return (_INF, 0) if mu == _INF else (mu + unit, unit)
    if mu == _INF:
        return xi, 0
    z = min(max((xi - mu) // n, 0), unit)
    y = min(xi - (n - 1) * z, mu + z)
    # exact feasibility check on every call (the INF cases hold by construction)
    assert y + (n - 1) * z <= xi
    assert y - z <= mu
    return y, z


def lp_solve(x: tuple, i: int) -> tuple:
    """Maximize y subject to y + (n-1) z <= x_i, y - z <= x_j (j != i),
    0 <= z <= 1.  Closed form: with mu = min_{j != i} x_j,
    z* = clamp((x_i - mu)/n, 0, 1) and Y = min(x_i - (n-1) z*, mu + z*);
    infinite coordinates are resolved before any subtraction.

    Returns (Y, z*) with Y extended-rational and z* a Fraction in [0, 1].
    """
    n = len(x)
    (xs,), scale = _scaled([x], n)
    y, z = _lp(xs[i], min(xs[:i] + xs[i + 1:]), n, scale)
    return INF if y == _INF else Fraction(y, scale), Fraction(z, scale)


# ---------------------------------------------------------------------------
# Frontiers
# ---------------------------------------------------------------------------

def _axis_level(n: int) -> list:
    """D^0 at scale 1, sorted descending."""
    return sorted((tuple(0 if j == i else _INF for j in range(n)) for i in range(n)),
                  reverse=True)


def _pareto_front(points, n: int) -> list:
    """The Pareto-maximal points of ``points``, sorted descending.

    In lexicographic-descending order every point that weakly covers q comes
    before q, and a covered point's coverer covers everything it does, so q
    is compared only with the points already kept.  For n = 2 only the
    largest second coordinate per first coordinate can be kept, so the sweep
    sorts first coordinates, not points."""
    if n == 2:
        top = {}
        for p0, p1 in points:
            if top.get(p0, p1) <= p1:
                top[p0] = p1
        return _staircase(top)
    kept = []
    for q in sorted(set(points), reverse=True):
        if not any(all(map(ge, o, q)) for o in kept):
            kept.append(q)
    return kept


def _staircase(top: dict) -> list:
    """The Pareto front of the n = 2 points {p0: largest p1}, sorted
    descending: coordinate 0 strictly falls and coordinate 1 strictly rises."""
    kept = []
    for p0 in sorted(top, reverse=True):
        if not kept or top[p0] > kept[-1][1]:
            kept.append((p0, top[p0]))
    return kept


def _step(pts: list, n: int, unit: int, prune: bool) -> list:
    """The next level from ``pts``, integer tuples at scale ``unit`` whose
    finite coordinates are multiples of n, sorted descending: for every
    ordered n-tuple of points, coordinate i of the generated point is the LP
    value of the tuple's i-th coordinates.  Returns the level sorted
    descending, at the same scale."""
    if n == 2 and prune:
        return _step2(pts, unit)
    out = set()
    y = functools.lru_cache(maxsize=None)(lambda xi, mu: _lp(xi, mu, n, unit)[0])
    for tup in itertools.product(pts, repeat=n):
        out.add(tuple(y(c[i], min(c[:i] + c[i + 1:])) for i, c in enumerate(zip(*tup))))
        if len(out) > FRONTIER_CAP:
            raise FrontierSizeExceeded(f"frontier exceeds {FRONTIER_CAP} points")
    return _pareto_front(out, n) if prune else sorted(out, reverse=True)


def _step2(pts: list, unit: int) -> list:
    """The pruned n = 2 step from a staircase ``pts``.  For a first point a,
    every b with b0 >= a0 gives coordinate 0 = a0, so the last of them
    dominates the others; every b with b1 >= a1 + 2 unit gives coordinate
    1 = a1 + unit, so the first of them dominates the others.  Only the window
    from the one to the other is evaluated, with ``_lp``'s n = 2 value inlined
    (``_INF`` needs no case: it stays above 2 unit after subtracting a finite
    value), and a generated point only raises the largest coordinate 1 kept
    for its coordinate 0."""
    neg0 = [-p0 for p0, _ in pts]
    one = [p1 for _, p1 in pts]
    two = 2 * unit
    top = {}
    for a0, a1 in pts:
        for b0, b1 in pts[bisect_right(neg0, -a0) - 1:bisect_left(one, a1 + two) + 1]:
            y0 = a0 if a0 <= b0 else (a0 + b0) // 2 if a0 - b0 <= two else b0 + unit
            y1 = b1 if b1 <= a1 else (b1 + a1) // 2 if b1 - a1 <= two else a1 + unit
            if top.get(y0, y1) <= y1:
                top[y0] = y1
        if len(top) > FRONTIER_CAP:
            raise FrontierSizeExceeded(f"frontier exceeds {FRONTIER_CAP} points")
    return _staircase(top)


def next_frontier(points, n: int, prune: bool = True) -> frozenset:
    """D^{k+1} from D^k: for every ordered n-tuple of D^k points, coordinate i
    of the generated point is the LP value of the tuple's i-th coordinates."""
    pts, unit = _scaled(points, n)
    # pruning the inputs first is sound: every LP value is monotone in its inputs
    pts = _pareto_front(pts, 2) if n == 2 and prune else sorted(pts, reverse=True)
    return _to_fractions(_step(pts, n, unit, prune), unit)


class FrontierBuilder:
    """Lazily builds and caches D^0, D^1, ... for a fixed n: integer levels
    for the solver, and each level's ``Fraction`` form once it is asked for."""

    def __init__(self, n: int, prune: bool = True):
        if n < 2:
            raise ValueError("need at least 2 agents")
        self.n = n
        self.prune = prune
        self._levels = [_axis_level(n)]
        self._fractions: dict[int, frozenset] = {}

    def _level(self, k: int) -> list:
        """Level k: integer tuples at scale n**k, sorted descending."""
        if k < 0:
            raise ValueError("k must be >= 0")
        n = self.n
        while len(self._levels) <= k:
            j = len(self._levels)
            # the previous level at scale n**j: every finite coordinate a multiple of n
            pts = [tuple(v if v == _INF else v * n for v in p) for p in self._levels[-1]]
            self._levels.append(_step(pts, n, n ** j, self.prune))
        return self._levels[k]

    def get(self, k: int) -> frozenset:
        got = self._fractions.get(k)
        if got is None:
            got = self._fractions[k] = _to_fractions(self._level(k), self.n ** k)
        return got


# ---------------------------------------------------------------------------
# AUX and EXP
# ---------------------------------------------------------------------------

def dominates(p: tuple, x: tuple) -> bool:
    """Strict domination in every coordinate; INF > any finite value."""
    return all(pi > xi for pi, xi in zip(p, x))


def _checked(n: int, builder: FrontierBuilder | None, *vectors) -> FrontierBuilder:
    """The builder to use, once every vector has n rational or INF coordinates."""
    for x in vectors:
        if len(x) != n:
            raise ValueError(f"{len(x)} coordinates given, expected n = {n}")
        if not all(is_inf(v) or isinstance(v, Rational) for v in x):
            raise ValueError(f"coordinates must be Fraction, int or INF: {x!r}")
    if builder is None:
        return FrontierBuilder(n)
    if builder.n != n:
        raise ValueError(f"builder is for n = {builder.n}, not n = {n}")
    return builder


def _neg0(p: tuple) -> int:
    return -p[0]


def _horizon(x: tuple, builder: FrontierBuilder, k_max: int) -> int:
    """aux on a checked state, k_max + 1 when no D^k with k <= k_max
    dominates it.  At level k the state becomes integer thresholds
    t_i = floor(x_i * n**k): an integer p exceeds x_i * n**k exactly when it
    exceeds t_i.  A threshold past every finite coordinate is clamped below
    ``_INF``; an INF coordinate is ``_INF`` itself, which nothing exceeds."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    n = builder.n
    ratios = [None if is_inf(v) else (v.numerator, v.denominator) for v in x]
    if any(r is not None and r[0] < 0 for r in ratios):
        return 0  # already lost, whatever the other coordinates are
    staircase = n == 2 and builder.prune
    for k in range(k_max + 1):
        scale = n ** k
        t = [_INF if r is None else min(r[0] * scale // r[1], _INF - 1) for r in ratios]
        level = builder._level(k)
        if staircase:
            # the points with p0 > t0 are a prefix; its last point has the largest p1
            i = bisect_left(level, -t[0], key=_neg0)
            if i and level[i - 1][1] > t[1]:
                return k
        elif any(all(map(gt, p, t)) for p in level):
            return k
    return k_max + 1


def aux(x: tuple, n: int, k_max: int = K_MAX, builder: FrontierBuilder | None = None) -> int:
    """Smallest k such that some D^k point dominates x, i.e. the minimum
    number of rounds in which an adversary can force a violation from x; 0
    when a coordinate of x is already negative, even beside an INF one."""
    k = _horizon(x, _checked(n, builder, x), k_max)
    if k > k_max:
        raise KMaxExceeded(f"no D^k dominates the state for k <= {k_max}")
    return k


def surplus_update(delta: tuple, values: tuple, recipient: int) -> tuple:
    """Shifted-surplus step: the recipient gains (n-1) times their value,
    everyone else loses theirs."""
    n = len(delta)
    return tuple(
        delta[j] + (n - 1) * values[j] if j == recipient else delta[j] - values[j]
        for j in range(n)
    )


def exp_policy(delta: tuple, values: tuple, n: int, k_max: int = K_MAX,
               builder: FrontierBuilder | None = None) -> int:
    """Give the item to the recipient whose post-state survives longest
    (largest AUX; beyond-k_max counts as best); ties -> lowest index."""
    builder = _checked(n, builder, delta, values)
    for v in values:
        if is_inf(v) or v < 0 or v > 1:
            raise ValueError("item values must be rationals in [0, 1]")
    best, best_tau = 0, -1
    for i in range(n):
        tau = _horizon(surplus_update(delta, values, i), builder, k_max)
        if tau > best_tau:
            best, best_tau = i, tau
    return best
