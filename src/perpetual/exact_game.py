"""Exact solver for the unit-scale proportionality game.

State is the shifted surplus delta_i = n*v_i(P_i) - v_i(G) + n*c; the game is
alive while every coordinate is >= 0.  D^k is the set of frontier points whose
strictly-dominated region is exactly the set of states from which an adversary
can force a violation within k rounds; AUX finds the smallest such k and EXP
picks the recipient maximizing it.

Everything here is exact: coordinates are ``Fraction`` or the ``INF``
singleton.  Floating point is forbidden in this module -- domination is a
strict inequality and the reference value aux((2,2)) = 10 must be bit-certain.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


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

ExtRational = object  # Fraction | _Infinity; alias for documentation only


def is_inf(v) -> bool:
    return isinstance(v, _Infinity)


def lp_solve(x: tuple, i: int) -> tuple:
    """Maximize y subject to y + (n-1) z <= x_i, y - z <= x_j (j != i),
    0 <= z <= 1.  Closed form: with mu = min_{j != i} x_j,
    z* = clamp((x_i - mu)/n, 0, 1) and Y = min(x_i - (n-1) z*, mu + z*);
    infinite coordinates are resolved before any subtraction.

    Returns (Y, z*) with Y extended-rational and z* a Fraction in [0, 1].
    """
    n = len(x)
    xi = x[i]
    mu = min(x[j] for j in range(n) if j != i)
    if is_inf(xi) and is_inf(mu):
        y, z = INF, Fraction(0)
    elif is_inf(xi):
        y, z = mu + Fraction(1), Fraction(1)
    elif is_inf(mu):
        y, z = xi, Fraction(0)
    else:
        z = min(max((xi - mu) / n, Fraction(0)), Fraction(1))
        y = min(xi - (n - 1) * z, mu + z)
    # exact feasibility check on every call
    assert is_inf(xi) or y + (n - 1) * z <= xi
    assert all(is_inf(x[j]) or (is_inf(y) is False and y - z <= x[j]) for j in range(n) if j != i)
    return y, z


def d0(n: int) -> frozenset:
    """Axis points: one 0 coordinate, INF elsewhere."""
    pts = set()
    for i in range(n):
        pts.add(tuple(Fraction(0) if j == i else INF for j in range(n)))
    return frozenset(pts)


def _weakly_covers(a: tuple, b: tuple) -> bool:
    return all(ai >= bi for ai, bi in zip(a, b))


def pareto_prune(points, n: int) -> frozenset:
    """Keep only Pareto-maximal points (coordinate-wise).  Sound because a
    coordinate-wise larger point strictly dominates everything the smaller
    one does, so the dominated region is unchanged."""
    pts = sorted(set(points), reverse=True)
    if n == 2:
        kept = []
        best1 = None
        for q in pts:
            if best1 is None or q[1] > best1:
                kept.append(q)
                best1 = q[1]
        return frozenset(kept)
    kept = []
    for q in pts:
        if not any(o != q and _weakly_covers(o, q) for o in pts):
            kept.append(q)
    return frozenset(kept)


def _y2(xi, mu):
    """Closed-form LP value for n = 2 (same case split as lp_solve)."""
    if is_inf(xi):
        return INF if is_inf(mu) else mu + 1
    if is_inf(mu) or xi <= mu:
        return xi
    if xi - mu <= 2:
        return (xi + mu) / 2
    return mu + 1


def next_frontier(points, n: int, prune: bool = True, cap: int = 10**6) -> frozenset:
    """D^{k+1} from D^k: for every ordered n-tuple of D^k points, coordinate i
    of the generated point is the LP value of the tuple's i-th coordinates."""
    pts = sorted(points, reverse=True)  # canonical order for determinism
    out = set()
    if n == 2:
        # hot path: both coordinates have the same closed form
        # coordinate 0 solves the LP at index 0 of (a0, b0); coordinate 1 at
        # index 1 of (a1, b1), i.e. x_i = b1 and mu = a1
        for a in pts:
            a0, a1 = a
            for b in pts:
                out.add((_y2(a0, b[0]), _y2(b[1], a1)))
            if len(out) > cap:
                raise FrontierSizeExceeded(f"frontier exceeds {cap} points")
        return pareto_prune(out, n) if prune else frozenset(out)

    memo: dict = {}

    def y_of(vec: tuple, i: int):
        key = (vec, i)
        got = memo.get(key)
        if got is None:
            got = lp_solve(vec, i)[0]
            memo[key] = got
        return got

    for tup in itertools.product(pts, repeat=n):
        q = tuple(y_of(tuple(tup[j][i] for j in range(n)), i) for i in range(n))
        out.add(q)
        if len(out) > cap:
            raise FrontierSizeExceeded(f"frontier exceeds {cap} points")
    return pareto_prune(out, n) if prune else frozenset(out)


class FrontierBuilder:
    """Lazily builds and caches D^0, D^1, ... for a fixed n."""

    def __init__(self, n: int, cap: int = 10**6, prune: bool = True):
        if n < 2:
            raise ValueError("need at least 2 agents")
        self.n = n
        self.cap = cap
        self.prune = prune
        self._frontiers = [d0(n)]

    def get(self, k: int) -> frozenset:
        if k < 0:
            raise ValueError("k must be >= 0")
        while len(self._frontiers) <= k:
            self._frontiers.append(
                next_frontier(self._frontiers[-1], self.n, prune=self.prune, cap=self.cap)
            )
        return self._frontiers[k]


def dominates(p: tuple, x: tuple) -> bool:
    """Strict domination in every coordinate; INF > any finite value."""
    return all(pi > xi for pi, xi in zip(p, x))


def aux(x: tuple, n: int, k_max: int = 12, builder: FrontierBuilder | None = None) -> int:
    """Smallest k such that some D^k point dominates x, i.e. the minimum
    number of rounds in which an adversary can force a violation from x."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if builder is None:
        builder = FrontierBuilder(n)
    for k in range(k_max + 1):
        if any(dominates(p, x) for p in builder.get(k)):
            return k
    raise KMaxExceeded(f"no D^k dominates the state for k <= {k_max}")


def surplus_update(delta: tuple, values: tuple, recipient: int) -> tuple:
    """Shifted-surplus step: the recipient gains (n-1) times their value,
    everyone else loses theirs."""
    n = len(delta)
    return tuple(
        delta[j] + (n - 1) * values[j] if j == recipient else delta[j] - values[j]
        for j in range(n)
    )


def exp_policy(delta: tuple, values: tuple, n: int, k_max: int = 12,
               builder: FrontierBuilder | None = None) -> int:
    """Give the item to the recipient whose post-state survives longest
    (largest AUX; beyond-k_max counts as best); ties -> lowest index."""
    if builder is None:
        builder = FrontierBuilder(n)
    for v in values:
        if is_inf(v) or v < 0 or v > 1:
            raise ValueError("item values must be rationals in [0, 1]")
    best, best_tau = 0, -1
    for i in range(n):
        child = surplus_update(delta, values, i)
        try:
            tau = aux(child, n, k_max, builder)
        except KMaxExceeded:
            tau = k_max + 1
        if tau > best_tau:
            best, best_tau = i, tau
    return best
