"""Exact frontier solver: LP closed form, frontier construction, AUX/EXP.

The solver runs on scaled integers; the ``Fraction`` implementation it
replaced is kept below as an oracle, and the integer kernel must produce the
same point sets and the same AUX values.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from operator import ge

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perpetual.cli import cli_dispatch
from perpetual.exact_game import (
    INF,
    FrontierBuilder,
    FrontierSizeExceeded,
    KMaxExceeded,
    aux,
    exp_policy,
    is_inf,
    _step,
    next_frontier,
)

from oracles import dominates, lp_solve, oracle_aux, oracle_exp_policy, surplus_update

F = Fraction


# ---------------------------------------------------------------------------
# Fraction oracle: the LP, frontier step and prune on extended rationals
# ---------------------------------------------------------------------------

def _oracle_lp_solve(x, i):
    n = len(x)
    xi = x[i]
    mu = min(x[j] for j in range(n) if j != i)
    if is_inf(xi) and is_inf(mu):
        return INF, F(0)
    if is_inf(xi):
        return mu + 1, F(1)
    if is_inf(mu):
        return xi, F(0)
    z = min(max((xi - mu) / n, F(0)), F(1))
    return min(xi - (n - 1) * z, mu + z), z


def _oracle_prune(points):
    """A sweep for n = 2; otherwise each point against the points kept before
    it, in descending order: every point that weakly covers q comes before q,
    and a covered point's coverer covers everything it does."""
    pts = sorted(set(points), reverse=True)
    kept = []
    if len(pts[0]) == 2:
        for q in pts:
            if not kept or q[1] > kept[-1][1]:
                kept.append(q)
        return frozenset(kept)
    for q in pts:
        if not any(all(a >= b for a, b in zip(o, q)) for o in kept):
            kept.append(q)
    return frozenset(kept)


def _oracle_next_frontier(points, n, prune=True):
    out = {
        tuple(_oracle_lp_solve(tuple(tup[j][i] for j in range(n)), i)[0] for i in range(n))
        for tup in itertools.product(points, repeat=n)
    }
    return _oracle_prune(out) if prune else frozenset(out)


# ---------------------------------------------------------------------------
# Extended rationals
# ---------------------------------------------------------------------------

def test_inf_ordering_and_arithmetic():
    assert INF > F(10**9) and INF > 10**400
    assert not (INF > INF)
    assert INF >= INF and INF == INF and not (INF < F(0))
    assert is_inf(INF + F(3)) and is_inf(F(3) + INF)
    assert is_inf(INF - F(5))
    assert is_inf(INF) and is_inf(float("inf"))
    for v in (F(3), 7, 1.5, -INF):
        assert not is_inf(v), v


# ---------------------------------------------------------------------------
# LP closed form
# ---------------------------------------------------------------------------

def test_lp_solve_examples():
    assert lp_solve((INF, F(0)), 0) == (F(1), F(1))
    assert lp_solve((F(1), F(1)), 0) == (F(1), F(0))
    assert lp_solve((F(3), F(0)), 0) == (F(1), F(1))
    y, z = lp_solve((INF, INF), 0)
    assert is_inf(y) and z == 0
    # three agents: x = (4, 1, 2), i = 0 -> z* = 1, Y = min(4 - 2, 1 + 1) = 2
    assert lp_solve((F(4), F(1), F(2)), 0) == (F(2), F(1))
    # the integer kernel has no size ceiling
    assert lp_solve((F(2**600), F(0)), 0) == (F(1), F(1))
    pts = {(F(2**600), F(0)), (F(0), F(2**600))}
    assert next_frontier(pts, 2) == _oracle_next_frontier(pts, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lp_solve_matches_fraction_oracle(n):
    rng = random.Random(n)
    for _ in range(300):
        x = tuple(INF if rng.random() < 0.2 else F(rng.randint(-30, 60), rng.randint(1, 12))
                  for _ in range(n))
        for i in range(n):
            assert lp_solve(x, i) == _oracle_lp_solve(x, i), (x, i)


@pytest.mark.parametrize("n", [2, 3])
def test_lp_solve_matches_grid_oracle(n):
    """For fixed z, the best y is min(x_i - (n-1)z, min_j x_j + z); a fine z
    grid must come within Lipschitz distance of the closed-form optimum."""
    q = 1000
    rng = random.Random(0)
    for _ in range(40):
        x = tuple(F(rng.randint(0, 40), 8) for _ in range(n))
        for i in range(n):
            y, zstar = lp_solve(x, i)
            mu = min(x[j] for j in range(n) if j != i)
            best = max(
                min(x[i] - (n - 1) * F(k, q), mu + F(k, q)) for k in range(q + 1)
            )
            assert best <= y  # closed form is feasible-optimal
            assert y - best <= F(n, q)
            assert F(0) <= zstar <= F(1)


# ---------------------------------------------------------------------------
# Frontiers
# ---------------------------------------------------------------------------

def test_d0():
    assert FrontierBuilder(2).get(0) == frozenset({(F(0), INF), (INF, F(0))})
    assert len(FrontierBuilder(4).get(0)) == 4


def test_d1_n2():
    assert next_frontier(FrontierBuilder(2).get(0), 2) == frozenset(
        {(F(0), INF), (F(1), F(1)), (INF, F(0))}
    )


def test_frontier_sizes_n2():
    builder = FrontierBuilder(2)
    assert [len(builder.get(k)) for k in range(11)] == [
        2, 3, 5, 9, 17, 35, 71, 151, 325, 693, 1477]


def test_frontier_sizes_n2_deep():
    """D^11 and D^12 build under the default 10^6 point cap."""
    builder = FrontierBuilder(2)
    assert [len(builder.get(k)) for k in (11, 12)] == [3111, 6571]


def _oracle_level(points):
    """``_oracle_prune`` of ``points`` in the solver's form: sorted descending."""
    return sorted(_oracle_prune(points), reverse=True)


def test_windowed_step_matches_full_enumeration_n2():
    """The pruned n = 2 step, which evaluates only each chain's window, keeps
    exactly the Pareto front of every generated pair."""
    builder = FrontierBuilder(2)
    for k in range(1, 11):
        pts = builder.level(k - 1)
        full = _step(pts, 2, 2 ** k, False)
        assert _step(pts, 2, 2 ** k, True) == _oracle_level(full) == builder.level(k)


def test_heap_step_matches_full_enumeration_on_random_staircases():
    """The pruned n = 2 step on seeded staircases with negative and INF
    coordinates, at several scales, keeps exactly the Pareto front of every
    generated pair: through the heap merge when the staircase is closed
    under the mirror, and through the generic path when it is not."""
    rng = random.Random(19)
    seen = set()
    for _ in range(400):
        span = rng.choice([3, 10, 40, 200])
        pts = {tuple(INF if rng.random() < 0.08 else rng.randint(-span, span)
                     for _ in range(2)) for _ in range(rng.randint(1, 30))}
        if rng.random() < 0.5:
            pts |= {(b, a) for a, b in pts}
        pts = _oracle_level(pts)
        seen.add(set(pts) == _closure(pts))
        unit = rng.choice([1, 2, 3, 8, 64])
        assert _step(pts, 2, unit, True) == _oracle_level(_step(pts, 2, unit, False)), (
            pts, unit)
    assert seen == {False, True}


def test_frontier_pinned_n2_deepest(tmp_path):
    """D^14 as the window-pair step built it (sha256 of the CSV that
    ``exact frontier --n 2 --k 14`` writes), and |D^15|."""
    assert _csv_digest(tmp_path, 2, 14)[0] == (
        "59f4da5c6744e12eeb0324eaddf309ada4d2d1ff59b163e6b3c7b50feb9336ab")
    assert len(FrontierBuilder(2).level(15)) == 61653


class _CountedReads(list):
    """A level that counts its indexed reads: the n = 2 step reads one point
    per row to set up, one per heap pop and one per evaluated pair."""

    def __init__(self, pts):
        super().__init__(pts)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_heap_step_work_n2():
    """D^12 from D^11 (3111 points) reads far fewer points than the
    1,685,267 pairs of the mirror-restricted windows: about 55k, and about
    78k without the window end at b0 >= p0[ia+1] - unit."""
    builder = FrontierBuilder(2)
    level = _CountedReads(builder.level(11))
    assert _step(level, 2, 2 ** 12, True) == builder.level(12)
    assert 0 < level.reads < 60_000


def test_frontier_cap_refuses_n2_level_halfway(monkeypatch):
    """The n = 2 step refuses a level once twice its kept points, less the
    diagonal one, pass the cap: with the cap at half of |D^12| = 6571 it
    stops well before the end of the D^12 step."""
    builder = FrontierBuilder(2)
    pts = builder.level(11)
    full = _CountedReads(pts)
    assert _step(full, 2, 2 ** 12, True) == builder.level(12)
    monkeypatch.setattr("perpetual.exact_game.FRONTIER_CAP", len(builder.level(12)) // 2)
    level = _CountedReads(pts)
    with pytest.raises(FrontierSizeExceeded):
        _step(level, 2, 2 ** 12, True)
    assert level.reads < 0.6 * full.reads


def test_folded_step_matches_full_enumeration_n3():
    """The pruned n = 3 step, which keeps the sorted forms and then their
    permutations, keeps exactly the Pareto front of every generated point."""
    builder = FrontierBuilder(3)
    for k in range(1, 5):
        pts = builder.level(k - 1)
        full = _step(pts, 3, 3 ** k, False)
        assert _step(pts, 3, 3 ** k, True) == _oracle_level(full) == builder.level(k)


def _closure(points):
    """Every permutation of every point of ``points``."""
    return {q for p in points for q in itertools.permutations(p)}


@pytest.mark.parametrize("n, k_max", [(2, 12), (3, 4)])
def test_levels_closed_under_permuting_coordinates(n, k_max):
    """The game is symmetric in the agents, so every level is: the property
    that puts each step on its folded path."""
    builder = FrontierBuilder(n)
    for k in range(k_max + 1):
        assert set(builder.level(k)) == _closure(builder.level(k)), k


def test_levels_hold_only_ints_and_inf():
    """INF is the one float in a level, and no step makes a nan: every
    coordinate of n = 2 D^0..D^12 and n = 3 D^0..D^5 is an int or equals
    INF, and the all-INF point steps as in the Fraction oracle."""
    for n, k_max in ((2, 12), (3, 5)):
        builder = FrontierBuilder(n)
        for k in range(k_max + 1):
            for p in builder.level(k):
                assert all(type(v) is int or v == INF for v in p), (n, k, p)
        point = {(INF,) * n}
        assert next_frontier(point, n) == _oracle_next_frontier(point, n)


def test_frontier_sizes_n3():
    builder = FrontierBuilder(3)
    assert [len(builder.get(k)) for k in range(6)] == [3, 6, 13, 31, 100, 349]


def test_array_step_blocks(monkeypatch):
    """Small blocks, so each step merges many blocks into its front and
    drops prefixes and points against it, build the same levels as one
    block per step, on int64 and on Python ints alike, also when the cover
    tables take coarse grids of at most 2 values per coordinate."""
    want = {n: [FrontierBuilder(n).level(k) for k in range(top)] for n, top in ((3, 5), (4, 3))}
    big = {(F(2**40, 7), F(-1, 2**40), INF), (F(3), INF, F(-2**45, 3)), (F(0), F(1), F(5, 9))}
    for bits in (20, 2):
        monkeypatch.setattr("perpetual.exact_game._TABLE_BITS", bits)
        monkeypatch.setattr("perpetual.exact_game._BLOCK", 40)
        for n, levels in want.items():
            builder = FrontierBuilder(n)
            assert [builder.level(k) for k in range(len(levels))] == levels
        monkeypatch.setattr("perpetual.exact_game._BLOCK", 4)
        for points in (big, _closure(big)):
            assert next_frontier(points, 3) == _oracle_next_frontier(points, 3)


def _covered(lower, upper, n):
    """Whether every point of ``lower`` is weakly below some point of
    ``upper``; for n = 2 a sweep down coordinate 0 that keeps the largest
    coordinate 1 seen so far."""
    if n > 2:
        return all(any(all(map(ge, q, p)) for q in upper) for p in lower)
    ups = sorted(upper, reverse=True)
    j, most = 0, None
    for p0, p1 in sorted(lower, reverse=True):
        while j < len(ups) and ups[j][0] >= p0:
            most = ups[j][1] if most is None else max(most, ups[j][1])
            j += 1
        if most is None or most < p1:
            return False
    return True


@pytest.mark.parametrize("n, k_max", [(2, 10), (3, 3)])
def test_frontier_levels_nested(n, k_max):
    """Every point of D^k, scaled by n onto D^{k+1}'s grid, is weakly below
    a point of D^{k+1}: the property the bisection of aux rests on."""
    builder = FrontierBuilder(n)
    for k in range(k_max + 1):
        lower = [tuple(n * v for v in p) for p in builder.level(k)]
        assert _covered(lower, builder.level(k + 1), n), k


@pytest.mark.parametrize("n, k_max", [(2, 8), (3, 3)])
def test_integer_frontiers_match_fraction_oracle(n, k_max):
    """Each level, unpruned and pruned, equals the Fraction oracle's step
    from the level before; D^0 is the same, so the whole chain is."""
    builder = FrontierBuilder(n)
    for k in range(1, k_max + 1):
        prev = builder.get(k - 1)
        raw = _oracle_next_frontier(prev, n, prune=False)
        assert next_frontier(prev, n, prune=False) == raw
        assert next_frontier(prev, n) == builder.get(k) == _oracle_prune(raw)


def test_next_frontier_accepts_any_rational_points():
    """Coordinates on no common power of n are scaled to a common integer grid."""
    pts = {(F(1, 3), F(5, 7)), (F(-2, 5), INF), (INF, F(0))}
    for prune in (True, False):
        assert next_frontier(pts, 2, prune=prune) == _oracle_next_frontier(pts, 2, prune=prune)
    # dominated and repeated first coordinates: the pruned step reduces its
    # inputs to their staircase first
    rng = random.Random(5)
    for _ in range(30):
        pts = {tuple(INF if rng.random() < 0.1 else F(rng.randint(-3, 12), rng.randint(1, 4))
                     for _ in range(2)) for _ in range(rng.randint(1, 12))}
        assert next_frontier(pts, 2) == _oracle_next_frontier(pts, 2)
    pts3 = {(F(1, 3), F(5, 7), INF), (F(2), F(-1, 4), F(1, 6)), (INF, F(0), F(3, 2))}
    assert next_frontier(pts3, 3) == _oracle_next_frontier(pts3, 3)
    rng = random.Random(6)
    for _ in range(10):
        pts4 = {tuple(INF if rng.random() < 0.15 else F(rng.randint(-5, 12), rng.randint(1, 5))
                      for _ in range(4)) for _ in range(rng.randint(1, 4))}
        for prune in (True, False):
            assert next_frontier(pts4, 4, prune=prune) == _oracle_next_frontier(pts4, 4, prune)
    # scaled to n times the common denominator, these coordinates pass 2^63
    big = {(F(2**30, 7), F(-1, 2**40), INF), (F(3), INF, F(-2**35, 3)), (F(0), F(1), F(5, 9))}
    assert max(abs(v.numerator) * 3 * 7 * 9 * 2**40 // v.denominator
               for p in big for v in p if not is_inf(v)) > 2**63
    for prune in (True, False):
        assert next_frontier(big, 3, prune=prune) == _oracle_next_frontier(big, 3, prune)


@pytest.mark.parametrize("n, k_max", [(2, 6), (3, 3)])
def test_next_frontier_steps_from_unpruned_points(n, k_max):
    """A built level with points it weakly dominates added (some with a
    finite coordinate in place of an INF one), and the closure of that set,
    both step to the next level: the LP is monotone, so dominated inputs
    change nothing."""
    rng = random.Random(60 + n)
    builder = FrontierBuilder(n)
    for k in range(1, k_max + 1):
        level = builder.get(k - 1)
        below = set()
        for p in level:
            i = rng.randrange(n)
            v = F(k) if is_inf(p[i]) else p[i] - F(rng.randint(1, 2), n ** (k - 1))
            below.add(p[:i] + (v,) + p[i + 1:])
        for points in (level | below, _closure(level | below)):
            assert next_frontier(points, n) == builder.get(k), k


def test_next_frontier_deep_n2():
    builder = FrontierBuilder(2)
    assert next_frontier(builder.get(10), 2) == builder.get(11)


@pytest.mark.parametrize("n, most", [(2, 8), (3, 2), (4, 2)])
def test_next_frontier_folds_only_closed_point_sets(n, most):
    """Seeded point sets that are not closed under permuting coordinates
    take the unfolded step, and their closures the folded one; both equal
    the Fraction oracle.  For n = 4 each point takes its coordinates from
    two drawn values, so a closure has at most 12 points."""
    rng = random.Random(40 + n)

    def draw():
        return INF if rng.random() < 0.1 else F(rng.randint(-3, 12), rng.randint(1, 4))

    for _ in range(12 if n < 4 else 4):
        if n < 4:
            pts = {tuple(draw() for _ in range(n)) for _ in range(rng.randint(2, most))}
        else:
            pts = set()
            for _ in range(most):
                values = (draw(), draw())
                pts.add(tuple(rng.choice(values) for _ in range(n)))
        assert pts != _closure(pts)
        for points in (pts, _closure(pts)):
            raw = _oracle_next_frontier(points, n, prune=False)
            assert next_frontier(points, n, prune=False) == raw
            assert next_frontier(points, n) == _oracle_prune(raw)


def _csv_digest(tmp_path, n, k):
    out = tmp_path / f"d{n}_{k}.csv"
    assert cli_dispatch(["exact", "frontier", "--n", str(n), "--k", str(k),
                         "--out", str(out)]) == 0
    data = out.read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def test_frontier_csv_pinned(tmp_path):
    """The CSVs the Fraction solver wrote, byte for byte."""
    assert _csv_digest(tmp_path, 2, 10) == (
        "51437b799b6202072c20fadbfc24436e159066e46259b3d900364077e2abb188", 1478)
    assert _csv_digest(tmp_path, 3, 4)[0] == (
        "6be92121faa902626ec60a529a79e8d4b50cda6b802b735871a4b1c6288047f9")
    assert _csv_digest(tmp_path, 4, 4) == (
        "7efe984ca22e13adcbb3e578b5ab615e8f1e671970a225dd0ca9c865dba3c8eb", 294)


@pytest.mark.parametrize("n, k_max", [(2, 10), (3, 5), (4, 3)])
def test_frontier_csv_lists_the_fraction_level(tmp_path, n, k_max):
    """``exact frontier`` prints the points of ``get(k)``, sorted descending,
    as ``str`` writes them, row for row."""
    builder = FrontierBuilder(n)
    out = tmp_path / "d.csv"
    for k in range(k_max + 1):
        assert cli_dispatch(["exact", "frontier", "--n", str(n), "--k", str(k),
                             "--out", str(out)]) == 0
        want = [",".join(map(str, p)) for p in sorted(builder.get(k), reverse=True)]
        assert out.read_text().splitlines() == [",".join(f"x{i}" for i in range(n)), *want]


def test_pruned_frontier_pairwise_incomparable():
    builder = FrontierBuilder(2)
    for k in (2, 4, 6):
        pts = sorted(builder.get(k), reverse=True)
        for a in pts:
            for b in pts:
                if a != b:
                    assert not all(x >= y for x, y in zip(a, b)) or not all(
                        y >= x for x, y in zip(a, b)
                    )


def _check_prune_preserves_dominated_region(n, k_max, grid):
    """Each pruned level and the unpruned chain from D^0 dominate the same
    grid states."""
    pruned = FrontierBuilder(n)
    r = pruned.get(0)
    for k in range(k_max + 1):
        if k:
            r = next_frontier(r, n, prune=False)
        p = pruned.get(k)
        assert p <= r or k == 0
        for x in itertools.product(grid, repeat=n):
            assert any(dominates(q, x) for q in p) == any(dominates(q, x) for q in r)


def test_prune_preserves_dominated_region():
    _check_prune_preserves_dominated_region(2, 4, [F(k, 4) for k in range(17)])


def test_prune_preserves_dominated_region_n3():
    _check_prune_preserves_dominated_region(3, 2, [F(k, 3) for k in range(7)])


def test_frontier_cap(monkeypatch):
    monkeypatch.setattr("perpetual.exact_game.FRONTIER_CAP", 4)
    with pytest.raises(FrontierSizeExceeded):
        FrontierBuilder(2).get(3)


def test_frontier_cap_bounds_the_unfolded_level(monkeypatch):
    """The cap bounds the whole level, not the folded half the n = 2 step
    builds: D^6 has 71 points, 36 of them with p0 >= p1."""
    monkeypatch.setattr("perpetual.exact_game.FRONTIER_CAP", 70)
    builder = FrontierBuilder(2)
    assert len(builder.get(5)) == 35
    with pytest.raises(FrontierSizeExceeded):
        builder.get(6)


def test_frontier_cap_counts_the_kept_points(monkeypatch):
    """The n = 2 step checks the cap against the points it keeps: a cap of
    |D^9| = 693 builds D^9, and one point less refuses it."""
    monkeypatch.setattr("perpetual.exact_game.FRONTIER_CAP", 693)
    assert len(FrontierBuilder(2).get(9)) == 693
    monkeypatch.setattr("perpetual.exact_game.FRONTIER_CAP", 692)
    builder = FrontierBuilder(2)
    assert len(builder.get(8)) == 325
    with pytest.raises(FrontierSizeExceeded):
        builder.get(9)


def test_frontier_cap_counts_the_kept_points_n3(monkeypatch):
    """The n >= 3 step checks the cap against the unfolded level it keeps,
    not against its 137 distinct generated sorted forms: a cap of
    |D^3| = 31 builds D^3, and one point less refuses it."""
    monkeypatch.setattr("perpetual.exact_game.FRONTIER_CAP", 31)
    assert len(FrontierBuilder(3).get(3)) == 31
    monkeypatch.setattr("perpetual.exact_game.FRONTIER_CAP", 30)
    builder = FrontierBuilder(3)
    assert len(builder.get(2)) == 13
    with pytest.raises(FrontierSizeExceeded):
        builder.get(3)


# ---------------------------------------------------------------------------
# AUX
# ---------------------------------------------------------------------------

def test_dominates():
    assert dominates((INF, F(1)), (F(5), F(0)))
    assert not dominates((F(1), F(1)), (F(1), F(0)))  # strict in every coord


def test_aux_small_values():
    b = FrontierBuilder(2)
    assert aux((F(-1), F(5)), 2, builder=b) == 0  # already violated
    assert aux((F(0), F(0)), 2, builder=b) == 1
    assert aux((F(1), F(0)), 2, builder=b) == 2  # (2, 1/2) in D^2 covers it
    assert aux((F(1), F(1)), 2, builder=b) == 3
    with pytest.raises(KMaxExceeded):
        aux((F(2), F(2)), 2, k_max=5, builder=b)
    with pytest.raises(ValueError):
        aux((F(0), F(0)), 2, k_max=-1)


def test_aux_rejects_bad_states():
    b = FrontierBuilder(2)
    for state in ((F(5),), (0, 0, -1), (F(1, 2), 0.25), (0.5, 0.25), ("1", 0),
                  (True, F(1)), (F(0), False)):
        with pytest.raises(ValueError):
            aux(state, 2, builder=b)
    with pytest.raises(ValueError):
        aux((F(1), F(1)), 3, builder=b)  # the builder is for n = 2


@pytest.mark.parametrize("v, accepted", [
    (F(1), True), (1, True), (np.int64(1), True),
    (True, False), (1.0, False), (np.float64(1.0), False), ("1", False), (np.bool_(True), False),
])
def test_coordinate_types(v, accepted):
    """aux and exp_policy take exactly the rational, non-bool coordinates,
    in a state and in an item, and answer as they do for the Fraction."""
    b = FrontierBuilder(2)
    calls = (lambda u: aux((u, F(1)), 2, builder=b),
             lambda u: exp_policy((u, F(1)), (F(1, 2), F(1, 2)), 2, builder=b),
             lambda u: exp_policy((F(1), F(1)), (u, F(0)), 2, builder=b))
    for call in calls:
        if accepted:
            assert call(v) == call(F(1))
        else:
            with pytest.raises(ValueError):
                call(v)


def test_numpy_coordinates_do_not_wrap():
    """np.int64 coordinates are read as Python ints at the boundary, so
    products past 2**63 answer as the same Python ints do."""
    i64 = np.int64
    with pytest.raises(KMaxExceeded):
        aux((i64(2**62),) * 2, 2, k_max=3)
    assert exp_policy((i64(2**62), i64(3)), (i64(0), i64(1)), 2) == 0
    assert exp_policy((i64(2**62), i64(3)), (0, 1), 2) == 0
    pts = {(2**62, 0), (0, 2**62)}
    assert next_frontier({tuple(map(i64, p)) for p in pts}, 2) == next_frontier(pts, 2)
    assert lp_solve((i64(2**62), i64(0)), 0) == lp_solve((2**62, 0), 0) == (F(1), F(1))


def test_negative_k_max_rejected_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched a rejected query")

    monkeypatch.setattr("perpetual.exact_game._horizon", no_search)
    b = FrontierBuilder(2)
    with pytest.raises(ValueError):
        aux((F(1), F(1)), 2, k_max=-1, builder=b)
    with pytest.raises(ValueError):
        exp_policy((F(1), F(1)), (F(1, 2), F(1, 2)), 2, k_max=-1, builder=b)


def test_aux_accepts_ints_and_inf():
    b = FrontierBuilder(2)
    assert aux((2, 2), 2, builder=b) == aux((F(2), F(2)), 2, builder=b) == 10
    with pytest.raises(KMaxExceeded):
        aux((INF, F(0)), 2, k_max=4, builder=b)  # no point exceeds INF
    # a coordinate of any size still loses to an INF point
    assert aux((F(10**400, 3), F(-1)), 2, builder=b) == 0
    assert aux((F(-1, 7), F(10**400)), 2, builder=b) == 0
    # a negative coordinate has already lost, even beside an INF one
    assert aux((F(-1), INF), 2, builder=b) == 0
    assert aux((INF, INF, F(-1, 3)), 3) == 0


def test_readme_n3_answers():
    """The README's n = 3 game values: ``exact aux --n 3 --state 1,1,1``
    prints 2 and ``--state 2,2,2`` prints 5 (``D^5`` is built)."""
    b = FrontierBuilder(3)
    assert aux((1, 1, 1), 3, builder=b) == 2
    assert aux((2, 2, 2), 3, builder=b) == 5


RATIONALS = st.builds(F, st.integers(-36, 72), st.integers(1, 12))
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
_BUILDERS = {2: FrontierBuilder(2), 3: FrontierBuilder(3)}
_K_MAX = {2: 8, 3: 3}


@PROPERTY
@given(st.sampled_from([2, 3]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.one_of(RATIONALS, st.just(INF)),
                                             min_size=n, max_size=n))))
@example((2, [F(-1), INF]))
@example((2, [INF, F(-1, 12)]))
@example((3, [INF, F(-3), INF]))
@example((3, [INF, F(5, 7), F(-1, 11)]))
def test_integer_aux_matches_fraction_scan(case):
    """Thresholds floor(x_i * n**k) decide domination exactly as the Fraction
    comparison does, for negative, fractional and INF coordinates alike; a
    negative coordinate is 0 rounds from a violation."""
    n, x = case
    x = tuple(x)
    builder, k_max = _BUILDERS[n], _K_MAX[n]
    want = oracle_aux(x, builder, k_max)
    if want > k_max:
        with pytest.raises(KMaxExceeded):
            aux(x, n, k_max, builder)
    else:
        assert aux(x, n, k_max, builder) == want


def test_aux_monotone_in_state():
    """A coordinate-wise smaller state can never survive longer."""
    rng = random.Random(7)
    b = FrontierBuilder(2)
    for _ in range(100):
        x = (F(rng.randint(0, 12), 8), F(rng.randint(0, 12), 8))
        y = (x[0] + F(rng.randint(0, 8), 8), x[1] + F(rng.randint(0, 8), 8))
        try:
            ax = aux(x, 2, k_max=7, builder=b)
        except KMaxExceeded:
            continue
        try:
            ay = aux(y, 2, k_max=7, builder=b)
        except KMaxExceeded:
            ay = 8
        assert ax <= ay


def _certificate_items(builder, depth):
    """Adversary items harvested from the frontier construction: for every
    ordered pair of D^k points the optimal z* per coordinate."""
    quarter = [F(k, 4) for k in range(5)]
    certs = {(a, b) for a in quarter for b in quarter}
    for k in range(depth):
        pts = sorted(builder.get(k), reverse=True)
        for a in pts:
            for b in pts:
                z0 = lp_solve((a[0], b[0]), 0)[1]
                z1 = lp_solve((b[1], a[1]), 1)[1]
                certs.add((z0, z1))
    return sorted(certs)


def test_aux_matches_minimax_game_tree():
    """aux(x) = k means the adversary can force a negative coordinate within
    k rounds but not within k - 1, playing items from the certificate set."""
    builder = FrontierBuilder(2)
    certs = _certificate_items(builder, 3)
    memo = {}

    def forced(x, k):
        if min(x) < 0:
            return True
        if k == 0:
            return False
        key = (x, k)
        got = memo.get(key)
        if got is None:
            got = any(
                all(forced(surplus_update(x, v, i), k - 1) for i in (0, 1))
                for v in certs
            )
            memo[key] = got
        return got

    grid = [F(0), F(1, 2), F(1), F(3, 2), F(2)]
    checked = 0
    for x0 in grid:
        for x1 in grid:
            x = (x0, x1)
            try:
                k = aux(x, 2, k_max=3, builder=builder)
            except KMaxExceeded:
                continue
            assert forced(x, k), x
            if k > 0:
                assert not forced(x, k - 1), x
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# Surplus update and EXP
# ---------------------------------------------------------------------------

def test_surplus_update():
    assert surplus_update((F(0), F(3)), (F(1), F(1)), 0) == (F(1), F(2))
    assert surplus_update((F(0), F(3)), (F(1), F(1)), 1) == (F(-1), F(4))
    assert surplus_update((F(1), F(2), F(3)), (F(1, 2),) * 3, 2) == (
        F(1, 2), F(3, 2), F(4),
    )


def test_exp_policy_example():
    b = FrontierBuilder(2)
    assert exp_policy((F(0), F(3)), (F(1), F(1)), 2, builder=b) == 0
    # zero item: both children identical -> lowest index
    assert exp_policy((F(1), F(1)), (F(0), F(0)), 2, builder=b) == 0


def test_exp_policy_k_max_saturation():
    # both children survive beyond k_max -> treated equally, lowest index wins
    b = FrontierBuilder(2)
    assert exp_policy((F(9), F(9)), (F(1, 2), F(1, 2)), 2, k_max=2, builder=b) == 0


def test_exp_policy_rejects_bad_values():
    with pytest.raises(ValueError):
        exp_policy((F(1), F(1)), (F(2), F(0)), 2)
    with pytest.raises(ValueError):
        exp_policy((F(1), F(1)), (INF, F(0)), 2)


def test_exp_policy_rejects_bad_shapes_and_floats():
    b = FrontierBuilder(2)
    state = (F(1), F(1))
    for delta, item in (
        (state, (F(1, 2),)),              # item too short
        (state, (F(1, 2),) * 3),          # item too long
        ((F(1),), (F(1, 2), F(1, 2))),    # state too short
        (state, (0.5, F(1, 2))),          # float item value
        ((1.0, F(1)), (F(1, 2), F(1, 2))),  # float state coordinate
        (state, (True, F(0))),            # bool item value
        ((True, F(0)), (F(1, 2), F(1, 2))),  # bool state coordinate
    ):
        with pytest.raises(ValueError):
            exp_policy(delta, item, 2, builder=b)


SMALL = st.builds(F, st.integers(-4, 20), st.integers(1, 8))
ITEM_VALUES = st.builds(lambda a, b: F(min(a, b), b), st.integers(0, 12), st.integers(1, 12))
#: deepest level each n's EXP test may build
_DEEPEST = {2: 10, 3: 3}
_ORACLE_BUILDERS = {2: FrontierBuilder(2), 3: FrontierBuilder(3)}


@st.composite
def _exp_cases(draw):
    """(n, delta, item, builder kind, levels built before the query, k_max)."""
    n = draw(st.sampled_from([2, 3]))
    delta = tuple(draw(st.lists(st.one_of(SMALL, st.just(INF)), min_size=n, max_size=n)))
    item = tuple(draw(st.lists(ITEM_VALUES, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["warm", "fresh", "partial"]))
    built = draw(st.integers(1, _DEEPEST[n])) if kind == "partial" else 0
    return n, delta, item, kind, built, draw(st.integers(0, _DEEPEST[n]))


@PROPERTY
@given(_exp_cases())
@example((2, (F(2), F(2)), (F(1), F(0)), "fresh", 0, 10))
@example((2, (F(0), F(3)), (F(1), F(1)), "partial", 3, 9))
@example((3, (INF, F(-1), F(1)), (F(1, 2), F(0), F(1)), "warm", 0, 3))
# the winner's post-state subtracts an item value from INF
@example((2, (INF, F(1, 3)), (F(1, 5), F(1, 2)), "warm", 0, 8))
@example((3, (INF, F(5, 7), F(1, 11)), (F(1, 3), F(1, 4), F(2, 3)), "fresh", 0, 3))
def test_exp_policy_matches_linear_fraction_scan(case):
    """exp_policy equals the argmax of the Fraction scan over every
    recipient's ``surplus_update`` post-state, ties to the lowest index, on
    warm, fresh and partly built builders, with k_max below and past the
    built levels.  It builds exactly the levels that scan builds."""
    n, delta, item, kind, built, k_max = case
    if kind == "warm":
        builder = _BUILDERS[n]
        builder.level(_K_MAX[n])
    else:
        builder = FrontierBuilder(n)
        builder.level(built)
    before = len(builder._levels)
    got = exp_policy(delta, item, n, k_max, builder)
    oracle = _ORACLE_BUILDERS[n]
    assert got == oracle_exp_policy(delta, item, oracle, k_max)
    taus = [oracle_aux(surplus_update(delta, item, i), oracle, k_max) for i in range(n)]
    assert len(builder._levels) == max(before, min(max(taus), k_max) + 1)


def test_search_builds_no_level_the_scan_does_not():
    """The same seeded aux and exp queries on two fresh builders, one
    answered by the level-by-level Fraction scan and one by the bisecting
    search, leave both with the same number of levels after every query."""
    rng = random.Random(17)
    for n, deepest in _DEEPEST.items():
        scan, search = FrontierBuilder(n), FrontierBuilder(n)
        for _ in range(60):
            x = tuple(INF if rng.random() < 0.1 else F(rng.randint(-1, 6 * n), rng.randint(1, 4))
                      for _ in range(n))
            k_max = rng.randint(0, deepest)
            if rng.random() < 0.5:
                want = oracle_aux(x, scan, k_max)
                try:
                    assert aux(x, n, k_max, search) == want
                except KMaxExceeded:
                    assert want == k_max + 1
            else:
                item = tuple(F(rng.randint(0, 4), 4) for _ in range(n))
                assert (exp_policy(x, item, n, k_max, search)
                        == oracle_exp_policy(x, item, scan, k_max))
            assert len(search._levels) == len(scan._levels)
