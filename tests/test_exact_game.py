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

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perpetual.cli import cli_dispatch
from perpetual.exact_game import (
    _INF,
    INF,
    FrontierBuilder,
    FrontierSizeExceeded,
    KMaxExceeded,
    aux,
    dominates,
    exp_policy,
    is_inf,
    lp_solve,
    _pareto_front,
    _step,
    next_frontier,
    surplus_update,
)

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
    """A sweep for n = 2; every pair of points otherwise."""
    pts = sorted(set(points), reverse=True)
    if len(pts[0]) == 2:
        kept, best1 = [], None
        for q in pts:
            if best1 is None or q[1] > best1:
                kept.append(q)
                best1 = q[1]
        return frozenset(kept)
    return frozenset(q for q in pts
                     if not any(o != q and all(a >= b for a, b in zip(o, q)) for o in pts))


def _oracle_next_frontier(points, n, prune=True):
    out = {
        tuple(_oracle_lp_solve(tuple(tup[j][i] for j in range(n)), i)[0] for i in range(n))
        for tup in itertools.product(points, repeat=n)
    }
    return _oracle_prune(out) if prune else frozenset(out)


def _oracle_aux(x, builder, k_max):
    """The Fraction domination scan over FrontierBuilder.get levels; a state
    with a negative coordinate has already lost."""
    if any(not is_inf(v) and v < 0 for v in x):
        return 0
    for k in range(k_max + 1):
        if any(dominates(p, x) for p in builder.get(k)):
            return k
    return k_max + 1


# ---------------------------------------------------------------------------
# Extended rationals
# ---------------------------------------------------------------------------

def test_inf_ordering_and_arithmetic():
    assert INF > F(10**9)
    assert not (INF > INF)
    assert INF >= INF and INF == INF and not (INF < F(0))
    assert is_inf(INF + F(3)) and is_inf(F(3) + INF)
    assert is_inf(INF - F(5))
    with pytest.raises(ArithmeticError):
        INF - INF
    with pytest.raises(ArithmeticError):
        F(1) - INF


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
    with pytest.raises(ValueError):  # beyond the integer kernel's range
        lp_solve((F(2**600), F(0)), 0)


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


def test_windowed_step_matches_full_enumeration_n2():
    """The pruned n = 2 step, which evaluates only each chain's window, keeps
    exactly the Pareto front of every generated pair."""
    builder = FrontierBuilder(2)
    for k in range(1, 11):
        pts = [tuple(v if v == _INF else 2 * v for v in p) for p in builder._level(k - 1)]
        full = _step(pts, 2, 2 ** k, False)
        assert _step(pts, 2, 2 ** k, True) == _pareto_front(full, 2) == builder._level(k)


def test_frontier_sizes_n3():
    builder = FrontierBuilder(3)
    assert [len(builder.get(k)) for k in range(5)] == [3, 6, 13, 31, 100]


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


def test_unpruned_builder_matches_fraction_oracle():
    for n, k_max in ((2, 3), (3, 2)):
        raw = FrontierBuilder(n, prune=False)
        chain = FrontierBuilder(n).get(0)
        for k in range(1, k_max + 1):
            chain = _oracle_next_frontier(chain, n, prune=False)
            assert raw.get(k) == chain


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
    pruned = FrontierBuilder(n, prune=True)
    raw = FrontierBuilder(n, prune=False)
    for k in range(k_max + 1):
        p, r = pruned.get(k), raw.get(k)
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


def test_pareto_prune_basic():
    pts = [(F(1), F(1)), (F(0), F(1)), (F(2), F(0)), (F(1), F(0))]
    assert frozenset(_pareto_front(pts, 2)) == frozenset({(F(1), F(1)), (F(2), F(0))})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pareto_prune_matches_quadratic_oracle(n):
    rng = random.Random(10 + n)
    for _ in range(40):
        pts = [tuple(INF if rng.random() < 0.1 else F(rng.randint(0, 6), rng.randint(1, 3))
                     for _ in range(n)) for _ in range(rng.randint(1, 40))]
        assert frozenset(_pareto_front(pts, n)) == _oracle_prune(pts)


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
    for state in ((F(5),), (0, 0, -1), (F(1, 2), 0.25), (0.5, 0.25), ("1", 0)):
        with pytest.raises(ValueError):
            aux(state, 2, builder=b)
    with pytest.raises(ValueError):
        aux((F(1), F(1)), 3, builder=b)  # the builder is for n = 2


def test_aux_accepts_ints_and_inf():
    b = FrontierBuilder(2)
    assert aux((2, 2), 2, builder=b) == aux((F(2), F(2)), 2, builder=b) == 10
    with pytest.raises(KMaxExceeded):
        aux((INF, F(0)), 2, k_max=4, builder=b)  # no point exceeds INF
    # a coordinate past the integer INF still loses to an INF point
    assert aux((F(10**400, 3), F(-1)), 2, builder=b) == 0
    assert aux((F(-1, 7), F(10**400)), 2, builder=b) == 0
    # a negative coordinate has already lost, even beside an INF one
    assert aux((F(-1), INF), 2, builder=b) == 0
    assert aux((INF, INF, F(-1, 3)), 3) == 0


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
def test_integer_aux_matches_fraction_scan(case):
    """Thresholds floor(x_i * n**k) decide domination exactly as the Fraction
    comparison does, for negative, fractional and INF coordinates alike; a
    negative coordinate is 0 rounds from a violation."""
    n, x = case
    x = tuple(x)
    builder, k_max = _BUILDERS[n], _K_MAX[n]
    want = _oracle_aux(x, builder, k_max)
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
    ):
        with pytest.raises(ValueError):
            exp_policy(delta, item, 2, builder=b)
