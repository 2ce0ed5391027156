"""The block-drawn xoshiro256** generator and the random stream kinds against
the textbook one-draw-at-a-time step."""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perpetual
from perpetual.baselines import RANDOM_KINDS, StreamSpec, stream_generate
from perpetual.prng import Xoshiro256StarStar, _group_table, _splitmix64_next

MASK = (1 << 64) - 1


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


def _oracle_step(s):
    """One xoshiro256** output and the next state, as in the reference C code."""
    s0, s1, s2, s3 = s
    result = (_rotl((s1 * 5) & MASK, 7) * 9) & MASK
    t = (s1 << 17) & MASK
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    return result, [s0, s1, s2, _rotl(s3, 45)]


def _oracle_seed(seed):
    """The start state: four splitmix64 outputs from the seed."""
    s, sm = [], seed
    for _ in range(4):
        x, sm = _splitmix64_next(sm)
        s.append(x)
    return s


def _assert_continues_from(rng, s, m=600):
    """The generator's next ``m`` outputs are the oracle's continuation from
    state ``s``: more than two 256-word table blocks, which fix the engine
    state the generator holds."""
    want = []
    for _ in range(m):
        x, s = _oracle_step(s)
        want.append(x)
    assert rng.u64s(m).tolist() == want


def _oracle_doubles(seed, m):
    s = _oracle_seed(seed)
    out = []
    for _ in range(m):
        x, s = _oracle_step(s)
        out.append((x >> 11) * 2.0 ** -53)
    return out


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 64 - 1),
       st.lists(st.tuples(st.booleans(), st.integers(0, 2500)), min_size=1, max_size=4))
@example(0, [(True, 3), (False, 0), (True, 1)])
@example(2 ** 64 - 1, [(False, 2500), (True, 7)])
# calls that end short of, on and past the 256-word table block
@example(0, [(False, 255), (True, 1), (False, 0), (True, 256), (False, 257), (True, 513)])
@example(1, [(True, 255), (False, 1), (True, 0), (False, 256), (True, 257), (False, 513)])
@example(2 ** 63, [(False, 255), (True, 1), (False, 0), (True, 256), (False, 257), (True, 513)])
@example(2 ** 64 - 1, [(True, 255), (False, 1), (True, 0), (False, 256), (True, 257),
                       (False, 513)])
def test_block_draws_equal_scalar_oracle(seed, calls):
    rng = Xoshiro256StarStar(seed)
    s = _oracle_seed(seed)
    for as_doubles, m in calls:
        want = []
        for _ in range(m):
            x, s = _oracle_step(s)
            want.append((x >> 11) * 2.0 ** -53 if as_doubles else x)
        got = rng.doubles(m) if as_doubles else rng.u64s(m)
        assert got.dtype == (np.float64 if as_doubles else np.uint64)
        assert got.tolist() == want
    _assert_continues_from(rng, s)


def test_scalar_wrappers_equal_scalar_oracle():
    """One draw at a time, through ``u64s(1)`` and ``doubles(1)``."""
    rng = Xoshiro256StarStar(2024)
    s = _oracle_seed(2024)
    for _ in range(5):
        x, s = _oracle_step(s)
        assert rng.u64s(1).tolist() == [x]
        x, s = _oracle_step(s)
        assert rng.doubles(1).tolist() == [(x >> 11) * 2.0 ** -53]
    _assert_continues_from(rng, s)


@pytest.mark.parametrize("refused", [lambda rng: rng.u64s(-3), lambda rng: rng.doubles(-1)])
def test_refused_call_leaves_the_stream_in_step(refused):
    rng = Xoshiro256StarStar(99)
    s = _oracle_seed(99)
    for _ in range(10):
        _, s = _oracle_step(s)
    rng.u64s(10)
    with pytest.raises(ValueError):
        refused(rng)
    _assert_continues_from(rng, s)


def test_group_table_rows_equal_scalar_oracle_runs():
    """Row 8 (22 w + k) + v holds the pre-step s1 of 256 oracle steps from the
    state with only the bits v << 3k of word w set, then the state after them;
    group 21 of each word holds bit 63 alone."""
    table = _group_table()
    assert table.shape == (704, 260) and table.nbytes <= 1.5e6
    with pytest.raises(ValueError):
        table[1, 0] = 1
    cases = [(w, 21, v) for w in range(4) for v in (0, 1)]
    cases += [(w, k, v) for w in range(4) for k in (0, 11, 20) for v in range(1, 8)]
    for w, k, v in cases:
        s = [0, 0, 0, 0]
        s[w] = v << 3 * k
        want = []
        for _ in range(256):
            want.append(s[1])
            _, s = _oracle_step(s)
        assert table[8 * (22 * w + k) + v].tolist() == want + s


# (kind, params) -> the value one drawn double d gives
_PER_DRAW = [
    ("uniform_random", {}, lambda d: d),
    ("bernoulli", {"prob": 0.0}, lambda d: 0.0),
    ("bernoulli", {"prob": 1.0}, lambda d: 1.0),
    ("bernoulli", {"prob": 0.3}, lambda d: 1.0 if d < 0.3 else 0.0),
    ("choice", {"values": [0.7]}, lambda d: 0.7),
    ("choice", {"values": [0.25, 2, 1.0]}, lambda d: [0.25, 2.0, 1.0][min(int(d * 3), 2)]),
]

# (n, width, length): 341 rounds per block at n = 3, so 1000 rounds end in a
# partial block; m = 1024 is one round per block; m = 2048 is a round larger
# than a block; n = 2 with 1 and 3 rounds draws 2 and 6 words of one table block
_SHAPES = [(3, None, 1000), (64, 16, 3), (64, 32, 2), (2, None, 0), (5, 4, 60),
           (2, None, 1), (2, None, 3)]


def test_per_draw_cases_cover_every_random_kind():
    assert {kind for kind, _, _ in _PER_DRAW} == set(RANDOM_KINDS)


@pytest.mark.parametrize("kind,params,value", _PER_DRAW)
@pytest.mark.parametrize("n,width,length", _SHAPES)
def test_stream_equals_per_draw_oracle(kind, params, value, n, width, length):
    seed = 1000 * n + length
    rows = list(stream_generate(StreamSpec(kind, n, length, seed=seed, params=params,
                                           width=width)))
    assert len(rows) == length
    shape = (n,) if width is None else (n, width)
    assert all(r.shape == shape and r.dtype == np.float64 for r in rows)
    got = [x for r in rows for x in r.ravel().tolist()]
    assert got == [value(d) for d in _oracle_doubles(seed, length * n * (width or 1))]


def test_choice_index_guard_at_the_top_double():
    spec = StreamSpec("choice", 2, 1, seed=1, params={"values": [0.5, 0.75, 1.0]})
    top = np.array([0.0, 1 / 3, 2 / 3, 1.0 - 2.0 ** -53, 1.0])
    assert spec.row(top).tolist() == [0.5, 0.75, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_every_64_bit_seed_is_accepted(seed):
    rows = list(stream_generate(StreamSpec("uniform_random", 2, 3, seed=seed)))
    assert [x for r in rows for x in r.tolist()] == _oracle_doubles(seed, 6)


def test_import_and_config_build_no_basis_table():
    """The group table is built on the first draw: importing the package,
    building a random-stream config and seeding a generator leave it unbuilt."""
    code = textwrap.dedent("""
        import perpetual
        from perpetual.prng import Xoshiro256StarStar, _group_table
        from perpetual.simulate import RunConfig
        RunConfig.from_dict({"instantiation": "pdm", "policy": "potential", "n": 64,
                             "length": 10, "num_outcomes": 16,
                             "stream": {"kind": "uniform_random", "seed": 7}})
        rng = Xoshiro256StarStar(7)
        assert _group_table.cache_info().currsize == 0
        rng.u64s(1)
        assert _group_table.cache_info().currsize == 1
    """)
    src = str(Path(perpetual.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})
