"""Deterministic PRNG for stream generation.

Streams must be bit-exact across platforms and implementations, so we pin the
generator explicitly instead of relying on ``random`` or numpy defaults:
xoshiro256** seeded from a splitmix64 expansion of the 64-bit user seed.
Doubles are produced the canonical way, ``(x >> 11) * 2**-53``.  The engine is
linear over GF(2), so a block of 256 steps is an XOR of table rows, one per
3-bit group of the state (the method of four Russians): each state word has 22
groups, bits 3k..3k+2, the last holding bit 63 alone.  The 704 x 260 uint64
group table (1.46 MB) has a row for each group and value; it is built in place
once per process, on the first draw.  Row indices are taken by shifts on the
uint64 state words, so they do not depend on byte order.  numpy applies the
scrambler ``rotl(s1 * 5, 7) * 9``.
"""
from __future__ import annotations

from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GROUP_BITS = 3
_GROUP_SHIFTS = np.arange(0, 64, _GROUP_BITS, dtype=np.uint64)  # 22 groups per word
_GROUP_MASK = np.uint64((1 << _GROUP_BITS) - 1)
# the table row of value 0 of each of the state's 88 groups, word by word
_GROUP_ROWS = np.arange(4 * len(_GROUP_SHIFTS), dtype=np.uint64) << np.uint64(_GROUP_BITS)


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


@cache
def _group_table() -> np.ndarray:
    """Row 8 g + v, for group g = 22 w + k of word w and value v: the pre-step
    ``s1`` of 256 engine steps from the state whose only set bits are v << 3k in
    word w, then the 4 state words after them.  The top group has only
    bit 63, so its rows for v >= 2 are never read."""
    values = (np.arange(1 << _GROUP_BITS, dtype=np.uint64) << _GROUP_SHIFTS[:, None]).ravel()
    s0, s1, s2, s3 = np.kron(np.eye(4, dtype=np.uint64), values)
    table = np.empty((len(values) * 4, 260), dtype=np.uint64)
    for j in range(256):  # the engine step, on all 704 group states at once
        table[:, j] = s1
        s0, s1, s2, s3 = (s0 ^ s3 ^ s1, s1 ^ s2 ^ s0, s2 ^ s0 ^ (s1 << np.uint64(17)),
                          (s3 ^ s1) << np.uint64(45) | (s3 ^ s1) >> np.uint64(19))
    table[:, 256:] = np.stack([s0, s1, s2, s3], axis=1)
    table.flags.writeable = False  # one table serves every generator in the process
    return table


class Xoshiro256StarStar:
    """xoshiro256** with the standard splitmix64 seeding procedure."""

    def __init__(self, seed: int):
        self._state, sm = np.empty(4, dtype=np.uint64), seed & _MASK64  # after the last block
        for i in range(4):
            self._state[i], sm = _splitmix64_next(sm)
        self._pre = np.empty(0, dtype=np.uint64)  # pre-scramble words drawn, not yet served

    def u64s(self, m: int) -> np.ndarray:
        """The next ``m`` outputs as a uint64 array."""
        if m < 0:
            raise ValueError(f"cannot draw {m} outputs")
        words = [self._pre]
        for _ in range(-((len(self._pre) - m) // 256)):  # the blocks to add
            rows = (self._state[:, None] >> _GROUP_SHIFTS & _GROUP_MASK).ravel() + _GROUP_ROWS
            block = np.bitwise_xor.reduce(_group_table().take(rows, axis=0), axis=0)
            words.append(block[:256])
            self._state = block[256:]
        pre = np.concatenate(words)
        x, self._pre = pre[:m] * np.uint64(5), pre[m:]  # uint64 arithmetic wraps mod 2**64
        return ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)

    def doubles(self, m: int) -> np.ndarray:
        """The next ``m`` outputs as doubles in [0, 1): the 53 high bits times 2**-53."""
        return (self.u64s(m) >> np.uint64(11)) * 2.0 ** -53

    def next_u64(self) -> int:
        return int(self.u64s(1)[0])

    def next_double(self) -> float:
        return float(self.doubles(1)[0])

    def next_index(self, bound: int) -> int:
        """Uniform integer in [0, bound) derived from one double draw."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return min(int(self.next_double() * bound), bound - 1)
