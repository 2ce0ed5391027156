"""Deterministic PRNG for stream generation.

Streams must be bit-exact across platforms and implementations, so we pin the
generator explicitly instead of relying on ``random`` or numpy defaults:
xoshiro256** seeded from a splitmix64 expansion of the 64-bit user seed.
Doubles are produced the canonical way, ``(x >> 11) * 2**-53``.  The engine is
linear over GF(2), so a block of 256 steps is an XOR of basis-table rows picked
by the state's set bits; numpy applies the scrambler ``rotl(s1 * 5, 7) * 9``.
"""
from __future__ import annotations

from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1
_SHIFTS = np.arange(64, dtype=np.uint64)


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


@cache
def _basis_table() -> np.ndarray:
    """Row k: the pre-step ``s1`` of 256 engine steps from the unit state with
    only bit k % 64 of word k // 64 set, then the 4 state words after them."""
    s0, s1, s2, s3 = np.kron(np.eye(4, dtype=np.uint64), np.uint64(1) << _SHIFTS)
    table = np.empty((256, 260), dtype=np.uint64)
    for j in range(256):  # the engine step, on all 256 unit states at once
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
        words = [self._pre]
        for _ in range(-((len(self._pre) - m) // 256)):  # the blocks to add
            bits = (self._state[:, None] >> _SHIFTS & np.uint64(1)).ravel().astype(bool)
            block = np.bitwise_xor.reduce(_basis_table()[bits], axis=0)
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
        return min(int(self.next_double() * bound), bound - 1)
