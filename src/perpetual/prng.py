"""Deterministic PRNG for stream generation.

Streams must be bit-exact across platforms and implementations, so we pin the
generator explicitly instead of relying on ``random`` or numpy defaults:
xoshiro256** seeded from a splitmix64 expansion of the 64-bit user seed.
Doubles are produced the canonical way, ``(x >> 11) * 2**-53``.  Draws come
in blocks: Python steps only the linear engine, keeping each pre-step ``s1``,
and numpy applies the ``**`` scrambler ``rotl(s1 * 5, 7) * 9`` to the block.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


class Xoshiro256StarStar:
    """xoshiro256** with the standard splitmix64 seeding procedure."""

    def __init__(self, seed: int):
        sm = seed & _MASK64
        s = []
        for _ in range(4):
            out, sm = _splitmix64_next(sm)
            s.append(out)
        self._s = s

    def u64s(self, m: int) -> np.ndarray:
        """The next ``m`` outputs as a uint64 array."""
        s0, s1, s2, s3 = self._s
        pre = [0] * m
        for i in range(m):
            pre[i] = s1
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
        self._s = [s0, s1, s2, s3]
        x = np.array(pre, dtype=np.uint64) * np.uint64(5)  # uint64 arithmetic wraps mod 2**64
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
