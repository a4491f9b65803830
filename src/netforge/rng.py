"""Deterministic pseudo-random numbers for reproducible netlists.

Pure-Python xoshiro256** seeded through SplitMix64. Sampled values are
bit-identical across platforms and interpreter versions, which keeps golden
netlist files stable. Gaussian variates use the Box-Muller transform
(cosine branch, one variate per pair of uniforms).

Every random parameter of every netlist line draws here, so the generator
keeps its state in four slots and next_u64 steps it inline, with no helper
call and no list per draw; random and gauss take their bits from next_u64.
tests/test_rng.py pins next_u64 and the float draws bit for bit.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_DOUBLE = 2.0 ** -53


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)), state


def derive_seed(base: int, index: int) -> int:
    """Mix an index into a base seed, producing an independent 64-bit seed."""
    mixed = (base ^ ((index + 1) * 0x9E3779B97F4A7C15)) & _MASK64
    value, _ = _splitmix64(mixed)
    return value


class Xoshiro256StarStar:
    """xoshiro256** generator. Single-owner: not safe to share across threads."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int = 0):
        state = seed & _MASK64
        self._s0, state = _splitmix64(state)
        self._s1, state = _splitmix64(state)
        self._s2, state = _splitmix64(state)
        self._s3, state = _splitmix64(state)

    def next_u64(self) -> int:
        s0, s1 = self._s0, self._s1
        s2 = self._s2 ^ s0
        s3 = self._s3 ^ s1
        x = (s1 * 5) & _MASK64
        self._s0 = s0 ^ s3
        self._s1 = s1 ^ s2
        self._s2 = s2 ^ ((s1 << 17) & _MASK64)
        self._s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        return ((x << 7) | (x >> 57)) * 9 & _MASK64

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _DOUBLE

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def gauss(self, mean: float = 0.0, std: float = 1.0) -> float:
        # u1 is shifted into (0, 1] so the log stays finite
        u1 = ((self.next_u64() >> 11) + 1) * _DOUBLE
        u2 = (self.next_u64() >> 11) * _DOUBLE
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mean + std * z

    def lognormal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return math.exp(self.gauss(mu, sigma))


def as_generator(rng) -> Xoshiro256StarStar:
    """Coerce a seed or generator into a generator; None means seed 0."""
    if rng is None:
        return Xoshiro256StarStar(0)
    if isinstance(rng, int):
        return Xoshiro256StarStar(rng)
    return rng
