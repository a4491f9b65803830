"""Deterministic pseudo-random numbers for reproducible netlists.

Pure-Python xoshiro256** seeded through SplitMix64. Sampled values are
bit-identical across platforms and interpreter versions, which keeps golden
netlist files stable. Gaussian variates use the Box-Muller transform
(cosine branch, one variate per pair of uniforms).

The generator keeps its state in four slots. One step, on the state in the
locals s0..s3 and leaving the 64-bit output in x, is kept here as source,
STEP, and next_u64 is exactly those lines between loading and storing the
slots. The kernel that a ParamPlan compiles for a run of netlist lines
(params.ParamPlan.run) splices STEP in once per draw, with UNIT,
UNIT_OPEN and GAUSS for the float transforms that random and gauss apply
to the output, so no other module holds a copy of the generator.
Xoshiro256StarStar.randoms, which draws a batch of random() doubles, runs a
loop generated from STEP and UNIT too; it is compiled on its first call,
not at import. tests/test_rng.py pins next_u64, the float draws, randoms
and a kernel's draws bit for bit, and checks that next_u64 and the loop
of randoms run the lines of STEP.

A kernel also has a replay form (params.ParamPlan.replay), which reads the
random() double of each output from a batch drawn before by randoms,
instead of stepping: REPLAY_UNIT and REPLAY_UNIT_OPEN give UNIT and
UNIT_OPEN from that double. UNIT_OPEN, ((x >> 11) + 1) * 2**-53, equals
UNIT + 2**-53 bit for bit: with k = x >> 11 < 2**53, UNIT is k * 2**-53,
and the exact sum (k + 1) * 2**-53 is a double, so the addition does not
round.
"""

from __future__ import annotations

import functools
import math

_MASK64 = (1 << 64) - 1
_DOUBLE = 2.0 ** -53

# one step of the generator on the locals s0..s3; the output is left in x
STEP = (
    "x = (s1 * 5) & 0xFFFFFFFFFFFFFFFF",
    "x = ((x << 7) | (x >> 57)) * 9 & 0xFFFFFFFFFFFFFFFF",
    "t = (s1 << 17) & 0xFFFFFFFFFFFFFFFF",
    "s2 ^= s0",
    "s3 ^= s1",
    "s1 ^= s2",
    "s0 ^= s3",
    "s2 ^= t",
    "s3 = ((s3 << 45) | (s3 >> 19)) & 0xFFFFFFFFFFFFFFFF",
)
# random(), on the x of the last step: a double in [0, 1)
UNIT = f"(x >> 11) * {_DOUBLE!r}"
# gauss's first uniform, shifted into (0, 1] so the log stays finite
UNIT_OPEN = f"((x >> 11) + 1) * {_DOUBLE!r}"
# UNIT and UNIT_OPEN of an output whose random() double is x, in the replay form
REPLAY_UNIT = "x"
REPLAY_UNIT_OPEN = f"x + {_DOUBLE!r}"
# gauss(0, 1) from the uniforms u1 and u2 (Box-Muller, cosine branch)
GAUSS = f"math.sqrt(-2.0 * math.log(u1)) * math.cos({2.0 * math.pi!r} * u2)"


def _randoms_source() -> str:
    """Source of the loop behind Xoshiro256StarStar.randoms: the state in
    locals, STEP and UNIT once per draw, appended to `out`, the state
    stored back."""
    step = "".join(f"\n        {line}" for line in STEP)
    return (
        "def randoms(self, n, out):\n"
        "    s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3\n"
        "    append = out.append\n"
        f"    for _ in range(n):{step}\n"
        f"        append({UNIT})\n"
        "    self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3\n"
        "    return out\n"
    )


@functools.cache
def _randoms_loop():
    namespace: dict = {}
    exec(compile(_randoms_source(), "<rng randoms>", "exec"), namespace)
    return namespace["randoms"]


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
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        # the lines of STEP
        x = (s1 * 5) & 0xFFFFFFFFFFFFFFFF
        x = ((x << 7) | (x >> 57)) * 9 & 0xFFFFFFFFFFFFFFFF
        t = (s1 << 17) & 0xFFFFFFFFFFFFFFFF
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & 0xFFFFFFFFFFFFFFFF
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return x

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _DOUBLE

    def randoms(self, n: int, out=None):
        """The n doubles that n calls of random() give, in order, leaving
        the state where those calls leave it; one loop over STEP. They are
        appended to `out` (a list or an array('d')), by default a new list,
        and `out` is returned."""
        return _randoms_loop()(self, n, [] if out is None else out)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def gauss(self, mean: float = 0.0, std: float = 1.0) -> float:
        # u1 is shifted into (0, 1] so the log stays finite
        u1 = ((self.next_u64() >> 11) + 1) * _DOUBLE
        u2 = (self.next_u64() >> 11) * _DOUBLE
        # GAUSS
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
