"""Deterministic pseudo-random numbers for reproducible netlists.

Pure-Python xoshiro256** seeded through SplitMix64. Sampled values are
bit-identical across platforms and interpreter versions, which keeps golden
netlist files stable. Gaussian variates use the Box-Muller transform
(cosine branch, one variate per pair of uniforms).

The generator keeps its state in four slots. One step, on the state in the
locals s0..s3 and leaving the 64-bit output in x, is kept here as source,
STEP, and next_u64 is exactly those lines between loading and storing the
slots. The only other copy of the generator is the batch kernel behind
Xoshiro256StarStar.batch, generated from the same lines.

A batch of n outputs is cut into lanes of LANE consecutive outputs, and
every lane steps at once: each of s0..s3 is one int that packs the lanes,
128 bits apart, with the value in the low 64 bits of its lane. STEP masks
every product and left shift back to 64 bits, and masks the rotated output
before multiplying it by 9, so with the 64-bit mask replaced by one that
keeps the low half of every lane, the same lines step every lane and never
carry a bit into the next one: a lane's high half has room for the bits
that a shift or a product pushes past 64, and for those that a right shift
brings down from the lane above, and the mask clears them. A lane starts
where the one before it ends. The state transition is linear over GF(2),
so LANE steps are one 256 x 256 bit matrix, J, applied as 32 tables, one
per byte of the state, of the 256 states that byte's values lead to
(_jump_tables). The tables are built once per process, on the first batch
of more than one lane, by running the state lines of STEP on all 256 basis
states at once, as lanes; never at import. A batch of at most LANE outputs
is one lane and needs no table.

The batch gives each output as the 53-bit int next_u64() >> 11, in an
array('Q'), and leaves the generator where n calls of next_u64 leave it.
stream(seed, n) draws n such outputs in chunks of CHUNK, on demand, so a
render holds one chunk of them at a time. The kernels of parameter plans
(params.ParamPlan.run) take their outputs from such a stream, or from any
iterator of them, a generator itself included (iterating a generator steps
it once per output); UNIT, UNIT_OPEN and GAUSS are the float transforms
that random and gauss apply, written on a 53-bit output x, so a kernel's
draws equal the generator's own bit for bit: (x >> 11) * 2**-53 of a
64-bit output is x * 2**-53 of its 53-bit one. tests/test_rng.py pins
next_u64, the float draws and the batch bit for bit, and
tests/test_plan_kernel.py checks that next_u64 and the batch kernel run the
lines of STEP.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from itertools import chain

_MASK64 = (1 << 64) - 1
_DOUBLE = 2.0 ** -53

# one step of the generator on the locals s0..s3; the output is left in x.
# The first three lines make the output, the others advance the state.
STEP = (
    "x = (s1 * 5) & 0xFFFFFFFFFFFFFFFF",
    "x = ((x << 7) | (x >> 57)) & 0xFFFFFFFFFFFFFFFF",
    "x = x * 9 & 0xFFFFFFFFFFFFFFFF",
    "t = (s1 << 17) & 0xFFFFFFFFFFFFFFFF",
    "s2 ^= s0",
    "s3 ^= s1",
    "s1 ^= s2",
    "s0 ^= s3",
    "s2 ^= t",
    "s3 = ((s3 << 45) | (s3 >> 19)) & 0xFFFFFFFFFFFFFFFF",
)
# random(), on a 53-bit output x: a double in [0, 1)
UNIT = f"x * {_DOUBLE!r}"
# gauss's first uniform, shifted into (0, 1] so the log stays finite
UNIT_OPEN = f"(x + 1) * {_DOUBLE!r}"
# gauss(0, 1) from the uniforms u1 and u2 (Box-Muller, cosine branch)
GAUSS = f"math.sqrt(-2.0 * math.log(u1)) * math.cos({2.0 * math.pi!r} * u2)"

# the consecutive outputs of one lane of a batch
LANE = 64
# the outputs of one chunk of a stream, a whole number of lanes
CHUNK = 4096


def _lanes(lines) -> list:
    """`lines` of STEP on packed lanes: the 64-bit mask is the local `mask`,
    which keeps the low 64 bits of every lane (_mask)."""
    return [line.replace("0xFFFFFFFFFFFFFFFF", "mask") for line in lines]


def _mask(lanes: int) -> int:
    return int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")


def _batch_source() -> str:
    """Source of the kernel behind Xoshiro256StarStar.batch: STEP on the
    lanes once per output of a lane, each step's outputs shifted to 53 bits
    and written to every LANE-th slot of `out` (see the module docstring)."""
    step = "".join(f"\n        {line}" for line in _lanes(STEP))
    return (
        "def batch(self, n, lanes, out):\n"
        "    s0, s1, s2, s3 = _packed(self, lanes)\n"
        "    mask = _mask(lanes)\n"
        "    size, top, last = 16 * lanes, 128 * (lanes - 1), n - LANE * (lanes - 1)\n"
        f"    for k in range(min(n, LANE)):{step}\n"
        "        out[k::LANE] = array('Q', (x >> 11).to_bytes(size, 'little'))[::2]\n"
        "        if k + 1 == last:\n"
        "            self._s0, self._s1, self._s2, self._s3 = "
        "s0 >> top, s1 >> top, s2 >> top, s3 >> top\n"
    )


@functools.cache
def _batch_kernel():
    namespace = {"array": array, "LANE": LANE, "_mask": _mask, "_packed": _packed}
    exec(compile(_batch_source(), "<rng batch>", "exec"), namespace)
    return namespace["batch"]


@functools.cache
def _jump_tables() -> tuple:
    """J, LANE steps of the state, as 32 tables: entry v of table i is J
    applied to the 256-bit state (s0 | s1 << 64 | s2 << 128 | s3 << 192)
    whose byte i is v and every other byte 0. The columns of J come from
    the state lines of STEP run on the 256 basis states at once, bit b of
    the state in lane b."""
    namespace: dict = {}
    steps = "".join(f"\n        {line}" for line in _lanes(STEP[3:]))
    exec(compile(
        "def advance(s0, s1, s2, s3, mask):\n"
        f"    for _ in range({LANE}):{steps}\n"
        "    return s0, s1, s2, s3\n",
        "<rng jump>", "exec",
    ), namespace)
    # lane b of word w holds bit b - 64w of that word, for b in 64w..64w+63
    identity = b"".join((1 << j).to_bytes(16, "little") for j in range(64))
    words = [int.from_bytes(bytes(1024 * w) + identity, "little") for w in range(4)]
    ends = [word.to_bytes(4096, "little") for word in namespace["advance"](*words, _mask(256))]
    columns = [
        int.from_bytes(b"".join(end[16 * b:16 * b + 8] for end in ends), "little")
        for b in range(256)
    ]
    tables = []
    for i in range(32):
        table = [0]
        for column in columns[8 * i:8 * i + 8]:  # entry v + 2**j is entry v ^ column j
            table += [entry ^ column for entry in table]
        tables.append(table)
    return tuple(tables)


def _jump(state: bytes) -> bytes:
    """J applied to a state, both as the 32 little-endian bytes of
    s0 | s1 << 64 | s2 << 128 | s3 << 192: the state LANE steps later."""
    jumped = 0
    for table, byte in zip(_jump_tables(), state):
        jumped ^= table[byte]
    return jumped.to_bytes(32, "little")


def _packed(generator, lanes: int) -> tuple:
    """s0..s3 of `lanes` lanes, packed: the generator's state, and each
    later lane's start LANE steps after the one before (J)."""
    state = (generator._s0 | generator._s1 << 64 | generator._s2 << 128
             | generator._s3 << 192).to_bytes(32, "little")
    starts = [state]
    for _ in range(lanes - 1):
        state = _jump(state)
        starts.append(state)
    zeros = bytes(8)
    return tuple(
        int.from_bytes(b"".join([start[8 * w:8 * w + 8] + zeros for start in starts]), "little")
        for w in range(4)
    )


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
    """xoshiro256** generator. Single-owner: not safe to share across threads.

    Iterating a generator yields its 53-bit outputs, next_u64() >> 11, one
    step each, as a kernel takes them (see the module docstring)."""

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
        x = ((x << 7) | (x >> 57)) & 0xFFFFFFFFFFFFFFFF
        x = x * 9 & 0xFFFFFFFFFFFFFFFF
        t = (s1 << 17) & 0xFFFFFFFFFFFFFFFF
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & 0xFFFFFFFFFFFFFFFF
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return x

    def __iter__(self):
        return self

    def __next__(self) -> int:
        return self.next_u64() >> 11

    def batch(self, n: int) -> array:
        """The next n outputs, next_u64() >> 11 each, as an array('Q'),
        drawn lane-parallel (see the module docstring). The state is left
        where n calls of next_u64 leave it."""
        if n <= 0:
            return array("Q")
        lanes = -(-n // LANE)
        out = array("Q", bytes(8 * LANE * lanes))
        _batch_kernel()(self, n, lanes, out)
        del out[n:]
        if sys.byteorder == "big":  # the words were read from little-endian bytes
            out.byteswap()
        return out

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _DOUBLE

    def randoms(self, n: int, out=None):
        """The n doubles that n calls of random() give, in order, leaving
        the state where those calls leave it; from one batch. They are
        appended to `out` (a list or an array('d')), by default a new list,
        and `out` is returned."""
        out = [] if out is None else out
        out.extend([x * _DOUBLE for x in self.batch(n)])
        return out

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


def stream(seed: int, n: int):
    """An iterator over the first n outputs (next_u64() >> 11) of the
    generator seeded with `seed`, drawn in batches of at most CHUNK as the
    iterator reaches them."""
    generator = Xoshiro256StarStar(seed)
    return chain.from_iterable(generator.batch(min(CHUNK, n - k)) for k in range(0, n, CHUNK))


def as_generator(rng) -> Xoshiro256StarStar:
    """Coerce a seed or generator into a generator; None means seed 0."""
    if rng is None:
        return Xoshiro256StarStar(0)
    if isinstance(rng, int):
        return Xoshiro256StarStar(rng)
    return rng
