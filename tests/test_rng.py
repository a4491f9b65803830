import hashlib
import subprocess
import sys
from array import array

import pytest

from netforge.rng import Xoshiro256StarStar, as_generator, derive_seed

# frozen output of this implementation; guards against accidental edits to
# the generator, which would silently invalidate every golden file
KNOWN_SEED_42 = [
    1546998764402558742,
    6990951692964543102,
    12544586762248559009,
    17057574109182124193,
]


def test_known_answer_vector():
    gen = Xoshiro256StarStar(42)
    assert [gen.next_u64() for _ in range(4)] == KNOWN_SEED_42


def test_same_seed_same_sequence():
    a = Xoshiro256StarStar(7)
    b = Xoshiro256StarStar(7)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_differ():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_random_in_unit_interval():
    gen = Xoshiro256StarStar(3)
    values = [gen.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_uniform_bounds():
    gen = Xoshiro256StarStar(4)
    values = [gen.uniform(2.0, 5.0) for _ in range(1000)]
    assert all(2.0 <= v < 5.0 for v in values)


def test_gauss_zero_std_is_exact():
    gen = Xoshiro256StarStar(5)
    assert gen.gauss(0.4, 0.0) == 0.4


def test_lognormal_positive():
    gen = Xoshiro256StarStar(6)
    assert all(gen.lognormal(0.0, 1.0) > 0.0 for _ in range(100))


def test_derive_seed_is_stable_and_spread():
    seeds = [derive_seed(7, i) for i in range(16)]
    assert seeds == [derive_seed(7, i) for i in range(16)]
    assert len(set(seeds)) == 16


def test_as_generator_accepts_seed_generator_and_none():
    gen = Xoshiro256StarStar(9)
    assert as_generator(gen) is gen
    assert as_generator(9).next_u64() == Xoshiro256StarStar(9).next_u64()
    assert as_generator(None).next_u64() == Xoshiro256StarStar(0).next_u64()


# --- known answers for the float draws ------------------------------------------
#
# sha256 of the space-joined float.hex() of 1 000 draws, with the first and the
# last draw spelled out; like KNOWN_SEED_42, these pin the generator bit for
# bit, so any rewrite of its stepping has to reproduce them exactly

SEEDS = (0, 42, 2**64 - 1)

DRAWS = {
    "random": lambda gen: gen.random(),
    "uniform": lambda gen: gen.uniform(-2.5, 7.0),
    "gauss": lambda gen: gen.gauss(0.4, 0.05),
    "lognormal": lambda gen: gen.lognormal(-1.0, 0.5),
}

KNOWN_DRAWS = {
    ("random", 0): ("d3ba8d5368c9fa75b67aa237acc776d38dd5d1e3faf89e0a2fb2c76e2e0ef9d6",
                    "0x1.33d8be6d96ebep-1", "0x1.eab23120e8bb6p-2"),
    ("random", 42): ("4b68d53a24caa3352956a8885653ba0a648675753666ad36f1cac3bb613a6e5e",
                     "0x1.5780b2e0c2ec0p-4", "0x1.1bcb0918c3571p-1"),
    ("random", 2**64 - 1): ("c201022cd4d56aa04bdae88953ee7c45374424ede173c8db9af90ca0b46b5ce5",
                            "0x1.1eaa41aa54fd5p-1", "0x1.87927d4b9bc86p-1"),
    ("uniform", 0): ("4ba4e6d53825810edb7d33588e2d7ddfef18534b3c71bd44ad2aeb88eda83d80",
                     "0x1.9b22c44446704p+1", "0x1.06b39a57145e8p+1"),
    ("uniform", 42): ("e9334162b93085de0d7e8c5080f8b93f2e40a43bc19422ee6703c19b117963f8",
                      "-0x1.b40b95ca8c43ep+0", "0x1.6202359acfeecp+1"),
    ("uniform", 2**64 - 1): ("b6ddd18f73767316dc2aabdcfb24cc3c08e3793c746c672328507b9d25cc0d99",
                             "0x1.68d45bf489d9ap+1", "0x1.30fdf4c9c8fdfp+2"),
    ("gauss", 0): ("174d53422435c80f14ae86ffa5c3bddbc7f2e3d90dd120bec2e2f6d9e638b4e0",
                   "0x1.98e0b30aeb53dp-2", "0x1.bcb2d4a1af85cp-2"),
    ("gauss", 42): ("960612cd74144e91ccbb6a6b111d4cd2c61212d1a789e92add88ce53f32a4bb7",
                    "0x1.4700c0eeef2c6p-2", "0x1.8ae3c2c8ad9bfp-2"),
    ("gauss", 2**64 - 1): ("11653744c1a95b66b480ac2d1d65133f337676d61e2580420b444ced7935d683",
                           "0x1.9fa0ff1d040b3p-2", "0x1.6f310d26b176cp-2"),
    ("lognormal", 0): ("ba589988d8e49a3494adc4fba4ac122f761490b5d68a5ae0612c9b4a99bcabdd",
                       "0x1.760f91f54e347p-2", "0x1.095bed6a9d6e3p-1"),
    ("lognormal", 42): ("f68827b48f1de23baae56e98001c9bc235759de6be183b699d4870159bda549c",
                        "0x1.504d19c1be48ep-3", "0x1.464cbc8b76f16p-2"),
    ("lognormal", 2**64 - 1): ("6d462a7c4b286e79746c55af85d4a4d5945359cf76ffefa44594f78a6d539f52",
                               "0x1.8f8db328047cfp-2", "0x1.f1effe8b03647p-3"),
}


def _digest(tokens) -> str:
    return hashlib.sha256(" ".join(tokens).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(DRAWS))
@pytest.mark.parametrize("seed", SEEDS)
def test_float_draws_known_answers(kind, seed):
    gen = Xoshiro256StarStar(seed)
    values = [DRAWS[kind](gen).hex() for _ in range(1000)]
    digest, first, last = KNOWN_DRAWS[kind, seed]
    assert (values[0], values[-1]) == (first, last)
    assert _digest(values) == digest


def test_interleaved_draws_known_answer():
    # next_u64, random and gauss share one state, in turn
    gen = Xoshiro256StarStar(42)
    steps = (lambda: str(gen.next_u64()), lambda: gen.random().hex(), lambda: gen.gauss().hex())
    tokens = [steps[i % 3]() for i in range(1000)]
    assert tokens[:3] == ["1546998764402558742", "0x1.84136619b444ep-2", "0x1.9039f092211cap-1"]
    assert tokens[-1] == "4758693520164521517"
    assert _digest(tokens) == "ecd4aa118343a2a7aaa636e90a8a41685794246404897e0cbb7009fd7bb0f862"


# --- randoms: a batch of random() from one generated loop ---------------------------


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("seed", SEEDS)
def test_randoms_equals_that_many_random_calls_bit_for_bit(seed, n):
    batch, reference = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    values = batch.randoms(n)
    assert [v.hex() for v in values] == [reference.random().hex() for _ in range(n)]
    # and leaves the state where those calls leave it
    assert batch.next_u64() == reference.next_u64()


def test_randoms_appends_to_an_array_it_is_given():
    batch, reference = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
    out = array("d", [0.5])
    assert batch.randoms(3, out) is out
    assert batch.randoms(2, out) is out
    assert list(out) == [0.5, *reference.randoms(5)]


def test_importing_netforge_compiles_no_randoms_loop():
    script = (
        "import netforge\n"
        "from netforge import rng\n"
        "assert rng._randoms_loop.cache_info().currsize == 0\n"
        "rng.Xoshiro256StarStar(1).randoms(2)\n"
        "assert rng._randoms_loop.cache_info().currsize == 1\n"
    )
    # a fresh process, as the import of a command-line run is
    subprocess.run([sys.executable, "-c", script], check=True)


def test_the_replay_uniforms_equal_unit_and_unit_open_bit_for_bit():
    # a kernel in replay form reads an output's random() double, UNIT, and
    # makes UNIT_OPEN of it as that double plus 2**-53, with no rounding
    from netforge.rng import REPLAY_UNIT, REPLAY_UNIT_OPEN, UNIT, UNIT_OPEN

    unit, unit_open = (eval(f"lambda x: {expr}") for expr in (UNIT, UNIT_OPEN))
    replay_unit, replay_open = (eval(f"lambda x: {e}") for e in (REPLAY_UNIT, REPLAY_UNIT_OPEN))
    # the 53-bit values k = x >> 11 at both ends, and generated outputs
    ks = [*range(1 << 16), *range((1 << 53) - (1 << 16), 1 << 53)]
    gen = Xoshiro256StarStar(3)
    outputs = [k << 11 | 0x7FF for k in ks] + [gen.next_u64() for _ in range(1 << 16)]
    for x in outputs:
        u = unit(x)
        assert replay_unit(u) == u and replay_open(u).hex() == unit_open(x).hex()
