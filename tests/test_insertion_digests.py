"""Netlists of chains inserted in unusual ways, pinned by sha256.

Insertion names a chain's link nets and gives its children their final
nets and designators. These digests hold the SPICE and Spectre text of
chains whose children were rebound, replaced or overridden before `add`,
chains added over several `add` calls or split between two containers,
and `Inject` over chains (its defects carry the chain's pending link nets)
to the text that per-instance insertion printed. A change that names a
link differently, shares a `Net` differently or numbers a designator
differently changes a digest.
"""

import hashlib

import pytest

from netforge import Chain, Circuit, Component, Formula, Inject, NamedChain, Parallel, Subcircuit
from netforge.exporters import export
from netforge.params import gauss, uniform

NMOS = Component(
    "nmos", ["d", "g", "s", "b"],
    {"w": 1e-6, "l": uniform(1e-7, 2e-7), "vth": gauss(0.4, 0.05), "area": Formula("w*l")},
    prefix="M",
)
RES = Component("res", ["a", "b"], {"R": uniform(1e3, 2e3)}, prefix="R")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rebound_children() -> Circuit:
    chain = Chain(NMOS, 6, 0, 2)
    chain[1] = chain[1] @ ["x", "g1", chain[1].nets[2], "GND"]  # keeps its out link
    chain[3] @= [chain[3].nets[0], "g3", "y", "GND"]  # keeps its in link, in place
    chain[4] = NMOS @ ["p", "q", "r", "GND"]  # no link at all
    circuit = Circuit()
    circuit += chain
    return circuit


def _overridden_children() -> Circuit:
    chain = Chain(NMOS, 5, 0, 2)
    chain[1] %= {"w": 2e-6}  # in place
    chain[3] = chain[3] % {"vth": uniform(0.3, 0.5)}  # a copy on the same nets
    chain[4].overrides["l"] = 3e-7
    chain[2].designator = "M77"
    circuit = Circuit()
    circuit += chain
    return circuit


def _chain_over_several_adds() -> Circuit:
    chain = Chain(NMOS, 7, 0, 2)
    circuit = Circuit()
    circuit += chain[:3]
    circuit += Chain(RES, 3)
    circuit += [chain[5], chain[3]]
    circuit += RES @ ["a", "b"]
    circuit += [chain[4], chain[6]]
    return circuit


def _chain_split_between_containers() -> Circuit:
    chain = Chain(RES, 6)
    body = Subcircuit("half", ["a", "b"])
    body += chain[:3]
    circuit = Circuit()
    circuit += Chain(NMOS, 2, 0, 2)
    circuit += body @ ["in", "out"]
    circuit += chain[3:]
    return circuit


def _inject_over_chains() -> Circuit:
    circuit = Circuit()
    # the defects tap the last port: a link of the RES chain, a fixed net of the NMOS one
    circuit += Inject(Chain(RES, 8), p=0.5, rng=3)
    circuit += Inject(Chain(NMOS, 8, 0, 2), p=0.5, rng=4, defect=RES)
    circuit += Inject(NamedChain(RES, 4, out_name="tap"), p=1.0, rng=5)
    return circuit


def _parallel_of_a_chain_child() -> Circuit:
    chain = Chain(RES, 4)
    circuit = Circuit()
    circuit += [chain, Parallel(chain[1], 2), Chain(RES, 1)]
    return circuit


CASES = {
    "rebound_children": _rebound_children,
    "overridden_children": _overridden_children,
    "chain_over_several_adds": _chain_over_several_adds,
    "chain_split_between_containers": _chain_split_between_containers,
    "inject_over_chains": _inject_over_chains,
    "parallel_of_a_chain_child": _parallel_of_a_chain_child,
}

DIGESTS = {
    ("chain_over_several_adds", "spice"): "5b59308cd27852bbbf23bcb1002e188a003a91c715b4f5bb4f36c0058ec7cfa6",
    ("chain_over_several_adds", "spectre"): "3eb81e542d0369e1f67575977e1104e245c6e3435efbd793b45014bc5659dbc2",
    ("chain_split_between_containers", "spice"): "b553a52fa0aba7a222b9c1c88d826a5969260184da083773f1a9a333150fc0b3",
    ("chain_split_between_containers", "spectre"): "b2c93ad5e2f9ec0fe18718534aa2437b42e659a17a5820ac8c16107543663735",
    ("inject_over_chains", "spice"): "a893c6abc8405912c50377ce674a1130e4d6137f80eb0e9912e6efb0f9e993a8",
    ("inject_over_chains", "spectre"): "5b38c40181e6bab5ea90af462c69e259bc51d7f79822f7eb3cadb0b0176f68ac",
    ("overridden_children", "spice"): "5646db49bc1c781115eac497532aaa6d10bbc336f8c00a2f94e913cf8b35c518",
    ("overridden_children", "spectre"): "7d45c8f6104d1e7c44c9e734a5eaa62c5ccff140fce0648ab26982b13a31b036",
    ("parallel_of_a_chain_child", "spice"): "d46d63af7384cdb4ea059e461131fe5d0c6192fa81c0bcd073420141cb525927",
    ("parallel_of_a_chain_child", "spectre"): "f215416af80e9ded11034857a10938150fc777ff7d29198d43fba390041767b0",
    ("rebound_children", "spice"): "1bf86558794086a38ae48853c7389277903c34295897c54f8093aae4e249fd6f",
    ("rebound_children", "spectre"): "72ea74b95bbb102aa2e2327608962c9abf66aeb05b9a94940d85128dac1ae341",
}


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_netlists_of_unusual_insertions(name, dialect):
    assert _sha(export(CASES[name](), dialect, seed=11)) == DIGESTS[name, dialect]
