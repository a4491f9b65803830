"""Lint's findings, pinned by sha256: their text, their order, and the CLI's.

Lint checks a run of instances that share a template and a line map once
where it can, and each line where the line matters. These digests hold the
report text of generated circuits and of hand-built runs that break in the
middle to the text the line-by-line lint printed, and `netforge lint`'s
stdout and exit code on build documents with findings. A change that moves
a finding, rewords it or reports it on another line changes a digest.
"""

import hashlib
import json

import pytest
from test_acceptance import _random_circuit

from netforge import Array, Chain, Circuit, Component, Formula, Subcircuit, cli
from netforge.core import UNCONNECTED, UnresolvedTemplate
from netforge.exporters import lint
from netforge.params import uniform


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


DEV = Component(
    "dev", ["a", "b"],
    {"w": 1e-6, "l": uniform(1e-7, 2e-7), "area": Formula("w*l*2")},
    prefix="X",
)
CELL = Component(
    "cell", ["p", "q"], {"r": uniform(1.0, 2.0), "g": Formula("(_i + 1)/r + _j")}, prefix="R"
)


def _chain(n=6) -> Circuit:
    circuit = Circuit()
    circuit += Chain(DEV, n)
    return circuit


def _unresolved_master_in_a_chain() -> Circuit:
    circuit = _chain()
    circuit.instances[2].template = UnresolvedTemplate("ghost", 2)
    circuit.instances[3].template = UnresolvedTemplate("ghost", 2)
    return circuit


def _unregistered_subcircuit_in_a_run() -> Circuit:
    amp = Subcircuit("AMP", ["i", "o"], {"gain": 2.0})
    amp += DEV @ ["i", "o"]
    other = Subcircuit("AMP", ["i", "o"], {"gain": 3.0})
    other += DEV @ ["i", "o"]
    circuit = Circuit()
    circuit += Chain(amp, 5)
    circuit.instances[1].template = other
    circuit.instances[3].template = Subcircuit("LOST", ["i", "o"])
    return circuit


def _unconnected_port_on_one_line() -> Circuit:
    circuit = _chain()
    inst = circuit.instances[3]
    inst.nets = (UNCONNECTED, inst.nets[1])
    return circuit


def _overrides_on_one_link() -> Circuit:
    circuit = _chain()
    circuit.instances[1].overrides["w"] = 2e-6
    circuit.instances[3].overrides["kind"] = "a b"
    circuit.instances[3].overrides["area"] = Formula("w*nope")
    circuit.instances[4].overrides["area"] = Formula("w*nope")
    return circuit


def _array_with_partial_contexts() -> Circuit:
    circuit = Circuit()
    circuit += Array(6, CELL, lambda i: [f"p{i}", f"q{i}"])
    # _j is given on the first four lines only, as text on one of them;
    # _i is text on one line and missing on two
    for inst in circuit.instances[:4]:
        inst.context["_j"] = 2.0
    circuit.instances[1].context["_j"] = "x"
    circuit.instances[2].context["_i"] = "three"
    circuit.instances[3].context.pop("_i")
    circuit.instances[5].context.pop("_i")
    return circuit


def _duplicate_designator_in_a_run() -> Circuit:
    circuit = _chain()
    circuit.instances[3].designator = circuit.instances[1].designator
    circuit.instances[4].designator = None
    circuit.instances[5].designator = "1x"
    return circuit


def _broken_runs_in_a_body() -> Circuit:
    body = Subcircuit("BODY", ["i", "o", "unused"])
    body += Chain(DEV @ ["i", "o"], 5)
    body.body[1].template = UnresolvedTemplate("ghost", 2)
    body.body[2].overrides["w"] = "bad token"
    body.body[3].nets = (body.body[3].nets[0], UNCONNECTED)
    body.body[4].designator = body.body[0].designator
    body += Array(3, CELL, lambda i: [f"c{i}", "o"])
    body.body[6].context.pop("_i")
    circuit = Circuit()
    circuit += Chain(body, 3)
    circuit.instances[1].overrides["gain"] = Formula("missing*2")
    return circuit


CASES = {
    "unresolved_master_in_a_chain": _unresolved_master_in_a_chain,
    "unregistered_subcircuit_in_a_run": _unregistered_subcircuit_in_a_run,
    "unconnected_port_on_one_line": _unconnected_port_on_one_line,
    "overrides_on_one_link": _overrides_on_one_link,
    "array_with_partial_contexts": _array_with_partial_contexts,
    "duplicate_designator_in_a_run": _duplicate_designator_in_a_run,
    "broken_runs_in_a_body": _broken_runs_in_a_body,
}

CASE_DIGESTS = {
    "unresolved_master_in_a_chain": "0864668927ba04b8b96d2581ff5e3b4eb45facd80a4e64eceea9dd1128ac4479",
    "unregistered_subcircuit_in_a_run": "1174709909e2e351d5eeac55a70ed966c27a7fba319a5aab22a9434267db32bc",
    "unconnected_port_on_one_line": "042dd9ae6f440341fe653dddac7e3e3bdf88db587f3ff83e6a9024505fde6ceb",
    "overrides_on_one_link": "bb65340d28dc2aae376c9124fe7ddd83c74f7f03629d9974f93f55be4bd7faca",
    "array_with_partial_contexts": "5a6303f6d425afb4a70460a78888d16a68a704c5ab41d0bf506f9ad0716ede4e",
    "duplicate_designator_in_a_run": "28fa86af85f4f687b39435f006f235dbb30d914751a1692722dc4acc32af43a8",
    "broken_runs_in_a_body": "987c1390c4d370b4d5df815463ae879d67591a50aaf9d20b46b1d06bd867eaad",
}

GENERATED_DIGEST = "d7499e3c53655f71c98cd0ba788291ddf2c3c98af6d4e2c37ae21d1a311951cf"


@pytest.mark.parametrize("name", sorted(CASES))
def test_findings_of_runs_broken_in_the_middle(name):
    assert _sha(str(lint(CASES[name]()))) == CASE_DIGESTS[name]


def test_findings_of_generated_circuits():
    # _random_circuit seeds 0-299, the seeds test_acceptance exports
    text = "".join(f"seed {seed}\n{lint(_random_circuit(seed))}\n" for seed in range(300))
    assert _sha(text) == GENERATED_DIGEST


def _doc(circuit: list, components: list) -> dict:
    return {"version": 1, "seed": 3, "components": components, "circuit": circuit}


RES = {"name": "res", "ports": ["a", "b"], "prefix": "R", "params": {"R": 100}}
READS = {
    "name": "reads", "ports": ["a", "b"], "prefix": "R",
    "params": {"R": {"$uniform": [1, 2]}, "G": {"$formula": "R*_i + nope"}},
}

DOCS = {
    "chain_reading_a_missing_name": _doc(
        [{"op": "chain", "template": "reads", "n": 4}], [READS]
    ),
    "array_reading_i": _doc(
        [{"op": "array", "template": "reads", "shape": [3], "ports": ["p${_i}", "q"]}],
        [READS],
    ),
    "chain_with_an_overridden_link": _doc(
        [
            {"op": "chain", "template": "res", "n": 3},
            {"op": "instance", "template": "res", "nets": ["net_0_2", "x"],
             "params": {"R": "a b"}},
            {"op": "chain", "template": "res", "n": 2},
        ],
        [RES],
    ),
    "clean_chain": _doc([{"op": "chain", "template": "res", "n": 4}], [RES]),
}

CLI_DIGESTS = {
    "chain_reading_a_missing_name": "2d901d61ad60e49cfb7b6fc8cdf2f9d75a7f3d722f3575f6120755140fcaf201",
    "array_reading_i": "0694e17802ff802b8ec9be65d470b25d427ca02cd712a442dbad74edf984cf8f",
    "chain_with_an_overridden_link": "9932ae7d226936c04ab403ffc11b8cc3e2268b7d446902375802d0622c086435",
    "clean_chain": "c270937e1eeef37ac7d99084b5e0c7789e861b5e17b3c6074a5d72e61eef1a80",
}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_cli_lint_output_and_exit_code(name, tmp_path, capsys):
    doc = tmp_path / f"{name}.json"
    doc.write_text(json.dumps(DOCS[name]))
    code = cli.main(["lint", str(doc)])
    out = capsys.readouterr().out
    assert _sha(f"exit {code}\n{out}") == CLI_DIGESTS[name]
