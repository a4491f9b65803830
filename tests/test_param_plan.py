"""Parameter analysis happens once per parameter map, not once per instance.

These tests count work instead of timing it: building and exporting a long
chain must analyse each distinct Params once (one `_formula_order` call per
plan) and compile each Formula object once, whatever the chain's length.
"""

import json

import pytest

from netforge import formula, params
from netforge.cli import main

N = 2_000


def _chain_doc(n: int) -> dict:
    return {
        "version": 1,
        "seed": 3,
        "variables": {"N": n},
        "components": [
            {
                "name": "dev",
                "ports": ["a", "b", "c", "d"],
                "prefix": "X",
                "params": {
                    "w": 1e-6,
                    "l": {"$uniform": [1e-7, 2e-7]},
                    "vth": {"$gauss": [0.4, 0.05]},
                    "test": {"$formula": "1/vth"},
                    "area": {"$formula": "w*l*2"},
                },
            },
            {
                "name": "load",
                "ports": ["a", "b"],
                "prefix": "R",
                "params": {"r": 1e3, "g": {"$formula": "1/r"}},
            },
        ],
        "circuit": [
            {"op": "chain", "template": "dev", "n": "${N}", "in_port": 0, "out_port": 2},
            {"op": "instance", "template": "load", "nets": ["net_0_0", "0"]},
        ],
    }


@pytest.fixture
def counters(monkeypatch):
    counts = {"plans": 0, "compilations": 0}
    formula_order = params._formula_order
    compile_ast = formula._compile
    nesting = [0]

    def counting_formula_order(p):
        counts["plans"] += 1
        return formula_order(p)

    def counting_compile(node):
        # _compile recurses through this name; count only the outermost call
        if nesting[0] == 0:
            counts["compilations"] += 1
        nesting[0] += 1
        try:
            return compile_ast(node)
        finally:
            nesting[0] -= 1

    monkeypatch.setattr(params, "_formula_order", counting_formula_order)
    monkeypatch.setattr(formula, "_compile", counting_compile)
    return counts


def _export(tmp_path, n: int, dialect: str) -> str:
    doc = tmp_path / "chain.json"
    doc.write_text(json.dumps(_chain_doc(n)))
    out = tmp_path / f"chain.{dialect}"
    assert main(["export", str(doc), "--dialect", dialect, "--out", str(out)]) == 0
    return out.read_text()


def test_one_plan_per_parameter_map_and_one_compilation_per_formula(tmp_path, counters):
    text = _export(tmp_path, N, "spice")
    assert text.count("\nX") == N
    # two distinct maps (dev, load): built and validated once each, then reused
    assert counters["plans"] == 2
    # four Formula objects (the "${N}" substitution, 1/vth, w*l*2, 1/r),
    # each compiled on its first evaluation
    assert counters["compilations"] == 4


def test_work_does_not_grow_with_instances(tmp_path, counters):
    _export(tmp_path, 10, "spectre")
    small = dict(counters)
    _export(tmp_path, N, "spectre")
    assert counters["plans"] - small["plans"] == small["plans"]
    assert counters["compilations"] - small["compilations"] == small["compilations"]


def test_instances_with_overrides_get_their_own_plan(tmp_path, counters):
    doc = _chain_doc(5)
    doc["circuit"][1]["params"] = {"r": 2e3}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert main(["build", str(path)]) == 0
    # dev once for the whole chain; the overridden load gets a merged map
    assert counters["plans"] == 2
