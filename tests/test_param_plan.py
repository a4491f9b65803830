"""Parameter analysis happens once per parameter map, not once per instance.

These tests count work instead of timing it: building and exporting a long
chain must analyse each distinct Params once (one `_formula_order` call per
plan) and compile each Formula object once, whatever the chain's length,
and format each constant value once per plan; and a second seed through one
text exporter lays no line out again, and only runs the kernels, which
draw, evaluate and format values inline.
"""

import json

import pytest

from netforge import builddoc, core, exporters, formula, params
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


@pytest.fixture
def formatted(monkeypatch):
    """Every value a plan's layout passes to format_number, in call order."""
    calls = []
    format_number = params.format_number

    def counting_format(value):
        calls.append(value)
        return format_number(value)

    monkeypatch.setattr(params, "format_number", counting_format)
    yield calls
    # no kernel compiled with the counter outlives the test
    params._factory.cache_clear()


@pytest.mark.parametrize("n", [10, N])
def test_constant_is_formatted_once_per_plan(tmp_path, formatted, n):
    text = _export(tmp_path, n, "spice")
    assert text.count(" w=1e-6 ") == n
    assert formatted.count(1e-6) == 1


def test_constant_tokens_follow_a_template_mutation(tmp_path, formatted):
    doc = _chain_doc(N)
    circuit = builddoc.build_circuit(doc, tmp_path)
    first = exporters.export(circuit)
    template = circuit.instances[0].template
    template.params["w"] = 2.5e-6
    second = exporters.export(circuit)
    assert first.count(" w=1e-6 ") == N and " w=2.5e-6 " not in first
    assert second.count(" w=2.5e-6 ") == N and " w=1e-6 " not in second
    assert formatted.count(1e-6) == 1 and formatted.count(2.5e-6) == 1


@pytest.fixture
def emit_counts(monkeypatch):
    """Calls of the per-line work of a text export, by name."""
    counts = dict.fromkeys(
        ["layout", "plan_layout", "net_str", "sample", "evaluate", "format"], 0
    )

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(exporters, "_line_frame", "layout")
    counting(params.ParamPlan, "layout", "plan_layout")
    counting(core.Net, "__str__", "net_str")
    counting(params.RandomSpec, "sample", "sample")
    counting(formula.Formula, "evaluate", "evaluate")
    counting(exporters, "format_number", "format")
    return counts


@pytest.mark.parametrize("n", [10, N])
def test_second_emit_only_draws_evaluates_and_formats(tmp_path, emit_counts, n):
    circuit = builddoc.build_circuit(_chain_doc(n), tmp_path)
    emit = exporters._seed_exporter(circuit, "spice")
    # the chain and the load are laid out once, as the exporter is built
    assert emit_counts["layout"] == 1
    assert emit_counts["net_str"] == 0  # lint's walk reads each net's name once

    def per_emit(seed):
        before = dict(emit_counts)
        text = emit(seed)
        return text, {key: emit_counts[key] - before[key] for key in emit_counts}

    first_text, first = per_emit(5)
    second_text, second = per_emit(5)
    assert second_text == first_text == exporters.export(circuit, seed=5)
    # the kernels draw, compute and format every value inline, without a
    # per-value call; constants were formatted, and every line laid out, before
    per_seed = {"layout": 0, "plan_layout": 0, "net_str": 0, "sample": 0,
                "evaluate": 0, "format": 0}
    assert first == second == per_seed
