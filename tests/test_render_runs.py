"""Consecutive lines of one plan render in one call of its run function.

A text export lays the netlist out into runs (exporters._line_frame): each
run is one plan's run function (ParamPlan.run) with the texts before its
lines and the lines' contexts. These tests check where runs start and end,
and that every edge of a run gives the bytes of the plain line-by-line
reference of test_render_reference, or the same error: per-line contexts,
runs of one line, constant-only lines inside a run, subcircuit bodies, an
error in the middle of a run, and the call-through path that wrapped
methods take. Lint hands the layout its own runs: consecutive instances
with one template and the same overrides, that is the same names, in the
same order, each bound to the same value object, as every child of a
Chain, Parallel or Array holds. Each such run has one merged map and one
plan. The layout must give the same bytes where a run ends: at a template
change, an overridden instance inside a chain, overrides that are equal
but other objects or list their names in another order, a constant-only
line, a subcircuit body's edge and an instance without nets.
"""

import pytest
from test_plan_kernel import _overridden_instances
from test_render_reference import TITLE, reference_text

from netforge import (
    Array, Chain, Circuit, Component, Formula, Parallel, Subcircuit, builddoc, exporters, formula
)
from netforge.core import Instance
from netforge.errors import DivisionByZeroError
from netforge.formula import BinOp, Num
from netforge.params import ParamPlan, Params, RandomSpec, gauss, uniform

SEEDS = (0, 7, 2**64 - 1)
DIALECTS = ("spice", "spectre")

DEV = Component(
    "dev", ["a", "b"],
    {"w": 1e-6, "l": uniform(1e-7, 2e-7), "vth": gauss(0.4, 0.05), "area": Formula("w*l*2")},
    prefix="X",
)
PLAIN = Component("plain", ["a", "b"], {"r": 1e3, "kind": "poly"}, prefix="R")


def _array_reading_i() -> Circuit:
    cell = Component(
        "cell", ["p", "q"], {"r": uniform(1.0, 2.0), "g": Formula("(_i + 1)/r")}, prefix="R"
    )
    circuit = Circuit()
    circuit += Array(6, cell, lambda i: [f"p{i}", f"q{i}"])
    return circuit


def _constant_lines_inside() -> Circuit:
    circuit = Circuit()
    circuit += Chain(DEV, 3)
    circuit += PLAIN @ ["net_0_2", "0"]
    circuit += PLAIN @ ["net_0_1", "0"]
    circuit += DEV @ ["net_0_2", "out"]
    return circuit


def _subcircuit_bodies() -> Circuit:
    cell = Subcircuit("CELL", ["i", "o"])
    cell += DEV @ ["i", "m"]
    cell += PLAIN @ ["m", "o"]
    cell += DEV @ ["m", "o"]
    amp = Subcircuit("AMP", ["i", "o"], {"gain": gauss(2.0, 0.1)})
    amp += DEV @ ["i", "o"]
    circuit = Circuit()
    circuit += DEV @ ["a", "b"]
    circuit += cell @ ["b", "c"]
    circuit += amp @ ["c", "d"]
    return circuit


# Lint hands the layout runs of instances with one template and the same
# override objects; the cases below end such runs at each kind of edge.

def _template_change() -> Circuit:
    # TWIN shares DEV's Params, and so its plan: the lines of both templates
    # are one run of the frame; OTHER's plan starts a run of its own
    twin = Component("twin", ["a", "b"], DEV.params, prefix="Y")
    other = Component("other", ["a", "b"], {"g": gauss(1.0, 0.1)}, prefix="Z")
    circuit = Circuit()
    circuit += Chain(DEV, 3)
    circuit += Chain(twin, 2)
    circuit += Chain(other, 2)
    circuit += Chain(DEV, 2)
    return circuit


def _override_inside_a_chain() -> Circuit:
    circuit = Circuit()
    circuit += Chain(DEV, 6)
    circuit.instances[2].overrides["w"] = 3e-6
    circuit.instances[3].overrides["l"] = gauss(1e-7, 1e-8)
    return circuit


def _constant_only_run_inside() -> Circuit:
    fixed = Component("fixed", ["a", "b"], {"r": 2.2e3, "t": "thin"}, prefix="R")
    circuit = Circuit()
    circuit += Chain(DEV, 2)
    circuit += Chain(fixed, 3)
    circuit += Chain(PLAIN @ ["0", "x"], 2)
    circuit += Chain(DEV, 2)
    return circuit


def _body_boundaries() -> Circuit:
    # a body that ends and starts in a run of the top level's plan
    body = Subcircuit("BODY", ["i", "o"])
    body += Chain(DEV @ ["i", "o"], 3)
    empty = Subcircuit("EMPTY", ["i"])
    circuit = Circuit()
    circuit += Chain(DEV, 2)
    circuit += Chain(body, 2)
    circuit += empty @ ["x"]
    circuit += Chain(DEV, 2)
    return circuit


def _instances_without_nets() -> Circuit:
    tie = Subcircuit("TIE", [], {"g": uniform(0, 1)})
    tie += PLAIN @ ["x", "0"]
    circuit = Circuit()
    circuit += Chain(DEV, 2)
    circuit += [tie @ [], tie @ [], (tie % {"g": gauss(2, 0.1)}) @ [], tie @ []]
    circuit.instances.insert(1, Instance(DEV, (), designator="X9"))
    circuit.instances.append(Instance(DEV, (), designator="X8"))
    return circuit


# A run's lines may also share overrides: instances of one template whose
# override maps hold the same names, in the same order, each bound to the
# same value object, which every child of one combinator does.

def _bound() -> Circuit:
    # the chain, parallel and array below are one run each, and each reads
    # its merged map; the second chain's map shadows a formula with a draw
    circuit = Circuit()
    circuit += Chain(DEV % {"w": 2e-6, "vth": gauss(0.3, 0.01)}, 4)
    circuit += Parallel(DEV % {"l": 1.5e-7} @ ["p", "q"], 3)
    cell = Component("cell", ["p", "q"], {"r": uniform(1.0, 2.0), "g": Formula("r")}, prefix="R")
    circuit += Array(5, cell % {"g": Formula("(_i + 1)*r"), "t": "x"},
                     lambda i: [f"p{i}", f"q{i}"])
    circuit += Chain(DEV % {"area": uniform(0.0, 1.0)}, 2)
    return circuit


def _twin_formulas() -> Circuit:
    # equal formulas (the same AST) that compute different values: an int
    # and a float literal; compared by value, the two lines would be one run
    # and print the first line's value twice. 2**53 prints exactly, so
    # Formula.from_ast keeps both trees; (2**53 + 1) - 2**53 is 1 in ints, 0.0 in floats
    def twin(number):
        big = Num(number(2**53))
        return Formula.from_ast(BinOp("-", BinOp("+", big, Num(number(1))), big))

    first, second = ({"g": twin(kind)} for kind in (int, float))
    assert first == second
    circuit = Circuit()
    circuit += (PLAIN % first) @ ["a", "b"]
    circuit += (PLAIN % second) @ ["b", "c"]
    circuit += (DEV % {"w": float("3e-6")}) @ ["c", "d"]
    circuit += (DEV % {"w": float("3e-6")}) @ ["d", "e"]
    return circuit


def _new_keys_in_another_order() -> Circuit:
    # the same objects under the same new keys, in two orders: each line
    # keeps its own token order
    p, q = 2.5, uniform(0.0, 1.0)
    circuit = Circuit()
    circuit += (DEV % {"p": p, "q": q}) @ ["a", "b"]
    circuit += (DEV % {"q": q, "p": p}) @ ["b", "c"]
    return circuit


# name -> (circuit factory, the number of lines of each run, in frame order)
CASES = {
    "bound_templates": (_bound, [4, 3, 5, 2]),
    "twin_formulas": (_twin_formulas, [1, 1, 1, 1]),
    "new_keys_in_another_order": (_new_keys_in_another_order, [1, 1]),
    "array_reading_i": (_array_reading_i, [6]),
    "overridden_instances": (lambda: _overridden_instances(4), [1, 1, 1, 1]),
    "constant_lines_inside": (_constant_lines_inside, [4]),
    # CELL's two devices, then AMP's header and its device, then the top-level device
    "subcircuit_bodies": (_subcircuit_bodies, [2, 1, 2]),
    "template_change": (_template_change, [5, 2, 2]),
    "override_inside_a_chain": (_override_inside_a_chain, [2, 1, 1, 2]),
    "constant_only_run_inside": (_constant_only_run_inside, [4]),
    # the body's three devices, the top level's first two and last two
    "body_boundaries": (_body_boundaries, [7]),
    # TIE's header, the chain around X9, the overridden TIE, then X8
    "instances_without_nets": (_instances_without_nets, [1, 3, 1, 1]),
}


def _frame(circuit: Circuit, dialect: str) -> list:
    table = exporters.exporter_for(dialect)
    header = [line.format(title=TITLE) for line in table.header]
    frame, _ = exporters._line_frame(table, circuit, exporters.lint(circuit), header)
    return frame


@pytest.mark.parametrize("dialect", DIALECTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_runs_render_the_reference_bytes(name, dialect):
    make, lengths = CASES[name]
    circuit = make()
    assert [len(befores) for _, befores, _ in _frame(circuit, dialect)] == lengths
    emit = exporters._seed_exporter(circuit, dialect)
    for seed in SEEDS:
        assert emit(seed) == reference_text(circuit, dialect, seed)


def test_a_run_keeps_each_lines_context():
    contexts = [contexts for _, _, contexts in _frame(_array_reading_i(), "spice")]
    assert contexts == [[{"_i": i} for i in range(6)]]
    # the chain devices' contexts are empty
    assert [contexts for _, _, contexts in _frame(_constant_lines_inside(), "spice")] == [[{}] * 4]


def test_a_report_is_laid_out_once():
    # the layout takes lint's lines off the report: a second layout of it
    # fails at once instead of printing lines without their values
    circuit = Circuit()
    circuit += Chain(DEV, 3)
    table = exporters.exporter_for("spice")
    report = exporters.lint(circuit)
    exporters._line_frame(table, circuit, report, [])
    with pytest.raises(IndexError):
        exporters._line_frame(table, circuit, report, [])


def test_lint_errors_keep_the_report_but_not_its_lines():
    circuit = Circuit()
    circuit += Chain(DEV, 3)
    circuit.instances[0].designator = "1x"
    with pytest.raises(exporters.LintErrors) as refused:
        exporters.export(circuit, "spice")
    assert refused.value.report.has_errors and refused.value.report._lines == ()


def test_a_run_of_the_chain_is_one_call():
    circuit = Circuit()
    circuit += Chain(DEV, 50)
    frame = _frame(circuit, "spice")
    assert len(frame) == 1 and len(frame[0][1]) == 50


@pytest.mark.parametrize("dialect", DIALECTS)
def test_an_error_in_the_middle_of_a_run_is_the_reference_error(dialect):
    # the line with _i == 3 divides by zero, after three lines of the run rendered
    cell = Component(
        "cell", ["p", "q"], {"r": uniform(1, 2), "g": Formula("r/(_i - 3)")}, prefix="R"
    )
    circuit = Circuit()
    circuit += Array(6, cell, lambda i: [f"p{i}", f"q{i}"])
    assert [len(befores) for _, befores, _ in _frame(circuit, dialect)] == [6]
    with pytest.raises(DivisionByZeroError) as reference:
        reference_text(circuit, dialect, 1)
    with pytest.raises(DivisionByZeroError) as rendered:
        exporters.export(circuit, dialect, seed=1)
    assert str(rendered.value) == str(reference.value) == "division by zero in 'r / (_i - 3)'"


@pytest.fixture
def wrapped(monkeypatch):
    """Pass-through wrappers around the per-value names that a tracer
    wraps; counts their calls."""
    calls = dict.fromkeys(["sample", "evaluate", "format"], 0)

    def wrap(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, attr, wrapper)

    wrap(RandomSpec, "sample", "sample")
    wrap(formula.Formula, "evaluate", "evaluate")
    wrap(exporters, "format_number", "format")
    return calls


@pytest.mark.parametrize("dialect", DIALECTS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_the_wrapped_path_renders_the_same_bytes(wrapped, name, dialect):
    make, _ = CASES[name]
    circuit = make()
    expected = [reference_text(circuit, dialect, seed) for seed in SEEDS]
    wrapped.update(dict.fromkeys(wrapped, 0))
    emit = exporters._seed_exporter(circuit, dialect)
    # run functions are the kernels whatever wraps the names, and call none of them
    assert [emit(seed) for seed in SEEDS] == expected
    assert wrapped == {"sample": 0, "evaluate": 0, "format": 0}


def _chain_doc(w: float, template) -> dict:
    params = {"w": w, "l": {"$uniform": [1e-7, 2e-7]}, "vth": {"$gauss": [0.4, 0.05]},
              "test": {"$formula": "1/vth"}, "area": {"$formula": "w*l*2"}}
    return {"version": 1,
            "components": [{"name": "dev", "ports": ["a", "b", "c", "d"], "prefix": "X",
                            "params": params}],
            "circuit": [{"op": "chain", "template": template, "n": 2_000, "out_port": 2}]}


@pytest.mark.parametrize("dialect", DIALECTS)
def test_a_chain_over_a_bound_template_merges_and_plans_once(monkeypatch, tmp_path, dialect):
    # the chain's 2 000 children hold the same override objects: the build
    # checks one merged map, and lint and the layout read one more
    counts = dict.fromkeys(["merged", "plans"], 0)
    merged, plan_init = Params.merged, ParamPlan.__init__

    def counted_merged(self, overrides):
        counts["merged"] += 1
        return merged(self, overrides)

    def counted_init(self, params):
        counts["plans"] += 1
        plan_init(self, params)

    monkeypatch.setattr(Params, "merged", counted_merged)
    monkeypatch.setattr(ParamPlan, "__init__", counted_init)
    bound = builddoc.build_circuit(
        _chain_doc(1e-6, {"ref": "dev", "params": {"w": 2e-6}}), tmp_path
    )
    emit = exporters._seed_exporter(bound, dialect)
    texts = [emit(seed) for seed in SEEDS]
    assert counts["merged"] <= 2 and counts["plans"] <= 2
    assert len(_frame(bound, dialect)) == 1
    plain = exporters._seed_exporter(builddoc.build_circuit(_chain_doc(2e-6, "dev"), tmp_path),
                                     dialect)
    assert texts == [plain(seed) for seed in SEEDS]
