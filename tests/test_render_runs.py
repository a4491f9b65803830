"""Consecutive lines of one plan render in one call of its run function.

A text export lays the netlist out into runs (exporters._line_frame): each
run is one plan's run function (ParamPlan.run) with the texts before its
lines and the lines' contexts. These tests check where runs start and end,
and that every edge of a run gives the bytes of the plain line-by-line
reference of test_render_reference, or the same error: per-line contexts,
runs of one line, constant-only lines inside a run, subcircuit bodies, an
error in the middle of a run, and the call-through path that wrapped
methods take.
"""

import pytest
from test_plan_kernel import _overridden_instances
from test_render_reference import TITLE, reference_text

from netforge import Array, Chain, Circuit, Component, Formula, Subcircuit, exporters, formula
from netforge.errors import DivisionByZeroError
from netforge.params import RandomSpec, gauss, uniform

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


# name -> (circuit factory, the number of lines of each run, in frame order)
CASES = {
    "array_reading_i": (_array_reading_i, [6]),
    "overridden_instances": (lambda: _overridden_instances(4), [1, 1, 1, 1]),
    "constant_lines_inside": (_constant_lines_inside, [4]),
    # CELL's two devices, then AMP's header and its device, then the top-level device
    "subcircuit_bodies": (_subcircuit_bodies, [2, 1, 2]),
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
    """Pass-through wrappers around the per-value names, which send every
    run through ParamPlan._scope_run and every value through format_number
    by call; counts their calls."""
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
    assert [emit(seed) for seed in SEEDS] == expected
    assert wrapped["sample"] > 0 and wrapped["evaluate"] > 0 and wrapped["format"] > 0
