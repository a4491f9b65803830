"""A kernel formats a whole line at once, exactly as format_number does value by value.

A plan kernel puts all of a line's drawn and computed values into its text
with one `%.12g` format and mends the exponents with one replacement
(numfmt.line_source), and formats value by value only where that could go
wrong. Here generated lines, with the values where `.12g` and
format_number part ways and literal text that looks like what the kernel
searches for, are held to test_render_reference.reference_text, which
formats every value with format_number, in SPICE and in Spectre.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_render_reference import reference_text

from netforge import Chain, Circuit, Component, Formula
from netforge.exporters import _seed_exporter
from netforge.params import gauss

# where `.12g` and format_number differ, or nearly do
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 4.9e-320, 1e-310, 2.225073858507201e-308, sys.float_info.min,
    sys.float_info.max, 1e-5, -1e-5, 1.5e-7, 1e-9, 1e-10, 1.5e-30, -3.25e-35, 1e-39, 1e-299,
    1e-300, 1e-308, -0.5, -0.001, -1e-9, -0.999999999999, 0.1 + 0.2, 999999999999.0,
    999999999999.5, 1e12 + 0.5, 1e15 + 0.25, 1.5e16, 2.0**60,
]
INTEGRAL = st.integers(10**12 - 2, 10**16 + 2).map(float)
# values that `.12g` prints as format_number does, but for an exponent's
# leading zero: most lines need none but these, or they format value by value
ORDINARY = st.floats(-1e3, 1e3) | st.floats(1e-12, 1e-3) | st.floats(-1e-3, -1e-12)
# ORDINARY three times in four
VALUES = st.sampled_from([
    ORDINARY, ORDINARY, ORDINARY,
    st.sampled_from(EDGES + [-v for v in EDGES]) | INTEGRAL
    | st.floats(allow_nan=False, allow_infinity=False),
]).flatmap(lambda values: values)
# text constants that hold what the kernel searches for or mends, or a %
TEXTS = st.sampled_from(["nch", "e-05", "ae+1", "x1e-3", "5%", "%s", "%%d", "e-0", "e+"])

# an entry of the parameter map: a value read from each line's context (as
# itself or negated, so 0 gives -0.0), a gauss of spread 0 (whose mean -0.0
# draws -0.0 on about half the lines), or a number or text constant
ENTRIES = st.one_of(
    st.just(("read", None)),
    st.just(("negate", None)),
    st.tuples(st.just("gauss"), VALUES),
    st.tuples(st.just("number"), VALUES),
    st.tuples(st.just("text"), TEXTS),
)


def _params(entries) -> dict:
    params = {}
    for k, (kind, value) in enumerate(entries):
        params[f"p{k}"] = {
            "read": lambda: Formula(f"x{k}"),
            "negate": lambda: Formula(f"-x{k}"),
            "gauss": lambda: gauss(value, 0.0),
            "number": lambda: value,
            "text": lambda: value,
        }[kind]()
    return params


def _circuit(entries, contexts, master, designator) -> Circuit:
    dev = Component(master, ["a", "b"], _params(entries), prefix="X")
    circuit = Circuit()
    circuit += Chain(dev, len(contexts))
    for inst, values in zip(circuit.instances, contexts):
        inst.context.update({f"x{k}": value for k, value in enumerate(values)})
    circuit.instances[0].designator = designator
    return circuit


@given(
    entries=st.lists(ENTRIES, min_size=1, max_size=6),
    contexts=st.lists(st.lists(VALUES, min_size=6, max_size=6), min_size=1, max_size=3),
    master=st.sampled_from(["dev", "dev_e-05", "m.e-0"]),
    designator=st.sampled_from(["X1", "Xe-05", "Ye+1"]),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_kernel_lines_equal_the_per_value_reference(entries, contexts, master, designator, seed):
    circuit = _circuit(entries, contexts, master, designator)
    for dialect in ("spice", "spectre"):
        assert _seed_exporter(circuit, dialect)(seed) == reference_text(circuit, dialect, seed)


@pytest.mark.parametrize("text", ["nch", "x1e-3"])  # one line at once, or value by value
def test_every_edge_prints_as_format_number_prints_it(text):
    entries, values = [], []
    for value in EDGES:
        entries += [("read", None), ("negate", None), ("text", text)]
        values += [value, value, None]
    circuit = _circuit(entries, [values], "dev_e-05", "Xe-05")
    for dialect in ("spice", "spectre"):
        assert _seed_exporter(circuit, dialect)(1) == reference_text(circuit, dialect, 1)
