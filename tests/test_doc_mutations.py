"""Mutated build documents and JSON IR end in a documented error, never a traceback.

A bounded, derandomized property: one or two leaves of tests/data/ro.json,
or of the chain_mc document of perfbench/workloads.py (read, never changed),
are replaced with a JSON value of another type, or one operator node of the
document is wrapped in up to twice formula.MAX_DEPTH concat, inject or
into_subckt nodes, each holding the next. Each such document goes through
`netforge.cli.main` as `export --out` and as `sweep`, and each run must exit
0, 2, 3 or 5 with no exception escaping `main` (the console would print it
as a traceback). A failed `export --out` must leave no file. Each run has
the recursion limit the interpreter started with, which Hypothesis raises
while a test runs, so a walk that nesting can drive past that limit fails
here. The same leaf mutations of the golden JSON IR files must make
`import_json` raise nothing but a NetforgeError.

Generated numbers stay small (plus inf and nan). A huge finite count asks
for that many instances: "N_CHAINS": 1e300 as a $repeat count ran for
minutes. Whether counts get an upper bound is still undecided, so the
generator leaves huge counts out.
"""

import contextlib
import copy
import importlib.util
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netforge.cli import main
from netforge.errors import NetforgeError
from netforge.exporters import import_json
from netforge.formula import MAX_DEPTH

from sample_circuits import nested_node

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
WORKLOADS = TESTS.parent / "perfbench" / "workloads.py"


def _chain_mc_files() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.spec("chain_mc", 1)["files"]


_CHAIN_MC = _chain_mc_files()
BASES = {
    "ro.json": json.loads((DATA / "ro.json").read_text()),
    "chain_mc.json": _CHAIN_MC["chain_mc.json"],
}
SIDE_FILES = {"chain_params.json": json.dumps(_CHAIN_MC["chain_params.json"])}
IR_BASES = {p.name: json.loads(p.read_text()) for p in sorted((TESTS / "golden").glob("*.json"))}

# one list, so that no kind of value is the generator's favourite
_SCALARS = st.sampled_from(
    [-1, 0, 0.5, math.inf, "${1e400}", [1], None, True, False, -3, 1, 2, 8, -1.5, 1e-3,
     -math.inf, math.nan, "", "x", "1", "-2", "a b", "GND", "nmos", "${N_CHAINS}", "${1/0}"]
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["a", "op", "ref", "$formula", "$repeat"]), _SCALARS, max_size=2),
)


def leaves(value, path=()):
    """The paths of every scalar and empty container in a JSON value."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from leaves(item, (*path, key))
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from leaves(item, (*path, index))
    else:
        yield path


def _get(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutated(draw, bases):
    """A deep copy of one of `bases` with one or two leaves replaced by a
    value of another (Python) type."""
    name = draw(st.sampled_from(sorted(bases)))
    doc = copy.deepcopy(bases[name])
    paths = list(leaves(doc))
    for index in draw(st.lists(st.integers(0, len(paths) - 1), min_size=1, max_size=2, unique=True)):
        *parent, key = paths[index]
        old = _get(doc, paths[index])
        _get(doc, parent)[key] = draw(_VALUES.filter(lambda v, old=old: type(v) is not type(old)))
    return name, doc


def _op_paths(doc) -> list:
    """The paths of the operator nodes in the circuit and the subcircuit bodies of `doc`."""
    paths = [("circuit", i) for i in range(len(doc.get("circuit", [])))]
    for j, sub in enumerate(doc.get("subcircuits", [])):
        paths += [("subcircuits", j, "body", i) for i in range(len(sub.get("body", [])))]
    return paths


@st.composite
def wrapped(draw, bases):
    """A deep copy of one of `bases` with one operator node wrapped in up to
    twice MAX_DEPTH nodes of one nesting op, the bound and one past it often."""
    name = draw(st.sampled_from(sorted(bases)))
    doc = copy.deepcopy(bases[name])
    *parent, key = draw(st.sampled_from(_op_paths(doc)))
    op = draw(st.sampled_from(["concat", "inject", "into_subckt"]))
    depth = draw(st.sampled_from([MAX_DEPTH, MAX_DEPTH + 1]) | st.integers(1, 2 * MAX_DEPTH))
    _get(doc, parent)[key] = nested_node(op, depth, _get(doc, parent)[key])
    return name, doc


# the recursion limit a console run has; Hypothesis raises it while a test runs
_CONSOLE_LIMIT = sys.getrecursionlimit()


def _run(argv) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_CONSOLE_LIMIT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(a) for a in argv])
    finally:
        sys.setrecursionlimit(limit)
    assert code in (0, 2, 3, 5), (argv[0], code, stderr.getvalue())
    return code


_BOUNDED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _export_and_sweep(name, doc):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for side in ("mos_params.json", "counter.va"):
            shutil.copy(DATA / side, work / side)
        for side, text in SIDE_FILES.items():
            (work / side).write_text(text)
        path = work / name
        path.write_text(json.dumps(doc))
        out = work / "out.sp"
        if _run(["export", path, "--out", out]) != 0:
            assert not out.exists()
        _run(["sweep", path, "--out", work / "sweep"])


@settings(_BOUNDED, max_examples=150)
@given(case=mutated(BASES))
def test_a_mutated_document_exits_with_a_documented_code(case):
    _export_and_sweep(*case)


@settings(_BOUNDED, max_examples=30)
@given(case=wrapped(BASES))
def test_a_deeply_wrapped_document_exits_with_a_documented_code(case):
    _export_and_sweep(*case)


@settings(_BOUNDED, max_examples=150)
@given(case=mutated(IR_BASES))
def test_a_mutated_ir_document_raises_only_netforge_errors(case):
    _, doc = case
    try:
        import_json(json.dumps(doc))
    except NetforgeError:
        pass
