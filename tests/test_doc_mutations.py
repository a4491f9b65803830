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
here. The same leaf mutations of the golden JSON IR files, and IR documents
whose subcircuits nest up to the depth read_json accepts, must make
`import_json`, and `export_json`, `lint` and `export` of what it reads,
raise nothing but a NetforgeError, at that recursion limit too.

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
from netforge.exporters import export, export_json, import_json, lint
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


def nested_ir(depth: int) -> str:
    """The golden capacitor IR plus `depth` subcircuits S0, S1, ..., each
    nested in the one before and placed in its body, with S0 placed at the
    top: JSON nested about twice `depth` deep, written without recursion.
    The subcircuits have no pins, so that each level is a few lines of IR."""
    doc = copy.deepcopy(IR_BASES["capacitor.json"])
    doc["subcircuits"] = "NESTED"
    doc["instances"].append({"template": "S0", "nets": [], "params": {}, "designator": "X1"})
    opens, closes = [], []
    for k in range(depth):
        record = (
            {"template": "Cap", "nets": ["a", "b"], "params": {}, "designator": "C1"}
            if k + 1 == depth
            else {"template": f"S{k + 1}", "nets": [], "params": {}, "designator": "X1"}
        )
        opens.append(f'{{"S{k}": {{"pins": [], "params": {{}}, "fixed": false, "nested": ')
        closes.append(f', "body": [{json.dumps(record)}]}}}}')
    return json.dumps(doc).replace('"NESTED"', "".join(opens) + "{}" + "".join(closes[::-1]))


# the recursion limit a console run has; Hypothesis raises it while a test runs
_CONSOLE_LIMIT = sys.getrecursionlimit()


@contextlib.contextmanager
def console_recursion_limit():
    """Run the block at the recursion limit the interpreter started with."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_CONSOLE_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _run(argv) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    with console_recursion_limit():
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(a) for a in argv])
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


def _read_and_write_ir(text: str, write=True) -> bool:
    """Whether import_json reads `text` at the console's recursion limit;
    then, if `write`, export_json, lint and export what it read there. Only
    a NetforgeError may end either."""
    with console_recursion_limit():
        try:
            circuit = import_json(text)
        except NetforgeError:
            return False
        if write:
            with contextlib.suppress(NetforgeError):
                export_json(circuit)
                lint(circuit)
                export(circuit, "spice")
    return True


@settings(_BOUNDED, max_examples=150)
@given(case=mutated(IR_BASES))
def test_a_mutated_ir_document_raises_only_netforge_errors(case):
    _read_and_write_ir(json.dumps(case[1]))


def test_subcircuits_nested_as_deep_as_read_json_reads_raise_only_netforge_errors():
    # the deepest nesting import_json reads at the console's limit, by bisection
    read, unread = 1, _CONSOLE_LIMIT
    while unread - read > 1:
        depth = (read + unread) // 2
        if _read_and_write_ir(nested_ir(depth), write=False):
            read = depth
        else:
            unread = depth
    assert read > _CONSOLE_LIMIT // 3
    for depth in (1, read // 2, read):
        assert _read_and_write_ir(nested_ir(depth))
    assert not _read_and_write_ir(nested_ir(unread))
