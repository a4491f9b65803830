"""A seed's outputs drawn once and replayed render what evaluation does.

Every text export takes its generator outputs from a stream: drawn
lane-parallel, in chunks, as the kernels reach them (rng.stream, through
exporters._Render), or, in a sweep that renders one seed in several
variants (corners x swept values), drawn once in one batch
(Xoshiro256StarStar.batch) and replayed by every variant of the seed
(exporters._Render.replay, cli._Streams). These tests hold both to the
sequential reference, ParamPlan.evaluate with a generator stepped one
output at a time and format_number: a kernel on generated plans and at a
chunk boundary, an emit and a replayed emit on the generated circuits of
test_acceptance, and a whole sweep against one `netforge export` per
variant, with the cap on kept outputs patched low, and through a value
error that stops it. No kernel touches a generator's state.
"""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _random_circuit
from test_plan_kernel import SEEDS, _call_through, _contexts, _plans
from test_render_reference import reference_text

from netforge import Formula, cli, exporters, params, rng
from netforge.cli import main
from netforge.errors import (
    CyclicDependencyError,
    DivisionByZeroError,
    NetforgeError,
    NonFiniteResultError,
)
from netforge.exporters import _seed_exporter, lint
from netforge.params import ParamPlan, gauss, uniform
from netforge.rng import STEP, Xoshiro256StarStar

BEFORES = ["X1 a b ", "\nX2 b c "]


def _outcome(run, befores, contexts, outputs) -> tuple:
    out = []
    try:
        run(befores, contexts, outputs, out)
    except Exception as exc:  # compared by class and message
        return ("error", type(exc), str(exc), out)
    return ("text", out)


@given(values=_plans, context=_contexts, seed=st.sampled_from(SEEDS))
@settings(max_examples=250, derandomize=True, deadline=None)
def test_the_kernel_renders_what_evaluate_does_from_a_drawn_stream(values, context, seed):
    try:
        plan = ParamPlan(values)
    except CyclicDependencyError:
        return
    contexts = [context, context]
    reference = _outcome(_call_through(values), BEFORES, contexts, Xoshiro256StarStar(seed))
    taken = iter(Xoshiro256StarStar(seed).batch(len(BEFORES) * plan.outputs()))
    assert _outcome(plan.run(), BEFORES, contexts, taken) == reference
    if reference[0] == "text":  # each line took exactly outputs() of them
        assert next(taken, None) is None


@pytest.mark.parametrize("chunk", [rng.CHUNK, rng.LANE + 3])
@pytest.mark.parametrize("failing", [False, True])
def test_a_gauss_draw_across_a_chunk_boundary_renders_what_evaluate_does(
    monkeypatch, chunk, failing
):
    monkeypatch.setattr(rng, "CHUNK", chunk)
    # g takes two outputs and u one, in that order, so line i takes outputs
    # 3i..3i+2, and the gauss draw of line (chunk - 1) // 3 takes the last
    # output of the first chunk and the first of the second
    assert chunk % 3 == 1
    straddling = (chunk - 1) // 3
    values = {"g": gauss(0.4, 0.05), "u": uniform(1.0, 2.0), "q": Formula("g * u / (_i - _k)")}
    # the line that straddles divides by zero, or none does
    k = straddling if failing else -1
    befores = [f"\nX{i} a b " for i in range(straddling + 3)]
    contexts = [{"_i": i, "_k": k} for i in range(len(befores))]
    plan = ParamPlan(values)
    seed = 2**63
    reference = _outcome(_call_through(values), befores, contexts, Xoshiro256StarStar(seed))
    drawn = rng.stream(seed, len(befores) * plan.outputs())
    assert _outcome(plan.run(), befores, contexts, drawn) == reference
    if failing:
        assert reference[:2] == ("error", DivisionByZeroError)
        assert len(reference[3]) == straddling  # the lines before it


def _lint_clean_circuits():
    for number in range(300):
        circuit = _random_circuit(number)
        if not lint(circuit).has_errors:
            yield circuit


def _text(render, *args) -> tuple:
    try:
        return ("text", render(*args))
    except (NonFiniteResultError, DivisionByZeroError) as exc:
        return ("error", type(exc), str(exc))


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
def test_a_replayed_emit_equals_the_reference_on_generated_circuits(dialect):
    replayed = drawing = 0
    for circuit in _lint_clean_circuits():
        emit = _seed_exporter(circuit, dialect)
        for seed in (circuit.rng_seed, circuit.rng_seed + 1):
            reference = _text(reference_text, circuit, dialect, seed)
            assert _text(emit, seed) == reference
            outputs = Xoshiro256StarStar(seed).batch(emit.outputs)
            assert _text(emit.replay, outputs) == reference
            replayed += 1
            if reference[0] == "text" and emit.outputs:
                drawing += 1
                # the count is exact: one output fewer runs out
                with pytest.raises(StopIteration):
                    emit.replay(outputs[:-1])
    assert replayed >= 300 and drawing >= 100


def test_no_kernel_loads_or_stores_generator_state(monkeypatch):
    sources = []
    source = params._source

    def spy(shape):
        result = source(shape)
        sources.append(result[0])
        return result

    monkeypatch.setattr(params, "_source", spy)
    params._factory.cache_clear()
    for number in range(40):
        for dialect in ("spice", "spectre"):
            try:
                exporters.export(_random_circuit(number), dialect)
            except NetforgeError:
                pass
    drawing = [text for text in sources if "take = rng.__next__" in text]
    assert drawing
    for text in sources:
        assert "rng._s" not in text and not any(line in text for line in STEP)
    params._factory.cache_clear()


# --- whole sweeps ---------------------------------------------------------------------

# TT draws w, vth and k, and FF l too, so its variants extend the seed's
# outputs; SS overflows k (exp(800)) on its first line
_LIBRARY = {
    "dev": {
        "TT": {"w": {"$uniform": [1e-6, 2e-6]}, "vth": {"$gauss": [0.4, 0.05]},
               "k": {"$lognormal": [-1.0, 0.3]}, "l": 1e-7, "t": {"$formula": "1/vth"}},
        "FF": {"w": {"$uniform": [1e-6, 2e-6]}, "vth": {"$gauss": [0.35, 0.05]},
               "k": {"$lognormal": [-1.2, 0.3]}, "l": {"$uniform": [1e-7, 2e-7]},
               "t": {"$formula": "1/vth"}},
        "SS": {"w": 1e-6, "vth": {"$gauss": [0.45, 0.05]}, "k": {"$lognormal": [800.0, 0.0]},
               "l": 1e-7, "t": {"$formula": "1/vth"}},
    }
}
_DOC = {
    "version": 1,
    "seed": 11,
    "variables": {"N": 3},
    "params_files": ["lib.json"],
    "components": [{"name": "dev", "ports": ["a", "b", "c"], "prefix": "X", "params_from": "dev"}],
    "circuit": [
        {"op": "inject", "p": 0.3, "seed": 4,
         "into": {"op": "chain", "template": "dev", "n": "${N}", "in_port": 0, "out_port": 1}},
        {"op": "instance", "template": "dev", "nets": ["x", "y", "z"], "params": {"w": 2e-6}},
    ],
}
CORNERS = ("TT", "FF")
VARY = ("N", (2, 5))
SEED_COUNT = 3


def _write_doc(directory, corner=None):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "lib.json").write_text(json.dumps(_LIBRARY))
    doc = dict(_DOC, corner=corner) if corner else _DOC
    (directory / "dev.json").write_text(json.dumps(doc))
    return directory / "dev.json"


def _sweep(tmp_path, dialect, corners=CORNERS, name="sweep") -> tuple:
    """(exit code, {file name: bytes}) of one sweep."""
    doc = _write_doc(tmp_path / "in")
    out = tmp_path / name
    argv = ["sweep", str(doc), "--dialect", dialect, "--seeds", str(SEED_COUNT),
            "--vary", f"{VARY[0]}={VARY[1][0]}:{VARY[1][1]}:2", "--out", str(out)]
    for corner in corners:
        argv += ["--corner", corner]
    code = main(argv)
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    shutil.rmtree(out)
    return code, files


def _counted_renders(monkeypatch) -> dict:
    """The renders from here on that drew their own stream (emit(seed)) and
    those that replayed a kept one, counted."""
    calls = {"drawn": 0, "replay": 0}

    def counted(kind, method):
        return lambda *args: calls.__setitem__(kind, calls[kind] + 1) or method(*args)

    for kind, name in (("drawn", "__call__"), ("replay", "replay")):
        monkeypatch.setattr(exporters._Render, name, counted(kind, getattr(exporters._Render, name)))
    return calls


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
def test_a_sweep_writes_the_bytes_of_one_export_per_variant(
    tmp_path, monkeypatch, dialect, capsys
):
    calls = _counted_renders(monkeypatch)
    code, files = _sweep(tmp_path, dialect)
    assert code == 0 and calls == {"drawn": 0, "replay": 2 * 2 * SEED_COUNT}
    ext = cli._EXTENSIONS[dialect]
    expected = {}
    for corner in CORNERS:
        doc = _write_doc(tmp_path / corner, corner)
        for value in VARY[1]:
            for seed in range(_DOC["seed"], _DOC["seed"] + SEED_COUNT):
                out = tmp_path / "export.out"
                argv = ["export", str(doc), "--dialect", dialect, "--seed", str(seed),
                        "--set", f"{VARY[0]}={value}", "--out", str(out)]
                assert main(argv) == 0
                expected[f"dev__{corner}__{VARY[0]}={value}__s{seed}.{ext}"] = out.read_bytes()
    manifest = json.loads(files.pop("manifest.json"))
    assert files == expected
    assert [variant["file"] for variant in manifest["variants"]] == list(expected)
    # every kind of draw, and a line drawn in one corner and constant in the other
    tt, ff = (expected[f"dev__{c}__N=5__s11.{ext}"].decode() for c in CORNERS)
    assert "k=" in tt and " l=1e-7 " in tt and " l=1e-7 " not in ff


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
@pytest.mark.parametrize("cap", [0, 20, 50, 90])
def test_a_sweep_past_the_cap_on_kept_outputs_writes_the_same_bytes(
    tmp_path, monkeypatch, capsys, dialect, cap
):
    # 0 has every variant draw its own stream; the others keep some seeds'
    # outputs, and the variants whose seed would pass the cap draw their own
    reference = _sweep(tmp_path, dialect, name="reference")
    calls = _counted_renders(monkeypatch)
    monkeypatch.setattr(cli, "STREAM_CAP", cap)
    assert _sweep(tmp_path, dialect) == reference
    assert calls["drawn"] > 0 and (calls["replay"] > 0) == (cap > 0)


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
def test_a_value_error_in_a_replayed_variant_stops_the_sweep_where_a_live_one_does(
    tmp_path, monkeypatch, capsys, dialect
):
    calls = _counted_renders(monkeypatch)
    replayed = _sweep(tmp_path, dialect, corners=("TT", "SS", "FF"), name="replayed")
    replayed_err = capsys.readouterr().err
    # every variant replayed, the failing SS one too
    assert calls == {"drawn": 0, "replay": 2 * SEED_COUNT + 1}
    # with nothing kept, every variant draws its own stream, the failing one too
    monkeypatch.setattr(cli, "STREAM_CAP", 0)
    drawn = _sweep(tmp_path, dialect, corners=("TT", "SS", "FF"), name="drawn")
    assert replayed == drawn and capsys.readouterr().err == replayed_err
    code, files = replayed
    assert code == 3 and replayed_err.startswith("sweep failed: sample from lognormal(800.0")
    variants = json.loads(files.pop("manifest.json"))["variants"]
    # the TT variants, then the first SS variant, which failed
    assert len(variants) == 2 * SEED_COUNT + 1 and len(files) == 2 * SEED_COUNT
    assert variants[-1]["corner"] == "SS" and "error" in variants[-1]


class _Emit:
    """An emit that takes `outputs` outputs per render and shows them."""

    def __init__(self, outputs):
        self.outputs = outputs

    def __call__(self, seed):
        return "drawn"

    def replay(self, outputs):
        return outputs[: self.outputs].tolist()


def _batch(seed, n):
    return Xoshiro256StarStar(seed).batch(n).tolist()


def test_the_streams_count_the_doubles_they_keep(monkeypatch):
    monkeypatch.setattr(cli, "STREAM_CAP", 10)
    streams = cli._Streams()
    assert streams.render(_Emit(3), 1, False) == _batch(1, 3)
    assert streams.render(_Emit(3), 2, False) == _batch(2, 3)
    # extended by two, from where the generator stopped
    assert streams.render(_Emit(5), 1, False) == _batch(1, 5)
    assert streams.kept == 8
    # three more would pass the cap: the emit draws its own, and nothing is kept
    assert streams.render(_Emit(3), 3, False) == "drawn" and streams.kept == 8
    assert streams.render(_Emit(0), 4, False) == "drawn"
    # a seed's last variant replays what is kept, then drops it
    assert streams.render(_Emit(5), 1, True) == _batch(1, 5) and streams.kept == 3
    # a seed with nothing kept draws its own on its last variant, and keeps nothing
    assert streams.render(_Emit(7), 3, True) == "drawn" and streams.kept == 3
    assert streams.render(_Emit(7), 3, False) == _batch(3, 7) and streams.kept == 10
    assert streams.render(_Emit(2), 2, True) == _batch(2, 2) and streams.kept == 7
    assert streams.render(_Emit(0), 3, True) == "drawn"
    assert streams.kept == 0 and streams.seeds == {}
