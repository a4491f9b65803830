"""A seed's outputs drawn once and replayed render what a live render does.

A sweep that renders one seed in several variants (corners x swept values)
draws the random() doubles of the seed's generator outputs once, in one
batch (Xoshiro256StarStar.randoms), and renders every variant of the seed with
the replay form of each plan's kernel (ParamPlan.replay, through
exporters._Render.replay and cli._Streams). These tests hold that path to
the live one: a replay kernel against the live kernel on generated plans,
a replayed emit against the live emit on the generated circuits of
test_acceptance, and a whole sweep against one `netforge export` per
variant, with the cap on kept outputs patched low, and through a value
error that stops it. An export compiles no replay kernel.
"""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _random_circuit
from test_plan_kernel import SEEDS, _contexts, _plans

from netforge import cli, exporters, params
from netforge.cli import main
from netforge.errors import (
    CyclicDependencyError,
    DivisionByZeroError,
    NetforgeError,
    NonFiniteResultError,
)
from netforge.exporters import _seed_exporter, lint
from netforge.params import ParamPlan
from netforge.rng import Xoshiro256StarStar

BEFORES = ["X1 a b ", "\nX2 b c "]


def _outcome(run, contexts, rng) -> tuple:
    out = []
    try:
        run(BEFORES, contexts, rng, out)
    except Exception as exc:  # compared by class and message
        return ("error", type(exc), str(exc), out)
    return ("text", out)


@given(values=_plans, context=_contexts, seed=st.sampled_from(SEEDS))
@settings(max_examples=250, derandomize=True, deadline=None)
def test_the_replay_kernel_renders_what_the_live_kernel_does(values, context, seed):
    try:
        plan = ParamPlan(values)
    except CyclicDependencyError:
        return
    contexts = [context, context]
    live = _outcome(plan.run(), contexts, Xoshiro256StarStar(seed))
    taken = iter(Xoshiro256StarStar(seed).randoms(len(BEFORES) * plan.outputs()))
    assert _outcome(plan.replay(), contexts, taken) == live
    if live[0] == "text":  # each line took exactly outputs() of them
        assert next(taken, None) is None


def _lint_clean_circuits():
    for number in range(300):
        circuit = _random_circuit(number)
        if not lint(circuit).has_errors:
            yield circuit


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
def test_a_replayed_emit_equals_the_live_emit_on_generated_circuits(dialect):
    replayed = drawing = 0
    for circuit in _lint_clean_circuits():
        emit = _seed_exporter(circuit, dialect)
        for seed in (circuit.rng_seed, circuit.rng_seed + 1):
            try:
                live = ("text", emit(seed))
            except (NonFiniteResultError, DivisionByZeroError) as exc:
                live = ("error", type(exc), str(exc))
            randoms = Xoshiro256StarStar(seed).randoms(emit.outputs)
            try:
                replay = ("text", emit.replay(randoms))
            except (NonFiniteResultError, DivisionByZeroError) as exc:
                replay = ("error", type(exc), str(exc))
            assert replay == live
            replayed += 1
            if live[0] == "text" and emit.outputs:
                drawing += 1
                # the count is exact: one output fewer runs out
                with pytest.raises(StopIteration):
                    emit.replay(randoms[:-1])
    assert replayed >= 300 and drawing >= 100


def test_an_export_compiles_no_replay_kernel(monkeypatch, data_dir):
    forms = []
    source = params._source
    monkeypatch.setattr(params, "_source", lambda shape: forms.append(shape[-1]) or source(shape))
    params._factory.cache_clear()
    for number in range(40):
        for dialect in ("spice", "spectre"):
            try:
                exporters.export(_random_circuit(number), dialect)
            except NetforgeError:
                pass
    assert forms and not any(forms)
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
    """The live and replayed renders from here on, counted."""
    calls = {"live": 0, "replay": 0}

    def counted(kind, method):
        return lambda *args: calls.__setitem__(kind, calls[kind] + 1) or method(*args)

    for kind, name in (("live", "__call__"), ("replay", "replay")):
        monkeypatch.setattr(exporters._Render, name, counted(kind, getattr(exporters._Render, name)))
    return calls


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
def test_a_sweep_writes_the_bytes_of_one_export_per_variant(
    tmp_path, monkeypatch, dialect, capsys
):
    calls = _counted_renders(monkeypatch)
    code, files = _sweep(tmp_path, dialect)
    assert code == 0 and calls == {"live": 0, "replay": 2 * 2 * SEED_COUNT}
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
    # 0 renders every variant live; the others keep some seeds' outputs and
    # render the variants whose seed would pass the cap live
    reference = _sweep(tmp_path, dialect, name="reference")
    calls = _counted_renders(monkeypatch)
    monkeypatch.setattr(cli, "STREAM_CAP", cap)
    assert _sweep(tmp_path, dialect) == reference
    assert calls["live"] > 0 and (calls["replay"] > 0) == (cap > 0)


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
def test_a_value_error_in_a_replayed_variant_stops_the_sweep_where_a_live_one_does(
    tmp_path, monkeypatch, capsys, dialect
):
    calls = _counted_renders(monkeypatch)
    replayed = _sweep(tmp_path, dialect, corners=("TT", "SS", "FF"), name="replayed")
    replayed_err = capsys.readouterr().err
    # every variant replayed, the failing SS one too
    assert calls == {"live": 0, "replay": 2 * SEED_COUNT + 1}
    monkeypatch.setattr(cli, "STREAM_CAP", 0)
    live = _sweep(tmp_path, dialect, corners=("TT", "SS", "FF"), name="live")
    assert replayed == live and capsys.readouterr().err == replayed_err
    code, files = replayed
    assert code == 3 and replayed_err.startswith("sweep failed: sample from lognormal(800.0")
    variants = json.loads(files.pop("manifest.json"))["variants"]
    # the TT variants, then the first SS variant, which failed
    assert len(variants) == 2 * SEED_COUNT + 1 and len(files) == 2 * SEED_COUNT
    assert variants[-1]["corner"] == "SS" and "error" in variants[-1]


class _Emit:
    """An emit that takes `outputs` doubles per render and shows them."""

    def __init__(self, outputs):
        self.outputs = outputs

    def __call__(self, seed):
        return "live"

    def replay(self, randoms):
        return list(randoms[: self.outputs])


def test_the_streams_count_the_doubles_they_keep(monkeypatch):
    monkeypatch.setattr(cli, "STREAM_CAP", 10)
    streams = cli._Streams()
    assert streams.render(_Emit(3), 1) == Xoshiro256StarStar(1).randoms(3)
    assert streams.render(_Emit(3), 2) == Xoshiro256StarStar(2).randoms(3)
    # extended by two, from where the generator stopped
    assert streams.render(_Emit(5), 1) == Xoshiro256StarStar(1).randoms(5)
    assert streams.kept == 8
    # three more would pass the cap: live, and nothing kept
    assert streams.render(_Emit(3), 3) == "live" and streams.kept == 8
    assert streams.render(_Emit(0), 4) == "live"
    streams.drop(1)
    streams.drop(3)
    assert streams.kept == 3
    assert streams.render(_Emit(7), 3) == Xoshiro256StarStar(3).randoms(7)
    streams.drop(2)
    streams.drop(3)
    assert streams.kept == 0 and streams.seeds == {}
