import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from netforge import Array, Circuit, Component, Formula, Instance, Subcircuit, builddoc
from netforge.cli import main
from netforge.exporters import export, lint

from sample_circuits import duplicate_subckt_circuit, long_cycle_formulas, nested_node

RO_DOC = "ro.json"


@pytest.fixture
def doc_dir(data_dir, tmp_path):
    """A scratch copy of the data directory so docs can be edited freely."""
    for name in ("ro.json", "counter.va", "mos_params.json"):
        shutil.copy(data_dir / name, tmp_path / name)
    return tmp_path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- build ------------------------------------------------------------------

def test_build_summary(doc_dir, capsys):
    code, out, _ = run_cli(["build", doc_dir / RO_DOC], capsys)
    assert code == 0
    assert out == "circuit: 6 instances, 2 models, 3 subcircuits, seed 7\n"


def test_build_set_overrides_variables(doc_dir, capsys):
    code, out, _ = run_cli(["build", doc_dir / RO_DOC, "--set", "N_CHAINS=1"], capsys)
    assert code == 0
    # count oracle: 1 chain instance + 1 counter
    assert out.startswith("circuit: 2 instances")


def test_build_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["build", bad], capsys)
    assert code == 2
    assert "error:" in err


def test_a_document_that_is_not_an_object_exits_2(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text("[1]")
    for args in (["build", doc], ["sweep", doc, "--out", tmp_path / "sweep"]):
        assert run_cli(args, capsys) == (2, "", "error: $: build document must be an object\n")
    assert not (tmp_path / "sweep").exists()


def test_build_schema_error_exits_2_with_path(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"version": 1, "circuit": [{"op": "warp"}]}))
    code, _, err = run_cli(["build", doc], capsys)
    assert code == 2
    assert "circuit[0]" in err


def test_uniform_span_overflow_exits_2_with_path(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "version": 1,
                "components": [
                    {
                        "name": "r",
                        "ports": ["a", "b"],
                        "prefix": "R",
                        "params": {"r": {"$uniform": [-1e308, 1e308]}},
                    }
                ],
                "circuit": [{"op": "instance", "template": "r", "nets": ["n1", "0"]}],
            }
        )
    )
    for command in (["build", doc], ["export", doc]):
        code, _, err = run_cli(command, capsys)
        assert code == 2
        assert "span" in err and "components[0].params.r" in err


def test_build_error_exits_3(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "version": 1,
                "components": [
                    {
                        "name": "r",
                        "ports": ["a", "b"],
                        "params": {"x": {"$formula": "y"}, "y": {"$formula": "x"}},
                    }
                ],
                "circuit": [
                    {"op": "instance", "template": "r", "nets": ["n1", "n1"]}
                ],
            }
        )
    )
    # the parameter cycle fails `build` itself, not just a later export
    for command in ("build", "export"):
        code, _, err = run_cli([command, doc], capsys)
        assert code == 3
        assert "cyclic" in err.lower()


def test_a_cycle_at_the_end_of_a_long_formula_chain_exits_3(tmp_path, capsys):
    # a RecursionError traceback, exit 1
    params = {name: {"$formula": text} for name, text in long_cycle_formulas().items()}
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "version": 1,
                "components": [{"name": "r", "ports": ["a", "b"], "params": params}],
                "circuit": [{"op": "instance", "template": "r", "nets": ["n1", "n2"]}],
            }
        )
    )
    for command in ("build", "export", "lint"):
        code, out, err = run_cli([command, doc], capsys)
        assert (code, out) == (3, "")
        assert err == "error: cyclic parameter dependency: f1199 -> f1200 -> f1199\n"


@pytest.mark.parametrize("where", ["count", "param", "formula"])
def test_deep_formula_exits_2_without_traceback(tmp_path, capsys, where):
    deep = "(" * 3000 + "1" + ")" * 3000
    params = {
        "count": {"x": 1},
        "param": {"x": "${" + deep + "}"},
        "formula": {"x": {"$formula": deep}},
    }[where]
    n = "${" + deep + "}" if where == "count" else 2
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "version": 1,
                "components": [{"name": "r", "ports": ["a", "b"], "params": params}],
                "circuit": [{"op": "chain", "template": "r", "n": n}],
            }
        )
    )
    for command in ("build", "export"):
        code, out, err = run_cli([command, doc], capsys)
        assert code == 2
        assert out == ""
        assert "nests deeper" in err and "Traceback" not in err


def test_missing_doc_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["build", tmp_path / "absent.json"], capsys)
    assert code == 2


# --- export --------------------------------------------------------------------

def test_export_stdout_deterministic(doc_dir, capsys):
    code1, out1, _ = run_cli(["export", doc_dir / RO_DOC, "--dialect", "spice"], capsys)
    code2, out2, _ = run_cli(["export", doc_dir / RO_DOC, "--dialect", "spice"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith(".end\n")


def test_export_to_file(doc_dir, tmp_path, capsys):
    target = tmp_path / "out.sp"
    code, out, _ = run_cli(
        ["export", doc_dir / RO_DOC, "--out", target], capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text().endswith(".end\n")


def test_export_unknown_dialect_exits_4(doc_dir, capsys):
    code, _, err = run_cli(["export", doc_dir / RO_DOC, "--dialect", "nope"], capsys)
    assert code == 4
    assert "spice" in err and "spectre" in err


def test_export_unknown_dialect_checked_before_build(tmp_path, capsys):
    malformed = tmp_path / "broken.json"
    malformed.write_text("{not json")
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(
        json.dumps(
            {
                "version": 1,
                "components": [
                    {"name": "r", "ports": ["a", "b"], "params": {"x": {"$formula": "x"}}}
                ],
                "circuit": [{"op": "instance", "template": "r", "nets": ["n1", "n1"]}],
            }
        )
    )
    for doc in (malformed, cyclic):
        code, _, err = run_cli(["export", doc, "--dialect", "nope"], capsys)
        assert code == 4
        assert "unknown dialect" in err


def test_export_out_directory_exits_2_without_temp(doc_dir, capsys):
    target = doc_dir / "taken"
    target.mkdir()
    before = sorted(p.name for p in doc_dir.iterdir())
    code, _, err = run_cli(["export", doc_dir / RO_DOC, "--out", target], capsys)
    assert code == 2
    assert "error:" in err
    assert sorted(p.name for p in doc_dir.iterdir()) == before
    assert list(target.iterdir()) == []


def test_export_leaves_other_writers_temp_alone(doc_dir, capsys):
    # a temp file some other writer is still filling in the same directory
    target = doc_dir / "out.sp"
    foreign = doc_dir / "out.sp.tmp"
    foreign.write_text("partial")
    code, _, _ = run_cli(["export", doc_dir / RO_DOC, "--out", target], capsys)
    assert code == 0
    assert foreign.read_text() == "partial"
    assert target.read_text().endswith(".end\n")


def test_duplicate_subckt_exits_5_for_lint_and_export(doc_dir, capsys, monkeypatch):
    monkeypatch.setattr(builddoc, "build_circuit", lambda *a, **k: duplicate_subckt_circuit())
    for command in ("lint", "export"):
        code, out, err = run_cli([command, doc_dir / RO_DOC], capsys)
        assert code == 5
        assert "DUPLICATE_SUBCKT" in out + err


def test_export_lint_errors_exit_5(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "version": 1,
                "components": [{"name": "r", "ports": ["a", "b"]}],
                "circuit": [{"op": "instance", "template": "r", "nets": ["", "GND"]}],
            }
        )
    )
    code, _, err = run_cli(["export", doc], capsys)
    assert code == 5
    assert "UNCONNECTED" in err


def test_export_seed_flag_changes_values(doc_dir, capsys):
    _, out1, _ = run_cli(["export", doc_dir / RO_DOC, "--seed", "1"], capsys)
    _, out2, _ = run_cli(["export", doc_dir / RO_DOC, "--seed", "2"], capsys)
    assert out1 != out2
    assert len(out1.splitlines()) == len(out2.splitlines())


def test_export_json_ir_round_trips(doc_dir, capsys):
    from netforge import builddoc
    from netforge.exporters import import_json

    code, out, _ = run_cli(["export", doc_dir / RO_DOC, "--dialect", "json-ir"], capsys)
    assert code == 0
    doc = builddoc.load_doc(doc_dir / RO_DOC)
    assert import_json(out) == builddoc.build_circuit(doc, doc_dir)


def test_env_seed_used_as_default(doc_dir, capsys, monkeypatch):
    # ro.json sets a seed, which the environment must not override
    seedless = _ro_with(doc_dir, lambda doc: doc.pop("seed"))
    _, baseline, _ = run_cli(["export", seedless, "--seed", "123"], capsys)
    monkeypatch.setenv("NETFORGE_SEED", "123")
    _, from_env, _ = run_cli(["export", seedless], capsys)
    assert from_env == baseline
    monkeypatch.setenv("NETFORGE_SEED", "not-a-number")
    code, _, _ = run_cli(["export", seedless], capsys)
    assert code == 2


def _gauss_doc(tmp_path, seed=None):
    doc = {"version": 1, "components": [{"name": "res", "ports": ["a", "b"], "prefix": "R",
                                         "params": {"R": {"$gauss": [1000, 10]}}}],
           "circuit": [{"op": "instance", "template": "res", "nets": ["n1", "0"]}]}
    if seed is not None:
        doc["seed"] = seed
    path = tmp_path / ("doc.json" if seed is None else f"doc_s{seed}.json")
    path.write_text(json.dumps(doc))
    return path


def test_the_documents_seed_wins_over_the_env(tmp_path, capsys, monkeypatch):
    doc = _gauss_doc(tmp_path, seed=7)
    _, seed_7, _ = run_cli(["export", doc], capsys)
    _, seed_3, _ = run_cli(["export", _gauss_doc(tmp_path), "--seed", "3"], capsys)
    assert "R1 n1 0 res R=998.484272545\n" in seed_7 and seed_3 != seed_7
    monkeypatch.setenv("NETFORGE_SEED", "3")
    assert run_cli(["export", doc], capsys) == (0, seed_7, "")
    assert run_cli(["build", doc], capsys)[1].endswith(", seed 7\n")
    assert run_cli(["lint", doc], capsys)[0] == 0
    # sweep names and seeds its files by the document's seed too
    code, _, _ = run_cli(["sweep", doc, "--seeds", "2", "--out", tmp_path / "sweep"], capsys)
    files = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert code == 0 and files == ["doc_s7__TT__s7.sp", "doc_s7__TT__s8.sp", "manifest.json"]
    assert (tmp_path / "sweep" / "doc_s7__TT__s7.sp").read_text() == seed_7
    # the environment still sets the seed of a document without one
    assert run_cli(["export", _gauss_doc(tmp_path)], capsys) == (0, seed_3, "")
    monkeypatch.setenv("NETFORGE_SEED", "not-a-number")
    assert run_cli(["export", doc], capsys) == (0, seed_7, "")


# --- lint -------------------------------------------------------------------------

def test_lint_warnings_exit_0(doc_dir, capsys):
    code, out, _ = run_cli(["lint", doc_dir / RO_DOC], capsys)
    assert code == 0
    assert "UNUSED_PIN" in out
    assert "DANGLING" in out


def test_lint_errors_exit_5(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "version": 1,
                "components": [{"name": "r", "ports": ["a", "b"]}],
                "circuit": [{"op": "instance", "template": "r", "nets": ["", "GND"]}],
            }
        )
    )
    code, out, _ = run_cli(["lint", doc], capsys)
    assert code == 5
    assert "UNCONNECTED" in out


def test_lint_clean_doc(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "version": 1,
                "components": [{"name": "r", "ports": ["a", "b"]}],
                "circuit": [
                    {"op": "instance", "template": "r", "nets": ["n1", "GND"]},
                    {"op": "instance", "template": "r", "nets": ["n1", "GND"]},
                ],
            }
        )
    )
    code, out, _ = run_cli(["lint", doc], capsys)
    assert code == 0
    assert out == "clean: no findings\n"


# --- formats ----------------------------------------------------------------------

def test_formats_lists_dialects(capsys):
    code, out, _ = run_cli(["formats"], capsys)
    assert code == 0
    assert out.splitlines() == sorted(["json-ir", "spectre", "spice"])


# --- sweep ------------------------------------------------------------------------

def test_sweep_product_and_manifest(doc_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, _, _ = run_cli(
        [
            "sweep",
            doc_dir / RO_DOC,
            "--corner", "TT",
            "--corner", "FF",
            "--vary", "N_CHAINS=1:3:3",
            "--seeds", "2",
            "--out", out_dir,
        ],
        capsys,
    )
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert len(files) == 13  # 2 corners x 3 values x 2 seeds + manifest
    assert "manifest.json" in files
    assert "ro__TT__N_CHAINS=2__s8.sp" in files
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["dialect"] == "spice"
    assert len(manifest["variants"]) == 12
    entry = next(v for v in manifest["variants"] if v["file"] == "ro__FF__N_CHAINS=1__s7.sp")
    assert entry == {
        "file": "ro__FF__N_CHAINS=1__s7.sp",
        "corner": "FF",
        "vars": {"N_CHAINS": 1},
        "seed": 7,
    }


def test_sweep_vary_controls_chain_length(doc_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, _, _ = run_cli(
        ["sweep", doc_dir / RO_DOC, "--vary", "N_CHAINS=1:3:3", "--out", out_dir],
        capsys,
    )
    assert code == 0
    for n in (1, 2, 3):
        text = (out_dir / f"ro__TT__N_CHAINS={n}__s7.sp").read_text()
        top_chain_lines = [
            line
            for line in text.splitlines()
            if line.startswith("X") and line.split()[-1] == "RO_CHAIN"
        ]
        assert len(top_chain_lines) == n


def test_a_one_step_vary_takes_its_low_end(doc_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    args = ["sweep", doc_dir / RO_DOC, "--vary", "N_CHAINS=2:9:1", "--out", out_dir]
    assert run_cli(args, capsys) == (0, "", "")
    [variant] = json.loads((out_dir / "manifest.json").read_text())["variants"]
    assert variant == {"file": "ro__TT__N_CHAINS=2__s7.sp", "corner": "TT",
                       "vars": {"N_CHAINS": 2}, "seed": 7}


def test_sweep_single_variant_matches_export(doc_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, _, _ = run_cli(["sweep", doc_dir / RO_DOC, "--out", out_dir], capsys)
    assert code == 0
    produced = [p for p in out_dir.iterdir() if p.name != "manifest.json"]
    assert len(produced) == 1
    assert produced[0].name == "ro__TT__s7.sp"
    _, export_out, _ = run_cli(["export", doc_dir / RO_DOC], capsys)
    assert produced[0].read_text() == export_out


def test_sweep_corner_switches_parameters(doc_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    run_cli(
        ["sweep", doc_dir / RO_DOC, "--corner", "TT", "--corner", "FF", "--out", out_dir],
        capsys,
    )
    tt = (out_dir / "ro__TT__s7.sp").read_text()
    ff = (out_dir / "ro__FF__s7.sp").read_text()
    assert tt != ff  # FF corner shifts the vth distribution


def test_sweep_failure_records_partial_manifest(doc_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(
        ["sweep", doc_dir / RO_DOC, "--corner", "TT", "--corner", "SS", "--out", out_dir],
        capsys,
    )
    assert code == 3
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert (out_dir / "ro__TT__s7.sp").exists()
    failed = [v for v in manifest["variants"] if "error" in v]
    assert len(failed) == 1
    assert failed[0]["corner"] == "SS"


def test_sweep_unknown_dialect_exits_4_without_output(doc_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(
        ["sweep", doc_dir / RO_DOC, "--dialect", "nope", "--out", out_dir], capsys
    )
    assert code == 4
    assert "unknown dialect" in err
    assert not out_dir.exists()


def test_sweep_rejects_bad_vary_spec(doc_dir, tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", doc_dir / RO_DOC, "--vary", "N=zz", "--out", tmp_path / "s"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400", "many"])
def test_set_rejects_non_finite_numbers(doc_dir, capsys, value):
    code, out, err = run_cli(["build", doc_dir / RO_DOC, "--set", f"N_CHAINS={value}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --set:") and "Traceback" not in err


@pytest.mark.parametrize(
    "spec", ["0:inf:2", "nan:1:2", "0:1e400:3", "-1e308:1e308:3", "1:x:2", "1:2:0"]
)
def test_vary_rejects_non_finite_numbers(doc_dir, tmp_path, capsys, spec):
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(
        ["sweep", doc_dir / RO_DOC, "--vary", f"N_CHAINS={spec}", "--out", out_dir], capsys
    )
    assert code == 2
    assert err.startswith("error: --vary:") and "Traceback" not in err
    assert not (out_dir / "manifest.json").exists()


def test_sweep_rejects_an_empty_corner_before_writing(doc_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, out, err = run_cli(
        ["sweep", doc_dir / RO_DOC, "--corner", "TT", "--corner", "", "--out", out_dir], capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: --corner: ") and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["a/b", "a b", "1a", "a.b", "é", "a-b", ""])
def test_set_and_vary_accept_only_names_a_formula_can_read(doc_dir, tmp_path, capsys, name):
    for command in ("build", "export", "sweep"):
        out_dir = tmp_path / command
        args = [command, doc_dir / RO_DOC, "--set", f"{name}=1"]
        code, out, err = run_cli(args + (["--out", out_dir] if command == "sweep" else []), capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --set: ") and "Traceback" not in err
    (tmp_path / "sweep" / "ro__TT__a").mkdir(parents=True)
    out_dir = tmp_path / "sweep"
    code, out, err = run_cli(
        ["sweep", doc_dir / RO_DOC, "--vary", f"{name}=1:1:1", "--out", out_dir], capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: --vary: ") and "Traceback" not in err
    assert [p.name for p in out_dir.iterdir()] == ["ro__TT__a"]
    assert not any((out_dir / "ro__TT__a").iterdir())


@pytest.mark.parametrize("seeds", [0, -1])
def test_sweep_rejects_fewer_than_one_seed(doc_dir, tmp_path, capsys, seeds):
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(
        ["sweep", doc_dir / RO_DOC, "--seeds", seeds, "--out", out_dir], capsys
    )
    assert code == 2
    assert err.startswith("error: --seeds:")
    assert not (out_dir / "manifest.json").exists()


_RES_COMPONENT = '{"name": "res", "ports": ["a", "b"], "prefix": "R", "params": {"R": 1}}'


def _count_doc(tmp_path, node: str):
    """A build document whose circuit is `node`, written as JSON text, so that
    the literals Python's json reads as non-finite (1e400, NaN) stay as written."""
    doc = tmp_path / "doc.json"
    doc.write_text(
        f'{{"version": 1, "seed": 1, "components": [{_RES_COMPONENT}], "circuit": [{node}]}}'
    )
    return doc


_NON_FINITE_COUNTS = {
    "chain n text": ('{"op": "chain", "template": "res", "n": "1e400"}', "circuit[0].n"),
    "chain n literal": ('{"op": "chain", "template": "res", "n": 1e400}', "circuit[0].n"),
    "chain n NaN": ('{"op": "chain", "template": "res", "n": NaN}', "circuit[0].n"),
    "in_port": ('{"op": "chain", "template": "res", "n": 2, "in_port": -1e400}',
                "circuit[0].in_port"),
    "shape": ('{"op": "array", "template": "res", "shape": [Infinity]}', "circuit[0].shape[0]"),
    "repeat count": ('{"op": "instance", "template": "res", '
                     '"nets": [{"$repeat": "n${_i}", "count": "1e999"}]}',
                     "circuit[0].nets[0].count"),
    "inject seed": ('{"op": "inject", "p": 0.5, "seed": 1e400, '
                    '"into": {"op": "chain", "template": "res", "n": 2}}', "circuit[0].seed"),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_COUNTS))
def test_a_non_finite_count_is_a_schema_error_at_its_path(tmp_path, capsys, case):
    node, path = _NON_FINITE_COUNTS[case]
    doc = _count_doc(tmp_path, node)
    code, out, err = run_cli(["export", doc], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: expected an integer, got ") and "Traceback" not in err
    # a sweep records a variant's schema error in its manifest, as any build failure
    out_dir = tmp_path / "sweep"
    code, out, err = run_cli(["sweep", doc, "--out", out_dir], capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"sweep failed: {path}: expected an integer") and "Traceback" not in err
    [variant] = json.loads((out_dir / "manifest.json").read_text())["variants"]
    assert variant["error"].startswith(f"{path}: expected an integer")
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]


def test_sweep_rejects_a_corner_that_is_not_a_string(tmp_path, capsys):
    doc = _count_doc(tmp_path, '{"op": "chain", "template": "res", "n": 2}')
    doc.write_text(doc.read_text().replace('"seed": 1', '"seed": 1, "corner": 5'))
    code, _, err = run_cli(["export", doc], capsys)
    assert (code, err) == (2, "error: corner: corner must be a string\n")
    out_dir = tmp_path / "sweep"
    code, out, err = run_cli(["sweep", doc, "--out", out_dir], capsys)
    assert (code, out, err) == (2, "", "error: corner: corner must be a string\n")
    assert not out_dir.exists()


def _ro_with(doc_dir, edit):
    doc = json.loads((doc_dir / RO_DOC).read_text())
    edit(doc)
    path = doc_dir / "edited.json"
    path.write_text(json.dumps(doc))
    return path


_RES = json.loads(_RES_COMPONENT)


def _nested(op, depth):
    leaf = {"op": "instance", "template": "nmos_tt", "nets": ["d", "g", "s", "b"]}
    return nested_node(op, depth, leaf)


# name -> (the edit of ro.json, the path of the error); each ended in a
# traceback (exit 1) or, for "fixed" and a negative $repeat count, was accepted
_MALFORMED = {
    "verilog_a not a string": (
        lambda doc: doc["components"][2].update(verilog_a=[1]), "components[2].verilog_a"),
    "metadata not an object": (
        lambda doc: doc["components"].append({**_RES, "metadata": [1]}), "components[3].metadata"),
    "metadata value not a string": (
        lambda doc: doc["components"].append({**_RES, "metadata": {"a": 1}}),
        "components[3].metadata"),
    "verilog_a metadata not an object": (
        lambda doc: doc["components"][2].update(metadata=[1]), "components[2].metadata"),
    "verilog_a metadata value not a string": (
        lambda doc: doc["components"][2].update(metadata={"a": 1}), "components[2].metadata"),
    "substituted inf": (
        lambda doc: doc["variables"].update(N_RO_PER_CHAIN=1e400), "subcircuits[2].body[0].n"),
    "substituted -inf": (
        lambda doc: doc["circuit"][0].update(n="${-1e400}"), "circuit[0].n"),
    "array shape 0": (lambda doc: doc["circuit"][1].update(shape=[0]), "circuit[1].shape[0]"),
    "array shape -1": (lambda doc: doc["circuit"][1].update(shape=[2, -1]), "circuit[1].shape[1]"),
    "parallel n -1": (
        lambda doc: doc["circuit"].append({"op": "parallel", "template": "nmos_tt", "n": -1}),
        "circuit[2].n"),
    "fixed not a boolean": (
        lambda doc: doc["subcircuits"][1].update(fixed="yes"), "subcircuits[1].fixed"),
    "negative $repeat count": (
        lambda doc: doc["subcircuits"][0]["pins"][0].update(count=-1),
        "subcircuits[0].pins[0].count"),
    # read as inf, it printed a ValueError traceback at export
    "formula literal past the float range": (
        lambda doc: doc["components"].append({**_RES, "params": {"y": {"$formula": "1 / 1e999"}}}),
        "components[3].params.y"),
    # the node inside more than MAX_DEPTH (100) others; concat and into_subckt
    # nested this deep ended in a RecursionError
    "concat nested 200 deep": (
        lambda doc: doc["circuit"].append(_nested("concat", 200)), "circuit[2]" + ".of[0]" * 101),
    "inject nested 200 deep": (
        lambda doc: doc["circuit"].append(_nested("inject", 200)), "circuit[2]" + ".into" * 101),
    "into_subckt nested 400 deep": (
        lambda doc: doc["circuit"].append(_nested("into_subckt", 400)),
        "circuit[2]" + ".body[0]" * 101),
    "into_subckt nested in a subcircuit": (
        lambda doc: doc["subcircuits"][1]["body"].append(_nested("into_subckt", 101)),
        "subcircuits[1].body[2]" + ".body[0]" * 101),
    # raise statements that no other test reached
    "variables not an object": (lambda doc: doc.update(variables=[1]), "variables"),
    "models not an array": (lambda doc: doc.update(models={}), "models"),
    "missing template": (lambda doc: doc["circuit"][0].pop("template"), "circuit[0]"),
    "operator node not an object": (lambda doc: doc["circuit"].append(1), "circuit[2]"),
    "array shape not an array": (lambda doc: doc["circuit"][1].update(shape=3), "circuit[1].shape"),
    "inject without into": (
        lambda doc: doc["circuit"].append({"op": "inject", "p": 0.5}), "circuit[2]"),
    "concat of not an array": (
        lambda doc: doc["circuit"].append({"op": "concat", "of": 1}), "circuit[2]"),
    "$repeat template not a string": (
        lambda doc: doc["subcircuits"][0]["pins"][0].update({"$repeat": 1}),
        "subcircuits[0].pins[0]"),
    "body not an array": (lambda doc: doc["subcircuits"][1].update(body={}), "subcircuits[1].body"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_document_is_a_schema_error_at_its_path(doc_dir, capsys, case):
    edit, path = _MALFORMED[case]
    _assert_a_schema_error_at(path, _ro_with(doc_dir, edit), doc_dir, capsys)


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"nmos": {"": {"w": 1}}}', """params_files[1]: in 'empty_name.json' at nmos[""]"""),
        ('{"": {"TT": {"w": 1}}}', """params_files[1]: in 'empty_name.json' at $[""]"""),
    ],
    ids=["corner", "device"],
)
def test_a_param_file_with_an_empty_name_is_a_schema_error_at_its_path(
    doc_dir, capsys, text, path
):
    (doc_dir / "empty_name.json").write_text(text)
    doc = _ro_with(doc_dir, lambda doc: doc["params_files"].append("empty_name.json"))
    _assert_a_schema_error_at(path, doc, doc_dir, capsys)


def _assert_a_schema_error_at(path, doc, doc_dir, capsys):
    """`export --out` exits 2 and writes nothing; `sweep` records the error
    in its manifest and exits 3; both report it at `path`."""
    out = doc_dir / "out.sp"
    code, stdout, err = run_cli(["export", doc, "--out", out], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert not out.exists()
    out_dir = doc_dir / "sweep"
    code, stdout, err = run_cli(["sweep", doc, "--out", out_dir], capsys)
    assert (code, stdout) == (3, "")
    assert err.startswith(f"sweep failed: {path}: ") and "Traceback" not in err
    [variant] = json.loads((out_dir / "manifest.json").read_text())["variants"]
    assert variant["error"].startswith(f"{path}: ")
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]


# name -> (the file to write, its text, the edit of ro.json that reads it, the
# start of the error); each was reported without the file's name
_IN_A_FILE = {
    "params file value": (
        "bad.json", '{"d": {"TT": {"x": true}}}',
        lambda doc: doc["params_files"].append("bad.json"), "params_files[1]: in 'bad.json' at d.TT.x"),
    "params file JSON": (
        "bad.json", '{\n  "d": }',
        lambda doc: doc["params_files"].append("bad.json"), "params_files[1]: in 'bad.json'"),
    "params file map": (
        "bad.json", '{"d": {"TT": 5}}',
        lambda doc: doc["params_files"].append("bad.json"), "params_files[1]: in 'bad.json' at d.TT"),
    "models file": (
        "bad.sp", ".model m nmos (vth=0.4\n",
        lambda doc: doc["models"].append("bad.sp"), "models[2]: in 'bad.sp'"),
    "verilog_a file": ("counter.va", "// no module\n", lambda doc: None, "components[2]: in 'counter.va'"),
}


@pytest.mark.parametrize("case", list(_IN_A_FILE))
def test_an_error_inside_a_named_file_names_the_file(doc_dir, capsys, case):
    name, text, edit, path = _IN_A_FILE[case]
    (doc_dir / name).write_text(text)
    _assert_a_schema_error_at(path, _ro_with(doc_dir, edit), doc_dir, capsys)


def test_a_bad_name_inside_a_named_file_stays_a_build_error(doc_dir, capsys):
    # as it is in the document itself
    (doc_dir / "bad.json").write_text('{"d": {"TT": {"bad name": 1}}}')
    doc = _ro_with(doc_dir, lambda doc: doc["params_files"].append("bad.json"))
    code, stdout, err = run_cli(["export", doc, "--out", doc_dir / "out.sp"], capsys)
    assert (code, stdout) == (3, "")
    assert "'bad name'" in err and "Traceback" not in err


def _params_from_doc(tmp_path, ref):
    (tmp_path / "lib.json").write_text(json.dumps({"nmos": {"TT": {"w": 1}, "FF": {"w": 2}}}))
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "version": 1,
        "corner": "TT",
        "params_files": ["lib.json"],
        "components": [{"name": "r", "ports": ["a", "b"], "prefix": "R", "params_from": ref}],
        "circuit": [{"op": "instance", "template": "r", "nets": ["n1", "0"]}],
    }))
    return doc


@pytest.mark.parametrize("ref, line", [("nmos", "R1 n1 0 r w=1"), ("nmos.FF", "R1 n1 0 r w=2")])
def test_params_from_uses_its_corner_or_the_active_one(tmp_path, capsys, ref, line):
    code, out, err = run_cli(["export", _params_from_doc(tmp_path, ref)], capsys)
    assert (code, err) == (0, "") and f"\n{line}\n" in out


def test_params_from_with_an_empty_corner_is_a_schema_error(tmp_path, capsys):
    # an empty corner is never the document's: "nmos." exported the TT values
    doc = _params_from_doc(tmp_path, "nmos.")
    _assert_a_schema_error_at("components[0].params_from", doc, tmp_path, capsys)


def test_an_unknown_corner_prints_without_quotes(tmp_path, capsys):
    code, out, err = run_cli(["export", _params_from_doc(tmp_path, "nmos.XX")], capsys)
    assert (code, out, err) == (3, "", "error: unknown corner 'XX'; available: ['TT', 'FF']\n")


def test_a_chain_of_zero_stays_a_build_error(tmp_path, capsys):
    doc = _count_doc(tmp_path, '{"op": "chain", "template": "res", "n": 0}')
    code, out, err = run_cli(["export", doc], capsys)
    assert (code, out) == (3, "")
    assert "at least one instance" in err and "Traceback" not in err


# name -> (the file to write with a byte that is not UTF-8, the edit of ro.json
# that reads it, the path of the error)
_NOT_UTF8 = {
    "models file": (
        "bad.sp", b".model mbad nmos (vth=0.4)\n* \xff\n",
        lambda doc: doc["models"].append("bad.sp"), "models[2]"),
    "params file": (
        "bad.json", b'{"bad": {"TT": {"w": "\xff"}}}',
        lambda doc: doc["params_files"].append("bad.json"), "params_files[1]"),
    "verilog_a file": (
        "counter.va", None, lambda doc: None, "components[2]"),
}


@pytest.mark.parametrize("case", list(_NOT_UTF8))
def test_an_input_file_that_is_not_utf8_is_an_error_at_its_path(doc_dir, capsys, case):
    name, data, edit, path = _NOT_UTF8[case]
    if data is None:  # a byte that is not UTF-8 in a comment of the existing file
        data = b"// \xff\n" + (doc_dir / name).read_bytes()
    (doc_dir / name).write_bytes(data)
    doc = _ro_with(doc_dir, edit)
    out = doc_dir / "out.sp"
    code, stdout, err = run_cli(["export", doc, "--out", out], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {path}: ") and "UTF-8" in err and "Traceback" not in err
    assert not out.exists()
    out_dir = doc_dir / "sweep"
    code, stdout, err = run_cli(["sweep", doc, "--out", out_dir], capsys)
    assert (code, stdout) == (3, "")
    assert err.startswith(f"sweep failed: {path}: ") and "Traceback" not in err
    [variant] = json.loads((out_dir / "manifest.json").read_text())["variants"]
    assert variant["error"].startswith(f"{path}: ")
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]


def test_a_document_that_is_not_utf8_is_a_document_error(doc_dir, capsys):
    doc = doc_dir / "bad.json"
    doc.write_bytes((doc_dir / RO_DOC).read_bytes().replace(b'"TT"', b'"T\xff"', 1))
    out = doc_dir / "out.sp"
    code, stdout, err = run_cli(["export", doc, "--out", out], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and "UTF-8" in err and str(doc) in err
    assert "Traceback" not in err and not out.exists()
    out_dir = doc_dir / "sweep"
    assert run_cli(["sweep", doc, "--out", out_dir], capsys) == (2, "", err)
    assert not out_dir.exists()


def test_utf8_input_exports_the_same_bytes_whatever_the_locale(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_bytes(json.dumps({
        "version": 1,
        "components": [{"name": "rµ", "ports": ["a", "b"], "prefix": "R", "params": {"r": 1}}],
        "circuit": [{"op": "instance", "template": "rµ", "nets": ["n1", "0"]}],
    }, ensure_ascii=False).encode("utf-8"))
    src = Path(__file__).resolve().parent.parent / "src"
    written = []
    for locale in ({"LC_ALL": "C.UTF-8"}, {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}):
        env = {**os.environ, **locale, "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"out{len(written)}.sp"
        subprocess.run([sys.executable, "-m", "netforge", "export", str(doc), "--out", str(out)],
                       env=env, capture_output=True, check=True)
        written.append(out.read_bytes())
    assert written[0] == written[1] and "R1 n1 0 rµ r=1\n".encode("utf-8") in written[0]


def _model_in_a_body(kind):
    body = [{"op": "add_model", "name": "mbody", "type": "nmos"},
            {"op": "instance", "template": "res", "nets": ["a", "b"]}]
    sub = {"name": "blk", "pins": ["a", "b"], "body": body}
    doc = {"version": 1, "components": [json.loads(_RES_COMPONENT)],
           "circuit": [{"op": "instance", "template": "blk", "nets": ["n1", "0"]}]}
    if kind == "subcircuits":
        doc["subcircuits"] = [sub]
        return doc, "subcircuits[0].body[0]"
    doc["circuit"].insert(0, {"op": "into_subckt", **sub})
    return doc, "circuit[0].body[0]"


@pytest.mark.parametrize("kind", ["subcircuits", "into_subckt"])
def test_add_model_in_a_subcircuit_body_is_a_schema_error(tmp_path, capsys, kind):
    # the body's model reached neither the subcircuit nor the netlist
    content, path = _model_in_a_body(kind)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(content))
    out = tmp_path / "out.sp"
    code, stdout, err = run_cli(["export", doc, "--out", out], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {path}: ") and "add_model" in err and not out.exists()
    code, stdout, err = run_cli(["sweep", doc, "--out", tmp_path / "sweep"], capsys)
    assert (code, stdout) == (3, "") and err.startswith(f"sweep failed: {path}: ")


@pytest.mark.parametrize("name", ["nmos_tt", "unlisted"])
def test_add_model_without_a_type_is_a_schema_error(doc_dir, capsys, name):
    # the build adds every `models` entry before the ops, so naming a listed
    # model failed as already defined (exit 3) and any other as unknown
    doc = _ro_with(doc_dir, lambda doc: doc["circuit"].append({"op": "add_model", "name": name}))
    out = doc_dir / "out.sp"
    code, stdout, err = run_cli(["export", doc, "--out", out], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: circuit[2]: ") and "type" in err and not out.exists()


def _one_resistor_doc(tmp_path, name="res", param="r", value=1, model="m", net="n1"):
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "version": 1,
                "models": [{"name": model, "type": "nmos"}],
                "components": [
                    {"name": name, "ports": ["a", "b"], "prefix": "R",
                     "params": {param: value, "model": model}}
                ],
                "circuit": [{"op": "instance", "template": name, "nets": [net, "0"]}],
            }
        )
    )
    return doc


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"name": "R x"}, "component name 'R x'"),
        ({"param": "r x"}, "parameter name 'r x'"),
        ({"param": "k=1"}, "parameter name 'k=1'"),
        ({"model": "bad name"}, "model name 'bad name'"),
        ({"net": "1" * 5000}, "numeric net name has 5000 digits"),
        # at exit 0 these were the net 3, shorted with any other net "3"
        ({"net": "３"}, "invalid net name '３'"),
        ({"net": "٣"}, "invalid net name '٣'"),
    ],
    ids=[
        "component", "parameter-space", "parameter-equals", "model", "net-digits",
        "net-fullwidth-digit", "net-arabic-indic-digit",
    ],
)
def test_a_name_that_is_not_one_token_is_a_build_error(tmp_path, capsys, fields, message):
    doc = _one_resistor_doc(tmp_path, **fields)
    for command in ("build", "lint", "export"):
        code, out, err = run_cli([command, doc], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_a_json_integer_of_too_many_digits_is_a_document_error(tmp_path, capsys):
    # the net is the JSON number 11...1, not text: json.loads itself cannot read it
    doc = _one_resistor_doc(tmp_path)
    doc.write_text(doc.read_text().replace('"n1"', "1" * 5000))
    for command in ("build", "lint", "export"):
        code, out, err = run_cli([command, doc], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid JSON in {doc}: ") and "Traceback" not in err
        assert "integer" in err


def test_json_nested_too_deeply_is_a_document_error(tmp_path, capsys):
    # deeper than Python's recursion limit: json.loads itself cannot read it
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(["build", doc], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: invalid JSON in {doc}: nested too deeply\n"


@pytest.mark.parametrize("value", ["foo bar=1", "a=b", ""])
def test_a_text_value_that_is_not_one_token_is_a_lint_error(tmp_path, capsys, value):
    doc = _one_resistor_doc(tmp_path, value=value)
    code, out, _ = run_cli(["build", doc], capsys)
    assert code == 0
    code, out, _ = run_cli(["lint", doc], capsys)
    assert code == 5
    assert "BAD_TOKEN" in out and f"text value {value!r} of parameter 'r'" in out
    code, out, err = run_cli(["export", doc], capsys)
    assert code == 5
    assert out == ""
    assert "BAD_TOKEN" in err and "Traceback" not in err


def test_a_formula_name_nothing_supplies_is_a_lint_error(tmp_path, capsys):
    # the body of blk reads w, but blk's own parameters are not a body line's context
    doc = tmp_path / "doc.json"
    doc.write_text(
        json.dumps(
            {
                "version": 1,
                "components": [
                    {"name": "r", "ports": ["a", "b"], "prefix": "R",
                     "params": {"R": {"$formula": "w*2"}}}
                ],
                "subcircuits": [
                    {"name": "blk", "pins": ["p", "q"], "params": {"w": 1},
                     "body": [{"op": "instance", "template": "r", "nets": ["p", "q"]}]}
                ],
                "circuit": [{"op": "instance", "template": "blk", "nets": ["n1", "0"]}],
            }
        )
    )
    code, out, err = run_cli(["lint", doc], capsys)
    assert code == 5
    assert "UNRESOLVED_PARAM" in out and "blk/R1" in out and "'w'" in out
    code, out, err = run_cli(["export", doc], capsys)
    assert code == 5
    assert out == ""
    assert "UNRESOLVED_PARAM" in err and "'w'" in err and "Traceback" not in err


# a subcircuit S's params -> the formula of b its bound instance overrides,
# whether an array of two places it, and the error the library lints
_BOUND_SUBCKT = {
    "override reads a default": (
        {"a": "b+1", "b": 2}, "a*2", False,
        "X1: formula of 'b' reads 'a', which nothing on its line supplies"),
    "override reads the array's _i": ({"_i": "b+1", "b": 2}, "_i*2", True, None),
}


@pytest.mark.parametrize("case", list(_BOUND_SUBCKT))
def test_a_bound_subcircuit_is_checked_by_the_overrides_its_lines_print(tmp_path, capsys, case):
    # the merged map of S and its overrides is cyclic, but no line prints it
    defaults, override, array, error = _BOUND_SUBCKT[case]
    res = Component("res", ["a", "b"], {"r": 1}, prefix="R")
    sub = Subcircuit("S", ["p", "q"], {
        k: Formula(v) if isinstance(v, str) else v for k, v in defaults.items()})
    sub += res @ ["p", "q"]
    bound = Instance(sub, ["x", "0"], {"b": Formula(override)})
    circuit = Circuit()
    circuit += sub
    circuit += Array((2,), bound) if array else bound
    template = {"ref": "S", "nets": ["x", "0"], "params": {"b": {"$formula": override}}}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "version": 1,
        "components": [{"name": "res", "ports": ["a", "b"], "prefix": "R", "params": {"r": 1}}],
        "subcircuits": [{
            "name": "S", "pins": ["p", "q"],
            "params": {k: {"$formula": v} if isinstance(v, str) else v
                       for k, v in defaults.items()},
            "body": [{"op": "instance", "template": "res", "nets": ["p", "q"]}]}],
        "circuit": [{"op": "array", "shape": [2], "template": template} if array
                    else {"op": "instance", "template": template}],
    }))
    report = lint(circuit)
    assert [str(f).split(None, 2)[-1] for f in report.errors] == ([error] if error else [])
    assert run_cli(["build", doc], capsys)[0] == 0
    assert run_cli(["lint", doc], capsys) == (5 if error else 0, str(report) + "\n", "")
    code, out, err = run_cli(["export", doc], capsys)
    if error:
        assert (code, out) == (5, "") and error in err and "Traceback" not in err
    else:
        assert (code, out, err) == (0, export(circuit, "spice"), "")


# --- sweep: one build per corner x values, every seed exported from it --------------

SWEEP_CORNERS = ("TT", "FF")
SWEEP_SEEDS = (7, 8, 9)
SWEEP_EXT = {"spice": "sp", "spectre": "scs", "json-ir": "json"}


def _unseeded_inject_doc(doc_dir):
    """ro.json plus an inject without "seed": its defects follow the document seed."""
    doc = json.loads((doc_dir / RO_DOC).read_text())
    doc["circuit"].append(
        {"op": "inject", "p": 0.5, "into": {"op": "chain", "template": "nmos_tt", "n": 8}}
    )
    path = doc_dir / "ro_inject.json"
    path.write_text(json.dumps(doc))
    return path


def _sweep(path, dialect, out_dir, capsys, *extra):
    corners = [arg for corner in SWEEP_CORNERS for arg in ("--corner", corner)]
    code, _, err = run_cli(
        ["sweep", path, *corners, "--seeds", len(SWEEP_SEEDS), "--dialect", dialect,
         *extra, "--out", out_dir],
        capsys,
    )
    return code, err


@pytest.mark.parametrize("dialect", ["spice", "spectre", "json-ir"])
@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded-inject"])
def test_sweep_files_equal_separate_builds(doc_dir, tmp_path, capsys, dialect, seeded):
    from netforge.exporters import export

    path = doc_dir / RO_DOC if seeded else _unseeded_inject_doc(doc_dir)
    out_dir = tmp_path / "sweep"
    code, _ = _sweep(path, dialect, out_dir, capsys, "--set", "N_RO_PER_CHAIN=3")
    assert code == 0
    doc = builddoc.load_doc(path)
    variants = []
    for corner in SWEEP_CORNERS:
        for seed in SWEEP_SEEDS:
            name = f"{path.stem}__{corner}__s{seed}.{SWEEP_EXT[dialect]}"
            variants.append({"file": name, "corner": corner, "vars": {}, "seed": seed})
            circuit = builddoc.build_circuit(
                doc, doc_dir, set_vars={"N_RO_PER_CHAIN": 3}, seed=seed, corner=corner
            )
            assert (out_dir / name).read_text() == export(circuit, dialect), name
    manifest = {"version": 1, "doc": path.name, "dialect": dialect, "variants": variants}
    assert (out_dir / "manifest.json").read_text() == json.dumps(manifest, indent=2) + "\n"
    assert len(list(out_dir.iterdir())) == len(variants) + 1


def test_unseeded_inject_changes_structure_with_seed(doc_dir):
    # the rebuild path above matters: another seed injects other defects
    doc = builddoc.load_doc(_unseeded_inject_doc(doc_dir))
    masters = {
        seed: [i.template.name for i in builddoc.build_circuit(doc, doc_dir, seed=seed).instances]
        for seed in SWEEP_SEEDS
    }
    assert len({tuple(m) for m in masters.values()}) > 1


@pytest.mark.parametrize("seeded, builds", [(True, 2), (False, 6)], ids=["seeded", "unseeded-inject"])
def test_sweep_builds_and_lints_once_per_corner(doc_dir, tmp_path, capsys, monkeypatch, seeded, builds):
    from netforge import exporters

    counts = {"build": 0, "lint": 0}
    build_circuit, lint = builddoc.build_circuit, exporters.lint

    def counting_build(*args, **kwargs):
        counts["build"] += 1
        return build_circuit(*args, **kwargs)

    def counting_lint(circuit):
        counts["lint"] += 1
        return lint(circuit)

    monkeypatch.setattr(builddoc, "build_circuit", counting_build)
    monkeypatch.setattr(exporters, "lint", counting_lint)
    path = doc_dir / RO_DOC if seeded else _unseeded_inject_doc(doc_dir)
    code, _ = _sweep(path, "spice", tmp_path / "sweep", capsys)
    assert code == 0
    assert counts == {"build": builds, "lint": builds}


def test_sweep_export_error_lands_on_its_own_seed(doc_dir, tmp_path, capsys):
    # sqrt of a gauss(0, 1) draw fails for some seeds only
    doc = json.loads((doc_dir / RO_DOC).read_text())
    doc["components"].append(
        {"name": "probe", "ports": ["a", "b"], "prefix": "R",
         "params": {"v": {"$gauss": [0, 1]}, "r": {"$formula": "sqrt(v)"}}}
    )
    doc["circuit"].append({"op": "instance", "template": "probe", "nets": ["OUTPUT", "GND"]})
    path = doc_dir / "ro_probe.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(["sweep", path, "--seeds", "12", "--out", out_dir], capsys)
    assert code == 3
    assert "sweep failed" in err
    variants = json.loads((out_dir / "manifest.json").read_text())["variants"]
    *passed, failed = variants
    assert [v["seed"] for v in variants] == list(range(7, 7 + len(variants)))
    assert 1 < len(variants) < 12  # some seeds pass first, so the failure is seed-specific
    assert "error" in failed and not any("error" in v for v in passed)
    assert not (out_dir / failed["file"]).exists()
    for variant in passed:
        assert (out_dir / variant["file"]).exists()


# --- cross-process determinism -----------------------------------------------------

def test_export_bytes_identical_across_processes(doc_dir):
    cmd = [
        sys.executable,
        "-m",
        "netforge",
        "export",
        str(doc_dir / RO_DOC),
        "--dialect",
        "spice",
        "--seed",
        "7",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout
