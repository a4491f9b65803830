import json
import shutil
import subprocess
import sys

import pytest

from netforge import builddoc
from netforge.cli import main

from sample_circuits import duplicate_subckt_circuit

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


def test_build_schema_error_exits_2_with_path(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"version": 1, "circuit": [{"op": "warp"}]}))
    code, _, err = run_cli(["build", doc], capsys)
    assert code == 2
    assert "circuit[0]" in err


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
    _, baseline, _ = run_cli(["export", doc_dir / RO_DOC, "--seed", "123"], capsys)
    monkeypatch.setenv("NETFORGE_SEED", "123")
    _, from_env, _ = run_cli(["export", doc_dir / RO_DOC], capsys)
    assert from_env == baseline
    monkeypatch.setenv("NETFORGE_SEED", "not-a-number")
    code, _, _ = run_cli(["export", doc_dir / RO_DOC], capsys)
    assert code == 2


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
