"""tools/phase_times.py prints one row per export phase, in ref units, and
a table of the JSON IR export and import of the built circuit; with --sweep,
one row per phase of a sweep and its live and replayed variants. Under each
table, one line gives each phase's cyclic collections per repeat."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "phase_times.py"
PHASES = ("load_doc", "build", "lint", "layout", "emit", "write")
IR_PHASES = ("export_json", "write", "json_loads", "records")


def _collections(line: str, phases) -> dict:
    """phase -> its (generation 0, 1, 2) collections per repeat, from the
    line under a table."""
    head, cells = line.split(": ", 1)
    assert head == "gc collections per repeat, generations 0/1/2"
    counts = {}
    for cell in cells.split(", "):
        phase, gens = cell.split(" ")
        assert re.fullmatch(r"[\d.]+/[\d.]+/[\d.]+", gens), cell
        counts[phase] = tuple(map(float, gens.split("/")))
    assert list(counts) == list(phases)
    return counts


def _load_tool():
    spec = importlib.util.spec_from_file_location("phase_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_phase_times_reports_every_phase_of_a_tiny_document(tmp_path, capsys):
    doc = tmp_path / "tiny.json"
    doc.write_text(json.dumps({
        "version": 1,
        "seed": 1,
        "components": [{"name": "res", "ports": ["a", "b"], "params": {"R": 100}}],
        "circuit": [{"op": "chain", "template": "res", "n": 3}],
    }))
    assert _load_tool().main(["--doc", str(doc), "--repeats", "2"]) == 0
    export, ir = capsys.readouterr().out.split("\n\n")
    for table, title, phases in (
        (export, "tiny.json, spice: medians of 2 repeats", PHASES),
        (ir, "JSON IR of the built circuit, export and import: medians of 2 repeats", IR_PHASES),
    ):
        lines = table.splitlines()
        assert lines[0] == f"== {title} =="
        rows = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
        assert list(rows) == [*phases, "total"]
        for phase in phases:
            ref, ms, share = rows[phase]
            assert float(ref) >= 0 and float(ms) >= 0 and share.endswith("%")
        assert rows["total"][2] == "100.0%"
        _collections(lines[-1], phases)
    assert list(tmp_path.iterdir()) == [doc]  # the output went to a temporary directory


def _bytecode_files() -> set:
    root = TOOL.parent.parent
    return set(root.rglob("__pycache__")) | set(root.rglob("*.pyc"))


def test_phase_times_startup_compares_cli_imports_with_bare_interpreters(capsys, monkeypatch):
    # the environment as given writes no bytecode, so neither table may
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    before = _bytecode_files()
    assert _load_tool().main(["--startup", "2"]) == 0
    assert _bytecode_files() == before  # the bytecode went to a temporary directory
    given, bytecode, modules = capsys.readouterr().out.split("\n\n")
    for table, title in (
        (given, "start-up: medians of 2 fresh processes"),
        (bytecode, "start-up from bytecode: medians of 2 fresh processes, after one warm-up"),
    ):
        lines = table.splitlines()
        assert lines[0] == f"== {title} =="
        rows = {line.rsplit(None, 1)[0]: float(line.split()[-1]) for line in lines[2:]}
        assert list(rows) == ["python -c pass", "python -c 'import netforge.cli'", "difference"]
        bare, cli = rows["python -c pass"], rows["python -c 'import netforge.cli'"]
        assert bare > 0 and cli > 0
        assert abs(rows["difference"] - (cli - bare)) < 0.02  # printed to 0.01 ms
    lines = modules.splitlines()
    assert lines[0] == "== -X importtime of import netforge.cli: netforge modules, one process =="
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert {"netforge", "netforge.core", "netforge.exporters", "netforge.cli"} <= set(rows)
    assert all(name.startswith("netforge") for name in rows)
    assert list(rows)[-1] == "netforge.cli"  # the last to finish importing
    for self_ms, cumulative_ms in rows.values():
        assert 0 <= float(self_ms) <= float(cumulative_ms)


def test_phase_times_sweep_reports_every_phase_and_counts_replayed_variants(tmp_path, capsys):
    doc = tmp_path / "tiny.json"
    doc.write_text(json.dumps({
        "version": 1,
        "seed": 1,
        "components": [{"name": "res", "ports": ["a", "b"],
                        "params": {"R": {"$gauss": [100, 1]}}}],
        "circuit": [{"op": "chain", "template": "res", "n": 3}],
    }))
    argv = ["--sweep", "--doc", str(doc), "--repeats", "2",
            "--", "--corner", "TT", "--corner", "FF", "--seeds", "2"]
    assert _load_tool().main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "== sweep of tiny.json, spice: medians of 2 repeats =="
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-2]}
    assert list(rows) == ["build", "lint_layout", "emit", "write", "other", "total"]
    _collections(lines[-2], ["build", "lint_layout", "emit", "write", "other"])
    for phase in ("build", "lint_layout", "emit", "write"):
        ref, ms, share = rows[phase]
        assert float(ref) > 0 and float(ms) > 0 and share.endswith("%")
    # each seed draws its outputs in its first corner and replays them in the second
    assert lines[-1] == "variants per sweep: 0 live, 2 drew and replayed, 2 replayed"
    assert list(tmp_path.iterdir()) == [doc]  # the output went to a temporary directory


def test_phase_times_takes_sweep_arguments_only_with_sweep_and_doc(tmp_path, capsys):
    for argv in (["--doc", "d.json", "--", "--seeds", "2"], ["--sweep", "--", "--seeds", "2"]):
        with pytest.raises(SystemExit) as exc:
            _load_tool().main(argv)
        assert exc.value.code == 2
        assert "sweep arguments go only with --sweep --doc" in capsys.readouterr().err
