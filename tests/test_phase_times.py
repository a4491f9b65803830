"""tools/phase_times.py prints one row per export phase, in ref units, and
a table of the JSON IR export and import of the built circuit."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "phase_times.py"
PHASES = ("load_doc", "build", "lint", "layout", "emit", "write")
IR_PHASES = ("export_json", "write", "json_loads", "records")


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
        rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
        assert list(rows) == [*phases, "total"]
        for phase in phases:
            ref, ms, share = rows[phase]
            assert float(ref) >= 0 and float(ms) >= 0 and share.endswith("%")
        assert rows["total"][2] == "100.0%"
    assert list(tmp_path.iterdir()) == [doc]  # the output went to a temporary directory


def test_phase_times_startup_compares_cli_imports_with_bare_interpreters(capsys):
    assert _load_tool().main(["--startup", "2"]) == 0
    processes, modules = capsys.readouterr().out.split("\n\n")
    lines = processes.splitlines()
    assert lines[0] == "== start-up: medians of 2 fresh processes =="
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
