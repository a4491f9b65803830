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
