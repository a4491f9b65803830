"""tools/regen_golden.py --check regenerates in memory and reports drift.

It must exit 0 on the checked-in goldens, and on a tampered copy print the
files that would change and exit 1, without writing anything.
"""

import importlib.util
import shutil
from pathlib import Path

from sample_circuits import GOLDEN_DIR

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "regen_golden.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("regen_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_script()


def test_check_is_clean_on_the_checked_in_goldens(capsys):
    assert regen.main(["--check"]) == 0
    assert capsys.readouterr().out == ""


def test_check_reports_drift_and_writes_nothing(tmp_path, capsys, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, golden)
    monkeypatch.setattr(regen, "GOLDEN_DIR", golden)
    spice = golden / "ro.sp"
    spice.write_text(spice.read_text().replace("\n", "\n* tampered\n", 1))
    (golden / "capacitor.json").unlink()
    before = {path.name: path.read_bytes() for path in golden.iterdir()}
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"would change {golden / 'capacitor.json'}",
        f"would change {spice}",
    ]
    assert {path.name: path.read_bytes() for path in golden.iterdir()} == before
