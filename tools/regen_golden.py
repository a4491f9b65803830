#!/usr/bin/env python3
"""Regenerate the checked-in golden files under tests/golden/: each sample
circuit as a SPICE and a Spectre netlist and as its JSON IR.

Run from the repository root after an intentional output-format change, then
review the diff before committing. The byte-equality tests pin these files.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from sample_circuits import (  # noqa: E402
    GOLDEN_DIR,
    capacitor_circuit,
    crossbar_circuit,
    defect_chain_circuit,
    ro_circuit,
)

from netforge.exporters import export  # noqa: E402

CASES = {
    "capacitor": capacitor_circuit,
    "crossbar": crossbar_circuit,
    "defect_chain": defect_chain_circuit,
    "ro": ro_circuit,
}

EXTENSIONS = {"spice": "sp", "spectre": "scs", "json-ir": "json"}


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, factory in CASES.items():
        for dialect, ext in EXTENSIONS.items():
            path = GOLDEN_DIR / f"{name}.{ext}"
            path.write_text(export(factory(), dialect))
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
