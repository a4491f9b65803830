#!/usr/bin/env python3
"""Regenerate the checked-in golden files under tests/golden/: each sample
circuit as a SPICE and a Spectre netlist and as its JSON IR.

    python3 tools/regen_golden.py            # rewrite the files
    python3 tools/regen_golden.py --check    # write nothing; exit 1 on drift

Run from the repository root after an intentional output-format change, then
review the diff before committing. The byte-equality tests pin these files.
With --check the files are regenerated in memory only: the script prints
each file that would change (or is missing) and exits 1 if there is one, 0
if none.
"""

import argparse
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

from netforge.cli import _EXTENSIONS  # noqa: E402
from netforge.exporters import export  # noqa: E402

CASES = {
    "capacitor": capacitor_circuit,
    "crossbar": crossbar_circuit,
    "defect_chain": defect_chain_circuit,
    "ro": ro_circuit,
}


def golden_texts() -> dict[str, str]:
    """File name -> text of every golden file, made now."""
    return {
        f"{name}.{ext}": export(factory(), dialect)
        for name, factory in CASES.items()
        for dialect, ext in _EXTENSIONS.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="report drift, write nothing")
    args = parser.parse_args(argv)
    texts = golden_texts()
    if args.check:
        drift = [
            GOLDEN_DIR / name
            for name, text in texts.items()
            if not (GOLDEN_DIR / name).is_file() or (GOLDEN_DIR / name).read_text() != text
        ]
        for path in drift:
            print(f"would change {path}")
        return 1 if drift else 0
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in texts.items():
        (GOLDEN_DIR / name).write_text(text)
        print(f"wrote {GOLDEN_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
