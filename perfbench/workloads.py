"""Seeded input documents for the benchmark workloads.

`spec(workload, seed)` describes one workload: the build documents and side
files to write, the `netforge sweep` arguments, and the expectations the
oracles check the output against. The same seed always gives the same
inputs; netforge itself only ever sees the written files.

Run as a script to write one workload's inputs in a fresh process, which is
how the benchmark times set-up (interpreter start, `import netforge`, input
generation and writing):

    python3 perfbench/workloads.py chain_mc 1 .perfbench_work/chain_mc-s1
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TEST_DATA = ROOT / "tests" / "data"

WORKLOADS = ("chain_mc", "ro_sweep")

# Sizes: small enough that one run of `run_seconds` holds a dozen or more
# samples of every operation, whose median is what the run reports.
CHAIN_N = 5_000
RO_CHAIN_N = 1_000
RO_INJECT_P = 0.2
RO_CORNERS = ("TT", "FF")
RO_SEEDS = 8
SWEEP_SEEDS = 2  # chain_mc sweeps one corner over two seeds

CHAIN_L = (1e-7, 2e-7)  # uniform bounds of the chain device's l
CHAIN_VTH = (0.4, 0.05)  # gauss mean and std of the chain device's vth


def _chain_mc(seed: int) -> dict:
    rnd = random.Random(seed)
    w = rnd.choice((0.5e-6, 1e-6, 2e-6))
    params = {
        "dev": {
            "TT": {
                "w": w,
                "l": {"$uniform": list(CHAIN_L)},
                "vth": {"$gauss": list(CHAIN_VTH)},
                "test": {"$formula": "1/vth"},
                "area": {"$formula": "w*l*2"},
            }
        }
    }
    doc = {
        "version": 1,
        "seed": seed,
        "variables": {"N": CHAIN_N},
        "params_files": ["chain_params.json"],
        "components": [
            {"name": "dev", "ports": ["a", "b", "c", "d"], "prefix": "X", "params_from": "dev"}
        ],
        "circuit": [
            {"op": "chain", "template": "dev", "n": "${N}", "in_port": 0, "out_port": 2}
        ],
    }
    return {
        "files": {"chain_mc.json": doc, "chain_params.json": params},
        "copies": [],
        "sweep_args": ["--seeds", str(SWEEP_SEEDS)],
        "corners": ["TT"],
        "seeds": [seed + k for k in range(SWEEP_SEEDS)],
        "expect": {"n": CHAIN_N, "w": w, "l": CHAIN_L, "vth": CHAIN_VTH},
    }


def _ro_sweep(seed: int) -> dict:
    nmos_tt = json.loads((TEST_DATA / "mos_params.json").read_text())["nmos"]["TT"]
    doc = json.loads((TEST_DATA / "ro.json").read_text())
    doc["seed"] = seed
    doc["variables"]["N_DEV"] = RO_CHAIN_N
    # a fixed inject seed keeps the defect pattern equal across sweep seeds,
    # so seed variants may differ only in value tokens
    doc["circuit"].append(
        {
            "op": "inject",
            "p": RO_INJECT_P,
            "seed": seed,
            "into": {"op": "chain", "template": "nmos_tt", "n": "${N_DEV}"},
        }
    )
    return {
        "files": {"ro_sweep.json": doc},
        "copies": ["mos_params.json", "counter.va"],
        "sweep_args": [
            *(arg for corner in RO_CORNERS for arg in ("--corner", corner)),
            "--seeds",
            str(RO_SEEDS),
        ],
        "corners": list(RO_CORNERS),
        "seeds": [seed + k for k in range(RO_SEEDS)],
        "expect": {
            "n": RO_CHAIN_N,
            "p": RO_INJECT_P,
            "w": nmos_tt["w"],
            "vth": tuple(nmos_tt["vth"]["$gauss"]),
        },
    }


# Build documents for the circuits of tests/golden; their output must equal
# those files byte for byte. `ro` is tests/data/ro.json itself.
GOLDEN_DOCS = {
    "capacitor": {
        "version": 1,
        "components": [{"name": "Cap", "ports": [0, 1], "params": {"C": 1e-12}, "prefix": "C"}],
        "circuit": [{"op": "instance", "template": "Cap", "nets": [0, 1]}],
    },
    "crossbar": {
        "version": 1,
        "components": [{"name": "memristor", "ports": ["", ""], "params": {"R": 1e4}}],
        "circuit": [
            {"op": "array", "shape": [3, 3], "template": "memristor", "ports": ["X_${_x}", "Y_${_y}"]}
        ],
    },
    "defect_chain": {
        "version": 1,
        "components": [{"name": "mosfet", "ports": [1, "INPUT", 3, "GND"]}],
        "circuit": [
            {"op": "inject", "p": 0.7, "seed": 42, "into": {"op": "chain", "template": "mosfet", "n": 7}}
        ],
    },
}


def write_golden_inputs(directory: Path) -> dict[str, Path]:
    """Write the golden-circuit documents; return name -> document path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in GOLDEN_DOCS.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc) + "\n")
    for name in ("ro.json", "mos_params.json", "counter.va"):
        (directory / name).write_bytes((TEST_DATA / name).read_bytes())
    paths["ro"] = directory / "ro.json"
    return paths


_MAKERS = {"chain_mc": _chain_mc, "ro_sweep": _ro_sweep}


def spec(workload: str, seed: int) -> dict:
    """The inputs and expectations of one workload; `doc` names the main document."""
    out = _MAKERS[workload](seed)
    out["doc"] = f"{workload}.json"
    return out


def write_inputs(workload_spec: dict, directory: Path) -> Path:
    """Write a workload's documents and side files; return the main document's path."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in workload_spec["files"].items():
        (directory / name).write_text(json.dumps(content, indent=1) + "\n")
    for name in workload_spec["copies"]:
        (directory / name).write_bytes((TEST_DATA / name).read_bytes())
    return directory / workload_spec["doc"]


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS:
        sys.stderr.write(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED DIR\n")
        return 2
    sys.path.insert(0, str(SRC))
    import netforge  # noqa: F401  (set-up time includes the package import)

    write_inputs(spec(argv[0], int(argv[1])), Path(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
