"""The benchmark's oracles catch wrong netlists.

Each oracle first accepts a small netlist that netforge exports from a
workload document, then must reject that netlist with one value token
changed and with one wire moved. Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from netforge import cli  # noqa: E402


def export(tmp_path: Path, workload: str, variables: dict, dialect: str = "spice") -> tuple[str, dict]:
    spec = workloads.spec(workload, 3)
    spec["files"][spec["doc"]]["variables"].update(variables)
    doc = workloads.write_inputs(spec, tmp_path)
    out = tmp_path / f"out.{dialect}"
    assert cli.main(["export", str(doc), "--dialect", dialect, "--out", str(out)]) == 0
    return out.read_text(), spec


def replace_line(text: str, index: int, old: str, new: str) -> str:
    lines = text.split("\n")
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new, 1)
    return "\n".join(lines)


def change_value(text: str, index: int, name: str) -> str:
    """Scale the value of parameter `name` on line `index` by 1.001."""
    lines = text.split("\n")
    value = re.search(rf"\b{name}=(\S+)", lines[index]).group(1)
    return replace_line(text, index, f"{name}={value}", f"{name}={float(value) * 1.001!r}")


@pytest.fixture
def chain(tmp_path):
    text, spec = export(tmp_path, "chain_mc", {"N": 40})
    exp = {**spec["expect"], "n": 40}
    return text, exp


def test_chain_oracle_accepts_the_export(chain):
    oracles.check_chain_mc(*chain)


@pytest.mark.parametrize("name", ["vth", "test", "area", "w"])
def test_chain_oracle_rejects_a_changed_value(chain, name):
    text, exp = chain
    with pytest.raises(oracles.Mismatch):
        oracles.check_chain_mc(change_value(text, 7, name), exp)


def test_chain_oracle_rejects_a_moved_wire(chain):
    text, exp = chain
    # instance 10 takes its port 0 from instance 8's link instead of instance 9's
    moved = replace_line(text, 10, "net_0_8 b", "net_0_7 b")
    with pytest.raises(oracles.Mismatch):
        oracles.check_chain_mc(moved, exp)


def test_chain_oracle_rejects_a_dropped_line(chain):
    text, exp = chain
    lines = text.split("\n")
    with pytest.raises(oracles.Mismatch):
        oracles.check_chain_mc("\n".join(lines[:5] + lines[6:]), exp)


def test_ro_sweep_oracle(tmp_path):
    text, spec = export(tmp_path, "ro_sweep", {"N_DEV": 300})
    exp = {**spec["expect"], "n": 300}
    golden = (HERE.parent / "tests" / "golden" / "ro.sp").read_text()
    oracles.check_ro_sweep(text, exp, golden)
    lines = text.split("\n")
    device = next(k for k, l in enumerate(lines) if k > 30 and "test=" in l)
    with pytest.raises(oracles.Mismatch):
        oracles.check_ro_sweep(change_value(text, device, "test"), exp, golden)
    with pytest.raises(oracles.Mismatch):  # a wire inside the golden part
        oracles.check_ro_sweep(replace_line(text, 11, "net_0_1", "net_0_2"), exp, golden)
    line = next(k for k, l in enumerate(lines) if l.startswith("R1 "))
    with pytest.raises(oracles.Mismatch):  # a defect moved to another net
        oracles.check_ro_sweep(replace_line(text, line, " GND ", " VDD "), exp, golden)


def test_spectre_must_match_spice(tmp_path):
    spice, _ = export(tmp_path, "chain_mc", {"N": 12})
    spectre, _ = export(tmp_path, "chain_mc", {"N": 12}, "spectre")
    oracles.check_spectre_matches(spice, spectre)
    with pytest.raises(oracles.Mismatch):
        oracles.check_spectre_matches(spice, change_value(spectre, 4, "l"))
    with pytest.raises(oracles.Mismatch):
        oracles.check_spectre_matches(spice, replace_line(spectre, 4, "(net_0_1", "(net_0_0"))


def test_ir_must_list_the_spice_instances(tmp_path):
    spice, _ = export(tmp_path, "chain_mc", {"N": 12})
    ir, _ = export(tmp_path, "chain_mc", {"N": 12}, "json-ir")
    assert oracles.check_ir(ir, spice) == 12
    with pytest.raises(oracles.Mismatch):
        oracles.check_ir(ir.replace('"net_0_3"', '"net_0_4"', 1), spice)


def test_value_only_comparison():
    a = "X1 a b dev w=1 l=2\n.model m nmos (TYPE=1)"
    oracles.same_but_values(a, "X1 a b dev w=1 l=3\n.model m nmos (TYPE=2)")
    with pytest.raises(oracles.Mismatch):
        oracles.same_but_values(a, "X1 a c dev w=1 l=2\n.model m nmos (TYPE=1)")
    with pytest.raises(oracles.Mismatch):
        oracles.same_but_values(a, "X1 a b dev w=1 k=2\n.model m nmos (TYPE=1)")
    with pytest.raises(oracles.Mismatch):
        oracles.same_but_values(a, "X1 a b dev w=1\n.model m nmos (TYPE=1)")
