"""Circuit factories shared by unit, golden-file, and acceptance tests."""

from pathlib import Path

from netforge import Array, Chain, Circuit, Component, Inject, Subcircuit, builddoc

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def capacitor_circuit() -> Circuit:
    cap = Component("Cap", [0, 1], {"C": 1e-12}, prefix="C")
    circuit = Circuit()
    circuit += cap @ [0, 1]
    return circuit


def crossbar_ports(coords):
    x, y = coords
    return [f"X_{x}", f"Y_{y}"]


def crossbar_circuit() -> Circuit:
    device = Component("memristor", ["", ""], {"R": 1e4})
    circuit = Circuit()
    circuit += Array((3, 3), device, crossbar_ports)
    return circuit


def defect_chain_circuit(p: float = 0.7, seed: int = 42) -> Circuit:
    mosfet = Component("mosfet", [1, "INPUT", 3, "GND"])
    circuit = Circuit()
    circuit += Inject(Chain(mosfet, 7), p=p, rng=seed)
    return circuit


def ro_circuit(**overrides) -> Circuit:
    doc = builddoc.load_doc(DATA_DIR / "ro.json")
    return builddoc.build_circuit(doc, DATA_DIR, set_vars=overrides or None)


def duplicate_subckt_circuit() -> Circuit:
    """WRAP nests one INV while the top level instantiates a different INV."""
    res = Component("res", ["a", "b"], prefix="R")
    inner = Subcircuit("INV", ["in", "out"])
    inner += res @ ["in", "out"]
    other = Subcircuit("INV", ["in", "out"])
    other += res @ ["out", "in"]
    wrap = Subcircuit("WRAP", ["a", "b"])
    wrap += inner
    wrap += inner @ ["a", "b"]
    circuit = Circuit()
    circuit += wrap @ ["x", "y"]
    circuit += other @ ["x", "y"]
    return circuit
