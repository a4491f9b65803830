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


def long_cycle_formulas(n: int = 1200) -> dict:
    """Parameter name -> formula text: f0 reads f1, ..., f{n-1} reads f{n},
    and f{n} reads f{n-1}. A chain longer than Python's recursion limit that
    ends in the cycle f{n-1} -> f{n} -> f{n-1}."""
    texts = {f"f{i}": f"f{i + 1}" for i in range(n)}
    texts[f"f{n}"] = f"f{n - 1}"
    return texts


def nested_node(op: str, depth: int, leaf: dict) -> dict:
    """A build document's operator node: `depth` nodes `op` (concat, inject
    or into_subckt), each holding the next, around the operator node `leaf`.
    The inject nodes draw no defect: with p > 0 each level would add about
    p times as many instances as it holds."""
    node = leaf
    for k in range(depth):
        if op == "concat":
            node = {"op": "concat", "of": [node]}
        elif op == "inject":
            node = {"op": "inject", "p": 0, "into": node}
        else:
            node = {"op": "into_subckt", "name": f"W{k}", "pins": [], "body": [node]}
    return node
