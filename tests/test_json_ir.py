"""The JSON IR writer and reader against their references.

export_json writes its records straight to text. The dict form below is the
document it describes, and json.dumps(dict_form, indent=2) + "\\n" is the
byte-identity oracle for the writer. import_json checks and coerces each net
name once per scope and shares one Net per name; the counting tests check
that by calls, not by time.
"""

import json

import pytest

from netforge import core, exporters
from netforge.core import Circuit, Component, Instance, Model, Net, Subcircuit, UnresolvedTemplate
from netforge.errors import SchemaError
from netforge.exporters import export_json, import_json
from netforge.formula import Formula
from netforge.manip import Chain
from netforge.params import Params, RandomSpec, gauss, uniform

from sample_circuits import capacitor_circuit, crossbar_circuit, defect_chain_circuit, ro_circuit
from test_acceptance import _random_circuit

# --- the dict form: the reference the text writer must match byte for byte ---------


def _value_to_json(value):
    if isinstance(value, Formula):
        return {"$formula": value.text}
    if isinstance(value, RandomSpec):
        return {f"${value.kind}": [value.a, value.b]}
    return value


def _params_to_json(params: Params) -> dict:
    return {name: _value_to_json(value) for name, value in params.items()}


def _instance_to_json(inst: Instance) -> dict:
    out = {
        "template": inst.template.name,
        "nets": [str(n) for n in inst.nets],
        "params": _params_to_json(inst.overrides),
        "designator": inst.designator,
    }
    if inst.context:
        out["context"] = dict(inst.context)
    return out


def _component_to_json(comp: Component) -> dict:
    return {
        "ports": [str(p) for p in comp.ports],
        "params": _params_to_json(comp.params),
        "prefix": comp.prefix,
        "metadata": dict(comp.metadata),
    }


def _subckt_to_json(sub: Subcircuit) -> dict:
    return {
        "pins": list(sub.pins),
        "params": _params_to_json(sub.params),
        "fixed": sub.fixed,
        "nested": {n.name: _subckt_to_json(n) for n in sub.nested},
        "body": [_instance_to_json(inst) for inst in sub.body],
    }


def dict_form(circuit: Circuit) -> dict:
    return {
        "version": exporters.JSON_IR_VERSION,
        "rng_seed": circuit.rng_seed,
        "globals": list(circuit.global_nets),
        "directives": list(circuit.directives),
        "components": {
            name: _component_to_json(comp)
            for name, comp in exporters._collect_components(circuit).items()
        },
        "models": {
            name: {"base_type": m.base_type, "params": _params_to_json(m.params)}
            for name, m in circuit.models.items()
        },
        "subcircuits": {
            name: _subckt_to_json(sub) for name, sub in circuit.subcircuits.items()
        },
        "instances": [_instance_to_json(inst) for inst in circuit.instances],
    }


def _reference(circuit: Circuit) -> str:
    return json.dumps(dict_form(circuit), indent=2) + "\n"


# --- the writer -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [capacitor_circuit, crossbar_circuit, defect_chain_circuit, ro_circuit],
    ids=["capacitor", "crossbar", "defect_chain", "ro"],
)
def test_export_json_is_json_dumps_of_the_dict_form(factory):
    circuit = factory()
    assert export_json(circuit) == _reference(circuit)


def test_export_json_is_json_dumps_of_the_dict_form_on_random_circuits():
    for seed in range(1000):
        circuit = _random_circuit(seed)
        assert export_json(circuit) == _reference(circuit), f"seed {seed}"


_ODD_TEXT = 'µ "quoted" back\\slash\nnew line \t tab   \U0001f600'


def _edge_circuit() -> Circuit:
    circuit = Circuit(rng_seed=2**40, global_nets=("GND", "0"))
    circuit.directives.append(f".option note={_ODD_TEXT}")
    circuit += Model("mé", "nmos", {"vt": -0.0, "tiny": 5e-324, "huge": 1e300})
    dev = Component(
        "dev",
        ["a", "b"],
        {
            "text": _ODD_TEXT,
            "big": 2**64 + 1,
            "neg": -(2**63),
            "f": Formula("w * 2"),
            "g": RandomSpec("gauss", 1, 2),  # int arguments stay ints
            "u": uniform(-0.0, 1e300),
        },
        metadata={"note": _ODD_TEXT, _ODD_TEXT: "key"},
    )
    bare = Component("bare", ["p"])  # empty params and metadata
    inner = Subcircuit("INNER", ["x"], {"w": 5e-324})
    inner += bare @ ["x"]
    outer = Subcircuit("OUTER", ["x", "y"], {"k": gauss(0.0, 1.5)})
    outer += inner
    outer += inner @ ["x"]
    outer += dev(["x", "y"], {"text": "é", "w": Formula("k + 1")})
    outer.fix()
    circuit += outer @ ["n1", "n2"]
    circuit += dev(["n1", "GND"], {"w": -0.0})
    circuit += bare @ [""]
    nested = Instance(bare, ["n1"], context={"coords": {"x": 1, "y": [1, 2.5, None, True]}})
    circuit += nested
    circuit += Instance(
        bare,
        ["n2"],
        context={"label": _ODD_TEXT, "flag": False, "big": 2**70, "inf": float("inf")},
    )
    circuit += Instance(bare, ["n2"], context={3: "int key", "none": None})
    circuit += Instance(bare, ["n1"], context={"empty": {}, "list": [], "tuple": (1, "a")})
    circuit.instances.append(Instance(bare, ["n1"]))  # never inserted: no designator
    circuit.instances.append(Instance(UnresolvedTemplate("ghost", 2), ["n1", "n2"]))
    return circuit


def test_export_json_is_json_dumps_of_the_dict_form_on_edge_values():
    circuit = _edge_circuit()
    text = export_json(circuit)
    assert text == _reference(circuit)
    raw = json.loads(text)
    assert raw["instances"][-1]["template"] == "ghost"
    assert raw["instances"][-2]["designator"] is None
    assert raw["components"]["dev"]["params"]["big"] == 2**64 + 1


def test_export_json_raises_like_json_dumps_on_values_json_cannot_write():
    circuit = capacitor_circuit()
    circuit.instances[0].context = {"bad": object()}
    with pytest.raises(TypeError):
        json.dumps(dict_form(circuit), indent=2)
    with pytest.raises(TypeError):
        export_json(circuit)


# --- the reader: one Net per name per scope ---------------------------------------------

NMOS = Component("nmos", [1, "INPUT", 3, "GND"])


def _chain_circuit(n: int, sub_n: int) -> Circuit:
    """A top-level chain of n devices, and a subcircuit whose chain of sub_n
    devices is the only place its links appear."""
    circuit = Circuit()
    if n:
        circuit += Chain(NMOS, n, 0, 2)
    line = Subcircuit("LINE", ["INPUT"])
    line += Chain(NMOS, sub_n, 0, 2)
    circuit += line @ ["INPUT"]
    return circuit


def test_imported_chain_neighbours_share_one_net():
    again = import_json(export_json(_chain_circuit(6, 4)))
    top = [inst for inst in again.instances if inst.template.name == "nmos"]
    body = again.subcircuits["LINE"].body
    for chain in (top, body):
        for left, right in zip(chain, chain[1:]):
            assert str(left.nets[2]).startswith("net_0_")
            assert left.nets[2] is right.nets[0]
        assert len({id(inst.nets[1]) for inst in chain}) == 1  # INPUT
        assert len({id(inst.nets[3]) for inst in chain}) == 1  # GND
    # scopes do not share: the body's net_0_0 is its own Net
    assert top[0].nets[2] == body[0].nets[2]
    assert top[0].nets[2] is not body[0].nets[2]


def test_import_coerces_each_net_name_once_per_scope(monkeypatch):
    text = export_json(_chain_circuit(2_000, 30))
    raw = json.loads(text)
    distinct = len({n for rec in raw["instances"] for n in rec["nets"]}) + len(
        {n for rec in raw["subcircuits"]["LINE"]["body"] for n in rec["nets"]}
    )
    ports = sum(len(comp["ports"]) for comp in raw["components"].values())
    calls = []
    as_net = core.as_net

    def counting(value):
        calls.append(value)
        return as_net(value)

    monkeypatch.setattr(core, "as_net", counting)
    monkeypatch.setattr(exporters, "as_net", counting)
    circuit = import_json(text)
    assert len(circuit.instances) == 2_001
    assert len(calls) == distinct + ports
    assert distinct == 2_003 + 33


@pytest.mark.parametrize("value", [True, 1.5, -1, [1], {"a": 1}, "a b"])
def test_import_rejects_a_bad_net_with_path(value):
    raw = json.loads(export_json(_chain_circuit(3, 2)))
    raw["instances"][1]["nets"][0] = value
    with pytest.raises(SchemaError) as info:
        import_json(json.dumps(raw))
    assert info.value.path == "instances[1].nets"


def test_import_normalizes_numeric_nets():
    raw = json.loads(export_json(capacitor_circuit()))
    raw["instances"] = [
        {"template": "Cap", "nets": [1, "1"], "params": {}, "designator": "C1"},
        {"template": "Cap", "nets": ["007", 7], "params": {}, "designator": "C2"},
    ]
    circuit = import_json(json.dumps(raw))
    assert circuit.instances[0].nets == (Net("1"), Net("1"))
    assert circuit.instances[1].nets == (Net("7"), Net("7"))
    assert circuit.instances[0].nets[1] is not circuit.instances[1].nets[0]


def test_instance_keeps_a_tuple_of_nets_without_coercing_it(monkeypatch):
    nets = (Net("a"), Net("b"))
    monkeypatch.setattr(core, "as_net", lambda value: pytest.fail("coerced again"))
    inst = Instance(NMOS, nets)
    assert inst.nets is nets


def test_import_continues_chain_counter_of_links_only_in_a_subcircuit():
    again = import_json(export_json(_chain_circuit(0, 3)))
    line = again.subcircuits["LINE"]
    line += Chain(NMOS, 3, 0, 2)
    names = [str(inst.nets[2]) for inst in line.body]
    assert names == ["net_0_0", "net_0_1", "3", "net_1_0", "net_1_1", "3"]
    # the top level holds no link, so its first chain starts at net_0_
    again += Chain(NMOS, 2, 0, 2)
    assert str(again.instances[-2].nets[2]) == "net_0_0"
