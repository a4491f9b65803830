"""The JSON IR writer and reader against their references.

export_json and write_param_file write their records straight to text. The
dict form below is the document each describes, and
json.dumps(dict_form, indent=2) + "\\n" is the byte-identity oracle for both.
import_json reads a scope a column at a time: it makes the common records
in one call and hands any other to _instance_from_ir, so a bad record is
reported at its own path, and the first one in record order. It makes each
net name's Net once per scope, shares one Net per name, and continues the
scope's designator and link-net counters; the counting tests check which
records take which path, and how often as_net runs, by calls, not by time.
A property test checks the column reader against _instance_from_ir on every
record, on scopes that mix common, uncommon and malformed records. The
import pauses the cyclic collector and leaves it as it found it, and reads
the designators again only when a scope's counters are first read.
"""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforge import core, exporters
from netforge.core import Circuit, Component, Instance, Model, Net, Subcircuit, UnresolvedTemplate
from netforge.errors import NetforgeError, ParseError, SchemaError, VersionMismatchError
from netforge.exporters import export, export_json, import_json, write_param_file
from netforge.formula import Formula
from netforge.io_readers import ParamFile, load_param_file, read_param_file
from netforge.manip import Array, Chain
from netforge.params import Params, RandomSpec, gauss, lognormal, uniform

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


def _last_record_with_context() -> Circuit:
    circuit = Circuit()
    bare = Component("bare", ["p"])
    body = Subcircuit("BODY", ["x"])
    body += bare @ ["x"]
    body += Instance(bare, ["x"], context={"k": 1})
    circuit += body
    circuit += body @ ["n1"]
    circuit += Instance(bare, ["n1"], context={"last": "é"})
    return circuit


def _nested_siblings(depth: int) -> Circuit:
    """Subcircuits nested `depth` deep, each level holding two nested
    definitions (a leaf and the next level), placed at the top."""
    res = Component("res", ["a", "b"], {"R": 1.0})
    inner = None
    for k in reversed(range(depth)):
        scratch = Circuit()
        leaf = Subcircuit(f"LEAF{k}", ["p"])
        leaf += res @ ["p", "0"]
        for sub in (leaf, inner) if inner is not None else (leaf,):
            scratch += sub
            scratch += sub @ ["p"]
        inner = scratch.into_subckt(f"L{k}", ["p"], Params({"k": float(k)}))
    circuit = Circuit()
    circuit += inner
    circuit += inner @ ["top"]
    return circuit


def test_nested_subcircuits_write_the_bytes_of_their_dict_form():
    # each record's nested records are written where they go, in one pass
    for depth in (1, 2, 30):
        circuit = _nested_siblings(depth)
        assert export_json(circuit) == _reference(circuit)


def _quoting_scopes() -> Circuit:
    """A scope per way of quoting: the writer quotes a scope's names and
    designators without a call per name only when all of them need no
    escaping, so each odd value sits in a scope of its own."""
    bare = Component("bare", ["p"])
    dev = Component("dev", ["a", "b"])
    pinless = Subcircuit("PINLESS", [])
    pinless += bare @ ["z"]
    escaped = Subcircuit("ESCAPED", ["x"])
    escaped += bare @ [Net("é")]  # nets made directly can hold any text
    escaped += dev @ [Net('q"t'), "x"]
    escaped.body[1].designator = None  # set after insertion
    odd = Subcircuit("ODD", ["x"])
    odd += bare @ ["x"]
    odd.body[0].designator = 5  # not text: json.dumps writes it as it is
    circuit = Circuit()
    circuit += pinless
    circuit += escaped
    circuit += odd
    circuit += pinless @ []  # no nets, next to one port on the unconnected net
    circuit += bare @ [""]
    circuit += dev @ ["n1", "n2"]
    circuit.instances[-1].designator = 'R"1'
    return circuit


def _combinator_scopes() -> Circuit:
    circuit = Circuit()
    dev = Component("dev", ["a", "b"], {"w": 1, "l": Formula("w * 2")})
    bare = Component("bare", ["p"])
    bound = dev(["in", "out"], {"w": uniform(1, 2), "note": "é"})
    body = Subcircuit("BLK", ["in", "out"])
    body += Chain(dev, 3)
    body += Array(3, bare, lambda i: [f"x{i}"])
    circuit += body
    circuit += Chain(bound, 4)
    circuit += Array(3, dev % {"w": Formula("_i + 1")}, lambda i: [f"a{i}", f"b{i}"])
    circuit += body @ ["in", "out"]
    return circuit


@pytest.mark.parametrize(
    "factory",
    [
        capacitor_circuit,
        crossbar_circuit,
        defect_chain_circuit,
        ro_circuit,
        _quoting_scopes,
        _last_record_with_context,
        _combinator_scopes,
    ],
    ids=["capacitor", "crossbar", "defect_chain", "ro", "quoting", "last-context", "combinators"],
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


# --- the parameter file writer: the same dict form per corner ----------------------------


def _param_file_reference(param_file: ParamFile) -> str:
    document = {
        device: {corner: _params_to_json(params) for corner, params in corners.items()}
        for device, corners in param_file.items()
    }
    return json.dumps(document, indent=2) + "\n"


def _edge_param_file() -> ParamFile:
    return ParamFile(
        {
            "nmos": {
                "TT": {
                    "w": 0.135,
                    "big": 2**64 + 1,
                    "vt": -0.0,
                    "tiny": 5e-324,
                    "flavor": "lvt",
                    "note": "µ\"é\"\U0001f600",
                    "test": Formula("1 / vth"),
                    "vth": gauss(0.4, 0.1),
                    "g": RandomSpec("gauss", 1, 2),  # int arguments stay ints
                    "u": uniform(-0.0, 1e300),
                    "ln": lognormal(0.0, 0.25),
                },
                "FF": {},
            },
            "mé": {"Ünter": {"x": "Ω"}},
            "empty": {},
        }
    )


def test_write_param_file_is_json_dumps_of_the_dict_form(data_dir):
    for param_file in (
        ParamFile(),
        _edge_param_file(),
        load_param_file(data_dir / "mos_params.json"),
    ):
        assert write_param_file(param_file) == _param_file_reference(param_file)
    assert read_param_file(write_param_file(_edge_param_file())) == _edge_param_file()


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
    scopes = (raw["instances"], raw["subcircuits"]["LINE"]["body"])
    distinct = [{n for rec in records for n in rec["nets"]} for records in scopes]
    ports = [port for comp in raw["components"].values() for port in comp["ports"]]
    calls = []
    as_net = core.as_net

    def counting(value):
        calls.append(value)
        return as_net(value)

    monkeypatch.setattr(core, "as_net", counting)
    monkeypatch.setattr(exporters, "as_net", counting)
    handed_off = _count_handed_off(monkeypatch)
    circuit = import_json(text)
    assert len(circuit.instances) == 2_001
    # one Net per distinct name of a scope
    bodies = (circuit.instances, circuit.subcircuits["LINE"].body)
    made = [{id(net) for inst in body for net in inst.nets} for body in bodies]
    assert list(map(len, made)) == list(map(len, distinct)) == [2_003, 33]
    # the decimal names take one as_net call per scope; the symbolic names,
    # checked together, take none
    assert calls == [*circuit.global_nets, *ports, "1", "3", "1", "3"]
    assert {"1", "3"} <= distinct[0] and {"1", "3"} <= distinct[1]
    # every record of a built chain is a common one, read in columns
    assert handed_off == []


def _count_handed_off(monkeypatch) -> list:
    """The designators of the records import_json hands to _instance_from_ir
    from now on, in order."""
    handed_off = []
    instance_from_ir = exporters._instance_from_ir

    def counting(raw, *args):
        handed_off.append(raw.get("designator") if isinstance(raw, dict) else raw)
        return instance_from_ir(raw, *args)

    monkeypatch.setattr(exporters, "_instance_from_ir", counting)
    return handed_off


def _mixed_scope_circuit() -> Circuit:
    """One scope whose common records alternate with records that
    import_json hands off."""
    cap = Component("cap", ["a", "b"])
    circuit = Circuit()
    circuit += cap @ ["a", "b"]
    circuit += cap(["b", "1"], {"w": 2, "f": Formula("w * 2")})  # params
    circuit += Instance(cap, ["1", ""], context={"i": 3, "tag": "x"})  # a context: common
    circuit += cap @ ["c", "a"]
    circuit.instances.append(
        Instance(UnresolvedTemplate("ghost", 2), ["a", "c"], designator="U1")
    )
    # designators that are not alphanumeric: common
    circuit.instances.append(Instance(cap, ["c", "d"], designator="X_1"))
    circuit.instances.append(Instance(cap, ["d", "a"], designator="X.1"))
    circuit += cap @ ["d", "e"]
    circuit += cap @ ["1", "1"]  # written as [1, "1"] below
    circuit += cap @ ["e", "net_0_1"]
    return circuit


def test_import_round_trips_a_scope_of_common_and_handed_off_records(monkeypatch):
    circuit = _mixed_scope_circuit()
    text = export_json(circuit)
    raw = json.loads(text)
    assert raw["instances"][8]["nets"] == ["1", "1"]
    raw["instances"][8]["nets"] = [1, "1"]
    numeric = json.dumps(raw, indent=2) + "\n"
    handed_off = _count_handed_off(monkeypatch)
    again = import_json(text)
    assert again == circuit
    assert export_json(again) == text
    assert handed_off == ["C2", "U1"]
    handed_off.clear()
    assert export_json(import_json(numeric)) == text
    assert handed_off == ["C2", "U1", "C6"]
    # every instance owns its context and overrides, which stay mutable
    for field in ("context", "overrides"):
        assert len({id(getattr(inst, field)) for inst in again.instances}) == 10
    # both paths share the scope's Nets, and the counters continue past both
    nets = [inst.nets for inst in again.instances]
    assert nets[0][1] is nets[1][0] and nets[1][1] is nets[2][0] and nets[3][0] is nets[5][0]
    again += circuit.instances[0].template @ ["a", "b"]
    again += Chain(NMOS, 2, 0, 2)
    assert again.instances[-3].designator == "C8"
    assert str(again.instances[-2].nets[2]) == "net_1_0"


def _bad_designator(rec):
    rec["designator"] = "1R"


def _bad_net(rec):
    rec["nets"][0] = "a b"


def _bad_record(raw, where, index, mutate):
    records = raw["instances"] if where == "top" else raw["subcircuits"]["LINE"]["body"]
    mutate(records[index])


@pytest.mark.parametrize(
    "faults, path, message",
    [
        (
            [("top", 3, _bad_designator), ("top", 10, _bad_net)],
            "instances[3].designator",
            "designator '1R' must start with [A-Za-z_], as a designator prefix does",
        ),
        (
            [("top", 10, _bad_designator), ("top", 3, _bad_net)],
            "instances[3].nets",
            "invalid net name 'a b'",
        ),
        (
            [("body", 2, _bad_designator), ("body", 1, _bad_net), ("top", 0, _bad_net)],
            "subcircuits.LINE.body[1].nets",
            "invalid net name 'a b'",
        ),
    ],
    ids=["designator-first", "net-first", "body-before-top"],
)
def test_import_reports_the_first_bad_record_in_record_order(faults, path, message):
    raw = json.loads(export_json(_chain_circuit(20, 4)))
    for where, index, mutate in faults:
        _bad_record(raw, where, index, mutate)
    with pytest.raises(SchemaError) as info:
        import_json(json.dumps(raw))
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "field, value, path, message",
    [
        ("designator", "1R", "designator", "designator '1R' must start with [A-Za-z_], "
         "as a designator prefix does"),
        ("nets", [[1]], "nets", "expected a net name, got list"),
        ("template", {"a": 1}, "template", "template must be a name"),
        ("params", None, "params", "expected a parameter object"),
        ("context", None, "context", "context must be an object"),
    ],
    ids=[
        "designator", "net-array", "template-object", "params-null", "context-null",
    ],
)
def test_import_reports_a_bad_last_record_of_a_long_scope(field, value, path, message):
    raw = json.loads(export_json(_chain_circuit(4_999, 2)))
    assert len(raw["instances"]) == 5_000
    raw["instances"][-1][field] = value
    with pytest.raises(SchemaError) as info:
        import_json(json.dumps(raw))
    assert info.value.path == f"instances[4999].{path}"
    assert str(info.value) == f"instances[4999].{path}: {message}"


@pytest.mark.parametrize(
    "value",
    [True, 1.5, -1, [1], {"a": 1}, "a b", pytest.param("1" * 5000, id="5000-digits"), "３", "٣"],
)
def test_import_rejects_a_bad_net_with_path(value):
    raw = json.loads(export_json(_chain_circuit(3, 2)))
    raw["instances"][1]["nets"][0] = value
    with pytest.raises(SchemaError) as info:
        import_json(json.dumps(raw))
    assert info.value.path == "instances[1].nets"


def test_import_reads_a_json_integer_of_too_many_digits_as_a_parse_error():
    text = export_json(_chain_circuit(3, 2)).replace('"net_0_1"', "1" * 5000, 1)
    with pytest.raises(ParseError, match="^invalid JSON: .*integer"):
        import_json(text)


def test_import_reads_json_nested_too_deeply_as_a_parse_error():
    with pytest.raises(ParseError, match="^invalid JSON: nested too deeply$"):
        import_json("[" * 100000 + "]" * 100000)


def test_components_are_collected_per_template_object_in_first_use_order():
    r1 = Component("r", ["a", "b"], {"R": 1.0})
    twin = Component("r", ["a", "b"], {"R": 1.0})  # equal, another object
    cap = Component("c", ["a", "b"])
    body = Subcircuit("blk", ["a"])
    body += [Chain(cap, 3), twin @ ["a", "x"]]
    circuit = Circuit()
    circuit += [Chain(r1, 4), body @ ["n"], twin @ ["y", "z"]]
    assert list(exporters._collect_components(circuit).items()) == [("r", r1), ("c", cap)]
    other = Component("r", ["a", "b"], {"R": 2.0})
    body += other @ ["a", "y"]  # reached only through the subcircuit
    with pytest.raises(NetforgeError, match="^two different component templates named 'r'"):
        export_json(circuit)


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


def _counters_document() -> dict:
    """An IR whose designators and link nets the import must continue past:
    several prefixes, an `X_` prefix, a designator with no number at its end
    (`X1a`), one whose number is in Arabic-Indic digits (C15), and link groups
    at the top level and in a nested subcircuit."""
    res = {"ports": ["a", "b"], "params": {}, "prefix": "R", "metadata": {}}
    cap = {"ports": ["a", "b"], "params": {}, "prefix": "C", "metadata": {}}
    tap = {"ports": ["a", "b"], "params": {}, "prefix": "X_", "metadata": {}}

    def rec(template, nets, designator):
        return {"template": template, "nets": nets, "params": {}, "designator": designator}

    inner = {
        "pins": ["p"], "params": {}, "fixed": False, "nested": {},
        "body": [rec("res", ["p", "net_2_0"], "R4"), rec("res", ["net_2_0", "net_0_1"], "R2")],
    }
    outer = {
        "pins": ["p"], "params": {}, "fixed": False, "nested": {"T": inner},
        "body": [rec("cap", ["p", "q"], "C9"), rec("T", ["q"], "X3")],
    }
    return {
        "version": exporters.JSON_IR_VERSION,
        "components": {"res": res, "cap": cap, "tap": tap},
        "subcircuits": {"S": outer},
        "instances": [
            rec("res", ["a", "net_0_5"], "R1"),
            rec("res", ["net_0_5", "net_4_1"], "R7"),
            rec("cap", ["a", "net_07_1"], "C12"),
            rec("cap", ["a", "b"], "C١٥"),
            rec("tap", ["a", "net_9_2_3"], "X_3"),
            rec("tap", ["a", "xnet_8_1"], "X1a"),
            rec("S", ["net_6_x"], "R٣"),
        ],
    }


def test_import_continues_designators_and_link_groups_per_scope():
    circuit = import_json(json.dumps(_counters_document()))
    templates = {**exporters._collect_components(circuit), **circuit.subcircuits}

    def added(scope, *names):
        for name in names:
            scope += templates[name] @ ["a", "b"][: templates[name].arity]
        body = scope.instances if isinstance(scope, Circuit) else scope.body
        return [inst.designator for inst in body[-len(names):]]

    def next_link(scope):
        scope += Chain(NMOS, 2, 0, 2)
        body = scope.instances if isinstance(scope, Circuit) else scope.body
        return str(body[-2].nets[2])

    # R past R7 (R3 in Arabic-Indic digits is less), C past C15, X_ past X_3;
    # X1a ends in no number, so X starts at X1
    assert added(circuit, "res", "cap", "tap", "S") == ["R8", "C16", "X_4", "X1"]
    # net_07_1 is group 7; net_9_2_3, xnet_8_1 and net_6_x are no link names
    assert next_link(circuit) == "net_8_0"
    outer = circuit.subcircuits["S"]
    inner = outer.nested[0]
    assert added(outer, "cap", "res") == ["C10", "R1"]
    assert next_link(outer) == "net_0_0"
    assert added(inner, "res", "cap") == ["R5", "C1"]
    assert next_link(inner) == "net_3_0"


# --- the cyclic collector during an import, and counters continued on first use ------

def _deep_bad_record() -> str:
    doc = _counters_document()
    doc["subcircuits"]["S"]["nested"]["T"]["body"][1]["designator"] = "1R"
    return json.dumps(doc)


@pytest.mark.parametrize("text, error", [
    (export_json(_chain_circuit(6, 4)), None),
    ('{"version": 1, ', ParseError),
    (json.dumps({**_counters_document(), "version": 99}), VersionMismatchError),
    (_deep_bad_record(), SchemaError),
], ids=["valid", "invalid_json", "wrong_version", "bad_record_in_a_nested_body"])
@pytest.mark.parametrize("enabled", [True, False])
def test_import_leaves_the_collector_as_it_found_it(text, error, enabled):
    was = gc.isenabled()
    if not enabled:
        gc.disable()
    try:
        if error is None:
            circuit = import_json(text)
        else:
            with pytest.raises(error):
                import_json(text)
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
    if error is None:
        assert export_json(circuit) == text


def test_an_import_defers_its_collections_and_exports_the_same_bytes():
    circuit = _chain_circuit(3000, 40)
    text = export_json(circuit)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()  # so that no allocation before the pause starts one
    gc.callbacks.append(count)
    try:
        again = import_json(text)
    finally:
        gc.callbacks.remove(count)
    # at most the one young collection the pause put off, once it ends
    assert starts in ([], [0])
    assert export_json(again) == text
    assert export(again, "spice") == export(circuit, "spice")


class _FindallSpy:
    """A compiled pattern that counts its findall calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def findall(self, text):
        self.calls += 1
        return self.pattern.findall(text)


def _eager(circuit: Circuit) -> Circuit:
    """`circuit` with every scope's counters read, as an import read them
    when it made the scope."""
    for scope in (circuit, *_all_subcircuits(circuit.subcircuits.values())):
        scope._counters, scope._next_link_group
    return circuit


def _all_subcircuits(subckts) -> list:
    found = []
    for sub in subckts:
        found += [sub, *_all_subcircuits(sub.nested)]
    return found


def test_an_import_only_exported_never_reads_its_designators_again(monkeypatch):
    spy = _FindallSpy(core._DESIGNATOR_LINES_RE)
    monkeypatch.setattr(core, "_DESIGNATOR_LINES_RE", spy)
    circuit = import_json(json.dumps(_counters_document()))
    export_json(circuit), export(circuit, "spice"), exporters.lint(circuit)
    assert spy.calls == 0
    circuit += Component("res", ["a", "b"]) @ ["a", "b"]  # reads the top level's only
    assert spy.calls == 1 and circuit.instances[-1].designator == "R8"
    circuit += Component("res", ["a", "b"]) @ ["a", "b"]
    assert spy.calls == 1 and circuit.instances[-1].designator == "R9"
    circuit.subcircuits["S"] += Component("cap", ["a", "b"], prefix="C") @ ["a", "b"]
    assert spy.calls == 2 and circuit.subcircuits["S"].body[-1].designator == "C10"


def test_into_subckt_of_a_fresh_import_carries_the_continued_counters():
    subs = []
    for read in (_eager, lambda circuit: circuit):
        circuit = read(import_json(json.dumps(_counters_document())))
        sub = circuit.into_subckt("WRAP", ["a"])
        circuit += Component("res", ["a", "b"]) @ ["a", "b"]  # the circuit counts on its own
        sub += Component("res", ["a", "b"]) @ ["a", "b"]
        sub += Component("cap", ["a", "b"], prefix="C") @ ["a", "b"]
        sub += Chain(NMOS, 2, 0, 2)
        subs.append([
            [inst.designator for inst in sub.body[-4:]], str(sub.body[-2].nets[2]),
            circuit.instances[-1].designator,
        ])
    assert subs[0] == subs[1] == [["R8", "C16", "N1", "N2"], "net_8_0", "R8"]


def test_a_chain_added_to_an_imported_body_continues_its_link_groups():
    bodies = []
    for read in (_eager, lambda circuit: circuit):
        circuit = read(import_json(export_json(_chain_circuit(6, 4))))
        line = circuit.subcircuits["LINE"]
        line += Chain(NMOS, 3, 0, 2)
        bodies.append([(inst.designator, tuple(map(str, inst.nets))) for inst in line.body])
    assert bodies[0] == bodies[1]
    assert [nets[2] for _, nets in bodies[1][-3:]] == ["net_1_0", "net_1_1", "3"]
    assert [designator for designator, _ in bodies[1][-3:]] == ["N5", "N6", "N7"]


# --- the column reader against a reader of every record alone ------------------------

_ABSENT = object()  # a change that deletes its field
_PROPERTY_TEMPLATES = {
    "cap": Component("cap", ["a", "b"]),
    "res": Component("res", ["a", "b", "c"], prefix="R"),
}
_GOOD_NETS = ["a", "b", "c", "x.y", "net_0_1", "net_2_0", "net_07_3", "", "0", "007", "12"]
_DESIGNATORS = ["C1", "C12", "R7", "R٣", "C١٥", "Cé1", "X_3", "X.1", "R-2", "net_1_1"]
# a change each that keeps a record readable; most make it uncommon
_VALID_CHANGES = [
    ("params", {"w": 1.5}), ("params", {"f": {"$formula": "w * 2"}}), ("params", _ABSENT),
    ("context", {"i": 3, "tag": "x"}), ("context", {}), ("context", _ABSENT),
    ("nets", [1, "a"]), ("nets", [0, "0"]), ("nets", ["0", "007", 7]), ("nets", []),
    ("template", "ghost"), ("designator", _ABSENT), ("designator", None),
]
# a change each that makes a record an error
_MALFORMED_CHANGES = [
    ("designator", "1R"), ("designator", 5), ("designator", "Ω1"), ("designator", "C 1"),
    ("designator", ""), ("nets", ["a b"]), ("nets", [[1]]), ("nets", ["３", "a"]),
    ("nets", ["a", "٣"]), ("nets", [1.5]), ("nets", [-1]), ("nets", [True]), ("nets", "ab"),
    ("nets", ["1" * 5000]), ("nets", _ABSENT), ("template", 5), ("template", {"a": 1}),
    ("template", ["cap"]), ("template", _ABSENT), ("params", None), ("params", []),
    ("params", {"k=1": 1}), ("context", None), ("context", [1]),
]


def _changed(record: dict, change) -> dict:
    field, value = change
    record = dict(record)
    if value is _ABSENT:
        record.pop(field, None)
    else:
        record[field] = value
    return record


_common_records = st.builds(
    lambda template, nets, designator, context: {
        "template": template, "nets": nets, "params": {}, "designator": designator, **context
    },
    st.sampled_from(list(_PROPERTY_TEMPLATES)),
    st.lists(st.sampled_from(_GOOD_NETS), max_size=3),
    st.sampled_from(_DESIGNATORS),
    st.sampled_from([{}, {"context": {}}, {"context": {"i": 1}}]),
)
_valid_records = st.one_of(
    _common_records, _common_records,
    st.builds(_changed, _common_records, st.sampled_from(_VALID_CHANGES)),
)
_malformed_records = st.one_of(
    st.builds(_changed, _common_records, st.sampled_from(_MALFORMED_CHANGES)),
    st.sampled_from([5, "cap", [], None]),
)


def _read_scope(raw_list, every_record_alone):
    """A subcircuit with the instances read from `raw_list`, as import_json
    reads a scope or with every record through _instance_from_ir; or the
    error as (type, message, path)."""
    scope = Subcircuit("S", ["p"])
    raw_list = json.loads(json.dumps(raw_list))  # a copy of its own, as read_json makes it
    try:
        if every_record_alone:
            scope_nets = {}
            for i, raw in enumerate(raw_list):
                scope.body.append(exporters._instance_from_ir(
                    raw, _PROPERTY_TEMPLATES, scope_nets, f"body[{i}]"
                ))
            scope._continue_numbering(
                "\n".join(filter(None, (inst.designator for inst in scope.body))),
                "\n".join(scope_nets),
            )
        else:
            exporters._instances_from_ir(raw_list, scope, _PROPERTY_TEMPLATES, "body")
    except NetforgeError as exc:
        return type(exc), str(exc), exc.path
    return scope


def _net_identities(instances) -> list:
    """Each net of each instance, as the index of its Net object's first use."""
    first: dict = {}
    return [first.setdefault(id(net), len(first)) for inst in instances for net in inst.nets]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    st.lists(_valid_records, max_size=12),
    st.lists(st.tuples(st.integers(0, 12), _malformed_records), max_size=2),
)
def test_the_column_reader_reads_a_scope_as_every_record_alone(records, faults):
    for where, fault in faults:
        records.insert(where, fault)
    columns, alone = _read_scope(records, False), _read_scope(records, True)
    if isinstance(alone, tuple):  # the same first error, at the same path
        assert columns == alone
        return
    assert isinstance(columns, Subcircuit), columns
    read, expected = columns.body, alone.body
    assert read == expected  # templates, nets, overrides and contexts
    assert [inst.designator for inst in read] == [inst.designator for inst in expected]
    assert [type(inst.template) for inst in read] == [type(inst.template) for inst in expected]
    assert all(type(inst.overrides) is Params for inst in read)
    assert _net_identities(read) == _net_identities(expected)
    for field in ("overrides", "context"):  # every instance owns its own
        assert len({id(getattr(inst, field)) for inst in read}) == len(read)
    assert columns._counters == alone._counters
    assert columns._next_link_group == alone._next_link_group
