import json

import pytest

from netforge import builddoc, manip
from netforge.builddoc import build_circuit, load_doc
from netforge.core import Component
from netforge.errors import CyclicDependencyError, SchemaError, UnknownCornerError
from netforge.exporters import export, export_json, import_json
from netforge.formula import MAX_DEPTH, Formula
from netforge.io_readers import load_veriloga, read_param_file
from netforge.params import Params, RandomSpec

from sample_circuits import nested_node


def build(tmp_path, doc, **kwargs):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return build_circuit(load_doc(path), tmp_path, **kwargs)


BASE = {
    "version": 1,
    "components": [{"name": "res", "ports": ["a", "b"], "params": {"R": 100}}],
}


def test_version_required():
    with pytest.raises(SchemaError) as err:
        build_circuit({"circuit": []}, ".")
    assert err.value.path == "version"


def test_unknown_top_level_keys_rejected():
    with pytest.raises(SchemaError):
        build_circuit({"version": 1, "extras": []}, ".")


def test_instance_node(tmp_path):
    doc = dict(BASE, circuit=[{"op": "instance", "template": "res", "nets": ["n1", "n2"]}])
    circuit = build(tmp_path, doc)
    assert [str(n) for n in circuit.instances[0].nets] == ["n1", "n2"]


def test_instance_node_params_override(tmp_path):
    doc = dict(
        BASE,
        circuit=[
            {"op": "instance", "template": "res", "nets": ["n1", "n2"], "params": {"R": "2k"}}
        ],
    )
    circuit = build(tmp_path, doc)
    assert circuit.instances[0].effective_params()["R"] == 2000.0


def test_parallel_and_concat_nodes(tmp_path):
    doc = dict(
        BASE,
        circuit=[
            {
                "op": "concat",
                "of": [
                    {"op": "parallel", "template": "res", "n": 2},
                    {"op": "instance", "template": "res", "nets": ["x", "y"]},
                ],
            }
        ],
    )
    circuit = build(tmp_path, doc)
    assert [i.designator for i in circuit.instances] == ["R1", "R2", "R3"]


def test_chain_node_with_ports(tmp_path):
    doc = {
        "version": 1,
        "components": [{"name": "m", "ports": [1, "INPUT", 3, "GND"]}],
        "circuit": [{"op": "chain", "template": "m", "n": 3, "in_port": 0, "out_port": 2}],
    }
    circuit = build(tmp_path, doc)
    assert str(circuit.instances[1].nets[0]) == "net_0_0"


def test_array_node_2d_with_coordinate_templates(tmp_path):
    doc = {
        "version": 1,
        "components": [{"name": "cell", "ports": ["r", "c"]}],
        "circuit": [
            {
                "op": "array",
                "template": "cell",
                "shape": [2, 2],
                "ports": ["ROW_${_x}", "COL_${_y}"],
            }
        ],
    }
    circuit = build(tmp_path, doc)
    assert [str(i.nets[0]) for i in circuit.instances] == ["ROW_0", "ROW_0", "ROW_1", "ROW_1"]
    assert circuit.instances[3].context == {"_x": 1, "_y": 1}


def test_array_shape_arithmetic_in_strings(tmp_path):
    doc = {
        "version": 1,
        "variables": {"N": 2},
        "components": [{"name": "cell", "ports": ["p"]}],
        "circuit": [
            {"op": "array", "template": "cell", "shape": ["${N + 1}"], "ports": ["n_${_i}"]}
        ],
    }
    circuit = build(tmp_path, doc)
    assert len(circuit.instances) == 3


def test_inject_node_deterministic_and_seedable(tmp_path):
    doc = {
        "version": 1,
        "seed": 5,
        "components": [{"name": "m", "ports": [1, "INPUT", 3, "GND"]}],
        "circuit": [
            {
                "op": "inject",
                "p": 1.0,
                "into": {"op": "chain", "template": "m", "n": 2},
            }
        ],
    }
    a = build(tmp_path, doc)
    b = build(tmp_path, doc)
    assert len(a.instances) == 4
    assert [i.designator for i in a.instances] == [i.designator for i in b.instances]


def test_inject_node_custom_defect(tmp_path):
    doc = {
        "version": 1,
        "components": [
            {"name": "m", "ports": [1, "INPUT", 3, "GND"]},
            {"name": "leak", "ports": ["a", "k"], "params": {"isat": "1f"}},
        ],
        "circuit": [
            {
                "op": "inject",
                "p": 1.0,
                "defect": "leak",
                "into": {"op": "chain", "template": "m", "n": 2},
            }
        ],
    }
    circuit = build(tmp_path, doc)
    assert circuit.instances[0].template.name == "leak"


def test_add_model_inline_and_from_file(tmp_path):
    (tmp_path / "pdk.sp").write_text(".model file_nmos nmos (vth=0.4)\n")
    doc = {
        "version": 1,
        "models": ["pdk.sp"],
        "circuit": [{"op": "add_model", "name": "extra", "type": "res", "params": {"r": 1}}],
    }
    circuit = build(tmp_path, doc)
    assert set(circuit.models) == {"file_nmos", "extra"}
    assert circuit.models["file_nmos"].params["vth"] == 0.4


def test_into_subckt_node_registers_for_later_ops(tmp_path):
    doc = dict(
        BASE,
        circuit=[
            {
                "op": "into_subckt",
                "name": "PAIR",
                "pins": ["a", "b"],
                "body": [
                    {"op": "instance", "template": "res", "nets": ["a", "mid"]},
                    {"op": "instance", "template": "res", "nets": ["mid", "b"]},
                ],
            },
            {"op": "instance", "template": "PAIR", "nets": ["n1", "n2"]},
        ],
    )
    circuit = build(tmp_path, doc)
    assert "PAIR" in circuit.subcircuits
    assert len(circuit.subcircuits["PAIR"].body) == 2
    assert circuit.instances[0].designator == "X1"


def test_subcircuit_fixed_flag(tmp_path):
    doc = dict(
        BASE,
        subcircuits=[
            {
                "name": "S",
                "pins": ["p"],
                "body": [{"op": "instance", "template": "res", "nets": ["p", "GND"]}],
                "fixed": True,
            }
        ],
    )
    circuit = build(tmp_path, doc)
    assert circuit.subcircuits["S"].fixed


def test_params_from_explicit_corner(tmp_path):
    (tmp_path / "lib.json").write_text(
        json.dumps({"nmos": {"TT": {"w": 1}, "FF": {"w": 2}}})
    )
    doc = {
        "version": 1,
        "params_files": ["lib.json"],
        "components": [
            {"name": "a", "ports": ["p"], "params_from": "nmos"},
            {"name": "b", "ports": ["p"], "params_from": "nmos.FF"},
        ],
        "circuit": [],
    }
    circuit = build(tmp_path, doc, corner="TT")
    # corner-less refs follow the active corner; explicit ones stay pinned
    assert circuit is not None


def test_params_from_unknown_corner_is_build_error(tmp_path):
    (tmp_path / "lib.json").write_text(json.dumps({"nmos": {"TT": {"w": 1}}}))
    doc = {
        "version": 1,
        "params_files": ["lib.json"],
        "components": [{"name": "a", "ports": ["p"], "params_from": "nmos"}],
        "circuit": [],
    }
    with pytest.raises(UnknownCornerError):
        build(tmp_path, doc, corner="SS")


@pytest.mark.parametrize("corner, used", [(None, "FF"), ("TT", "TT"), ("", None)])
def test_the_corner_argument_wins_whenever_it_is_given(tmp_path, corner, used):
    (tmp_path / "lib.json").write_text(json.dumps({"nmos": {"TT": {"w": 1}, "FF": {"w": 2}}}))
    doc = {
        "version": 1,
        "corner": "FF",
        "params_files": ["lib.json"],
        "components": [{"name": "a", "ports": ["p"], "params_from": "nmos"}],
        "circuit": [{"op": "instance", "template": "a", "nets": ["n"]}],
    }
    if used is None:  # an empty corner is a corner of its own, not the document's
        with pytest.raises(UnknownCornerError):
            build(tmp_path, doc, corner=corner)
    else:
        [inst] = build(tmp_path, doc, corner=corner).instances
        assert inst.template.params == {"w": {"TT": 1, "FF": 2}[used]}


def test_params_from_unknown_device_is_schema_error(tmp_path):
    doc = {
        "version": 1,
        "components": [{"name": "a", "ports": ["p"], "params_from": "ghost"}],
        "circuit": [],
    }
    with pytest.raises(SchemaError) as err:
        build(tmp_path, doc)
    assert "components[0].params_from" in str(err.value)


def test_directive_params_in_doc(tmp_path):
    doc = {
        "version": 1,
        "components": [
            {
                "name": "d",
                "ports": ["p", "q"],
                "params": {
                    "vth": {"$gauss": [0.4, 0.1]},
                    "test": {"$formula": "1 / vth"},
                },
            }
        ],
        "circuit": [{"op": "instance", "template": "d", "nets": ["n1", "n1"]}],
    }
    circuit = build(tmp_path, doc)
    params = circuit.instances[0].template.params
    assert params["vth"] == RandomSpec("gauss", 0.4, 0.1)
    assert params["test"] == Formula("1 / vth")
    assert "vth=" in export(circuit, "spice")


def test_verilog_a_component_with_prefix_override(tmp_path, data_dir):
    import shutil

    shutil.copy(data_dir / "counter.va", tmp_path / "counter.va")
    doc = {
        "version": 1,
        "components": [{"verilog_a": "counter.va", "prefix": "A"}],
        "circuit": [{"op": "instance", "template": "counter", "nets": ["n"]}],
    }
    circuit = build(tmp_path, doc)
    assert circuit.instances[0].designator == "A1"


def test_unknown_template_reports_path(tmp_path):
    doc = dict(BASE, circuit=[{"op": "instance", "template": "ghost", "nets": []}])
    with pytest.raises(SchemaError) as err:
        build(tmp_path, doc)
    assert "ghost" in str(err.value)


def test_unknown_op_key_rejected(tmp_path):
    doc = dict(BASE, circuit=[{"op": "parallel", "template": "res", "n": 1, "bogus": 1}])
    with pytest.raises(SchemaError):
        build(tmp_path, doc)


def test_repeat_entry_expands(tmp_path):
    doc = {
        "version": 1,
        "variables": {"N": 3},
        "subcircuits": [
            {
                "name": "BUS",
                "pins": [{"$repeat": "IN_${_i}", "count": "N"}, "OUT"],
            }
        ],
        "circuit": [],
    }
    circuit = build(tmp_path, doc)
    assert circuit.subcircuits["BUS"].pins == ("IN_0", "IN_1", "IN_2", "OUT")


# --- parameter cycles: each map checked once, at the first node that uses it ---------

_CYCLE = {"x": {"$formula": "y"}, "y": {"$formula": "x"}}
_CYCLIC = {
    "version": 1,
    "models": [],
    "components": [
        {"name": "res", "ports": ["a", "b"], "params": {"R": 100}},
        {"name": "loop", "ports": ["a", "b"], "params": _CYCLE},
    ],
}


@pytest.mark.parametrize(
    "edit",
    [
        {"circuit": [{"op": "instance", "template": "loop", "nets": ["n1", "n2"]}]},
        {"circuit": [{"op": "chain", "template": {"ref": "res", "params": _CYCLE}, "n": 3}]},
        {"circuit": [{"op": "array", "template": {"ref": "loop", "nets": ["p", "q"]}, "shape": [2]}]},
        {"circuit": [{"op": "inject", "p": 1, "seed": 1, "defect": "loop",
                      "into": {"op": "chain", "template": "res", "n": 2}}]},
        {"circuit": [{"op": "add_model", "name": "m", "type": "nmos", "params": _CYCLE}]},
        {"models": [{"name": "m", "type": "nmos", "params": _CYCLE}]},
        {"subcircuits": [{"name": "blk", "pins": ["p"], "params": _CYCLE}]},
        {"circuit": [{"op": "into_subckt", "name": "blk", "pins": ["p"], "params": _CYCLE,
                      "body": [{"op": "instance", "template": "res", "nets": ["p", "0"]}]}]},
        # a map nothing prints is checked too, at the node that names it
        {"circuit": [{"op": "parallel", "template": "loop", "n": 0}]},
        # and before any later node is read
        {"circuit": [{"op": "instance", "template": "loop"}, {"op": "warp"}]},
    ],
    ids=["instance", "chain-bound-params", "array-bound-nets", "inject-defect", "add-model",
         "model", "subcircuit", "into-subckt", "parallel-of-zero", "before-a-later-node"],
)
def test_a_parameter_cycle_fails_the_build_at_its_node(tmp_path, edit):
    with pytest.raises(CyclicDependencyError):
        build(tmp_path, dict(_CYCLIC, **edit))


def test_a_map_no_node_uses_or_overrides_away_is_not_checked(tmp_path):
    doc = dict(
        _CYCLIC,
        circuit=[{"op": "instance", "template": "loop", "params": {"x": 1}, "nets": ["n1", "n2"]}],
    )
    assert len(build(tmp_path, doc).instances) == 1


def test_each_map_is_checked_once_per_build(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(builddoc, "validate_dependencies", calls.append)
    doc = dict(
        _CYCLIC,
        models=[{"name": "m", "type": "nmos"}],
        circuit=[
            {"op": "chain", "template": "res", "n": 50},
            {"op": "parallel", "template": "res", "n": 3},
            {"op": "instance", "template": {"ref": "res", "params": {"R": 5}}},
            {"op": "instance", "template": {"ref": "res", "nets": ["p", "q"]}},
        ],
    )
    for _ in range(2):
        calls.clear()
        build(tmp_path, doc)
        # the model's map, res's map once, and the one merged map
        assert [dict(p) for p in calls] == [{}, {"R": 100}, {"R": 5}]


# --- one reader per record kind ----------------------------------------------------


def _model_error(tmp_path, fields, where):
    """The SchemaError of `fields` as a models[] object or an add_model node."""
    if where == "models":
        doc = {"version": 1, "models": [fields], "circuit": []}
    else:
        doc = {"version": 1, "circuit": [{"op": "add_model", **fields}]}
    with pytest.raises(SchemaError) as err:
        build(tmp_path, doc)
    return err.value


def test_a_models_entry_and_an_add_model_node_give_the_same_model(tmp_path):
    fields = {"name": "m", "type": "nmos", "params": {"vth": "0.4", "k": {"$formula": "vth*2"}}}
    listed = build(tmp_path, {"version": 1, "models": [fields], "circuit": []}).models["m"]
    added = build(tmp_path, {"version": 1, "circuit": [{"op": "add_model", **fields}]}).models["m"]
    assert listed == added and list(listed.params) == ["vth", "k"]


@pytest.mark.parametrize(
    "fields",
    [{"type": "nmos"}, {"name": "m"}, {"name": 5, "type": "nmos"}, {"name": None, "type": "nmos"}],
    ids=["no name", "no type", "number name", "null name"],
)
def test_a_model_without_a_name_or_a_type_is_the_same_error_either_way(tmp_path, fields):
    # a models[] name that is not text was a BadNameError from Model (exit 3)
    for where, kind, path in [("models", "model", "models[0]"), ("op", "add_model", "circuit[0]")]:
        err = _model_error(tmp_path, fields, where)
        assert (err.path, str(err)) == (path, f"{path}: {kind} needs a name and a type")


def test_a_model_params_that_is_not_an_object_is_the_same_error_either_way(tmp_path):
    fields = {"name": "m", "type": "nmos", "params": [1]}
    errors = [_model_error(tmp_path, fields, where) for where in ("models", "op")]
    assert [str(err) for err in errors] == [
        "models[0].params: expected a parameter object",
        "circuit[0].params: expected a parameter object",
    ]


def test_a_parameter_map_that_is_not_an_object_reads_the_same_in_a_file(tmp_path):
    (tmp_path / "lib.json").write_text(json.dumps({"nmos": {"TT": 5}}))
    doc = {"version": 1, "components": [{"name": "r", "ports": ["a"], "params": 5}]}
    with pytest.raises(SchemaError) as in_doc:
        build(tmp_path, doc)
    with pytest.raises(SchemaError) as in_file:
        read_param_file((tmp_path / "lib.json").read_text())
    assert str(in_doc.value) == "components[0].params: expected a parameter object"
    assert str(in_file.value) == "nmos.TT: expected a parameter object"


# the overrides of a verilog_a entry; the expected Component is the loaded one
# without overrides, else one with its params merged, its prefix replaced and
# its metadata extended
_VA_OVERRIDES = {
    "none": {},
    "prefix": {"prefix": "A"},
    "null prefix": {"prefix": None},
    "params": {"params": {"width": 8, "extra": "${2 * 3}"}},
    "metadata": {"metadata": {"owner": "lab", "source": "doc"}},
    "all": {"prefix": "A", "params": {"threshold": 0.25}, "metadata": {"owner": "lab"}},
}


@pytest.mark.parametrize("case", list(_VA_OVERRIDES))
def test_a_verilog_a_component_builds_as_before(tmp_path, data_dir, case):
    (tmp_path / "counter.va").write_bytes((data_dir / "counter.va").read_bytes())
    entry = {"verilog_a": "counter.va", **_VA_OVERRIDES[case]}
    doc = {"version": 1, "components": [entry]}
    doc["circuit"] = [{"op": "instance", "template": "counter", "nets": ["n"]}]
    [instance] = build(tmp_path, doc).instances
    loaded = load_veriloga(tmp_path / "counter.va")
    expected = loaded
    if len(entry) > 1:
        params = {"width": 8, "extra": 6.0} if case == "params" else entry.get("params", {})
        expected = Component(
            loaded.name,
            loaded.ports,
            loaded.params.merged(params),
            prefix=entry.get("prefix", loaded.prefix),
            metadata={**loaded.metadata, **entry.get("metadata", {})},
        )
    component = instance.template
    assert component == expected and type(component.params) is Params
    assert list(component.params) == list(expected.params)
    assert list(component.metadata.items()) == list(expected.metadata.items())
    assert [type(v) for v in component.params.values()] == [
        type(v) for v in expected.params.values()
    ]


# --- operator nodes nest at most MAX_DEPTH deep ---------------------------------------

@pytest.mark.parametrize("op", ["concat", "inject", "into_subckt"])
def test_operator_nesting_cap_is_inclusive(tmp_path, op):
    leaf = {"op": "instance", "template": "res", "nets": ["n1", "n2"]}
    circuit = build(tmp_path, dict(BASE, circuit=[nested_node(op, MAX_DEPTH, leaf)]))
    again = import_json(export_json(circuit))
    assert again == circuit and export(again) == export(circuit)
    with pytest.raises(SchemaError, match=f"nest deeper than {MAX_DEPTH} levels") as err:
        build(tmp_path, dict(BASE, circuit=[nested_node(op, MAX_DEPTH + 1, leaf)]))
    inner = {"concat": ".of[0]", "inject": ".into", "into_subckt": ".body[0]"}[op]
    assert err.value.path == "circuit[0]" + inner * (MAX_DEPTH + 1)


# --- bounded builds: BUILD_BUDGET instances and list entries per build -------------

DEV4 = {"name": "dev", "ports": ["a", "b", "c", "d"], "params": {"w": 1e-6}}
_HUGE = 1e300

# node -> the path of the count that goes over the budget
_OVER_BUDGET = {
    "chain": ({"op": "chain", "template": "dev", "n": _HUGE}, "circuit[0].n"),
    "named_chain": ({"op": "named_chain", "template": "dev", "n": "${1e6 * 1e6}", "out_name": "o"},
                    "circuit[0].n"),
    "parallel": ({"op": "parallel", "template": "dev", "n": _HUGE}, "circuit[0].n"),
    "array": ({"op": "array", "template": "dev", "shape": [1e6, 1e6]}, "circuit[0].shape"),
    "array_1d": ({"op": "array", "template": "dev", "shape": ["${1e12}"]}, "circuit[0].shape"),
    "repeat_nets": ({"op": "instance", "template": "dev",
                     "nets": [{"$repeat": "n${_i}", "count": _HUGE}]},
                    "circuit[0].nets[0].count"),
    "inject_of_chain": ({"op": "inject", "p": 1.0, "seed": 1,
                         "into": {"op": "chain", "template": "dev", "n": 1e12}},
                        "circuit[0].into.n"),
}


@pytest.mark.parametrize("case", sorted(_OVER_BUDGET))
def test_a_count_over_the_build_budget_is_a_schema_error_at_its_path(tmp_path, case):
    node, path = _OVER_BUDGET[case]
    doc = {"version": 1, "components": [DEV4], "circuit": [node]}
    with pytest.raises(SchemaError, match="left of the build budget") as err:
        build(tmp_path, doc)
    assert err.value.path == path


def test_nested_injects_stop_at_the_budget(tmp_path, monkeypatch):
    # each level adds about half the instances it holds, so 50 levels over
    # 5 000 would ask for 1.5**50 x 5 000 (about 3e12); a lower budget keeps
    # the instances made before the check small
    monkeypatch.setattr(builddoc, "BUILD_BUDGET", 50_000)
    node = {"op": "chain", "template": "dev", "n": 5000}
    for k in range(50):
        node = {"op": "inject", "p": 0.5, "seed": k, "into": node}
    with pytest.raises(SchemaError, match="left of the build budget") as err:
        build(tmp_path, {"version": 1, "components": [DEV4], "circuit": [node]})
    # an inner inject: 1.5**k x 5 000 passes 50 000 at about the sixth level
    assert err.value.path == "circuit[0]" + ".into" * (50 - 6)


@pytest.mark.parametrize("where", ["ports", "pins"])
def test_a_repeat_count_over_the_budget_in_ports_or_pins_is_a_schema_error(tmp_path, where):
    repeat = [{"$repeat": "p${_i}", "count": "${1e300}"}]
    if where == "ports":
        doc = {"version": 1, "components": [{"name": "big", "ports": repeat}]}
        path = "components[0].ports[0].count"
    else:
        doc = {"version": 1, "subcircuits": [{"name": "S", "pins": repeat}]}
        path = "subcircuits[0].pins[0].count"
    with pytest.raises(SchemaError, match="left of the build budget") as err:
        build(tmp_path, doc)
    assert err.value.path == path


def test_the_budget_is_shared_by_the_whole_build(tmp_path, monkeypatch):
    monkeypatch.setattr(builddoc, "BUILD_BUDGET", 10)
    chain = {"op": "chain", "template": "dev", "n": 6}
    doc = {"version": 1, "components": [DEV4], "circuit": [chain, dict(chain, n=4)]}
    assert len(build(tmp_path, doc).instances) == 10
    doc["circuit"].append({"op": "parallel", "template": "dev", "n": 1})
    with pytest.raises(SchemaError, match=r"count 1 is more than the 0 instances") as err:
        build(tmp_path, doc)
    assert err.value.path == "circuit[2].n"
    # an inject spends the defects it drew: p = 1 draws one per instance
    doc["circuit"] = [{"op": "inject", "p": 1.0, "seed": 1, "into": dict(chain, n=5)}]
    assert len(build(tmp_path, doc).instances) == 10
    doc["circuit"][0]["into"]["n"] = 6
    with pytest.raises(SchemaError, match=r"count 6 is more than the 4 instances") as err:
        build(tmp_path, doc)
    assert err.value.path == "circuit[0]"


@pytest.mark.parametrize("into", [
    lambda n: {"op": "parallel", "template": "dev", "n": n},
    lambda n: {"op": "array", "template": "dev", "shape": [n]},
    lambda n: {"op": "concat", "of": [{"op": "parallel", "template": "dev", "n": n}]},
    lambda n: {"op": "inject", "p": 0.0, "seed": 2,
               "into": {"op": "parallel", "template": "dev", "n": n}},
], ids=["parallel", "array", "concat", "inject"])
def test_an_inject_over_a_listed_batch_makes_no_defect_past_the_budget(
    tmp_path, monkeypatch, into
):
    # p = 1 draws a defect per instance: 6 + 6 is more than a budget of 10,
    # which the draw's check finds before a defect is made
    monkeypatch.setattr(builddoc, "BUILD_BUDGET", 10)
    made = []
    children = manip._children

    def spy(proto, *args):
        made.append(proto.template.name)
        return children(proto, *args)

    monkeypatch.setattr(manip, "_children", spy)
    node = {"op": "inject", "p": 1.0, "seed": 1, "into": into(6)}
    with pytest.raises(SchemaError, match=r"count 6 is more than the 4 instances") as err:
        build(tmp_path, {"version": 1, "components": [DEV4], "circuit": [node]})
    assert err.value.path == "circuit[0]"
    assert "Res" not in made
    # within the budget, the defects are made when the batch is added
    node["into"] = into(5)
    circuit = build(tmp_path, {"version": 1, "components": [DEV4], "circuit": [node]})
    assert [inst.designator for inst in circuit.instances] == [
        f"{prefix}{k}" for k in range(1, 6) for prefix in "RD"
    ]
    assert made.count("Res") == 1  # one call makes all five


def test_each_build_has_its_own_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(builddoc, "BUILD_BUDGET", 10)
    doc = {"version": 1, "components": [DEV4],
           "circuit": [{"op": "chain", "template": "dev", "n": 10}]}
    for _ in range(2):
        assert len(build(tmp_path, doc).instances) == 10
