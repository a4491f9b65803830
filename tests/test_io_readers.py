import io
import json

import pytest

from netforge.errors import (
    EmptyNameError,
    MultipleModulesError,
    NetforgeError,
    NoModuleError,
    NoPortsError,
    ParseError,
    SchemaError,
    UnknownDirectiveError,
)
from netforge.formula import Formula
from netforge.io_readers import (
    ParamFile,
    load_param_file,
    load_veriloga,
    parse_spice_models,
    parse_veriloga,
    read_param_file,
)
from netforge.params import Params, ParamSet, RandomSpec

# --- parameter files -----------------------------------------------------------

def test_si_suffix_capacitor():
    pf = read_param_file('{"cap": {"TT": {"C": "1p"}}}')
    assert pf["cap"]["TT"]["C"] == 1e-12


# independent oracle: expected values written as plain scientific literals
@pytest.mark.parametrize(
    "suffix,expected",
    [
        ("f", 2.5e-15),
        ("p", 2.5e-12),
        ("n", 2.5e-9),
        ("u", 2.5e-6),
        ("m", 2.5e-3),
        ("k", 2.5e3),
        ("meg", 2.5e6),
        ("g", 2.5e9),
        ("t", 2.5e12),
        # an exponent and a suffix add up
        ("e-3k", 2.5),
        ("E2meg", 2.5e8),
    ],
)
def test_all_si_suffixes(suffix, expected):
    pf = read_param_file(json.dumps({"d": {"TT": {"x": f"2.5{suffix}"}}}))
    assert pf["d"]["TT"]["x"] == expected


def test_si_suffix_case_insensitive():
    pf = read_param_file('{"d": {"TT": {"a": "2.5N", "b": "3MEG"}}}')
    assert pf["d"]["TT"]["a"] == 2.5e-9
    assert pf["d"]["TT"]["b"] == 3e6


def test_empty_param_file():
    pf = read_param_file("{}")
    assert len(pf) == 0
    assert pf == ParamFile()


def test_device_with_formula_and_distribution():
    text = json.dumps(
        {
            "nmos": {
                "TT": {
                    "w": 0.135,
                    "vth": {"$gauss": [0.4, 0.1]},
                    "test": {"$formula": "1 / vth"},
                }
            }
        }
    )
    pf = read_param_file(text)
    params = pf["nmos"]["TT"]
    assert params["w"] == 0.135
    assert params["vth"] == RandomSpec("gauss", 0.4, 0.1)
    assert params["test"] == Formula("1 / vth")


def test_uniform_and_lognormal_directives():
    pf = read_param_file(
        '{"d": {"TT": {"a": {"$uniform": [1, 2]}, "b": {"$lognormal": [0, 0.5]}}}}'
    )
    assert pf["d"]["TT"]["a"] == RandomSpec("uniform", 1.0, 2.0)
    assert pf["d"]["TT"]["b"] == RandomSpec("lognormal", 0.0, 0.5)


def test_plain_text_values_pass_through():
    pf = read_param_file('{"d": {"TT": {"model": "bsim4_rf"}}}')
    assert pf["d"]["TT"]["model"] == "bsim4_rf"


def test_unknown_directive_rejected_with_path():
    with pytest.raises(UnknownDirectiveError) as err:
        read_param_file('{"d": {"TT": {"x": {"$gaus": [1, 2]}}}}')
    assert err.value.path == "d.TT.x"


def test_malformed_distribution_args():
    with pytest.raises(SchemaError):
        read_param_file('{"d": {"TT": {"x": {"$gauss": [1]}}}}')
    with pytest.raises(SchemaError):
        read_param_file('{"d": {"TT": {"x": {"$gauss": [1, "a"]}}}}')
    with pytest.raises(SchemaError):
        read_param_file('{"d": {"TT": {"x": {"$gauss": [1, -2]}}}}')


# a parameter value -> its SchemaError at d.TT.x
_BAD_VALUES = {
    "number past the float range": ("1e400", "number must be finite, got inf"),
    "SI number past the float range": ('"1e308k"', "number out of range: '1e308k'"),
    "formula not a string": ('{"$formula": 1}', "$formula expects a string"),
}


@pytest.mark.parametrize("case", list(_BAD_VALUES))
def test_a_bad_value_is_a_schema_error_at_its_path(case):
    raw, message = _BAD_VALUES[case]
    with pytest.raises(SchemaError) as err:
        read_param_file('{"d": {"TT": {"x": %s}}}' % raw)
    assert str(err.value) == f"d.TT.x: {message}"


def test_bad_formula_reported_as_schema_error():
    with pytest.raises(SchemaError) as err:
        read_param_file('{"d": {"TT": {"x": {"$formula": "1 +"}}}}')
    assert err.value.path == "d.TT.x"


def test_bool_and_null_rejected():
    with pytest.raises(SchemaError):
        read_param_file('{"d": {"TT": {"x": true}}}')
    with pytest.raises(SchemaError):
        read_param_file('{"d": {"TT": {"x": null}}}')


def test_schema_shape_errors():
    with pytest.raises(SchemaError):
        read_param_file("[1, 2]")
    with pytest.raises(SchemaError):
        read_param_file('{"d": 5}')
    with pytest.raises(SchemaError):
        read_param_file('{"d": {"TT": 5}}')


def test_bad_json_reports_line():
    with pytest.raises(ParseError) as err:
        read_param_file('{\n  "d": {\n}')
    assert err.value.line is not None


def test_a_json_integer_of_too_many_digits_is_a_parse_error(tmp_path):
    text = '{"d": {"TT": {"x": %s}}}' % ("1" * 5000)
    with pytest.raises(ParseError, match="^invalid JSON: .*integer"):
        read_param_file(text)
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="^invalid JSON: .*integer"):
        load_param_file(path)


def test_json_nested_too_deeply_is_a_parse_error():
    with pytest.raises(ParseError, match="^invalid JSON: nested too deeply$"):
        read_param_file("[" * 100000 + "]" * 100000)


def test_reads_bytes_and_streams():
    raw = b'{"d": {"TT": {"x": 1}}}'
    assert read_param_file(raw)["d"]["TT"]["x"] == 1
    assert read_param_file(io.BytesIO(raw))["d"]["TT"]["x"] == 1


def test_unsupported_format_rejected():
    with pytest.raises(ValueError):
        read_param_file("{}", format="yaml")


def test_load_param_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"cap": {"TT": {"C": "1p"}}}')
    assert load_param_file(path)["cap"]["TT"]["C"] == 1e-12


def test_unknown_device_lists_available():
    pf = read_param_file('{"cap": {"TT": {"C": 1}}}')
    with pytest.raises(KeyError, match="cap"):
        pf["res"]


def test_an_unknown_device_is_a_netforge_error_printed_without_quotes():
    with pytest.raises(NetforgeError) as info:
        ParamFile({"a": {"TT": {"x": 1}}})["c"]
    assert isinstance(info.value, KeyError)
    assert str(info.value) == "unknown device 'c'; available: ['a']"


def test_param_file_is_a_dict_of_param_sets():
    pf = ParamFile({"a": {"TT": {"x": 1}}})
    pf["b"] = {"FF": {"y": "nch"}}
    assert all(isinstance(corners, ParamSet) for corners in pf.values())
    assert isinstance(pf["b"]["FF"], Params) and pf["b"]["FF"]["y"] == "nch"
    assert "a" in pf and "c" not in pf and pf.get("c") is None
    assert list(pf) == ["a", "b"] and len(pf) == 2
    with pytest.raises(KeyError, match=r"unknown device 'c'; available: \['a', 'b'\]") as info:
        pf["c"]
    assert isinstance(info.value, NetforgeError)
    # equal as ParamSet and Params are: whatever the device order
    assert pf == ParamFile({"b": {"FF": {"y": "nch"}}, "a": {"TT": {"x": 1}}})
    assert pf != ParamFile({"a": {"TT": {"x": 2}}, "b": {"FF": {"y": "nch"}}})
    assert repr(pf) == "ParamFile(devices=['a', 'b'])"


# every way into a ParamFile: the constructor, item assignment, update (a
# mapping, pairs or keywords), setdefault and |=
_DEVICE_INSERTIONS = {
    "constructor": lambda pf, devices: ParamFile(devices),
    "setitem": lambda pf, devices: [pf.__setitem__(k, v) for k, v in devices.items()] and pf,
    "update": lambda pf, devices: pf.update(devices) or pf,
    "update pairs": lambda pf, devices: pf.update(list(devices.items())) or pf,
    "update keywords": lambda pf, devices: pf.update(**devices) or pf,
    "setdefault": lambda pf, devices: [pf.setdefault(k, v) for k, v in devices.items()] and pf,
    "ior": lambda pf, devices: pf.__ior__(devices),
    "or": lambda pf, devices: pf | devices,
}


@pytest.mark.parametrize("insert", list(_DEVICE_INSERTIONS))
def test_param_file_coerces_every_insertion(insert):
    devices = {"a": {"TT": {"x": 1}}, "b": ParamSet({"FF": {"y": "nch"}})}
    pf = _DEVICE_INSERTIONS[insert](ParamFile(), devices)
    assert type(pf) is ParamFile and list(pf) == ["a", "b"]
    assert all(type(corners) is ParamSet for corners in pf.values())
    assert type(pf["a"]["TT"]) is Params and pf["a"].corner("TT") == {"x": 1}
    assert pf == ParamFile(devices)
    with pytest.raises(EmptyNameError):  # a corner name ParamSet rejects
        _DEVICE_INSERTIONS[insert](ParamFile(), {"a": {"": {"x": 1}}})


def test_param_file_copy_is_a_param_file():
    pf = ParamFile({"a": {"TT": {"x": 1}}})
    copied = pf.copy()
    assert type(copied) is ParamFile and copied == pf and copied["a"] is pf["a"]
    copied["b"] = {"FF": {"y": 2}}
    assert list(pf) == ["a"]


@pytest.mark.parametrize("insert", sorted(set(_DEVICE_INSERTIONS) - {"update keywords"}))
@pytest.mark.parametrize("name", ["", 5, None])
def test_param_file_rejects_a_device_name_that_is_not_text(insert, name):
    with pytest.raises(EmptyNameError, match="device name must be a non-empty string"):
        _DEVICE_INSERTIONS[insert](ParamFile(), {name: {"TT": {"x": 1}}})


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"": {"TT": {"x": 1}}}', '$[""]'),
        ('{"d": {"": {"x": 1}}}', 'd[""]'),
        ('{"d": {"TT": {"x": 1}, "": {"x": true}}}', 'd[""]'),
    ],
)
def test_an_empty_device_or_corner_name_is_a_schema_error_at_its_path(text, path):
    with pytest.raises(SchemaError) as err:
        read_param_file(text)
    assert err.value.path == path
    assert "name must be a non-empty string" in str(err.value)


# --- SPICE .model cards -----------------------------------------------------------

def test_single_model_card():
    models = parse_spice_models(".model custom_nmos nmos (TYPE=1)")
    assert len(models) == 1
    model = models[0]
    assert model.name == "custom_nmos"
    assert model.base_type == "nmos"
    assert dict(model.params) == {"TYPE": 1.0}


def test_empty_text_yields_no_models():
    assert parse_spice_models("") == []
    assert parse_spice_models("* just a comment\n") == []


def test_continuation_lines_folded():
    # hand-parsed oracle: two params on one logical card
    models = parse_spice_models(".model m1 nmos (vth=0.4\n+ w=0.135)")
    assert dict(models[0].params) == {"vth": 0.4, "w": 0.135}


def test_parens_optional_and_spaced_equals():
    models = parse_spice_models(".model m1 nmos vth = 0.4 w= 0.135")
    assert dict(models[0].params) == {"vth": 0.4, "w": 0.135}


def test_bare_flags_become_text_one():
    models = parse_spice_models(".model m1 nmos (binned vth=0.4)")
    assert models[0].params["binned"] == "1"


def test_si_values_in_model_cards():
    models = parse_spice_models(".model m1 nmos (lmin=45n)")
    assert models[0].params["lmin"] == 45e-9


def test_non_numeric_values_stay_text():
    models = parse_spice_models(".model m1 nmos (version=4.5.0)")
    assert models[0].params["version"] == "4.5.0"


def test_multiple_cards_in_order_and_other_lines_ignored():
    text = """\
* PDK fragment
.param supply=1.2
.model n1 nmos (vth=0.4)
.MODEL p1 pmos (vth=-0.4)
.end
"""
    models = parse_spice_models(text)
    assert [m.name for m in models] == ["n1", "p1"]
    assert models[1].base_type == "pmos"


def test_malformed_card_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_spice_models("* ok\n.model broken\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_spice_models(".model m1 nmos (vth=0.4")  # unbalanced parens
    with pytest.raises(ParseError):
        parse_spice_models("+ w=1\n")
    with pytest.raises(ParseError, match="malformed parameter 'a=' in .model m1") as err:
        parse_spice_models("\n.model m1 nmos (a=)")
    assert err.value.line == 2


def test_whitespace_insensitive():
    a = parse_spice_models(".model m1 nmos (vth=0.4 w=0.1)")
    b = parse_spice_models(".model   m1   nmos   ( vth = 0.4\n+   w = 0.1 )")
    assert a == b


# --- Verilog-A signatures -----------------------------------------------------------

COUNTER_VA = """\
module counter (clk, out);
  parameter real width = 8;
endmodule
"""


def test_counter_signature():
    comp = parse_veriloga(COUNTER_VA)
    assert comp.name == "counter"
    assert comp.arity == 2
    assert all(net.is_unconnected for net in comp.ports)
    assert dict(comp.params) == {"width": 8}
    assert comp.metadata["source"] == "verilog-a"
    assert comp.metadata["port_names"] == "clk,out"


def test_module_without_ports_rejected():
    with pytest.raises(NoPortsError):
        parse_veriloga("module m (); endmodule")
    with pytest.raises(NoPortsError):
        parse_veriloga("module m; endmodule")


def test_two_modules_rejected():
    text = "module a (p); endmodule\nmodule b (q); endmodule"
    with pytest.raises(MultipleModulesError):
        parse_veriloga(text)


def test_an_unparseable_port_is_a_parse_error():
    with pytest.raises(ParseError, match="unparseable port declaration '7'"):
        parse_veriloga("module m (a, 7); endmodule")


def test_a_default_that_is_not_a_number_stays_text():
    comp = parse_veriloga("module m (a); parameter real g = 2*x; parameter real h = 1e999; endmodule")
    assert dict(comp.params) == {"g": "2*x", "h": "1e999"}


def test_no_module_rejected():
    with pytest.raises(NoModuleError):
        parse_veriloga("// nothing here")


def test_comments_stripped_before_parsing():
    text = """\
// module fake (a);
/* module fake2 (b); endmodule */
module real_one (x, y);
  parameter real g = 2.5; // gain
endmodule
"""
    comp = parse_veriloga(text)
    assert comp.name == "real_one"
    assert comp.params["g"] == 2.5


def test_ansi_direction_keywords_tolerated():
    comp = parse_veriloga("module m (input electrical a, output electrical b); endmodule")
    assert comp.metadata["port_names"] == "a,b"


def test_multiline_port_list():
    comp = parse_veriloga("module m (a,\n  b,\n  c);\nendmodule")
    assert comp.arity == 3


def test_integer_parameters_become_ints():
    comp = parse_veriloga("module m (a); parameter integer bits = 16; endmodule")
    assert comp.params["bits"] == 16
    assert isinstance(comp.params["bits"], int)


def test_prefix_derived_from_module_name():
    comp = parse_veriloga("module counter (a); endmodule")
    assert comp.prefix == "C"


def test_load_veriloga(tmp_path, data_dir):
    comp = load_veriloga(data_dir / "counter.va")
    assert comp.name == "counter"
    assert comp.arity == 1
    assert comp.params["threshold"] == 0.5
    assert comp.params["width"] == 16
