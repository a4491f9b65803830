"""One name rule: every name and text value netforge prints is one token.

netforge.names owns the rules; the constructors, Params, NamedChain,
import_json, the .model card reader and lint call them. The property at the
end places generated names in every printed position and checks that each
one either re-tokenizes, through the benchmark's own oracles, to what was
built, or is rejected with a netforge error.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforge import (
    Circuit,
    Component,
    NamedChain,
    Params,
    Subcircuit,
    as_net,
    export,
    export_json,
    import_json,
    lint,
    names,
    parse_spice_models,
)
from netforge.core import Model
from netforge.errors import (
    BadNameError,
    EmptyNameError,
    LintErrors,
    NetforgeError,
    NetNameError,
    ParseError,
    SchemaError,
)

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


def _load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


# --- the rules ------------------------------------------------------------------------

@pytest.mark.parametrize("text", ["R1", "nmos", "a.b", "x(1)", "*", "µ", "1k", "-"])
def test_token_accepts_text_without_whitespace_or_equals(text):
    assert names.token(text, "name") == text
    assert names.is_token(text)


@pytest.mark.parametrize("text", ["R 1", "a=b", "=", " x", "x\t", "a\xa0b", "a\u3000b", "a\x1cb"])
def test_token_rejects_whitespace_and_equals(text):
    with pytest.raises(BadNameError, match="must be one token"):
        names.token(text, "name")
    assert not names.is_token(text)


@pytest.mark.parametrize("text", ["", None, 5, b"R1"])
def test_empty_or_non_text_names_are_empty_name_errors(text):
    with pytest.raises(EmptyNameError, match="name must be a non-empty string"):
        names.token(text, "name")
    with pytest.raises(EmptyNameError):
        names.identifier(text)
    assert not names.is_token(text)


@pytest.mark.parametrize("text", ["w", "_x", "vth0", "W_L2"])
def test_identifier_accepts_formula_names(text):
    assert names.identifier(text) == text


@pytest.mark.parametrize("text", ["r x", "k=1", "1w", "a.b", "µ", "a-b", "é"])
def test_identifier_rejects_what_a_formula_cannot_name(text):
    with pytest.raises(BadNameError, match=re.escape("must match [A-Za-z_][A-Za-z0-9_]*")):
        names.identifier(text)


def test_net_and_prefix_rules():
    assert names.net("net_0.1") == "net_0.1"
    for bad in ("1abc", "a b", "", 3):
        with pytest.raises(NetNameError, match="invalid pin name"):
            names.net(bad, "pin")
    assert names.prefix("MN") == "MN"
    with pytest.raises(BadNameError, match="alphabetic"):
        names.prefix("R2")


def test_error_classes_keep_their_old_bases():
    assert issubclass(BadNameError, NetforgeError) and issubclass(BadNameError, ValueError)
    assert issubclass(EmptyNameError, BadNameError) and issubclass(EmptyNameError, TypeError)
    assert issubclass(NetNameError, BadNameError)


def test_a_non_decimal_digit_is_a_net_name_error():
    # "²".isdigit() is true, but int() cannot read it
    with pytest.raises(NetNameError):
        as_net("²")


# --- the holes a netlist line could fall through ------------------------------------

def _resistor(name="res", params=None):
    return Component(name, ["a", "b"], params if params is not None else {"r": 1}, prefix="R")


def test_a_template_name_with_a_space_is_rejected():
    # would export `R1 a 0 R x model=foo bar=1`
    with pytest.raises(BadNameError, match="component name 'R x'"):
        _resistor("R x")


def test_a_text_value_with_a_space_and_equals_is_a_lint_error():
    circuit = Circuit()
    circuit += _resistor(params={"model": "foo bar=1"}) @ ["a", "0"]
    findings = [f for f in lint(circuit).errors]
    assert [(f.code, f.location) for f in findings] == [("BAD_TOKEN", "R1")]
    assert "text value 'foo bar=1' of parameter 'model'" in findings[0].message
    for dialect in ("spice", "spectre"):
        with pytest.raises(LintErrors, match="BAD_TOKEN"):
            export(circuit, dialect)


def test_a_designator_set_from_python_is_a_lint_error():
    # would export `R 1 a 0 R r=1`
    circuit = Circuit()
    inst = _resistor() @ ["a", "0"]
    inst.designator = "R 1"
    circuit += inst
    report = lint(circuit)
    assert [(f.code, f.location) for f in report.errors] == [("BAD_TOKEN", "R 1")]
    with pytest.raises(LintErrors):
        export(circuit)


@pytest.mark.parametrize("designator", ["*1", "+1", ".1", ";1", "1R", "$1", "µ1"])
def test_a_designator_that_does_not_start_like_a_prefix_is_a_lint_error(designator):
    # "*1" would export `*1 a 0 res r=1`, which SPICE reads as a comment line
    circuit = Circuit()
    inst = _resistor() @ ["a", "0"]
    inst.designator = designator
    circuit += inst
    report = lint(circuit)
    assert [(f.code, f.location) for f in report.errors] == [("BAD_TOKEN", designator)]
    assert "must start with [A-Za-z_]" in report.errors[0].message
    for dialect in ("spice", "spectre"):
        with pytest.raises(LintErrors, match="BAD_TOKEN"):
            export(circuit, dialect)
    raw = json.loads(export_json(circuit))
    with pytest.raises(SchemaError) as info:
        import_json(json.dumps(raw))
    assert info.value.path == "instances[0].designator"


def test_designator_rule():
    for good in ("R1", "_x", "MN.1", "Xa(1)"):
        assert names.is_designator(good)
        assert names.designator(good) == good
    for bad in ("*1", "1R", "R 1", "", None, 5):
        assert not names.is_designator(bad)
    with pytest.raises(BadNameError, match=re.escape("must start with [A-Za-z_]")):
        names.designator("*1")
    with pytest.raises(BadNameError, match="must be one token"):
        names.designator("R 1")
    with pytest.raises(EmptyNameError):
        names.designator("")


def test_a_model_name_with_a_space_is_rejected_also_from_json():
    # would export `.model bad name nmos`
    with pytest.raises(BadNameError, match="model name 'bad name'"):
        Model("bad name", "nmos")
    document = {"version": 1, "models": {"bad name": {"base_type": "nmos"}}}
    with pytest.raises(SchemaError) as info:
        import_json(json.dumps(document))
    assert info.value.path == 'models["bad name"]'


@pytest.mark.parametrize("key", ["r x", "k=1 z"])
def test_a_parameter_name_that_is_not_an_identifier_is_rejected(key):
    # would export `R1 a 0 R r x=1 k=1 z=2`
    with pytest.raises(BadNameError, match="parameter name"):
        Params({key: 1})
    params = Params({"r": 1})
    with pytest.raises(BadNameError):
        params[key] = 2
    assert params == {"r": 1}


def test_a_model_base_type_with_a_space_is_rejected():
    # would export `.model m nm os`
    with pytest.raises(BadNameError, match="model base type 'nm os'"):
        Model("m", "nm os")


def test_named_chain_out_name_goes_through_the_rules():
    with pytest.raises(EmptyNameError):
        NamedChain(_resistor(), 2, out_name="")
    with pytest.raises(BadNameError, match="out_name"):
        NamedChain(_resistor(), 2, out_name="O UT")
    with pytest.raises(NetNameError):
        NamedChain(_resistor(), 2, out_name="1x")


def test_lint_checks_a_shared_parameter_map_once():
    circuit = Circuit()
    res = _resistor(params={"note": "two words"})
    for nets in (["a", "b"], ["b", "a"], ["a", "b"]):
        circuit += res @ nets
    bad = [f for f in lint(circuit) if f.code == "BAD_TOKEN"]
    assert [(f.location, f.message) for f in bad] == [
        ("R1", "text value 'two words' of parameter 'note' is not one token")
    ]


def test_model_and_subcircuit_text_values_are_linted_at_their_definition():
    circuit = Circuit()
    circuit += Model("m", "nmos", {"tag": "a b"})
    sub = Subcircuit("S", ["p"], {"mode": ""})
    sub += _resistor() @ ["p", "p"]
    circuit += sub @ ["n"]
    circuit += _resistor() @ ["n", "0"]
    bad = [(f.location, f.message) for f in lint(circuit) if f.code == "BAD_TOKEN"]
    assert bad == [
        ("S", "text value '' of parameter 'mode' is not one token"),
        ("m", "text value 'a b' of parameter 'tag' is not one token"),
    ]


@pytest.mark.parametrize(
    "card, line",
    [
        (".model m nmos (tox.e=1)", 1),
        ("* models\n.model m nmos\n+ vth=0.4 k-1=2", 2),
        (".model a=b nmos", 1),
    ],
)
def test_a_rejected_model_card_name_is_a_parse_error_with_its_line(card, line):
    with pytest.raises(ParseError) as info:
        parse_spice_models(card)
    assert info.value.line == line


# --- property: every placed name prints as one token, or is rejected ------------------

_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2003\u2028\u2029\u202f\u205f\u3000"
_ALPHABET = "".join(map(chr, range(0x21, 0x7F))) + _WHITESPACE
_TEXT = st.text(_ALPHABET, max_size=6)
_NAMES = st.one_of(
    _TEXT,
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
    # one whitespace character or "=" somewhere, so that every place sees rejections
    st.tuples(_TEXT, st.sampled_from(_WHITESPACE + "="), _TEXT).map("".join),
)

@given(st.lists(_NAMES | st.sampled_from(["R1", "X\nY", "\nR1", "R1\n", None, 5]), max_size=6))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_all_designators_is_the_rule_of_each(texts):
    assert names.all_designators(texts) == all(map(names.is_designator, texts))
    joined = names.designator_lines(texts)
    assert joined == ("\n".join(texts) if names.all_designators(texts) else None)


def _is_net(text) -> bool:
    try:
        return names.net(text) == text
    except NetNameError:
        return False


@given(st.lists(_NAMES | st.sampled_from(["a.b", "x\ny", "\nn1", "n1\n", "", "0", None, 5]),
                max_size=6))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_all_nets_is_the_net_rule_of_each(texts):
    assert names.all_nets(texts) == all(map(_is_net, texts))


# each place, with the name it has when another place is drawn
DEFAULTS = {
    "template": "res",
    "model": "m",
    "subcircuit": "cell",
    "parameter": "r",
    "designator": "R1",
    "text": "fast",
}
CONSTRUCTED = ("template", "model", "subcircuit", "parameter")


def _one_token(text):
    """The token rule, written out: non-empty, no whitespace, no '='."""
    return text != "" and not any(c.isspace() or c == "=" for c in text)


def _accepted(place, text):
    if place == "parameter":
        return re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text) is not None
    if place == "designator":
        # the first token of its line, so it must not start a comment or a card
        return _one_token(text) and re.match(r"[A-Za-z_]", text) is not None
    return _one_token(text)


def _circuit(place, text):
    """A model, a subcircuit holding one resistor, and two top-level
    instances, with `text` in `place` and the defaults elsewhere."""
    name = {**DEFAULTS, place: text}
    circuit = Circuit(rng_seed=3)
    circuit += Model(name["model"], "nmos", {"vth": 0.4})
    res = Component(
        name["template"], ["a", "b"], {name["parameter"]: 1.5, "kind": name["text"]}, prefix="R"
    )
    sub = Subcircuit(name["subcircuit"], ["p", "q"], {"g": 2})
    inner = res @ ["p", "q"]
    inner.designator = name["designator"]  # alone in its scope, so never a duplicate
    sub += inner
    sub.fix()
    circuit += sub @ ["n1", "n2"]
    circuit += res(["n1", "n2"], {name["parameter"]: 2.5})
    return circuit, name


def _instance_fields(name):
    """(designator, nets, master, parameters) of each instance line, in order."""
    values = {name["parameter"]: "1.5", "kind": name["text"]}
    return [
        (name["designator"], ["p", "q"], name["template"], values),
        ("X1", ["n1", "n2"], name["subcircuit"], {}),
        ("R1", ["n1", "n2"], name["template"], {**values, name["parameter"]: "2.5"}),
    ]


def _check_lines(circuit, name):
    want = _instance_fields(name)
    spice = oracles.spice_body(export(circuit, "spice"))
    # .model, .subckt, the inner resistor, .ends, then the top level
    got = [oracles.spice_instance(spice[k], 2) for k in (2, 4, 5)]
    assert [(d, n, m, p) for d, n, m, p in got] == want
    spectre = oracles.spectre_body(export(circuit, "spectre"))
    # model, subckt, parameters, the inner resistor, ends, then the top level
    got = [oracles.spectre_instance(spectre[k]) for k in (3, 5, 6)]
    assert [(d, n, m, p) for d, n, m, p in got] == want


def _renamed(mapping, old, new):
    return {new if key == old else key: value for key, value in mapping.items()}


def _import_rejects(place, text):
    """Put `text` in `place` of a good circuit's JSON IR: import_json must
    raise a SchemaError at the path of that name."""
    raw = json.loads(export_json(_circuit("text", DEFAULTS["text"])[0]))
    key = json.dumps(text)
    if place == "template":
        raw["components"] = _renamed(raw["components"], "res", text)
        path = f"components[{key}]"
    elif place == "model":
        raw["models"] = _renamed(raw["models"], "m", text)
        path = f"models[{key}]"
    elif place == "subcircuit":
        raw["subcircuits"] = _renamed(raw["subcircuits"], "cell", text)
        path = f"subcircuits[{key}]"
    elif place == "parameter":
        params = raw["components"]["res"]["params"]
        raw["components"]["res"]["params"] = _renamed(params, "r", text)
        path = f"components.res.params[{key}]"
    else:
        raw["subcircuits"]["cell"]["body"][0]["designator"] = text
        path = "subcircuits.cell.body[0].designator"
    with pytest.raises(SchemaError) as info:
        import_json(json.dumps(raw))
    assert info.value.path == path


@given(place=st.sampled_from(sorted(DEFAULTS)), text=_NAMES)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_every_placed_name_prints_as_one_token_or_is_rejected(place, text):
    # a name equal to another definition's would be a clash of namespaces,
    # not of tokens: a template and a subcircuit may not share a name
    if place in ("template", "subcircuit") and text in (DEFAULTS["template"], DEFAULTS["subcircuit"]):
        return
    accepted = _accepted(place, text)
    try:
        circuit, name = _circuit(place, text)
    except NetforgeError:
        assert place in CONSTRUCTED and not accepted
        _import_rejects(place, text)
        return
    report = lint(circuit)
    if accepted:
        assert not report.has_errors, str(report)
        _check_lines(circuit, name)
        again = import_json(export_json(circuit))
        assert again == circuit
        assert export_json(again) == export_json(circuit)
        return
    assert place in ("designator", "text")
    assert {f.code for f in report.errors} == {"BAD_TOKEN"}
    for dialect in ("spice", "spectre"):
        with pytest.raises(LintErrors):
            export(circuit, dialect)
    if place == "designator":
        _import_rejects(place, text)
    else:
        # text that can never print as one token still loads, and lint reports it
        again = import_json(export_json(circuit))
        assert {f.code for f in lint(again).errors} == {"BAD_TOKEN"}
