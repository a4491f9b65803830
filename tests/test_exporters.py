import json
import os
import re

import pytest

from netforge.core import (
    Circuit,
    Component,
    Instance,
    Model,
    Subcircuit,
    UnresolvedTemplate,
)
from netforge.errors import (
    DuplicateDialectError,
    DuplicateSubcircuitError,
    LintErrors,
    NetforgeError,
    SchemaError,
    UnknownDialectError,
    VersionMismatchError,
)
from netforge.exporters import (
    _seed_exporter,
    export,
    export_json,
    export_to_file,
    exporter_for,
    import_json,
    lint,
    register_exporter,
    registered_dialects,
    write_param_file,
)
from netforge.formula import Formula
from netforge.io_readers import ParamFile, read_param_file
from netforge.manip import Chain
from netforge.numfmt import format_number
from netforge.params import Params, gauss, uniform

from sample_circuits import (
    capacitor_circuit,
    crossbar_circuit,
    defect_chain_circuit,
    duplicate_subckt_circuit,
    long_cycle_formulas,
    ro_circuit,
)


# --- number formatting ------------------------------------------------------------

@pytest.mark.parametrize(
    "value,expected",
    [
        (1e-12, "1e-12"),
        (0.135, "0.135"),
        (1.0, "1"),
        (-42.0, "-42"),
        (2.5e-9, "2.5e-9"),
        (1e20, "1e20"),
        (-0.42, "-0.42"),
        (0.1 + 0.2, "0.3"),  # 12-digit cap kills the ...0004 tail
    ],
)
def test_format_number(value, expected):
    assert format_number(value) == expected


def test_format_number_rejects_non_finite():
    with pytest.raises(ValueError):
        format_number(float("inf"))


# --- SPICE layout -------------------------------------------------------------------

def test_capacitor_line_format_oracle():
    # assembled by hand from the layout rule:
    # designator, nets, master, k=v
    text = export(capacitor_circuit(), "spice")
    assert text.splitlines()[1] == "C1 0 1 Cap C=1e-12"


def test_empty_circuit_is_title_and_end():
    assert export(Circuit(), "spice") == "Generated netlist\n.end\n"


def test_title_option():
    text = export(Circuit(), "spice", options={"title": "my title"})
    assert text.startswith("my title\n")


def test_model_lines_and_order():
    circuit = Circuit()
    circuit += Model("custom_nmos", "nmos", {"TYPE": 1})
    circuit += Model("plain", "res")
    text = export(circuit, "spice")
    lines = text.splitlines()
    assert lines[1] == ".model custom_nmos nmos (TYPE=1)"
    assert lines[2] == ".model plain res"


def test_subckt_block_layout():
    inv = Subcircuit("INV", ["in", "out"], {"strength": 1})
    nmos = Component("nmos", ["d", "g", "s", "b"], prefix="M")
    inv += nmos @ ["out", "in", "GND", "GND"]
    circuit = Circuit()
    circuit += inv @ ["a", "b"]
    lines = export(circuit, "spice").splitlines()
    assert lines[1] == ".subckt INV in out strength=1"
    assert lines[2] == "M1 out in GND GND nmos"
    assert lines[3] == ".ends INV"
    # defaults stay on the .subckt header; the instance line passes overrides
    assert lines[4] == "X1 a b INV"


def test_subckt_instance_line_carries_overrides_only():
    sub = Subcircuit("S", ["p"], {"gain": 2})
    circuit = Circuit()
    circuit += (sub % {"gain": 5}) @ ["n"]
    lines = export(circuit, "spice").splitlines()
    assert lines[1] == ".subckt S p gain=2"
    assert lines[3] == "X1 n S gain=5"


def test_directives_emitted_before_end():
    circuit = capacitor_circuit()
    circuit.directives.append(".tran 1n 100n")
    lines = export(circuit, "spice").splitlines()
    assert lines[-2] == ".tran 1n 100n"
    assert lines[-1] == ".end"


def test_unconnected_blocks_export():
    cap = Component("Cap", [0, 1])
    circuit = Circuit()
    circuit += cap @ ["", "x"]
    with pytest.raises(LintErrors) as err:
        export(circuit, "spice")
    assert any(f.code == "UNCONNECTED" for f in err.value.report)


def test_instance_without_designator_is_refused_when_laid_out():
    circuit = capacitor_circuit()
    circuit.instances.append(Instance(Component("Cap", [0, 1]), (0, 1)))  # not inserted
    with pytest.raises(NetforgeError, match="instance of 'Cap' has no designator"):
        _seed_exporter(circuit, "spectre")


NO_DESIGNATOR = (
    "instance of 'r' has no designator; "
    "insert it through a circuit or subcircuit before exporting"
)


@pytest.mark.parametrize("scope", ["", "S"])
def test_lint_reports_an_instance_without_designator(scope):
    r = Component("r", ["a", "b"])
    circuit = Circuit()
    if scope:
        sub = Subcircuit(scope, ["n1", "n2"])
        sub += r @ ["n1", "n2"]
        sub.body.append(Instance(r, ("n1", "n2")))  # not inserted
        circuit += sub @ ["n1", "n2"]
    else:
        circuit += r @ ["n1", "n2"]
        circuit.instances.append(Instance(r, ("n1", "n2")))  # not inserted
    report = lint(circuit)
    location = f"{scope}/?" if scope else "?"
    assert [(f.code, f.location, f.message) for f in report.errors] == [
        ("BAD_TOKEN", location, NO_DESIGNATOR)
    ]
    with pytest.raises(LintErrors, match=re.escape(NO_DESIGNATOR)):
        export(circuit, "spice")


def test_evaluation_errors_propagate_from_export():
    from netforge.errors import NonFiniteResultError

    # a name nothing supplies is found by lint, before any value is computed
    circuit = Circuit()
    circuit += Component("r", ["a", "b"], {"R": Formula("nope")}) @ ["n1", "n1"]
    with pytest.raises(LintErrors) as err:
        export(circuit, "spice")
    [finding] = err.value.report.errors
    assert finding.code == "UNRESOLVED_PARAM" and "'nope'" in finding.message

    # an error that depends on the values still comes from evaluation
    circuit = Circuit()
    circuit += Component("r", ["a", "b"], {"R": Formula("sqrt(0 - 1)")}) @ ["n1", "n1"]
    assert not lint(circuit).has_errors
    with pytest.raises(NonFiniteResultError):
        export(circuit, "spice")


def _blk_circuit(formula="w*2", context=None):
    """A subcircuit `blk` with its own parameter w, whose body reads `formula`."""
    r = Component("r", ["a", "b"], {"R": Formula(formula)}, prefix="R")
    blk = Subcircuit("blk", ["p", "q"], {"w": 1})
    blk += r @ ["p", "q"]
    if context is not None:
        blk.body[0].context = context
    circuit = Circuit()
    circuit += blk @ ["n1", "n2"]
    circuit += blk @ ["n1", "n2"]
    return circuit


def test_lint_reports_a_formula_name_nothing_supplies():
    report = lint(_blk_circuit())
    assert [(f.code, f.location) for f in report.errors] == [("UNRESOLVED_PARAM", "blk/R1")]
    assert "'w'" in report.errors[0].message and "'R'" in report.errors[0].message
    for dialect in ("spice", "spectre"):
        with pytest.raises(LintErrors, match="UNRESOLVED_PARAM"):
            export(_blk_circuit(), dialect)


def test_a_formula_name_the_line_context_supplies_is_resolved():
    circuit = _blk_circuit("w*2 + _i", context={"w": 3, "_i": 1})
    assert not lint(circuit).has_errors
    assert "R1 p q r R=7\n" in export(circuit, "spice")


@pytest.mark.parametrize("where", ["model", "subckt", "override", "separate-overrides", "chain"])
def test_unresolved_param_is_reported_once_per_map(where):
    r = Component("r", ["a", "b"], prefix="R")
    circuit = Circuit()
    reads = {"k": Formula("2 * x + y"), "y": 1}
    if where == "model":
        circuit += Model("m", "res", reads)
        circuit += r @ ["n1", "n1"]
        locations = ["m"]
    elif where == "subckt":
        blk = Subcircuit("blk", ["p"], reads)
        blk += r @ ["p", "p"]
        circuit += blk @ ["n1"]
        locations = ["blk"]
    elif where == "override":
        circuit += (r % reads) @ ["n1", "n1"]
        circuit += (r % reads) @ ["n1", "n1"]
        locations = ["R1"]  # both lines hold `reads`' objects: one run, one merged map
    elif where == "separate-overrides":
        circuit += (r % {"k": Formula("2 * x + y"), "y": 1}) @ ["n1", "n1"]
        circuit += (r % {"k": Formula("2 * x + y"), "y": 1}) @ ["n1", "n1"]
        locations = ["R1", "R2"]  # equal maps of other objects: a merged map per line
    else:
        circuit += Chain(Component("q", ["a", "b"], reads, prefix="R"), 3)
        locations = ["R1"]  # the three lines share the template's map
    found = [(f.code, f.location) for f in lint(circuit).errors]
    assert found == [("UNRESOLVED_PARAM", location) for location in locations]


@pytest.mark.parametrize("where", ["instance", "model", "subckt", "override"])
def test_lint_reports_a_formula_cycle_once_per_map(where):
    # lint read such a circuit clean, and export then raised CyclicDependencyError
    loop = {"x": Formula("y"), "y": Formula("x")}
    r = Component("r", ["a", "b"], {"R": 1}, prefix="R")
    circuit = Circuit()
    if where == "instance":
        comp = Component("loop", ["a", "b"], loop)
        circuit += comp @ ["n1", "n2"]
        circuit += comp @ ["n1", "n2"]
        location = "L1"  # the two lines share the template's map
    elif where == "model":
        circuit += Model("m", "res", loop)
        circuit += Chain(r, 2)
        location = "m"
    elif where == "subckt":
        blk = Subcircuit("blk", ["p"], loop)
        blk += r @ ["p", "p"]
        circuit += blk @ ["n1"]
        circuit += blk @ ["n1"]
        location = "blk"
    else:
        circuit += Chain(r % {"R": Formula("x"), "x": Formula("R")}, 3)
        location = "R1"  # the chain's lines hold one override map
    report = lint(circuit)
    assert [(f.code, f.location) for f in report.errors] == [("CYCLIC_PARAM", location)]
    assert "cyclic parameter dependency: " in report.errors[0].message
    for dialect in ("spice", "spectre"):
        with pytest.raises(LintErrors, match="CYCLIC_PARAM"):
            export(circuit, dialect)


def test_lint_reports_a_cycle_at_the_end_of_a_long_chain():
    # lint, which never raises, raised RecursionError
    texts = long_cycle_formulas()
    circuit = Circuit()
    circuit += Component("long", ["a", "b"], {n: Formula(t) for n, t in texts.items()}) @ ["a", "b"]
    report = lint(circuit)
    assert [(f.code, f.location, f.message) for f in report.errors] == [
        ("CYCLIC_PARAM", "L1", "cyclic parameter dependency: f1199 -> f1200 -> f1199")
    ]


def test_lint_reports_a_formula_that_reads_map_text_once_per_map():
    # lint-clean used to be followed by UnresolvedIdentifierError from export
    reads = {"k": "nch", "R": Formula("k*2")}
    circuit = Circuit()
    circuit += Chain(Component("r", ["a", "b"], reads, prefix="R"), 3)
    circuit += Model("m", "res", reads)
    report = lint(circuit)
    assert [(f.code, f.location) for f in report.errors] == [
        ("UNRESOLVED_PARAM", "R1"),  # the three lines share the template's map
        ("UNRESOLVED_PARAM", "m"),
    ]
    for finding in report.errors:
        assert "'k'" in finding.message and "'R'" in finding.message
        assert "text" in finding.message
    for dialect in ("spice", "spectre"):
        with pytest.raises(LintErrors, match="UNRESOLVED_PARAM"):
            export(circuit, dialect)


def test_lint_reports_a_context_value_that_is_not_a_number_on_each_line():
    # an imported context may hold any JSON value; export used to raise a
    # bare TypeError for a list, and UnresolvedIdentifierError for text
    r = Component("r", ["a", "b"], {"R": Formula("x*2")}, prefix="R")
    circuit = Circuit()
    circuit += Chain(r, 3)
    for inst, x in zip(circuit.instances, ("wide", 2, [1])):
        inst.context = {"x": x}
    report = lint(circuit)
    assert [(f.code, f.location) for f in report.errors] == [
        ("UNRESOLVED_PARAM", "R1"),
        ("UNRESOLVED_PARAM", "R3"),
    ]
    assert all("'x'" in f.message and "not give as a number" in f.message
               for f in report.errors)
    with pytest.raises(LintErrors, match="UNRESOLVED_PARAM"):
        export(circuit, "spice")
    circuit.instances[0].context = circuit.instances[2].context = {"x": 1}
    assert not lint(circuit).has_errors
    assert "R2 net_0_0 net_0_1 r R=4\n" in export(circuit, "spice")


def test_seed_defaults_to_circuit_seed():
    circuit = Circuit(rng_seed=5)
    circuit += Component("r", ["a", "b"], {"R": gauss(100.0, 5.0)}) @ ["n1", "n2"]
    assert export(circuit, "spice") == export(circuit, "spice", seed=5)
    assert export(circuit, "spice") != export(circuit, "spice", seed=6)


def test_random_params_resolved_with_formula_consistency():
    params = Params({"vth": gauss(0.4, 0.1), "test": Formula("1 / vth")})
    circuit = Circuit()
    circuit += Component("nmos", ["d", "g", "s", "b"], params) @ ["a", "b", "GND", "GND"]
    line = export(circuit, "spice", seed=3).splitlines()[1]
    tokens = dict(t.split("=") for t in line.split()[6:])
    assert float(tokens["test"]) == pytest.approx(1 / float(tokens["vth"]), rel=1e-10)


def test_seed_changes_only_param_tokens():
    a = export(ro_circuit(), "spice", seed=1).splitlines()
    b = export(ro_circuit(), "spice", seed=2).splitlines()
    assert len(a) == len(b)
    changed = [(x, y) for x, y in zip(a, b) if x != y]
    assert changed
    for x, y in changed:
        xt, yt = x.split(), y.split()
        assert len(xt) == len(yt)
        for tx, ty in zip(xt, yt):
            if tx != ty:
                assert "=" in tx and "=" in ty
                assert tx.split("=")[0] == ty.split("=")[0]


def test_export_is_deterministic_in_process():
    for dialect in ("spice", "spectre", "json-ir"):
        assert export(ro_circuit(), dialect) == export(ro_circuit(), dialect)


# --- independent SPICE re-parse oracle ------------------------------------------------

def _reparse_spice(text: str):
    """Minimal independent SPICE reader: subckt defs + instance lines."""
    subckts = {}
    top = []
    current = None
    for line in text.splitlines()[1:]:
        if not line or line.startswith("*"):
            continue
        token = line.split()
        if token[0] == ".subckt":
            current = (token[1], [])
            continue
        if token[0] == ".ends":
            subckts[current[0]] = current[1]
            current = None
            continue
        if token[0].startswith("."):
            continue
        fields = [t for t in token if "=" not in t]
        designator, nets, master = fields[0], fields[1:-1], fields[-1]
        record = (designator, tuple(nets), master)
        (current[1] if current else top).append(record)
    return subckts, top


def test_spice_output_reparses_to_same_topology():
    circuit = ro_circuit()
    subckts, top = _reparse_spice(export(circuit, "spice"))
    assert set(subckts) == set(circuit.subcircuits)
    for name, parsed in subckts.items():
        body = circuit.subcircuits[name].body
        assert [(i.designator, tuple(str(n) for n in i.nets), i.template.name) for i in body] == parsed
    assert [
        (i.designator, tuple(str(n) for n in i.nets), i.template.name)
        for i in circuit.instances
    ] == top


# --- Spectre ---------------------------------------------------------------------------

def test_spectre_layout():
    inv = Subcircuit("INV", ["in", "out"])
    nmos = Component("nmos", ["d", "g", "s", "b"], {"w": 0.135}, prefix="M")
    inv += nmos @ ["out", "in", "GND", "GND"]
    circuit = Circuit()
    circuit += Model("nmos", "bsim4", {"TYPE": 1})
    circuit += inv @ ["a", "b"]
    lines = export(circuit, "spectre").splitlines()
    assert lines[0] == "simulator lang=spectre"
    assert lines[1] == "// Generated netlist"
    assert lines[2] == "model nmos bsim4 TYPE=1"
    assert lines[3] == "subckt INV in out"
    assert lines[4] == "M1 (out in GND GND) nmos w=0.135"
    assert lines[5] == "ends INV"
    assert lines[6] == "X1 (a b) INV"


def test_spectre_subckt_parameters_line():
    sub = Subcircuit("S", ["p"], {"gain": 2})
    circuit = Circuit()
    circuit += sub @ ["n"]
    text = export(circuit, "spectre")
    assert "subckt S p\nparameters gain=2\nends S" in text


# --- shared traversal ---------------------------------------------------------------------

_PARAM_TOKEN = re.compile(r"[^\s()=]+=[^\s()]+")


@pytest.mark.parametrize(
    "factory", [capacitor_circuit, crossbar_circuit, defect_chain_circuit, ro_circuit]
)
@pytest.mark.parametrize("seed", range(5))
def test_text_dialects_emit_same_param_tokens_in_same_order(factory, seed):
    # one walk and one rng per export: both dialects draw the same values in
    # the same order, so their k=v sequences agree token for token
    spice = export(factory(), "spice", seed=seed).splitlines()[1:]
    spectre = export(factory(), "spectre", seed=seed).splitlines()[2:]
    spice_tokens = _PARAM_TOKEN.findall("\n".join(spice))
    assert spice_tokens
    assert spice_tokens == _PARAM_TOKEN.findall("\n".join(spectre))


# --- lint rules ---------------------------------------------------------------------------

def test_lint_dangling_single_use_net():
    circuit = Circuit()
    circuit += Component("res", ["a", "b"]) @ ["n1", "GND"]
    report = lint(circuit)
    assert [f.code for f in report] == ["DANGLING"]
    assert report.findings[0].severity == "warn"
    assert report.findings[0].location == "n1"
    assert not report.has_errors


def test_lint_globals_and_shared_nets_not_dangling():
    circuit = Circuit()
    res = Component("res", ["a", "b"])
    circuit += res @ ["n1", "GND"]
    circuit += res @ ["n1", "VDD"]
    assert len(lint(circuit)) == 0


def test_lint_unconnected_is_error():
    circuit = Circuit()
    circuit += Component("res", ["a", "b"]) @ ["", "GND"]
    report = lint(circuit)
    codes = [f.code for f in report]
    assert "UNCONNECTED" in codes
    assert report.has_errors


def test_lint_duplicate_designator():
    res = Component("res", ["a", "b"])
    first, second = res @ ["x", "GND"], res @ ["x", "GND"]
    first.designator = "R1"
    second.designator = "R1"
    circuit = Circuit()
    circuit += [first, second]
    report = lint(circuit)
    assert [f.code for f in report if f.severity == "error"] == ["DUPLICATE_DESIGNATOR"]


def test_lint_undefined_master_for_unregistered_subckt():
    ghost = Subcircuit("GHOST", ["p"])
    inst = ghost @ ["n"]
    inst.designator = "X1"
    circuit = Circuit()
    circuit.instances.append(inst)  # bypass add(), so no auto-registration
    report = lint(circuit)
    assert [f.code for f in report if f.severity == "error"] == ["UNDEFINED_MASTER"]


def test_lint_undefined_master_for_unresolved_template():
    inst = Instance(UnresolvedTemplate("mystery", 2), ["a", "b"])
    inst.designator = "U1"
    circuit = Circuit()
    circuit.instances.append(inst)
    report = lint(circuit)
    assert any(f.code == "UNDEFINED_MASTER" for f in report)


def test_lint_unused_pin():
    sub = Subcircuit("S", ["used", "unused"])
    sub += Component("res", ["a", "b"]) @ ["used", "GND"]
    circuit = Circuit()
    circuit += sub @ ["n1", "n2"]
    report = lint(circuit)
    pins = [f for f in report if f.code == "UNUSED_PIN"]
    assert len(pins) == 1
    assert pins[0].location == "S.unused"
    assert pins[0].severity == "warn"


def test_lint_ordering_deterministic():
    circuit = Circuit()
    res = Component("res", ["a", "b"])
    circuit += res @ ["zz", "GND"]
    circuit += res @ ["aa", "GND"]
    report = lint(circuit)
    assert [f.location for f in report] == ["aa", "zz"]


def test_lint_clean_ro_circuit_has_no_errors():
    report = lint(ro_circuit())
    assert not report.has_errors


def test_lint_reports_duplicate_subckt_instead_of_raising():
    report = lint(duplicate_subckt_circuit())
    assert [(f.severity, f.location) for f in report if f.code == "DUPLICATE_SUBCKT"] == [
        ("error", "INV")
    ]
    for dialect in ("spice", "spectre"):
        with pytest.raises(LintErrors) as err:
            export(duplicate_subckt_circuit(), dialect)
        assert "DUPLICATE_SUBCKT" in str(err.value)
    with pytest.raises(DuplicateSubcircuitError):
        export_json(duplicate_subckt_circuit())


def test_text_export_walks_the_hierarchy_once(monkeypatch):
    from netforge import exporters

    calls = []
    walk = exporters._reachable_subcircuits
    monkeypatch.setattr(
        exporters, "_reachable_subcircuits", lambda *args: calls.append(1) or walk(*args)
    )
    circuit = ro_circuit()
    text = export(circuit, "spice")
    assert len(calls) == 1  # lint's walk also gives the order of the definitions
    assert [sub.name for sub in lint(circuit).subcircuits] == [
        line.split()[1] for line in text.splitlines() if line.startswith(".subckt")
    ]


def test_chain_links_appended_past_add_print_by_their_pending_names():
    circuit = Circuit()
    for k, inst in enumerate(Chain(Component("r", ["a", "b"], prefix="R"), 2), 1):
        inst.designator = f"R{k}"
        circuit.instances.append(inst)  # add() would have named the link
    assert [(f.code, f.location) for f in lint(circuit)] == [("DANGLING", "a"), ("DANGLING", "b")]
    assert export(circuit, "spice") == "Generated netlist\nR1 a net_0_0 r\nR2 net_0_0 b r\n.end\n"


def test_lint_str_is_stable():
    circuit = Circuit()
    circuit += Component("res", ["a", "b"]) @ ["n1", "GND"]
    assert "DANGLING" in str(lint(circuit))
    assert str(lint(Circuit())) == "clean: no findings"


# --- registry -------------------------------------------------------------------------------

def test_registry_lists_builtins():
    assert {"spice", "spectre", "json-ir"} <= set(registered_dialects())


def test_register_and_dispatch_custom_dialect():
    def fake(circuit, seed, options):
        return f"fake {len(circuit.instances)} {seed}\n"

    register_exporter("fake-test", fake)
    try:
        assert export(capacitor_circuit(), "fake-test", seed=3) == "fake 1 3\n"
    finally:
        from netforge import exporters

        del exporters._REGISTRY["fake-test"]


@pytest.mark.parametrize("dialect", ["spice", "spectre", "json-ir"])
def test_registered_exporters_keep_the_plugin_signature(dialect):
    circuit = ro_circuit()
    exporter = exporter_for(dialect)
    for seed in (0, 5):
        assert exporter(circuit, seed, {"title": "t"}) == export(
            circuit, dialect, seed, {"title": "t"}
        )


def test_duplicate_dialect_rejected():
    with pytest.raises(DuplicateDialectError):
        register_exporter("spice", lambda c, s, o: "")


def test_unknown_dialect_lists_registered():
    with pytest.raises(UnknownDialectError) as err:
        export(Circuit(), "nope")
    assert "spice" in err.value.available


# --- JSON IR ----------------------------------------------------------------------------------

def test_empty_circuit_json_shape():
    raw = json.loads(export_json(Circuit()))
    assert raw["version"] == 1
    assert raw["instances"] == []
    assert raw["models"] == {}
    assert raw["subcircuits"] == {}
    assert raw["globals"] == ["GND", "VDD", "0"]


def test_version_mismatch_rejected():
    with pytest.raises(VersionMismatchError):
        import_json('{"version": 2, "instances": []}')


def _set_globals(raw):
    raw["globals"] = 5


def _set_context(raw):
    raw["instances"][0]["context"] = [1, 2]


def _set_float_net(raw):
    raw["instances"][0]["nets"][0] = 1.5


def _set_seed(raw):
    raw["rng_seed"] = "x"


def _set_directives(raw):
    raw["directives"] = "abc"


def _set_designator(value):
    def mutate(raw):
        raw["instances"][0]["designator"] = value
    return mutate


def _set_component(key, value):
    def mutate(raw):
        raw["components"]["Cap"][key] = value
    return mutate


def _as_pairs(key, value):
    # an array of [name, definition] pairs in place of the name -> definition object
    def mutate(raw):
        raw[key] = [[name, definition] for name, definition in value.items()]
    return mutate


def _set_nested_pairs(raw):
    raw["subcircuits"] = {"S": {"pins": ["a"], "nested": [["T", {"pins": ["b"]}]]}}


def _set_top(key, value):
    def mutate(raw):
        raw[key] = value
    return mutate


def _set_subckt(**fields):
    def mutate(raw):
        raw["subcircuits"] = {"S": {"pins": ["a"], **fields}}
    return mutate


def _set_template(value):
    def mutate(raw):
        raw["instances"][0]["template"] = value
    return mutate


def _set_param(where, name):
    def mutate(raw):
        if where == "component":
            raw["components"]["Cap"]["params"][name] = 1
        else:
            raw["instances"][0]["params"][name] = 1
    return mutate


@pytest.mark.parametrize(
    "mutate, path",
    [
        (_set_globals, "globals"),
        (_set_context, "instances[0].context"),
        (_set_float_net, "instances[0].nets"),
        (_set_seed, "rng_seed"),
        (_set_directives, "directives"),
        (_set_designator(5), "instances[0].designator"),
        (_set_designator("C 1"), "instances[0].designator"),
        (_set_designator("C=1"), "instances[0].designator"),
        (_set_designator(""), "instances[0].designator"),
        (_set_component("prefix", 5), "components.Cap"),
        (_set_component("metadata", {"note": 5}), "components.Cap"),
        (_as_pairs("components", {"Cap": {"ports": ["0", "1"]}}), "components"),
        (_as_pairs("models", {"m": {"base_type": "nmos"}}), "models"),
        (_as_pairs("subcircuits", {"S": {"pins": ["a"]}}), "subcircuits"),
        (_set_nested_pairs, "subcircuits.S.nested"),
        (_set_top("instances", 5), "instances"),
        (_set_top("instances", {}), "instances"),
        (_set_subckt(body=5), "subcircuits.S.body"),
        (_set_template(5), "instances[0].template"),
        (_set_template({"name": "Cap"}), "instances[0].template"),
        (_set_template(["Cap"]), "instances[0].template"),
        (_set_subckt(fixed="no"), "subcircuits.S.fixed"),
        (_set_top("models", {"m": {"base_type": 5}}), "models.m.base_type"),
        (_set_subckt(pins=[1]), "subcircuits.S.pins"),
        (_set_top("components", {"": {"ports": ["a"]}}), 'components[""]'),
        (_set_top("models", {"": {"base_type": "nmos"}}), 'models[""]'),
        (_set_top("subcircuits", {"": {"pins": ["a"]}}), 'subcircuits[""]'),
        (_set_subckt(nested={"": {"pins": ["b"]}}), 'subcircuits.S.nested[""]'),
        (_set_top("components", {"bad name": {"ports": ["a"]}}), 'components["bad name"]'),
        (_set_top("models", {"bad name": {"base_type": "nmos"}}), 'models["bad name"]'),
        (_set_top("subcircuits", {"bad name": {"pins": ["a"]}}), 'subcircuits["bad name"]'),
        (_set_subckt(nested={"bad name": {"pins": ["b"]}}), 'subcircuits.S.nested["bad name"]'),
        (_set_param("component", "r x"), 'components.Cap.params["r x"]'),
        (_set_param("instance", "k=1 z"), 'instances[0].params["k=1 z"]'),
        (_set_top("models", {"m": {"base_type": "nm os"}}), "models.m.base_type"),
    ],
    ids=[
        "globals-number", "context-array", "float-net", "seed-text", "directives-text",
        "designator-number", "designator-space", "designator-equals", "designator-empty",
        "prefix-number", "metadata-number", "components-pairs", "models-pairs",
        "subcircuits-pairs", "nested-pairs", "instances-number", "instances-object",
        "body-number", "template-number", "template-object", "template-array", "fixed-text", "base-type-number", "pin-number",
        "component-empty-name", "model-empty-name", "subcircuit-empty-name",
        "nested-empty-name", "component-space-name", "model-space-name",
        "subcircuit-space-name", "nested-space-name", "component-param-space-name",
        "instance-param-equals-name", "base-type-space",
    ],
)
def test_import_rejects_malformed_fields_with_path(mutate, path):
    raw = json.loads(export_json(capacitor_circuit()))
    mutate(raw)
    with pytest.raises(SchemaError) as info:
        import_json(json.dumps(raw))
    assert info.value.path == path


def test_round_trip_structural_equality():
    for factory in (capacitor_circuit, crossbar_circuit, defect_chain_circuit, ro_circuit):
        circuit = factory()
        text = export_json(circuit)
        again = import_json(text)
        assert again == circuit
        assert export_json(again) == text


def test_round_trip_preserves_unresolved_values_and_state():
    circuit = Circuit(rng_seed=77, global_nets=("GND", "0"))
    comp = Component(
        "dev",
        ["a", "b"],
        {"w": Formula("l * 2"), "l": uniform(1, 2), "note": "fast"},
        metadata={"layer": "m1"},
    )
    circuit += comp(["n1", "n2"], {"w": 4})
    circuit.directives.append(".option scale=1u")
    sub = Subcircuit("S", ["p"], {"g": 1})
    sub.fix()
    circuit += sub
    again = import_json(export_json(circuit))
    assert again == circuit
    assert again.subcircuits["S"].fixed
    assert again.rng_seed == 77
    inst = again.instances[0]
    assert inst.template.params["w"] == Formula("l * 2")
    assert inst.overrides["w"] == 4


@pytest.mark.parametrize("text", ["1k", "45n", "1e400", "2"])
def test_round_trip_keeps_text_that_reads_as_a_number(text):
    circuit = Circuit()
    circuit += Component("Cap", [0, 1], {"C": 1e-12, "tag": text}, prefix="C") @ [0, 1]
    again = import_json(export_json(circuit))
    assert again == circuit
    assert again.instances[0].template.params["tag"] == text
    assert export(again) == export(circuit)


def test_round_trip_preserves_array_context():
    circuit = crossbar_circuit()
    again = import_json(export_json(circuit))
    assert again.instances[4].context == {"_x": 1, "_y": 1}


def test_import_unknown_template_becomes_unresolved():
    text = json.dumps(
        {
            "version": 1,
            "instances": [
                {"template": "ghost", "nets": ["a", "b"], "params": {}, "designator": "U1"}
            ],
        }
    )
    circuit = import_json(text)
    assert isinstance(circuit.instances[0].template, UnresolvedTemplate)
    assert any(f.code == "UNDEFINED_MASTER" for f in lint(circuit))


def test_import_continues_designator_counters():
    circuit = ro_circuit()
    again = import_json(export_json(circuit))
    again += Component("counter", [""], prefix="C") @ "net_0_0"
    designators = [i.designator for i in again.instances if i.designator.startswith("C")]
    assert designators == ["C1", "C2", "C3", "C4"]


def test_import_continues_chain_counter():
    from netforge.manip import Chain

    circuit = Circuit()
    circuit += Chain(Component("nmos", [1, "INPUT", 3, "GND"]), 3, 0, 2)
    again = import_json(export_json(circuit))
    again += Chain(Component("nmos", [1, "INPUT", 3, "GND"]), 3, 0, 2)
    names = {str(n) for i in again.instances for n in i.nets}
    assert {"net_0_0", "net_0_1", "net_1_0", "net_1_1"} <= names


def test_conflicting_component_names_refused():
    circuit = Circuit()
    circuit += Component("dev", ["a"], {"x": 1}) @ ["n1"]
    circuit += Component("dev", ["a"], {"x": 2}) @ ["n1"]
    with pytest.raises(NetforgeError):
        export_json(circuit)


def test_export_to_file_atomic(tmp_path):
    target = tmp_path / "out.sp"
    export_to_file(capacitor_circuit(), target, "spice")
    assert target.read_text() == export(capacitor_circuit(), "spice")
    assert list(tmp_path.iterdir()) == [target]


def test_export_to_file_mode_matches_plain_open(tmp_path):
    old = os.umask(0o022)
    try:
        export_to_file(capacitor_circuit(), tmp_path / "out.sp", "spice")
        with open(tmp_path / "plain.sp", "w"):
            pass
    finally:
        os.umask(old)
    mode = (tmp_path / "out.sp").stat().st_mode & 0o777
    assert mode == (tmp_path / "plain.sp").stat().st_mode & 0o777 == 0o644


def test_export_to_file_failure_leaves_no_temp(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        export_to_file(capacitor_circuit(), target, "spice")
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


# --- parameter file writer ------------------------------------------------------------------

def test_write_param_file_round_trip():
    pf = read_param_file(
        json.dumps(
            {
                "nmos": {
                    "TT": {
                        "w": 0.135,
                        "vth": {"$gauss": [0.4, 0.1]},
                        "test": {"$formula": "1 / vth"},
                        "flavor": "lvt",
                    }
                },
                "cap": {"TT": {"C": "1p"}},
            }
        )
    )
    assert read_param_file(write_param_file(pf)) == pf


def test_write_param_file_is_plain_json():
    pf = ParamFile({"d": {"TT": {"x": 1.5}}})
    raw = json.loads(write_param_file(pf))
    assert raw == {"d": {"TT": {"x": 1.5}}}
