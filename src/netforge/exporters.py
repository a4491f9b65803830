"""Dialect exporters, the lossless JSON circuit format, and the lint pass.

Built-in dialects: "spice" (NGSpice-compatible), "spectre", and "json-ir".
The registry is open: register_exporter(name, fn) plugs in any
`fn(circuit, seed, options) -> str`, which makes the engine
simulator-agnostic; exporter_for() is the one lookup, and write_atomic() the
one file writer, that the library and the CLI share.

The text dialects are tables (_TextDialect) over one traversal,
_text_exporter: lint once; lay the netlist out once (_line_frame) into the
literal lines and, for each line with drawn or computed values, its prefix
and the ParamPlan that renders its tokens; then, for each seed, walk that
frame with one rng seeded explicitly, drawing, evaluating and formatting
values only. A table holds only what a dialect changes: header, keyword
prefix, parameter and net formats, and footer. So equal (circuit, seed)
pairs always produce byte-identical output, every text dialect draws the
same values in the same order, and different seeds can only change
parameter value tokens, never topology lines. _seed_exporter gives any
dialect that seed -> text form, so export() and a many-seed sweep share one
path; the circuit must not change between the calls of one seed -> text
function.

The JSON dialect is different in kind: it round-trips the circuit losslessly,
with formulas and distributions still unresolved, and therefore neither
evaluates parameters nor runs lint. export_json writes the subcircuit and
instance records straight to text, with the bytes json.dumps(indent=2) gives
their dict form; import_json checks and coerces each net name once per scope
(the top level and each subcircuit body), and the instances of a scope share
one Net per name.
"""

from __future__ import annotations

import json
import math
import os
import re
import secrets
from dataclasses import dataclass
from pathlib import Path

from .core import (
    Circuit,
    Component,
    Instance,
    Model,
    Net,
    Subcircuit,
    UnresolvedTemplate,
    as_net,
)
from .errors import (
    DuplicateDialectError,
    DuplicatePinError,
    DuplicateSubcircuitError,
    LintErrors,
    NetforgeError,
    NetNameError,
    ParseError,
    SchemaError,
    UnknownDialectError,
    VersionMismatchError,
)
from .formula import Formula
from .io_readers import ParamFile, value_from_json
from .numfmt import format_number
# perfbench/tracer.py wraps eval_params under this module's name, so it stays
# importable here although text export renders through ParamPlan.render
from .params import Params, RandomSpec, eval_params, plan_of  # noqa: F401
from .rng import Xoshiro256StarStar

__all__ = [
    "Finding",
    "LintReport",
    "lint",
    "export",
    "export_to_file",
    "exporter_for",
    "write_atomic",
    "register_exporter",
    "registered_dialects",
    "export_json",
    "import_json",
    "write_param_file",
]

JSON_IR_VERSION = 1


# --- lint (ERC-lite) -----------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    severity: str  # "warn" | "error"
    code: str
    message: str
    location: str

    def __str__(self):
        return f"{self.severity.upper():5s} {self.code:21s} {self.location}: {self.message}"


class LintReport:
    """Deterministically ordered findings (by location, then code), and the
    subcircuit definitions that lint checked, in emission order."""

    def __init__(self, findings, subcircuits=()):
        self.findings = tuple(
            sorted(findings, key=lambda f: (f.location, f.code, f.message))
        )
        self.subcircuits = tuple(subcircuits)

    @property
    def errors(self) -> tuple:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple:
        return tuple(f for f in self.findings if f.severity == "warn")

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def __iter__(self):
        return iter(self.findings)

    def __len__(self):
        return len(self.findings)

    def __str__(self):
        if not self.findings:
            return "clean: no findings"
        return "\n".join(str(f) for f in self.findings)


def _reachable_subcircuits(circuit: Circuit, duplicates=None) -> list[Subcircuit]:
    """Definitions in emission order (nested first). A second, different
    definition of a name is added to the set `duplicates`, or raises without it."""
    ordered: list[Subcircuit] = []
    seen: dict[str, Subcircuit] = {}

    def visit(sub: Subcircuit):
        previous = seen.get(sub.name)
        if previous is not None:
            if previous is not sub and previous != sub:
                if duplicates is None:
                    raise DuplicateSubcircuitError(
                        f"two different subcircuit definitions named {sub.name!r}"
                    )
                duplicates.add(sub.name)
            return
        seen[sub.name] = sub
        for nested in sub.nested:
            visit(nested)
        ordered.append(sub)

    for sub in circuit.subcircuits.values():
        visit(sub)
    return ordered


def _lint_scope(findings, instances, pins, scope, global_nets, known_subckts):
    uses: dict[str, int] = {}
    designators: dict[str, int] = {}
    for inst in instances:
        location = inst.designator or "?"
        if scope:
            location = f"{scope}/{location}"
        if inst.designator is not None:
            designators[inst.designator] = designators.get(inst.designator, 0) + 1
        template = inst.template
        if isinstance(template, UnresolvedTemplate):
            findings.append(
                Finding(
                    "error",
                    "UNDEFINED_MASTER",
                    f"no definition for master {template.name!r}",
                    location,
                )
            )
        elif isinstance(template, Subcircuit):
            registered = known_subckts.get(template.name)
            if registered is None or (registered is not template and registered != template):
                findings.append(
                    Finding(
                        "error",
                        "UNDEFINED_MASTER",
                        f"subcircuit {template.name!r} is not defined in this circuit",
                        location,
                    )
                )
        for index, net in enumerate(inst.nets):
            if net.is_unconnected:
                findings.append(
                    Finding(
                        "error",
                        "UNCONNECTED",
                        f"port {index} of {getattr(template, 'name', '?')} is unconnected",
                        location,
                    )
                )
            else:
                name = str(net)
                uses[name] = uses.get(name, 0) + 1

    for designator, count in designators.items():
        if count > 1:
            location = f"{scope}/{designator}" if scope else designator
            findings.append(
                Finding(
                    "error",
                    "DUPLICATE_DESIGNATOR",
                    f"designator used {count} times",
                    location,
                )
            )

    pin_set = set(pins)
    for name, count in uses.items():
        if count == 1 and name not in global_nets and name not in pin_set:
            location = f"{scope}/{name}" if scope else name
            findings.append(
                Finding(
                    "warn",
                    "DANGLING",
                    f"net {name!r} is referenced exactly once",
                    location,
                )
            )
    return uses


def lint(circuit: Circuit) -> LintReport:
    """Structural connectivity checks; always returns a report, never raises.

    Rules: UNCONNECTED (error), DANGLING (warn, single-use non-global net),
    DUPLICATE_DESIGNATOR (error), UNDEFINED_MASTER (error), DUPLICATE_SUBCKT
    (error, two different definitions share a name), and UNUSED_PIN (warn,
    subcircuit pin that never appears in its body).
    """
    duplicates: set[str] = set()
    globals_ = set(circuit.global_nets)
    subckts = _reachable_subcircuits(circuit, duplicates)
    known = {sub.name: sub for sub in subckts}
    findings = [
        Finding("error", "DUPLICATE_SUBCKT", "two different definitions share this name", name)
        for name in duplicates
    ]

    _lint_scope(findings, circuit.instances, (), "", globals_, known)
    for sub in subckts:
        uses = _lint_scope(findings, sub.body, sub.pins, sub.name, globals_, known)
        for pin in sub.pins:
            if pin not in uses:
                findings.append(
                    Finding(
                        "warn",
                        "UNUSED_PIN",
                        f"pin {pin!r} does not appear in the body",
                        f"{sub.name}.{pin}",
                    )
                )
    return LintReport(findings, subckts)


# --- text dialects: one traversal, a table of what differs per dialect --------

@dataclass(frozen=True)
class _TextDialect:
    header: tuple  # lines before the models; "{title}" takes the title option
    keyword: str  # prefix of the model/subckt/ends keywords
    model_params: str  # appended to a model line; "{}" takes the k=v tokens
    subckt_params: str  # appended to a subckt header; "{}" takes the k=v tokens
    nets: str  # an instance's nets; "{}" takes the space-joined net names
    footer: tuple  # lines after the directives

    def __call__(self, circuit: Circuit, seed: int, options: dict) -> str:
        # the registered exporter contract; _seed_exporter lints once for many seeds
        return _text_exporter(self, circuit, options)(seed)


_SPICE = _TextDialect(("{title}",), ".", " ({})", " {}", "{}", (".end",))
_SPECTRE = _TextDialect(
    ("simulator lang=spectre", "// {title}"), "", " {}", "\nparameters {}", "({})", ()
)


def _fmt_value(value) -> str:
    if isinstance(value, str):
        return value
    return format_number(value)


def _line_params(inst: Instance) -> Params:
    # subcircuit defaults already live on the definition header, so instance
    # lines pass only the explicit overrides; primitive templates have no
    # other place for their parameters, so they print effective values, and
    # without overrides those are the template's own Params (and its plan)
    if isinstance(inst.template, Subcircuit):
        return inst.overrides
    return inst.effective_params() if inst.overrides else inst.template.params


def _instance_prefix(dialect: _TextDialect, inst: Instance) -> str:
    """`designator nets master`: everything on an instance line but its values."""
    if inst.designator is None:
        raise NetforgeError(
            f"instance of {inst.template.name!r} has no designator; "
            "insert it through a circuit or subcircuit before exporting"
        )
    if any(net.is_unconnected for net in inst.nets):
        raise NetforgeError("unconnected net reached the exporter; run lint first")
    nets = dialect.nets.format(" ".join([str(net) for net in inst.nets]))
    return " ".join([inst.designator, *([nets] if nets else []), inst.template.name])


def _line_frame(dialect: _TextDialect, circuit: Circuit, subckts, header) -> tuple:
    """Lay a netlist out once for every seed, as (frame, tail).

    `frame` is a flat list of (text, plan, context) triples: a seed's netlist
    is, for each triple, the text followed by the plan's tokens rendered
    with that context, and then `tail`. A text holds the end of the line
    before it, every line in between that draws and computes nothing, and
    the prefix of its own line, so the frame costs one string per line with
    drawn or computed values. Plans are shared through their Params, except
    that a primitive instance with overrides brings the plan of its merged
    map.
    """
    frame: list = []
    text: list[str] = []  # since the last parameterised line

    def line(prefix: str, params, wrap: str, context=None):
        # `wrap` is the dialect's parameter format: "{}" takes the tokens
        plan = plan_of(params) if params else None
        if plan is not None:
            head, slots = plan.layout(_fmt_value)
            before, _, after = wrap.partition("{}")
            if slots:
                text.extend((prefix, before))
                frame.extend(("".join(text), plan, context if plan.formulas else None))
                text[:] = (after, "\n")
                return
            prefix = f"{prefix}{before}{head}{after}"
        text.extend((prefix, "\n"))

    kw = dialect.keyword
    for header_line in header:
        line(header_line, None, "")
    for model in circuit.models.values():
        line(f"{kw}model {model.name} {model.base_type}", model.params, dialect.model_params)
    for sub in subckts:
        line(f"{kw}subckt {sub.name} {' '.join(sub.pins)}", sub.params, dialect.subckt_params)
        for inst in sub.body:
            line(_instance_prefix(dialect, inst), _line_params(inst), " {}", inst.context)
        line(f"{kw}ends {sub.name}", None, "")
    for inst in circuit.instances:
        line(_instance_prefix(dialect, inst), _line_params(inst), " {}", inst.context)
    for literal in (*circuit.directives, *dialect.footer):
        line(literal, None, "")
    return frame, "".join(text)


def _text_exporter(dialect: _TextDialect, circuit: Circuit, options: dict):
    """Lint once and lay the lines out once (_line_frame), then return
    seed -> text: each call draws with one rng through the frame in line
    order, so every text dialect draws the same random values in the same
    order. The circuit must not change between calls."""
    report = lint(circuit)
    if report.has_errors:
        raise LintErrors(report)
    title = str(options.get("title", "Generated netlist"))
    header = [line.format(title=title) for line in dialect.header]
    frame, tail = _line_frame(dialect, circuit, report.subcircuits, header)

    def emit(seed: int) -> str:
        rng = Xoshiro256StarStar(seed)
        entries = iter(frame)  # zip below takes them three at a time
        out = [
            plan.render(text, _fmt_value, context, rng)
            for text, plan, context in zip(entries, entries, entries)
        ]
        out.append(tail)
        return "".join(out)

    return emit


# --- JSON intermediate representation ------------------------------------------------

def _value_to_json(value):
    if isinstance(value, Formula):
        return {"$formula": value.text}
    if isinstance(value, RandomSpec):
        return {f"${value.kind}": [value.a, value.b]}
    return value


def _params_to_json(params: Params) -> dict:
    return {name: _value_to_json(value) for name, value in params.items()}


def _component_to_json(comp: Component) -> dict:
    return {
        "ports": [str(p) for p in comp.ports],
        "params": _params_to_json(comp.params),
        "prefix": comp.prefix,
        "metadata": dict(comp.metadata),
    }


# The records below are written straight to text, byte for byte as
# json.dumps(..., indent=2) writes their dict form: `indent` is the prefix of
# the line on which a value starts, text goes through the encoder json itself
# uses, ints and finite floats through int.__repr__ and float.__repr__ as json
# does, and every other value through json.dumps, re-indented.

_encode = json.encoder.encode_basestring_ascii


def _dumped(value, indent: str) -> str:
    # json output holds no raw newline inside a string, so every "\n" starts a line
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _json_text(value, indent: str) -> str:
    if isinstance(value, str):
        return _encode(value)
    if value is None:
        return "null"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return _dumped(value, indent)


def _param_text(value, indent: str) -> str:
    """A parameter value as _value_to_json(value) is written."""
    inner = indent + "  "
    if isinstance(value, Formula):
        return f'{{\n{inner}"$formula": {_encode(value.text)}\n{indent}}}'
    if isinstance(value, RandomSpec):
        item = inner + "  "
        return (
            f'{{\n{inner}"${value.kind}": [\n{item}{_json_text(value.a, item)},\n'
            f"{item}{_json_text(value.b, item)}\n{inner}]\n{indent}}}"
        )
    return _json_text(value, indent)


def _object_text(mapping, indent: str, value_text=_json_text) -> str:
    if not mapping:
        return "{}"
    inner = indent + "  "
    fields = []
    for key, value in mapping.items():
        if not isinstance(key, str):
            return _dumped(dict(mapping), indent)
        fields.append(f"{_encode(key)}: {value_text(value, inner)}")
    return f"{{\n{inner}" + f",\n{inner}".join(fields) + f"\n{indent}}}"


def _instances_text(instances, indent: str) -> str:
    """Instance records, each as {"template", "nets", "params", "designator"}
    and "context" when it is not empty."""
    if not instances:
        return "[]"
    record = indent + "  "
    key = record + "  "
    item = key + "  "
    net_sep = ",\n" + item
    records = []
    for inst in instances:
        nets = net_sep.join([_encode(str(net)) for net in inst.nets])
        nets = f"[\n{item}{nets}\n{key}]" if inst.nets else "[]"
        params = _object_text(inst.overrides, key, _param_text)
        designator = _json_text(inst.designator, key)
        context = inst.context
        context = f',\n{key}"context": {_object_text(context, key)}' if context else ""
        records.append(
            f'{{\n{key}"template": {_json_text(inst.template.name, key)},\n'
            f'{key}"nets": {nets},\n{key}"params": {params},\n'
            f'{key}"designator": {designator}{context}\n{record}}}'
        )
    return f"[\n{record}" + f",\n{record}".join(records) + f"\n{indent}]"


def _subckt_text(sub: Subcircuit, indent: str) -> str:
    """A subcircuit record: pins, params, fixed, nested records by name, body."""
    key = indent + "  "
    nested = _object_text({n.name: n for n in sub.nested}, key, _subckt_text)
    return (
        f'{{\n{key}"pins": {_dumped(list(sub.pins), key)},\n'
        f'{key}"params": {_object_text(sub.params, key, _param_text)},\n'
        f'{key}"fixed": {_dumped(sub.fixed, key)},\n'
        f'{key}"nested": {nested},\n'
        f'{key}"body": {_instances_text(sub.body, key)}\n{indent}}}'
    )


def _collect_components(circuit: Circuit) -> dict[str, Component]:
    components: dict[str, Component] = {}

    def record(inst: Instance):
        template = inst.template
        if isinstance(template, Component):
            existing = components.get(template.name)
            if existing is None:
                components[template.name] = template
            elif existing is not template and existing != template:
                raise NetforgeError(
                    f"two different component templates named {template.name!r}; "
                    "rename one before exporting to JSON"
                )

    for inst in circuit.instances:
        record(inst)
    for sub in _reachable_subcircuits(circuit):
        for inst in sub.body:
            record(inst)
    return components


def export_json(circuit: Circuit) -> str:
    """Serialize a circuit losslessly, formulas and distributions unresolved.

    The bytes are those of json.dumps(document, indent=2) + "\\n". The small
    head goes through json.dumps; the subcircuit and instance records, which
    grow with the circuit, are written straight to text.
    """
    head = {
        "version": JSON_IR_VERSION,
        "rng_seed": circuit.rng_seed,
        "globals": list(circuit.global_nets),
        "directives": list(circuit.directives),
        "components": {
            name: _component_to_json(comp)
            for name, comp in _collect_components(circuit).items()
        },
        "models": {
            name: {"base_type": m.base_type, "params": _params_to_json(m.params)}
            for name, m in circuit.models.items()
        },
    }
    fields = [f"{_encode(name)}: {_dumped(value, '  ')}" for name, value in head.items()]
    fields.append(f'"subcircuits": {_object_text(circuit.subcircuits, "  ", _subckt_text)}')
    fields.append(f'"instances": {_instances_text(circuit.instances, "  ")}')
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _expect(condition, message, path):
    if not condition:
        raise SchemaError(message, path)


def _is_text_list(raw) -> bool:
    return isinstance(raw, list) and all(isinstance(item, str) for item in raw)


def _members(raw: dict, key: str, path: str) -> dict:
    """The name -> definition object under `key`, empty when absent."""
    members = raw.get(key, {})
    _expect(isinstance(members, dict), "expected an object of named definitions", path)
    return members


# a designator starts every instance line, so it must stay one token
_DESIGNATOR_TOKEN_RE = re.compile(r"[^\s=]+\Z")


def _params_from_ir(raw, path) -> Params:
    _expect(isinstance(raw, dict), "expected a parameter object", path)
    params = Params()
    for name, value in raw.items():
        params[name] = value_from_json(value, f"{path}.{name}")
    return params


def _nets_from_ir(raw_nets, scope_nets: dict, path) -> tuple:
    """Nets of the instance at `path`. `scope_nets` maps each net name seen
    so far in this scope to its Net, so a name is checked and coerced once
    per scope and every instance on it shares one Net. Only text keys are
    kept, so `true` can never find the Net of a `1`."""
    nets = []
    for raw in raw_nets:
        net = scope_nets.get(raw) if isinstance(raw, str) else None
        if net is None:
            try:
                net = as_net(raw)
            except (TypeError, NetNameError) as exc:
                raise SchemaError(str(exc), f"{path}.nets") from None
            if isinstance(raw, str):
                scope_nets[raw] = net
        nets.append(net)
    return tuple(nets)


def _instance_from_ir(raw, templates, scope_nets, path) -> Instance:
    _expect(isinstance(raw, dict), "expected an instance object", path)
    _expect("template" in raw, "instance needs a template name", path)
    _expect(isinstance(raw.get("nets"), list), "instance needs a nets array", path)
    name = raw["template"]
    if not isinstance(name, str):
        raise SchemaError("template must be a name", f"{path}.template")
    nets = _nets_from_ir(raw["nets"], scope_nets, path)
    template = templates.get(name)
    if template is None:
        template = UnresolvedTemplate(name, len(nets))
    context = raw.get("context", {})
    _expect(isinstance(context, dict), "context must be an object", f"{path}.context")
    designator = raw.get("designator")
    # an alphanumeric designator, the usual case, needs no pattern match
    if designator is not None and not (
        isinstance(designator, str)
        and (designator.isalnum() or _DESIGNATOR_TOKEN_RE.match(designator))
    ):
        raise SchemaError(
            "designator must be non-empty text without whitespace or '='", f"{path}.designator"
        )
    return Instance(
        template,
        nets,
        _params_from_ir(raw.get("params", {}), f"{path}.params"),
        designator=designator,
        context=dict(context),
    )


def _instances_from_ir(raw_list, container, templates, path) -> None:
    """Import one scope's instance records into `container`, a circuit or a
    subcircuit, with one Net per net name, and continue its counters."""
    _expect(isinstance(raw_list, list), "expected an array of instances", path)
    instances = container.instances if isinstance(container, Circuit) else container.body
    scope_nets: dict[str, Net] = {}
    for i, inst_raw in enumerate(raw_list):
        instances.append(_instance_from_ir(inst_raw, templates, scope_nets, f"{path}[{i}]"))
    container._recover_counters(instances, scope_nets.values())


def _subckt_shell_from_ir(name, raw, path) -> Subcircuit:
    _expect(isinstance(raw, dict), "expected a subcircuit object", path)
    _expect(isinstance(raw.get("pins"), list), "subcircuit needs a pins array", path)
    params = _params_from_ir(raw.get("params", {}), f"{path}.params")
    try:
        sub = Subcircuit(name, raw["pins"], params)
    except (NetNameError, DuplicatePinError) as exc:
        raise SchemaError(str(exc), f"{path}.pins") from None
    for nested_name, nested_raw in _members(raw, "nested", f"{path}.nested").items():
        sub.nested.append(
            _subckt_shell_from_ir(nested_name, nested_raw, f"{path}.nested.{nested_name}")
        )
    return sub


def _fill_subckt_from_ir(sub: Subcircuit, raw, templates, path) -> None:
    scope = dict(templates)
    for nested in sub.nested:
        scope[nested.name] = nested
    for nested, (nested_name, nested_raw) in zip(sub.nested, raw.get("nested", {}).items()):
        _fill_subckt_from_ir(nested, nested_raw, scope, f"{path}.nested.{nested_name}")
    _instances_from_ir(raw.get("body", []), sub, scope, f"{path}.body")
    fixed = raw.get("fixed", False)
    _expect(isinstance(fixed, bool), "expected true or false", f"{path}.fixed")
    if fixed:
        sub.fix()


def import_json(text: str) -> Circuit:
    """Rebuild a circuit from its JSON form; inverse of export_json."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    _expect(isinstance(raw, dict), "top level must be an object", "$")
    version = raw.get("version")
    if version != JSON_IR_VERSION:
        raise VersionMismatchError(
            f"unsupported circuit format version {version!r}, expected {JSON_IR_VERSION}"
        )

    seed = raw.get("rng_seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool), "expected an integer", "rng_seed")
    global_nets = raw.get("globals", [])
    _expect(_is_text_list(global_nets), "expected an array of net names", "globals")
    directives = raw.get("directives", [])
    _expect(_is_text_list(directives), "expected an array of strings", "directives")
    circuit = Circuit(rng_seed=seed, global_nets=global_nets)
    circuit.directives = list(directives)

    templates: dict[str, object] = {}
    for name, comp_raw in _members(raw, "components", "components").items():
        path = f"components.{name}"
        _expect(isinstance(comp_raw, dict), "expected a component object", path)
        _expect(isinstance(comp_raw.get("ports"), list), "component needs ports", path)
        metadata = comp_raw.get("metadata", {})
        _expect(isinstance(metadata, dict), "metadata must be an object", path)
        params = _params_from_ir(comp_raw.get("params", {}), f"{path}.params")
        try:
            templates[name] = Component(
                name, comp_raw["ports"], params, prefix=comp_raw.get("prefix"), metadata=metadata
            )
        except (TypeError, ValueError) as exc:  # a prefix, port or metadata value
            raise SchemaError(str(exc), path) from None

    subckts_raw = _members(raw, "subcircuits", "subcircuits")
    shells: dict[str, Subcircuit] = {}
    for name, sub_raw in subckts_raw.items():
        shells[name] = _subckt_shell_from_ir(name, sub_raw, f"subcircuits.{name}")
    scope = dict(templates)
    scope.update(shells)
    for name, sub_raw in subckts_raw.items():
        _fill_subckt_from_ir(shells[name], sub_raw, scope, f"subcircuits.{name}")
    circuit.subcircuits = shells

    for name, model_raw in _members(raw, "models", "models").items():
        path = f"models.{name}"
        _expect(isinstance(model_raw, dict), "expected a model object", path)
        _expect("base_type" in model_raw, "model needs a base_type", path)
        base_type = model_raw["base_type"]
        _expect(
            isinstance(base_type, str) and base_type,
            "base_type must be non-empty text",
            f"{path}.base_type",
        )
        circuit.models[name] = Model(
            name,
            base_type,
            _params_from_ir(model_raw.get("params", {}), f"{path}.params"),
        )

    _instances_from_ir(raw.get("instances", []), circuit, scope, "instances")
    return circuit


def _export_json_dialect(circuit: Circuit, seed: int, options: dict) -> str:
    return export_json(circuit)


# --- parameter file writer (inverse of io_readers.read_param_file) -----------------

def write_param_file(param_file: ParamFile) -> str:
    """Serialize a ParamFile to canonical JSON; read_param_file inverts this.

    Text values that happen to look like SI-suffixed numbers would read back
    as numbers; keep text non-numeric if exact round-tripping matters.
    """
    document = {
        device: {
            corner: _params_to_json(params)
            for corner, params in corners.items()
        }
        for device, corners in param_file.items()
    }
    return json.dumps(document, indent=2) + "\n"


# --- registry and atomic writing ----------------------------------------------------

_REGISTRY = {
    "spice": _SPICE,
    "spectre": _SPECTRE,
    "json-ir": _export_json_dialect,
}


def register_exporter(dialect: str, exporter) -> None:
    """Add a dialect: `exporter(circuit, seed, options) -> str`."""
    if dialect in _REGISTRY:
        raise DuplicateDialectError(f"dialect {dialect!r} is already registered")
    _REGISTRY[dialect] = exporter


def registered_dialects() -> list[str]:
    return sorted(_REGISTRY)


def exporter_for(dialect: str):
    """The exporter registered for `dialect`; UnknownDialectError if none is."""
    exporter = _REGISTRY.get(dialect)
    if exporter is None:
        raise UnknownDialectError(dialect, _REGISTRY)
    return exporter


def _seed_exporter(circuit: Circuit, dialect: str, options=None):
    """seed -> text for one circuit in one dialect, for exporting many seeds.

    Text dialects lint here, once (raising LintErrors), and walk the circuit
    on each call; any other exporter is called with each seed. The circuit
    must not change between calls.
    """
    exporter = exporter_for(dialect)
    options = dict(options or {})
    if isinstance(exporter, _TextDialect):
        return _text_exporter(exporter, circuit, options)
    return lambda seed: exporter(circuit, seed, options)


def export(circuit: Circuit, dialect: str = "spice", seed: int | None = None, options=None) -> str:
    """Render a circuit in the given dialect.

    `seed` drives formula/random resolution and defaults to the circuit's own
    rng_seed; text dialects refuse to export when lint finds errors.
    """
    emit = _seed_exporter(circuit, dialect, options)
    return emit(circuit.rng_seed if seed is None else seed)


def write_atomic(path, text: str) -> None:
    """Write `text` to `path` through a temp file renamed over it.

    The temp file sits in the target's directory under a unique name, so
    writers sharing a directory never collide, and it is removed on any
    failure. The result gets the mode a plain `open(path, "w")` gives a new
    file (0666 less the umask).
    """
    target = Path(path)
    tmp = target.parent / f"{target.name}.{secrets.token_hex(8)}.tmp"
    handle = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def export_to_file(circuit: Circuit, path, dialect: str = "spice", seed=None, options=None) -> None:
    """Export and write atomically (see write_atomic)."""
    write_atomic(path, export(circuit, dialect, seed, options))
