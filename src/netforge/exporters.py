"""Dialect exporters, the lossless JSON circuit format, and the lint pass.

Built-in dialects: "spice" (NGSpice-compatible), "spectre", and "json-ir".
The registry is open: register_exporter(name, fn) plugs in any
`fn(circuit, seed, options) -> str`, which makes the engine
simulator-agnostic; exporter_for() is the one lookup, and write_atomic() the
one file writer, that the library and the CLI share.

The text dialects are tables (_TextDialect) over one traversal,
_export_text: lint, then models, subcircuits and instances resolved through
eval_params with one rng seeded explicitly. A table holds only what a dialect
changes: header, keyword prefix, parameter and net formats, and footer. So
equal (circuit, seed) pairs always produce byte-identical output, every text
dialect draws the same values in the same order, and different seeds can only
change parameter value tokens, never topology lines.

The JSON dialect is different in kind: it round-trips the circuit losslessly,
with formulas and distributions still unresolved, and therefore neither
evaluates parameters nor runs lint.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .core import (
    Circuit,
    Component,
    Instance,
    Model,
    Subcircuit,
    UnresolvedTemplate,
    as_net,
)
from .errors import (
    DuplicateDialectError,
    DuplicateSubcircuitError,
    LintErrors,
    NetforgeError,
    ParseError,
    SchemaError,
    UnknownDialectError,
    VersionMismatchError,
)
from .formula import Formula
from .io_readers import ParamFile, value_from_json
from .numfmt import format_number
from .params import Params, RandomSpec, eval_params
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
    """Deterministically ordered findings (by location, then code)."""

    def __init__(self, findings):
        self.findings = tuple(
            sorted(findings, key=lambda f: (f.location, f.code, f.message))
        )

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
    return LintReport(findings)


# --- text dialects: one traversal, a table of what differs per dialect --------

@dataclass(frozen=True)
class _TextDialect:
    header: tuple  # lines before the models; "{title}" takes the title option
    keyword: str  # prefix of the model/subckt/ends keywords
    model_params: str  # appended to a model line; "{}" takes the k=v tokens
    subckt_params: str  # appended to a subckt header; "{}" takes the k=v tokens
    nets: str  # an instance's nets; "{}" takes the space-joined net names
    footer: tuple  # lines after the directives


_SPICE = _TextDialect(("{title}",), ".", " ({})", " {}", "{}", (".end",))
_SPECTRE = _TextDialect(
    ("simulator lang=spectre", "// {title}"), "", " {}", "\nparameters {}", "({})", ()
)


def _fmt_value(value) -> str:
    if isinstance(value, str):
        return value
    return format_number(value)


def _net_text(net) -> str:
    if net.is_unconnected:
        raise NetforgeError("unconnected net reached the exporter; run lint first")
    return str(net)


def _param_tokens(params: Params, rng, context=None) -> list[str]:
    values = eval_params(params, extra_context=context, rng=rng)
    return [f"{name}={_fmt_value(value)}" for name, value in values.items()]


def _line_params(inst: Instance) -> Params:
    # subcircuit defaults already live on the definition header, so instance
    # lines pass only the explicit overrides; primitive templates have no
    # other place for their parameters, so they print effective values, and
    # without overrides those are the template's own Params (and its plan)
    if isinstance(inst.template, Subcircuit):
        return inst.overrides
    return inst.effective_params() if inst.overrides else inst.template.params


def _instance_line(dialect: _TextDialect, inst: Instance, rng) -> str:
    if inst.designator is None:
        raise NetforgeError(
            f"instance of {inst.template.name!r} has no designator; "
            "insert it through a circuit or subcircuit before exporting"
        )
    nets = dialect.nets.format(" ".join([_net_text(net) for net in inst.nets]))
    parts = [inst.designator, *([nets] if nets else []), inst.template.name]
    parts += _param_tokens(_line_params(inst), rng, inst.context)
    return " ".join(parts)


def _export_text(dialect: _TextDialect, circuit: Circuit, seed: int, options: dict) -> str:
    """Lint, then walk models, subcircuits and instances with one rng, so every
    text dialect draws the same random values in the same order."""
    report = lint(circuit)
    if report.has_errors:
        raise LintErrors(report)
    rng = Xoshiro256StarStar(seed)
    kw = dialect.keyword

    def with_params(line, params, fmt):
        tokens = _param_tokens(params, rng)
        return line + fmt.format(" ".join(tokens)) if tokens else line

    title = str(options.get("title", "Generated netlist"))
    lines = [line.format(title=title) for line in dialect.header]
    for model in circuit.models.values():
        line = f"{kw}model {model.name} {model.base_type}"
        lines.append(with_params(line, model.params, dialect.model_params))
    for sub in _reachable_subcircuits(circuit):
        line = f"{kw}subckt {sub.name} {' '.join(sub.pins)}"
        lines.append(with_params(line, sub.params, dialect.subckt_params))
        lines += [_instance_line(dialect, inst, rng) for inst in sub.body]
        lines.append(f"{kw}ends {sub.name}")
    lines += [_instance_line(dialect, inst, rng) for inst in circuit.instances]
    lines += circuit.directives
    lines += dialect.footer
    return "\n".join(lines) + "\n"


# --- JSON intermediate representation ------------------------------------------------

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


def _collect_components(circuit: Circuit) -> dict[str, Component]:
    components: dict[str, Component] = {}

    def record(inst: Instance):
        template = inst.template
        if isinstance(template, Component):
            existing = components.get(template.name)
            if existing is None:
                components[template.name] = template
            elif existing != template:
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
    """Serialize a circuit losslessly, formulas and distributions unresolved."""
    document = {
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
        "subcircuits": {
            name: _subckt_to_json(sub) for name, sub in circuit.subcircuits.items()
        },
        "instances": [_instance_to_json(inst) for inst in circuit.instances],
    }
    return json.dumps(document, indent=2) + "\n"


def _expect(condition, message, path):
    if not condition:
        raise SchemaError(message, path)


def _params_from_ir(raw, path) -> Params:
    _expect(isinstance(raw, dict), "expected a parameter object", path)
    params = Params()
    for name, value in raw.items():
        params[name] = value_from_json(value, f"{path}.{name}")
    return params


def _instance_from_ir(raw, templates, path) -> Instance:
    _expect(isinstance(raw, dict), "expected an instance object", path)
    _expect("template" in raw, "instance needs a template name", path)
    _expect(isinstance(raw.get("nets"), list), "instance needs a nets array", path)
    name = raw["template"]
    nets = tuple(as_net(n) for n in raw["nets"])
    template = templates.get(name)
    if template is None:
        template = UnresolvedTemplate(name, len(nets))
    inst = Instance(
        template,
        nets,
        _params_from_ir(raw.get("params", {}), f"{path}.params"),
        designator=raw.get("designator"),
        context=dict(raw.get("context", {})),
    )
    return inst


def _subckt_shell_from_ir(name, raw, path) -> Subcircuit:
    _expect(isinstance(raw, dict), "expected a subcircuit object", path)
    _expect(isinstance(raw.get("pins"), list), "subcircuit needs a pins array", path)
    sub = Subcircuit(name, raw["pins"], _params_from_ir(raw.get("params", {}), f"{path}.params"))
    for nested_name, nested_raw in dict(raw.get("nested", {})).items():
        sub.nested.append(
            _subckt_shell_from_ir(nested_name, nested_raw, f"{path}.nested.{nested_name}")
        )
    return sub


def _fill_subckt_from_ir(sub: Subcircuit, raw, templates, path) -> None:
    scope = dict(templates)
    for nested in sub.nested:
        scope[nested.name] = nested
    for nested, (nested_name, nested_raw) in zip(sub.nested, dict(raw.get("nested", {})).items()):
        _fill_subckt_from_ir(nested, nested_raw, scope, f"{path}.nested.{nested_name}")
    for i, inst_raw in enumerate(raw.get("body", [])):
        sub.body.append(_instance_from_ir(inst_raw, scope, f"{path}.body[{i}]"))
    sub._recover_counters(sub.body)
    if raw.get("fixed", False):
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

    circuit = Circuit(
        rng_seed=raw.get("rng_seed", 0),
        global_nets=raw.get("globals", ()),
    )
    circuit.directives = [str(d) for d in raw.get("directives", [])]

    templates: dict[str, object] = {}
    for name, comp_raw in dict(raw.get("components", {})).items():
        path = f"components.{name}"
        _expect(isinstance(comp_raw, dict), "expected a component object", path)
        _expect(isinstance(comp_raw.get("ports"), list), "component needs ports", path)
        metadata = comp_raw.get("metadata", {})
        _expect(isinstance(metadata, dict), "metadata must be an object", path)
        templates[name] = Component(
            name,
            comp_raw["ports"],
            _params_from_ir(comp_raw.get("params", {}), f"{path}.params"),
            prefix=comp_raw.get("prefix"),
            metadata=metadata,
        )

    subckts_raw = dict(raw.get("subcircuits", {}))
    shells: dict[str, Subcircuit] = {}
    for name, sub_raw in subckts_raw.items():
        shells[name] = _subckt_shell_from_ir(name, sub_raw, f"subcircuits.{name}")
    scope = dict(templates)
    scope.update(shells)
    for name, sub_raw in subckts_raw.items():
        _fill_subckt_from_ir(shells[name], sub_raw, scope, f"subcircuits.{name}")
    circuit.subcircuits = shells

    for name, model_raw in dict(raw.get("models", {})).items():
        path = f"models.{name}"
        _expect(isinstance(model_raw, dict), "expected a model object", path)
        _expect("base_type" in model_raw, "model needs a base_type", path)
        circuit.models[name] = Model(
            name,
            model_raw["base_type"],
            _params_from_ir(model_raw.get("params", {}), f"{path}.params"),
        )

    for i, inst_raw in enumerate(raw.get("instances", [])):
        circuit.instances.append(
            _instance_from_ir(inst_raw, scope, f"instances[{i}]")
        )
    circuit._recover_counters(circuit.instances)
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
    "spice": partial(_export_text, _SPICE),
    "spectre": partial(_export_text, _SPECTRE),
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


def export(circuit: Circuit, dialect: str = "spice", seed: int | None = None, options=None) -> str:
    """Render a circuit in the given dialect.

    `seed` drives formula/random resolution and defaults to the circuit's own
    rng_seed; text dialects refuse to export when lint finds errors.
    """
    exporter = exporter_for(dialect)
    if seed is None:
        seed = circuit.rng_seed
    return exporter(circuit, seed, dict(options or {}))


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
