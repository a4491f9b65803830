"""Declarative build documents: JSON in, Circuit out.

A build document (version 1) mirrors the library API one to one:

    {
      "version": 1,
      "seed": 7,
      "corner": "TT",
      "variables": {"N_CHAINS": 3},
      "params_files": ["mos_params.json"],
      "models": [{"name": "nmos_tt", "type": "nmos", "params": {...}}, "pdk.sp"],
      "components": [
        {"name": "nmos_tt", "ports": ["d", "g", "s", "b"], "prefix": "M",
         "params_from": "nmos"},
        {"verilog_a": "counter.va"}
      ],
      "subcircuits": [
        {"name": "INV", "pins": ["in", "out"], "body": [ ...op nodes... ],
         "fixed": true}
      ],
      "circuit": [ ...op nodes... ]
    }

Operator nodes name the library operations directly: instance, parallel,
chain, named_chain, array, inject, concat, add_model, into_subckt. Every
string is substituted first: ${expr} evaluates a formula over the document
variables (plus _i or _x/_y inside array port templates), so counts like
"${N_CHAINS}" and nets like "net_0_${N_CHAINS - 1}" work anywhere. String
lists (pins, nets, ports) additionally accept repeated entries of the form
{"$repeat": "IN_${_i}", "count": "N_CHAINS"}.

Parameter values use the same JSON forms as parameter files, including the
$formula / $gauss / $uniform / $lognormal directives.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .core import Circuit, Component, Instance, Model, Subcircuit, as_instance
from .errors import NetforgeError, ParseError, SchemaError
from .formula import parse_formula
from .io_readers import (
    load_param_file,
    load_spice_models,
    load_veriloga,
    value_from_json,
)
from .manip import Array, Chain, Inject, Manipulation, NamedChain, Parallel, concat
from .numfmt import format_number
from .params import Params, validate_dependencies
from .rng import derive_seed

__all__ = ["load_doc", "build_circuit", "DEFAULT_CORNER", "DOC_VERSION"]

DOC_VERSION = 1
DEFAULT_CORNER = "TT"

_SUBST_RE = re.compile(r"\$\{([^}]*)\}")

_TOP_KEYS = {
    "version",
    "seed",
    "corner",
    "variables",
    "params_files",
    "models",
    "components",
    "subcircuits",
    "circuit",
}

_OPS = (
    "instance",
    "parallel",
    "chain",
    "named_chain",
    "array",
    "inject",
    "concat",
    "add_model",
    "into_subckt",
)


def load_doc(path) -> dict:
    """Read and JSON-decode a build document."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise SchemaError("build document must be an object", "$")
    return doc


def _substitute(text: str, values: dict, path: str) -> str:
    def repl(match: re.Match) -> str:
        expr = match.group(1)
        try:
            result = parse_formula(expr).evaluate(values)
        except NetforgeError as exc:
            raise SchemaError(f"cannot evaluate ${{{expr}}}: {exc}", path) from exc
        return format_number(result)

    return _SUBST_RE.sub(repl, text)


def _number(raw, values, path) -> float:
    """A literal number, or a string: "${N}", "N_CHAINS", "N_CHAINS - 1"..."""
    if isinstance(raw, bool):
        raise SchemaError("expected a number", path)
    if isinstance(raw, (int, float)):
        return raw
    if isinstance(raw, str):
        text = _substitute(raw, values, path)
        try:
            return float(text)
        except ValueError:
            pass
        try:
            return parse_formula(text).evaluate(values)
        except NetforgeError as exc:
            raise SchemaError(f"expected a number, got {text!r}: {exc}", path) from exc
    raise SchemaError(f"expected a number, got {raw!r}", path)


def _count(raw, values, path) -> int:
    number = _number(raw, values, path)
    if number != int(number):
        raise SchemaError(f"expected an integer, got {number!r}", path)
    return int(number)


def _string_list(raw, values, path) -> list:
    """Expand a list of strings/ints, honoring ${...} and $repeat entries."""
    if not isinstance(raw, list):
        raise SchemaError("expected an array", path)
    out = []
    for i, entry in enumerate(raw):
        entry_path = f"{path}[{i}]"
        if isinstance(entry, str):
            out.append(_substitute(entry, values, entry_path))
        elif isinstance(entry, bool):
            raise SchemaError("expected a string or integer", entry_path)
        elif isinstance(entry, int):
            out.append(entry)
        elif isinstance(entry, dict) and "$repeat" in entry:
            extra = set(entry) - {"$repeat", "count"}
            if extra:
                raise SchemaError(f"unexpected keys {sorted(extra)}", entry_path)
            template = entry["$repeat"]
            if not isinstance(template, str):
                raise SchemaError("$repeat expects a string template", entry_path)
            count = _count(entry.get("count", 0), values, f"{entry_path}.count")
            for k in range(count):
                out.append(_substitute(template, {**values, "_i": k}, entry_path))
        else:
            raise SchemaError(f"unsupported entry {entry!r}", entry_path)
    return out


def _params_node(raw, values, path) -> Params:
    if raw is None:
        return Params()
    if not isinstance(raw, dict):
        raise SchemaError("expected a parameter object", path)
    params = Params()
    for name, value in raw.items():
        if isinstance(value, str):
            value = _substitute(value, values, f"{path}.{name}")
        params[name] = value_from_json(value, f"{path}.{name}")
    return params


class _Builder:
    def __init__(self, doc: dict, doc_dir: Path, set_vars, seed, corner):
        if doc.get("version") != DOC_VERSION:
            raise SchemaError(
                f"unsupported document version {doc.get('version')!r}, "
                f"expected {DOC_VERSION}",
                "version",
            )
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise SchemaError(f"unknown keys {sorted(unknown)}", "$")

        self.doc = doc
        self.doc_dir = doc_dir
        self.corner = corner or doc.get("corner", DEFAULT_CORNER)
        if not isinstance(self.corner, str):
            raise SchemaError("corner must be a string", "corner")

        raw_vars = doc.get("variables", {})
        if not isinstance(raw_vars, dict):
            raise SchemaError("variables must be an object", "variables")
        self.variables: dict[str, float] = {}
        for name, value in raw_vars.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError("variables must be numbers", f"variables.{name}")
            self.variables[name] = value
        if set_vars:
            self.variables.update(set_vars)

        if seed is None:
            seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise SchemaError("seed must be an integer", "seed")
        self.seed = seed

        self.library: dict = {}  # device name -> ParamSet, later files shadow
        self.file_models: dict[str, Model] = {}
        self.auto_models: list[Model] = []
        self.components: dict[str, Component] = {}
        self.subcircuits: dict[str, Subcircuit] = {}
        self._op_counter = 0

    # -- document sections -------------------------------------------------

    def load_params_files(self):
        raw = self.doc.get("params_files", [])
        if not isinstance(raw, list):
            raise SchemaError("params_files must be an array of paths", "params_files")
        for i, entry in enumerate(raw):
            if not isinstance(entry, str):
                raise SchemaError("expected a path string", f"params_files[{i}]")
            try:
                loaded = load_param_file(self.doc_dir / entry)
            except OSError as exc:
                raise SchemaError(
                    f"cannot read {entry!r}: {exc}", f"params_files[{i}]"
                ) from exc
            for device, corners in loaded.items():
                self.library[device] = corners

    def load_models(self):
        raw = self.doc.get("models", [])
        if not isinstance(raw, list):
            raise SchemaError("models must be an array", "models")
        for i, entry in enumerate(raw):
            path = f"models[{i}]"
            if isinstance(entry, str):
                try:
                    cards = load_spice_models(self.doc_dir / entry)
                except OSError as exc:
                    raise SchemaError(f"cannot read {entry!r}: {exc}", path) from exc
                for model in cards:
                    self.file_models[model.name] = model
                    self.auto_models.append(model)
            elif isinstance(entry, dict):
                unknown = set(entry) - {"name", "type", "params"}
                if unknown:
                    raise SchemaError(f"unknown keys {sorted(unknown)}", path)
                if "name" not in entry or "type" not in entry:
                    raise SchemaError("model needs name and type", path)
                model = Model(
                    entry["name"],
                    entry["type"],
                    _params_node(entry.get("params"), self.variables, f"{path}.params"),
                )
                self.file_models[model.name] = model
                self.auto_models.append(model)
            else:
                raise SchemaError("expected a model object or a path string", path)

    def _params_from_ref(self, ref: str, path: str) -> Params:
        device, _, corner = ref.partition(".")
        if device not in self.library:
            raise SchemaError(
                f"unknown device {device!r}; loaded: {sorted(self.library)}", path
            )
        return self.library[device].corner(corner or self.corner)

    def load_components(self):
        raw = self.doc.get("components", [])
        if not isinstance(raw, list):
            raise SchemaError("components must be an array", "components")
        for i, entry in enumerate(raw):
            path = f"components[{i}]"
            if not isinstance(entry, dict):
                raise SchemaError("expected a component object", path)
            if "verilog_a" in entry:
                self._check_keys(entry, {"verilog_a", "prefix", "params", "metadata"}, path)
                try:
                    comp = load_veriloga(self.doc_dir / entry["verilog_a"])
                except OSError as exc:
                    raise SchemaError(
                        f"cannot read {entry['verilog_a']!r}: {exc}", path
                    ) from exc
                if {"prefix", "params", "metadata"} & set(entry):
                    metadata = dict(comp.metadata)
                    metadata.update(entry.get("metadata", {}))
                    comp = Component(
                        comp.name,
                        comp.ports,
                        comp.params.merged(
                            _params_node(entry.get("params"), self.variables, f"{path}.params")
                        ),
                        prefix=entry.get("prefix", comp.prefix),
                        metadata=metadata,
                    )
                self.components[comp.name] = comp
                continue
            self._check_keys(
                entry, {"name", "ports", "params", "params_from", "prefix", "metadata"}, path
            )
            if "name" not in entry or "ports" not in entry:
                raise SchemaError("component needs name and ports", path)
            params = Params()
            if "params_from" in entry:
                ref = entry["params_from"]
                if not isinstance(ref, str):
                    raise SchemaError(
                        "params_from must be 'device' or 'device.corner'", path
                    )
                params = params.merged(self._params_from_ref(ref, f"{path}.params_from"))
            params = params.merged(
                _params_node(entry.get("params"), self.variables, f"{path}.params")
            )
            comp = Component(
                entry["name"],
                _string_list(entry["ports"], self.variables, f"{path}.ports"),
                params,
                prefix=entry.get("prefix"),
                metadata=entry.get("metadata"),
            )
            self.components[comp.name] = comp

    def load_subcircuits(self):
        raw = self.doc.get("subcircuits", [])
        if not isinstance(raw, list):
            raise SchemaError("subcircuits must be an array", "subcircuits")
        for i, entry in enumerate(raw):
            path = f"subcircuits[{i}]"
            if not isinstance(entry, dict):
                raise SchemaError("expected a subcircuit object", path)
            self._check_keys(entry, {"name", "pins", "params", "body", "fixed"}, path)
            if "name" not in entry or "pins" not in entry:
                raise SchemaError("subcircuit needs name and pins", path)
            name = entry["name"]
            pins = [
                str(p) for p in _string_list(entry["pins"], self.variables, f"{path}.pins")
            ]
            params = _params_node(entry.get("params"), self.variables, f"{path}.params")
            body_ops = entry.get("body", [])
            if not isinstance(body_ops, list):
                raise SchemaError("body must be an array of operator nodes", f"{path}.body")
            if body_ops:
                scratch = Circuit(rng_seed=self.seed)
                self.run_ops(body_ops, scratch, f"{path}.body")
                sub = scratch.into_subckt(name, pins, params)
            else:
                sub = Subcircuit(name, pins, params)
            if entry.get("fixed", False):
                sub.fix()
            self.subcircuits[name] = sub

    # -- operator nodes ------------------------------------------------------

    def resolve_template(self, spec, path):
        """A template name, or {ref, nets, params} for a pre-bound instance."""
        if isinstance(spec, str):
            name = _substitute(spec, self.variables, path)
            template = self.components.get(name) or self.subcircuits.get(name)
            if template is None:
                raise SchemaError(f"unknown template {name!r}", path)
            return template
        if isinstance(spec, dict):
            self._check_keys(spec, {"ref", "nets", "params"}, path)
            if "ref" not in spec:
                raise SchemaError("template object needs a ref", path)
            template = self.resolve_template(spec["ref"], f"{path}.ref")
            inst = as_instance(template)
            if "nets" in spec:
                inst = inst @ _string_list(spec["nets"], self.variables, f"{path}.nets")
            if "params" in spec:
                inst = inst % _params_node(spec["params"], self.variables, f"{path}.params")
            return inst
        raise SchemaError("template must be a name or {ref, nets, params}", path)

    def materialize(self, node, path):
        """Turn one operator node into something a circuit can add."""
        if not isinstance(node, dict):
            raise SchemaError("operator node must be an object", path)
        op = node.get("op")
        if op not in _OPS:
            raise SchemaError(f"unknown op {op!r}; expected one of {', '.join(_OPS)}", path)
        self._op_counter += 1

        if op == "instance":
            self._check_keys(node, {"op", "template", "nets", "params"}, path)
            inst = as_instance(self.resolve_template(self._template(node, path), path))
            if "nets" in node:
                inst = inst @ _string_list(node["nets"], self.variables, f"{path}.nets")
            if "params" in node:
                inst = inst % _params_node(node["params"], self.variables, f"{path}.params")
            return inst

        if op == "parallel":
            self._check_keys(node, {"op", "template", "n"}, path)
            template = self.resolve_template(self._template(node, path), path)
            return Parallel(template, _count(node.get("n", 1), self.variables, f"{path}.n"))

        if op in ("chain", "named_chain"):
            allowed = {"op", "template", "n", "in_port", "out_port"}
            if op == "named_chain":
                allowed.add("out_name")
            self._check_keys(node, allowed, path)
            template = self.resolve_template(self._template(node, path), path)
            n = _count(node.get("n", 1), self.variables, f"{path}.n")
            in_port = _count(node.get("in_port", 0), self.variables, f"{path}.in_port")
            out_port = node.get("out_port")
            if out_port is not None:
                out_port = _count(out_port, self.variables, f"{path}.out_port")
            if op == "chain":
                return Chain(template, n, in_port, out_port)
            out_name = node.get("out_name")
            if not isinstance(out_name, str):
                raise SchemaError("named_chain needs an out_name string", path)
            out_name = _substitute(out_name, self.variables, f"{path}.out_name")
            return NamedChain(template, n, in_port, out_port, out_name=out_name)

        if op == "array":
            self._check_keys(node, {"op", "template", "shape", "ports"}, path)
            template = self.resolve_template(self._template(node, path), path)
            raw_shape = node.get("shape")
            if not isinstance(raw_shape, list) or len(raw_shape) not in (1, 2):
                raise SchemaError("shape must be [len] or [rows, cols]", f"{path}.shape")
            shape = tuple(
                _count(d, self.variables, f"{path}.shape[{k}]")
                for k, d in enumerate(raw_shape)
            )
            port_templates = node.get("ports")
            port_fn = None
            if port_templates is not None:
                if not isinstance(port_templates, list) or not all(
                    isinstance(p, str) for p in port_templates
                ):
                    raise SchemaError("ports must be an array of strings", f"{path}.ports")

                def port_fn(coords, _templates=tuple(port_templates)):
                    if isinstance(coords, tuple):
                        scope = {**self.variables, "_x": coords[0], "_y": coords[1]}
                    else:
                        scope = {**self.variables, "_i": coords}
                    return [_substitute(t, scope, f"{path}.ports") for t in _templates]

            return Array(shape, template, port_fn)

        if op == "inject":
            self._check_keys(node, {"op", "into", "p", "defect", "seed"}, path)
            if "into" not in node:
                raise SchemaError("inject needs an 'into' operator node", path)
            source = self._as_batch(self.materialize(node["into"], f"{path}.into"), f"{path}.into")
            p = _number(node.get("p", 0.5), self.variables, f"{path}.p")
            defect = None
            if "defect" in node:
                defect = self.resolve_template(node["defect"], f"{path}.defect")
            if "seed" in node:
                seed = _count(node["seed"], self.variables, f"{path}.seed")
            else:
                seed = derive_seed(self.seed, self._op_counter)
            return Inject(source, p, defect=defect, rng=seed)

        if op == "concat":
            self._check_keys(node, {"op", "of"}, path)
            parts_raw = node.get("of")
            if not isinstance(parts_raw, list):
                raise SchemaError("concat needs an array 'of' operator nodes", path)
            return concat(
                self._as_batch(self.materialize(part, f"{path}.of[{k}]"), f"{path}.of[{k}]")
                for k, part in enumerate(parts_raw)
            )

        if op == "add_model":
            self._check_keys(node, {"op", "name", "type", "params"}, path)
            name = node.get("name")
            if not isinstance(name, str):
                raise SchemaError("add_model needs a name", path)
            if "type" in node:
                return Model(
                    name,
                    node["type"],
                    _params_node(node.get("params"), self.variables, f"{path}.params"),
                )
            model = self.file_models.get(name)
            if model is None:
                raise SchemaError(f"unknown model {name!r}", path)
            return model

        # into_subckt: build a scratch circuit from `body`, convert, register
        self._check_keys(node, {"op", "name", "pins", "params", "body"}, path)
        if "name" not in node or "pins" not in node:
            raise SchemaError("into_subckt needs name and pins", path)
        scratch = Circuit(rng_seed=self.seed)
        self.run_ops(node.get("body", []), scratch, f"{path}.body")
        sub = scratch.into_subckt(
            node["name"],
            [str(p) for p in _string_list(node["pins"], self.variables, f"{path}.pins")],
            _params_node(node.get("params"), self.variables, f"{path}.params"),
        )
        self.subcircuits[sub.name] = sub
        return sub

    @staticmethod
    def _as_batch(made, path) -> Manipulation:
        if isinstance(made, Manipulation):
            return made
        if isinstance(made, Instance):
            return Manipulation([made])
        raise SchemaError("this operator node must produce instances", path)

    @staticmethod
    def _template(node, path):
        if "template" not in node:
            raise SchemaError("missing template", path)
        return node["template"]

    @staticmethod
    def _check_keys(node, allowed, path):
        unknown = set(node) - set(allowed)
        if unknown:
            raise SchemaError(f"unknown keys {sorted(unknown)}", path)

    def run_ops(self, ops, target: Circuit, path: str):
        if not isinstance(ops, list):
            raise SchemaError("expected an array of operator nodes", path)
        for i, node in enumerate(ops):
            target.add(self.materialize(node, f"{path}[{i}]"))

    def build(self) -> Circuit:
        self.load_params_files()
        self.load_models()
        self.load_components()
        self.load_subcircuits()

        circuit = Circuit(rng_seed=self.seed)
        for sub in self.subcircuits.values():
            circuit.add(sub)
        for model in self.auto_models:
            circuit.add(model)
        self.run_ops(self.doc.get("circuit", []), circuit, "circuit")
        _validate_parameter_graphs(circuit)
        return circuit


def _validate_parameter_graphs(circuit: Circuit) -> None:
    """Fail the build on parameter cycles instead of waiting for export.

    Each distinct Params is checked once: an instance without overrides
    shares its template's Params, so a chain of N such instances costs one
    check, whose plan the export then reuses. An instance with overrides is
    checked on its own merged map."""
    checked = {}  # id -> Params, holding each alive so no id is reused

    def check(params):
        if id(params) not in checked:
            checked[id(params)] = params
            validate_dependencies(params)

    def check_instance(inst):
        if inst.overrides:
            validate_dependencies(inst.effective_params())
        else:
            check(inst.template.params)

    for model in circuit.models.values():
        check(model.params)
    seen = set()
    stack = list(circuit.subcircuits.values())
    while stack:
        sub = stack.pop()
        if id(sub) in seen:
            continue
        seen.add(id(sub))
        stack.extend(sub.nested)
        check(sub.params)
        for inst in sub.body:
            check_instance(inst)
    for inst in circuit.instances:
        check_instance(inst)


def build_circuit(doc: dict, doc_dir, set_vars=None, seed=None, corner=None) -> Circuit:
    """Construct the circuit a build document describes.

    `set_vars` overrides document variables, `seed` the document seed, and
    `corner` the active corner used by corner-less params_from references.
    """
    return _Builder(doc, Path(doc_dir), set_vars, seed, corner).build()
