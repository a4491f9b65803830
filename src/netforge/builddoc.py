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

Parameter maps are read as parameter files read them (io_readers.
params_from_json), after ${...} substitution in text values.

The document is read in one pass, one way per record: one reader for the
top-level arrays, one for models[] objects and add_model nodes, one for
components and one for subcircuits. Each parameter map is checked for
formula cycles once, at the first node that uses it: the map a template's
lines print (exporters._line_params) at the node that places it, a model's
where the build registers it, and a subcircuit's where it is built. A
malformed part is a SchemaError at its path, and so is an add_model node in
a subcircuit body, whose model no subcircuit carries, a model without a text
name or a type, and an empty params_from corner ("nmos."). An unreadable
file the document names, or a SchemaError or ParseError inside it (io_readers
decodes every file, so bytes that are not UTF-8 are one), is a SchemaError
at its entry that names the file.

A build asks for at most BUILD_BUDGET instances and list entries, so that no
document can exhaust memory: each chain, named_chain and parallel count, the
product of an array's shape and each $repeat count is taken from what is
left before anything is made, and the defects an inject draws right after
its draw, before any of them is made. A count past what is left is a
SchemaError at its path.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .core import Circuit, Component, Instance, Model, Subcircuit, as_instance
from .errors import NetforgeError, ParseError, SchemaError
from .exporters import _line_params
from .formula import MAX_DEPTH, parse_formula
from .io_readers import (
    _utf8,
    load_param_file,
    load_spice_models,
    load_veriloga,
    params_from_json,
    read_json,
    value_from_json,
)
from .manip import Array, Chain, Inject, Manipulation, NamedChain, Parallel, concat
from .numfmt import format_number
from .params import Params, validate_dependencies
from .rng import derive_seed

__all__ = ["load_doc", "build_circuit", "DEFAULT_CORNER", "DOC_VERSION"]

DOC_VERSION = 1
DEFAULT_CORNER = "TT"
# The instances and list entries one build may ask for: 200 times the largest
# benchmark workload (chain_mc, 5 000 instances). A chain this long takes
# about 0.5 GB once built.
BUILD_BUDGET = 1_000_000

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

# op -> the keys its node may hold
_OP_KEYS = {
    "instance": {"op", "template", "nets", "params"},
    "parallel": {"op", "template", "n"},
    "chain": {"op", "template", "n", "in_port", "out_port"},
    "named_chain": {"op", "template", "n", "in_port", "out_port", "out_name"},
    "array": {"op", "template", "shape", "ports"},
    "inject": {"op", "into", "p", "defect", "seed"},
    "concat": {"op", "of"},
    "add_model": {"op", "name", "type", "params"},
    "into_subckt": {"op", "name", "pins", "params", "body"},
}


def load_doc(path) -> dict:
    """JSON-decode the build document at `path`, decoded by io_readers._utf8."""
    doc = read_json(_utf8(Path(path).read_bytes(), path), path)
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
        if not math.isfinite(result):
            raise SchemaError(f"cannot evaluate ${{{expr}}}: {result} is not finite", path)
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


def _count(raw, values, path, least=None) -> int:
    number = _number(raw, values, path)
    # json reads 1e400 as inf and NaN as nan, which int() cannot take
    if (isinstance(number, float) and not math.isfinite(number)) or number != int(number):
        raise SchemaError(f"expected an integer, got {number!r}", path)
    if least is not None and number < least:
        raise SchemaError(f"expected an integer >= {least}, got {int(number)}", path)
    return int(number)


def _string_list(raw, values, path, spend) -> list:
    """Expand a list of strings/ints, honoring ${...} and $repeat entries;
    each $repeat count goes through `spend` (_Builder._spend) first."""
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
            count = spend(_count(entry.get("count", 0), values, f"{entry_path}.count", 0),
                          f"{entry_path}.count")
            for k in range(count):
                out.append(_substitute(template, {**values, "_i": k}, entry_path))
        else:
            raise SchemaError(f"unsupported entry {entry!r}", entry_path)
    return out


def _metadata(raw, path) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
        raise SchemaError("metadata must be an object of strings", path)
    return raw


def _check_keys(node, allowed, path):
    unknown = set(node) - allowed
    if unknown:
        raise SchemaError(f"unknown keys {sorted(unknown)}", path)


def _params_node(raw, values, path) -> Params:
    """A parameter map read as parameter files read it; null reads as none."""
    if raw is None:
        return Params()

    def decode(value, path):
        if isinstance(value, str):
            value = _substitute(value, values, path)
        return value_from_json(value, path)

    return params_from_json(raw, path, decode)


class _Builder:
    def __init__(self, doc: dict, doc_dir: Path, set_vars, seed, corner):
        if doc.get("version") != DOC_VERSION:
            raise SchemaError(
                f"unsupported document version {doc.get('version')!r}, "
                f"expected {DOC_VERSION}",
                "version",
            )
        _check_keys(doc, _TOP_KEYS, "$")

        self.doc = doc
        self.doc_dir = doc_dir
        self.corner = doc.get("corner", DEFAULT_CORNER) if corner is None else corner
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
        self.seed_derived = False  # see build_circuit

        self.library: dict = {}  # device name -> ParamSet, later files shadow
        self.auto_models: list[Model] = []
        self.components: dict[str, Component] = {}
        self.subcircuits: dict[str, Subcircuit] = {}
        self._op_counter = 0
        self._nesting = 0  # the operator nodes being materialized, see materialize
        self._checked: dict = {}  # id -> Params, see _check
        self._left = BUILD_BUDGET  # see _spend

    def _spend(self, count: int, path: str) -> int:
        """`count`, taken from what is left of the build's BUILD_BUDGET
        instances and list entries; a SchemaError at `path` if it is more."""
        if count > self._left:
            raise SchemaError(
                f"count {count} is more than the {self._left} instances and list entries "
                f"left of the build budget ({BUILD_BUDGET})",
                path,
            )
        self._left -= max(count, 0)  # a negative count fails where it is used
        return count

    # -- document sections -------------------------------------------------

    def _entries(self, key: str, what: str, kinds=dict):
        """(entry, "key[i]") per entry of the top-level array `key`, each one of `kinds`."""
        raw = self.doc.get(key, [])
        if not isinstance(raw, list):
            raise SchemaError(f"{key} must be an array", key)
        for i, entry in enumerate(raw):
            if not isinstance(entry, kinds):
                raise SchemaError(f"expected {what}", f"{key}[{i}]")
            yield entry, f"{key}[{i}]"

    def _read(self, load, entry: str, path: str):
        """`load` of the file `entry` names, next to the document. A file
        that cannot be read, and a SchemaError or ParseError inside it (such
        as bytes that are not UTF-8), is a SchemaError at `path` naming it."""
        try:
            return load(self.doc_dir / entry)
        except OSError as exc:
            raise SchemaError(f"cannot read {entry!r}: {exc}", path) from exc
        except SchemaError as exc:
            raise SchemaError(f"in {entry!r} at {exc}", path) from exc
        except ParseError as exc:
            raise SchemaError(f"in {entry!r}: {exc}", path) from exc

    def load_params_files(self):
        for entry, path in self._entries("params_files", "a path string", str):
            self.library.update(self._read(load_param_file, entry, path))

    def load_models(self):
        for entry, path in self._entries("models", "a model object or a path string", (dict, str)):
            if isinstance(entry, str):
                self.auto_models += self._read(load_spice_models, entry, path)
            else:
                _check_keys(entry, {"name", "type", "params"}, path)
                self.auto_models.append(self.model(entry, path, "model"))

    def model(self, node, path, kind) -> Model:
        """The model of a models[] object or an add_model node."""
        if not isinstance(node.get("name"), str) or "type" not in node:
            raise SchemaError(f"{kind} needs a name and a type", path)
        params = _params_node(node.get("params"), self.variables, f"{path}.params")
        return Model(node["name"], node["type"], params)

    def _params_from_ref(self, ref, path: str) -> Params:
        if not isinstance(ref, str):
            raise SchemaError("params_from must be 'device' or 'device.corner'", path)
        device, dot, corner = ref.partition(".")
        if device not in self.library:
            raise SchemaError(
                f"unknown device {device!r}; loaded: {sorted(self.library)}", path
            )
        if dot and not corner:  # an empty corner is never the document's
            raise SchemaError(f"empty corner in {ref!r}; {device!r} reads the active one", path)
        return self.library[device].corner(corner if dot else self.corner)

    def load_components(self):
        """A verilog_a entry takes name, ports, params, prefix and metadata from
        its file, a plain one from the document; its params, prefix and metadata
        apply to both."""
        for entry, path in self._entries("components", "a component object"):
            if "verilog_a" in entry:
                _check_keys(entry, {"verilog_a", "prefix", "params", "metadata"}, path)
                if not isinstance(entry["verilog_a"], str):
                    raise SchemaError("verilog_a must be a path string", f"{path}.verilog_a")
                base = self._read(load_veriloga, entry["verilog_a"], path)
                name, ports, params, prefix = base.name, base.ports, base.params, base.prefix
                metadata = base.metadata
            else:
                _check_keys(
                    entry, {"name", "ports", "params", "params_from", "prefix", "metadata"}, path
                )
                if "name" not in entry or "ports" not in entry:
                    raise SchemaError("component needs name and ports", path)
                name, prefix, metadata = entry["name"], None, {}
                ports = _string_list(entry["ports"], self.variables, f"{path}.ports", self._spend)
                params = Params()
                if "params_from" in entry:
                    params = self._params_from_ref(entry["params_from"], f"{path}.params_from")
            comp = Component(
                name,
                ports,
                params | _params_node(entry.get("params"), self.variables, f"{path}.params"),
                prefix=entry.get("prefix", prefix),
                metadata={**metadata, **_metadata(entry.get("metadata"), f"{path}.metadata")},
            )
            self.components[comp.name] = comp

    def load_subcircuits(self):
        for entry, path in self._entries("subcircuits", "a subcircuit object"):
            _check_keys(entry, {"name", "pins", "params", "body", "fixed"}, path)
            self.subcircuit(entry, path, "subcircuit")

    def subcircuit(self, node, path, kind) -> Subcircuit:
        """Build, check and register the subcircuit of a subcircuits[] entry
        or an into_subckt node; its body runs in a scratch circuit."""
        if "name" not in node or "pins" not in node:
            raise SchemaError(f"{kind} needs name and pins", path)
        pins = _string_list(node["pins"], self.variables, f"{path}.pins", self._spend)
        pins = [str(p) for p in pins]
        params = _params_node(node.get("params"), self.variables, f"{path}.params")
        body = node.get("body", [])
        if not isinstance(body, list):
            raise SchemaError("body must be an array of operator nodes", f"{path}.body")
        scratch = Circuit(rng_seed=self.seed)
        self.run_ops(body, scratch, f"{path}.body", in_body=True)
        sub = scratch.into_subckt(node["name"], pins, params)
        fixed = node.get("fixed", False)
        if not isinstance(fixed, bool):
            raise SchemaError("expected true or false", f"{path}.fixed")
        if fixed:
            sub.fix()
        self._check(sub.params)
        self.subcircuits[sub.name] = sub
        return sub

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
            _check_keys(spec, {"ref", "nets", "params"}, path)
            if "ref" not in spec:
                raise SchemaError("template object needs a ref", path)
            return self.bind(self.resolve_template(spec["ref"], f"{path}.ref"), spec, path)
        raise SchemaError("template must be a name or {ref, nets, params}", path)

    def bind(self, template, node, path) -> Instance:
        """A fresh instance of `template` on the node's nets, with its params."""
        inst = as_instance(template)
        if "nets" in node:
            inst @= _string_list(node["nets"], self.variables, f"{path}.nets", self._spend)
        if "params" in node:
            # the instance is fresh, and so are its overrides
            inst.overrides.update(_params_node(node["params"], self.variables, f"{path}.params"))
        return inst

    def _check(self, params) -> None:
        """Check `params` for formula cycles once per build. `_checked`
        holds each map it has seen, so that no id is reused."""
        if id(params) not in self._checked:
            self._checked[id(params)] = params
            validate_dependencies(params)

    def _placed(self, template):
        """`template`, once the parameter map its lines print
        (exporters._line_params) is checked: a bound instance's at each node
        that places it, a template's own map once per build."""
        if isinstance(template, Instance) and template.overrides:
            self._check(_line_params(template))
        elif isinstance(template, Instance):
            self._check(template.template.params)
        else:
            self._check(template.params)
        return template

    def _template(self, node, path):
        if "template" not in node:
            raise SchemaError("missing template", path)
        return self.resolve_template(node["template"], path)

    def materialize(self, node, path):
        """Turn one operator node into something a circuit can add. A node
        inside more than MAX_DEPTH others (through inject, concat and
        into_subckt) is a SchemaError at its path."""
        if self._nesting > MAX_DEPTH:
            raise SchemaError(f"operator nodes nest deeper than {MAX_DEPTH} levels", path)
        self._nesting += 1
        try:
            return self._made(node, path)
        finally:
            self._nesting -= 1

    def _made(self, node, path):
        if not isinstance(node, dict):
            raise SchemaError("operator node must be an object", path)
        op = node.get("op")
        if not isinstance(op, str) or op not in _OP_KEYS:
            raise SchemaError(f"unknown op {op!r}; expected one of {', '.join(_OP_KEYS)}", path)
        _check_keys(node, _OP_KEYS[op], path)
        self._op_counter += 1

        if op == "instance":
            return self._placed(self.bind(self._template(node, path), node, path))

        if op == "parallel":
            template = self._placed(self._template(node, path))
            n = _count(node.get("n", 1), self.variables, f"{path}.n", 0)
            return Parallel(template, self._spend(n, f"{path}.n"))

        if op in ("chain", "named_chain"):
            template = self._placed(self._template(node, path))
            n = self._spend(_count(node.get("n", 1), self.variables, f"{path}.n"), f"{path}.n")
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
            template = self._placed(self._template(node, path))
            raw_shape = node.get("shape")
            if not isinstance(raw_shape, list) or len(raw_shape) not in (1, 2):
                raise SchemaError("shape must be [len] or [rows, cols]", f"{path}.shape")
            shape = tuple(
                _count(d, self.variables, f"{path}.shape[{k}]", 1)
                for k, d in enumerate(raw_shape)
            )
            self._spend(math.prod(shape), f"{path}.shape")
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
            if "into" not in node:
                raise SchemaError("inject needs an 'into' operator node", path)
            source = self._as_batch(self.materialize(node["into"], f"{path}.into"), f"{path}.into")
            p = _number(node.get("p", 0.5), self.variables, f"{path}.p")
            defect = None
            if "defect" in node:
                defect = self._placed(self.resolve_template(node["defect"], f"{path}.defect"))
            if "seed" in node:
                seed = _count(node["seed"], self.variables, f"{path}.seed")
            else:
                seed = derive_seed(self.seed, self._op_counter)
                self.seed_derived = True
            made = Inject(source, p, defect=defect, rng=seed)
            # at most one defect per instance of the source, which is spent already
            self._spend(len(made) - len(source), path)
            return made

        if op == "concat":
            parts_raw = node.get("of")
            if not isinstance(parts_raw, list):
                raise SchemaError("concat needs an array 'of' operator nodes", path)
            # every part is made before concat reads any, so that a level of
            # nesting costs three frames, not five
            return concat([
                self._as_batch(self.materialize(part, f"{path}.of[{k}]"), f"{path}.of[{k}]")
                for k, part in enumerate(parts_raw)
            ])

        if op == "add_model":
            model = self.model(node, path, op)
            self._check(model.params)
            return model

        return self.subcircuit(node, path, op)

    @staticmethod
    def _as_batch(made, path) -> Manipulation:
        if isinstance(made, Manipulation):
            return made
        if isinstance(made, Instance):
            return Manipulation([made])
        raise SchemaError("this operator node must produce instances", path)

    def run_ops(self, ops, target: Circuit, path: str, in_body=False):
        if not isinstance(ops, list):
            raise SchemaError("expected an array of operator nodes", path)
        for i, node in enumerate(ops):
            if in_body and isinstance(node, dict) and node.get("op") == "add_model":
                # a subcircuit carries no models, so the model would be lost
                raise SchemaError(
                    "add_model cannot be in a subcircuit body; add the model to the circuit",
                    f"{path}[{i}]",
                )
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
            self._check(model.params)
            circuit.add(model)
        self.run_ops(self.doc.get("circuit", []), circuit, "circuit")
        circuit.seed_derived = self.seed_derived
        return circuit


def build_circuit(doc: dict, doc_dir, set_vars=None, seed=None, corner=None) -> Circuit:
    """Construct the circuit a build document describes.

    `set_vars` overrides document variables, `seed` the document seed, and
    `corner` the active corner used by corner-less params_from references.
    The circuit's `seed_derived` is True when the build derived a seed from
    the document seed (an inject node without "seed"). When it is False, the
    seed reaches the circuit only as `rng_seed`: setting `rng_seed` to
    another seed gives the circuit a build with that seed would give.
    """
    return _Builder(doc, Path(doc_dir), set_vars, seed, corner).build()
