"""Dialect exporters, the lossless JSON circuit format, and the lint pass.

Built-in dialects: "spice" (NGSpice-compatible), "spectre", and "json-ir".
The registry is open: register_exporter(name, fn) plugs in any
`fn(circuit, seed, options) -> str`, which makes the engine
simulator-agnostic; exporter_for() is the one lookup, and write_atomic() the
one file writer, that the library and the CLI share.

The text dialects are tables (_TextDialect) over one traversal,
_text_exporter: lint once, in the one walk over the instances, which
splits each scope into runs of consecutive instances with one template and
the same override objects; lay the netlist out once (_line_frame) from what
lint read, a lint run at a time, into the literal lines and runs: each
stretch of consecutive lines with drawn or computed values that share a
ParamPlan becomes one entry, the plan's run function (ParamPlan.run: the plan's
generated kernel, with draws, formulas and number formatting inline) with
the text before each of its lines; then, for each seed, call the run
functions in line order with one rng seeded explicitly (_render), each
rendering all of its lines in one call. A table holds only what a dialect
changes: header, keyword prefix, parameter and net formats, and footer. So
equal (circuit, seed) pairs always produce byte-identical output, every
text dialect draws the same values in the same order, and different seeds
can only change parameter value tokens, never topology lines.
_seed_exporter gives any dialect that seed -> text form, so export() and a
many-seed sweep share one path; the circuit must not change between the
calls of one seed -> text function.

Lint also keeps the one-token promise of netforge.names for what Python can
change after construction, or a document can load, but a simulator could
not read as one token: designators, which must also start with [A-Za-z_]
so that a reader takes their line as an element, and text parameter values
(BAD_TOKEN).
Every other name was checked when its object was made. Lint also reports
each name that a printed formula reads and that nothing on its line
supplies as a number (UNRESOLVED_PARAM), and a cycle among a printed map's
formulas (CYCLIC_PARAM), planning each map where it first reads it. Past a
clean lint, export can still fail only on values: a draw or result that is
not finite, or a division by zero.

The JSON dialect is different in kind: it round-trips the circuit losslessly,
with formulas and distributions still unresolved, and therefore neither
evaluates parameters nor runs lint. export_json, and write_param_file for a
parameter file, write every record straight to text, with the bytes
json.dumps(indent=2) gives its dict form, and every parameter value through
one writer (_param_text). export_json writes the instance records of a
scope as columns, joined once (_instance_records): a head per template
object, the net names cut into rows by lint's row cutter, and names and
designators quoted without a call per name when none needs escaping; the
top level's records join straight into the document.

import_json reads a scope (the top level or a subcircuit body) a column at a
time (_instances_from_ir): it takes each field of every record in one pass
and checks each column in one pass, and makes the common records (a known
template, net names as text, no params, a designator) in one call; it hands
any other record, in record order, whole to the per-record reader, which
makes it or raises its error, so the first bad record is the one reported.
It checks and makes each distinct net name once per scope, and the
instances of a scope share one Net per name; the joins that checked the
scope's designators and its net names continue its counters. Every
definition name, designator and parameter name it reads goes through the
rules of netforge.names, and a name they reject is a SchemaError at the
name's path. Its text goes through io_readers.read_json, as every JSON
input does.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
from collections import Counter
from itertools import accumulate, chain, compress, count, islice, repeat
from pathlib import Path

from . import names
from .core import (
    Circuit,
    Component,
    Instance,
    Model,
    Subcircuit,
    UnresolvedTemplate,
    _instances,
    _text_nets,
    as_net,
)
from .errors import (
    BadNameError,
    CyclicDependencyError,
    DuplicateDialectError,
    DuplicatePinError,
    DuplicateSubcircuitError,
    LintErrors,
    NetforgeError,
    NetNameError,
    Record,
    SchemaError,
    UnknownDialectError,
    VersionMismatchError,
)
from .formula import Formula
from .io_readers import ParamFile, _checked, _key_path, read_json, value_from_json
# perfbench/tracer.py TARGETS resolve eval_params and format_number under this
# module's name, so both stay importable here although text export renders
# through ParamPlan.run
from .numfmt import format_number  # noqa: F401
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

class Finding(Record):
    _fields = ("severity", "code", "message", "location")
    severity: str  # "warn" | "error"
    code: str
    message: str
    location: str

    def __str__(self):
        return f"{self.severity.upper():5s} {self.code:21s} {self.location}: {self.message}"


class LintReport:
    """Deterministically ordered findings (by location, then code), and the
    subcircuit definitions that lint checked, in emission order."""

    def __init__(self, findings, subcircuits=(), *, _lines=()):
        self.findings = tuple(
            sorted(findings, key=lambda f: (f.location, f.code, f.message))
        )
        self.subcircuits = tuple(subcircuits)
        self._lines = _lines  # from lint: per scope, net names, and each run's map and size

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


def _map_errors(params) -> list:
    """(code, message) for each text value of `params` that is not one token
    (BAD_TOKEN) and for a cycle among its formulas (CYCLIC_PARAM). The map
    is planned here, and keeps its plan for the layout."""
    errors = [
        ("BAD_TOKEN", f"text value {value!r} of parameter {name!r} is not one token")
        for name, value in params.items() if isinstance(value, str) and not names.is_token(value)
    ]
    try:
        plan_of(params)
    except CyclicDependencyError as exc:
        errors.append(("CYCLIC_PARAM", str(exc)))
    return errors


def _free_names(params) -> dict:
    """name -> the parameter whose formula reads it first, for every name that
    the formulas of `params` read and `params` does not hold as a number: a
    name it lacks, or holds as text."""
    free: dict[str, str] = {}
    for owner, value in params.items():
        if isinstance(value, Formula):
            for name in value.identifiers:
                if name not in params or isinstance(params[name], str):
                    free.setdefault(name, owner)
    return free


def _unresolved(free: dict, params, context) -> list:
    """(code, message) for each name of `free` (see _free_names) that the
    formulas of `params` cannot read as a number on a line with `context`. A
    name `params` holds as text, or `context` lacks, is taken out, so it is
    reported once per map; a value of `context` that is not a number (text,
    or any other JSON value an imported context holds), on each such line."""
    errors = []
    for name in list(free):
        if name in params or name not in context:
            what = "is text, not a number" if name in params else "nothing on its line supplies"
            errors.append(("UNRESOLVED_PARAM", f"formula of {free.pop(name)!r} reads {name!r}, "
                           f"which {what}"))
        elif not isinstance(context[name], (int, float)):
            errors.append(("UNRESOLVED_PARAM", f"formula of {free[name]!r} reads {name!r}, "
                           "which its line's context does not give as a number"))
    return errors


def _master_error(template, known_subckts):
    """The UNDEFINED_MASTER message for an instance of `template`, or None."""
    if isinstance(template, UnresolvedTemplate):
        return f"no definition for master {template.name!r}"
    if isinstance(template, Subcircuit):
        registered = known_subckts.get(template.name)
        if registered is None or (registered is not template and registered != template):
            return f"subcircuit {template.name!r} is not defined in this circuit"
    return None


def _same_objects(a, b) -> bool:
    """Whether the maps `a` and `b` hold the same names, in the same order,
    each bound to the same value object. Identity, not equality: equal
    formulas can compute different values (an int and a float literal)."""
    return list(a) == list(b) and all(map(operator.is_, a.values(), b.values()))


def _rows(items: list, arities: list, row) -> list:
    """row(r) of each row r of `items`, the items of consecutive rows one
    after another, cut into rows of `arities` items each: r is a tuple when
    every row has as many items, else a slice of `items`."""
    widths = set(arities)
    if len(widths) == 1 and 0 not in widths:
        return list(map(row, zip(*[iter(items)] * widths.pop())))
    return [row(items[end - n:end]) for n, end in zip(arities, accumulate(arities))]


def _lint_scope(findings, lines, instances, pins, scope, global_nets, known_subckts, reads):
    """Check one scope; return its net uses, and append to `lines` its
    instances' space-joined net names, and its runs' line maps and sizes.

    Designators and net names are read in one pass each over the scope. A
    run is a stretch of consecutive instances with one template and the
    same overrides: the same names, in the same order, each bound to the
    same value object (_same_objects), as every child of one combinator
    holds; two empty maps are the same. A run's template, line map
    (_line_params, one merge per run), its free names and plan (`reads`,
    each map's by id, see _map_errors) are made once, and only the names
    its map reads are checked per line, against each line's context. `maps`
    and `sizes` hold each run's line map, which they
    keep alive for the layout, and its number of lines: two flat lists, as a
    pair per run would leave a tuple per run in CPython's free list once the
    layout drops it."""
    at = f"{scope}/" if scope else ""
    errors: list = []  # (instance, code, message), located after the walk
    designators = [inst.designator for inst in instances]
    if None in designators:
        errors += [(inst, "BAD_TOKEN", f"instance of {inst.template.name!r} has no designator; "
                    "insert it through a circuit or subcircuit before exporting")
                   for inst in instances if inst.designator is None]
    used = [net.name for inst in instances for net in inst.nets]
    if None in used:  # an error, so these lines are never laid out
        rows = [[net.name for net in inst.nets] for inst in instances]
        for inst, row in zip(instances, rows):
            master = getattr(inst.template, "name", "?")
            errors += [(inst, "UNCONNECTED", f"port {index} of {master} is unconnected")
                       for index, name in enumerate(row) if name is None]
        nets = [" ".join([name for name in row if name is not None]) for row in rows]
        used = [name for name in used if name is not None]
    else:
        nets = _rows(used, [len(inst.nets) for inst in instances], " ".join)

    maps: list = []
    sizes: list[int] = []
    start, count = 0, len(instances)
    while start < count:
        first = instances[start]
        template, overrides = first.template, first.overrides
        end = start + 1
        while end < count:
            inst = instances[end]
            if inst.template is not template or (
                (inst.overrides or overrides) and not _same_objects(inst.overrides, overrides)
            ):
                break
            end += 1
        message = _master_error(template, known_subckts)
        if message is not None:
            errors += [(inst, "UNDEFINED_MASTER", message) for inst in instances[start:end]]
        line_map = _line_params(first)
        maps.append(line_map)
        sizes.append(end - start)
        if line_map:
            free = reads.get(id(line_map))
            if free is None:
                free = reads[id(line_map)] = _free_names(line_map)
                errors += [(first, *error) for error in _map_errors(line_map)]
            if free:
                for inst in instances[start:end]:
                    errors += [(inst, *error)
                               for error in _unresolved(free, line_map, inst.context or {})]
                    if not free:
                        break
        start = end
    findings += [Finding("error", code, message, f"{at}{inst.designator or '?'}")
                 for inst, code, message in errors]

    counts = Counter(designators)
    del counts[None]
    # distinct designators that keep the rule, the usual case, have no
    # finding here, which two checks at C level tell
    distinct = len(counts) == len(designators) - designators.count(None)
    if not distinct or not names.all_designators(list(counts)):
        for designator, count in counts.items():
            location = f"{at}{designator}"
            if not names.is_designator(designator):
                if names.is_token(designator):
                    message = f"designator {designator!r} must start with [A-Za-z_]"
                else:
                    message = f"designator {designator!r} is not one token"
                findings.append(Finding("error", "BAD_TOKEN", message, location))
            if count > 1:
                findings.append(
                    Finding(
                        "error",
                        "DUPLICATE_DESIGNATOR",
                        f"designator used {count} times",
                        location,
                    )
                )

    uses = Counter(used)
    pin_set = set(pins)
    for name in compress(uses, map((1).__eq__, uses.values())):  # each name used once
        if name not in global_nets and name not in pin_set:
            message = f"net {name!r} is referenced exactly once"
            findings.append(Finding("warn", "DANGLING", message, f"{at}{name}"))
    lines.append((nets, maps, sizes))
    return uses


def lint(circuit: Circuit) -> LintReport:
    """Structural connectivity checks; always returns a report, never raises.

    Rules: UNCONNECTED (error), DANGLING (warn, single-use non-global net),
    DUPLICATE_DESIGNATOR (error), UNDEFINED_MASTER (error), DUPLICATE_SUBCKT
    (error, two different definitions share a name), UNUSED_PIN (warn,
    subcircuit pin that never appears in its body), BAD_TOKEN (error, an
    instance without a designator, a designator that is not one token
    starting with [A-Za-z_], or a text parameter value that is not one
    token, see netforge.names), UNRESOLVED_PARAM (error, a name that a
    printed map's formulas read and that neither the map nor its line's
    context supplies as a number; a model or subcircuit header has no
    context), and CYCLIC_PARAM (error, a cycle among a printed map's
    formulas). Text values, cycles and read names are checked once per
    Params object, at the model, subcircuit or first instance of a run that
    prints them (or lacks the name); a read name that a line's context does
    not give as a number, on that line. Each printed map is planned here,
    and keeps its plan for the layout.
    """
    duplicates: set[str] = set()
    globals_ = set(circuit.global_nets)
    subckts = _reachable_subcircuits(circuit, duplicates)
    known = {sub.name: sub for sub in subckts}
    findings = [
        Finding("error", "DUPLICATE_SUBCKT", "two different definitions share this name", name)
        for name in duplicates
    ]

    # the maps lint checks, definitions first
    reads: dict = {}
    for d in (*circuit.models.values(), *subckts):
        if id(d.params) not in reads:
            free = reads[id(d.params)] = _free_names(d.params)
            errors = _map_errors(d.params) + _unresolved(free, d.params, {})
            findings += [Finding("error", *e, d.name) for e in errors]
    lines: list = []  # per scope, the top level first
    _lint_scope(findings, lines, circuit.instances, (), "", globals_, known, reads)
    for sub in subckts:
        uses = _lint_scope(findings, lines, sub.body, sub.pins, sub.name, globals_, known, reads)
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
    return LintReport(findings, subckts, _lines=lines)


# --- text dialects: one traversal, a table of what differs per dialect --------

class _TextDialect(Record):
    _fields = ("header", "keyword", "model_params", "subckt_params", "nets", "footer")
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


def _line_params(inst: Instance) -> Params:
    # subcircuit defaults already live on the definition header, so instance
    # lines pass only the explicit overrides; primitive templates have no
    # other place for their parameters, so they print effective values, and
    # without overrides those are the template's own Params (and its plan)
    if isinstance(inst.template, Subcircuit):
        return inst.overrides
    return inst.effective_params() if inst.overrides else inst.template.params


def _line_frame(dialect: _TextDialect, circuit: Circuit, report: LintReport, header) -> tuple:
    """Lay a netlist out once for every seed, as (frame, tail), from the net
    names and runs of lint's `report`, which it takes off the report: a
    report is laid out once.

    `frame` is a list of runs, (run, befores, contexts): for each run, a
    seed's netlist is what run(befores, contexts, rng, out) appends to
    `out`, one line per text in `befores`, that text followed by the plan's
    tokens rendered with the line's context; and then `tail`. A text holds
    the end of the line before it, every line in between that draws and
    computes nothing, and the prefix of its own line, so the frame costs one
    string per line with drawn or computed values. Consecutive such lines
    that share a plan, and so its run function (ParamPlan.run), are one
    run: every instance of a chain, parallel or array, and the lines of a
    subcircuit body that share a template. Plans are shared through their
    Params; a lint run of primitive instances with overrides brings the plan
    of its one merged map. `contexts` holds each line's context.

    Instances are laid out a lint run at a time (see _lint_scope): the
    plan, its layout and its run function are looked up once per run, and
    the run's texts are made in one pass over its designators and net names.

    A plan formats its constants once, into its layout, and its run
    function formats the drawn and computed values inline (ParamPlan.run).
    """
    frame: list = []  # (run, befores, contexts)
    text: list[str] = []  # since the last parameterised line
    nets_before, _, nets_after = dialect.nets.partition("{}")
    # the nets token of an instance without nets, with its space, if any
    no_nets = dialect.nets.format("") and dialect.nets.format("") + " "

    def extend(run, befores, contexts):
        # the texts of lines that follow the last line of `run` join its entry
        if frame and frame[-1][0] is run:
            frame[-1][1].extend(befores)
            frame[-1][2].extend(contexts)
        else:
            frame.append((run, befores, contexts))

    def line(prefix: str, params, wrap: str):
        # `wrap` is the dialect's parameter format: "{}" takes the tokens
        plan = plan_of(params) if params else None
        if plan is not None:
            head, slots = plan.layout()
            before, _, after = wrap.partition("{}")
            if slots:
                text.extend((prefix, before))
                extend(plan.run(), ["".join(text)], [None])
                text[:] = (after, "\n")
                return
            prefix = f"{prefix}{before}{head}{after}"
        text.extend((prefix, "\n"))

    def instances(scope, nets, maps, sizes):
        # an instance line is `designator nets master`, then " " and its
        # tokens; each run's map is dropped once its lines are laid out: a
        # merged map and its plan then die at once, instead of piling up
        # for the cyclic gc to rescan
        start = 0
        for k, count in enumerate(sizes):
            params, maps[k] = maps[k], None
            end = start + count
            insts = scope[start:end]
            plan = plan_of(params) if params else None
            head, slots = plan.layout() if plan is not None else ("", ())
            if slots:
                lead, tail = "\n", " "  # each text ends the line before it
            else:
                lead, tail = "", f" {head}\n" if plan is not None else "\n"
            master = f"{insts[0].template.name}{tail}"
            texts = [
                f"{lead}{inst.designator} {nets_before}{joined}{nets_after} {master}" if joined
                else f"{lead}{inst.designator} {no_nets}{master}"
                for inst, joined in zip(insts, nets[start:end])
            ]
            if slots:
                texts[0] = "".join(text) + texts[0][1:]
                extend(plan.run(), texts, [inst.context for inst in insts])
                text[:] = ("\n",)
            else:
                text.extend(texts)
            start = end

    lines, report._lines = report._lines, ()
    kw = dialect.keyword
    for header_line in header:
        line(header_line, None, "")
    for model in circuit.models.values():
        line(f"{kw}model {model.name} {model.base_type}", model.params, dialect.model_params)
    for sub, body in zip(report.subcircuits, lines[1:]):
        line(f"{kw}subckt {sub.name} {' '.join(sub.pins)}", sub.params, dialect.subckt_params)
        instances(sub.body, *body)
        line(f"{kw}ends {sub.name}", None, "")
    instances(circuit.instances, *lines[0])
    for literal in (*circuit.directives, *dialect.footer):
        line(literal, None, "")
    return frame, "".join(text)


def _text_exporter(dialect: _TextDialect, circuit: Circuit, options: dict):
    """Lint once and lay the lines out once (_line_frame), then return
    seed -> text (_render). The circuit must not change between calls."""
    report = lint(circuit)
    if report.has_errors:
        report._lines = ()  # the exception keeps the report, not the maps
        raise LintErrors(report)
    title = str(options.get("title", "Generated netlist"))
    header = [line.format(title=title) for line in dialect.header]
    return _render(*_line_frame(dialect, circuit, report, header))


def _render(frame: list, tail: str):
    """seed -> text for a laid-out netlist (see _line_frame): each call
    draws with one rng through the frame in line order, so every text
    dialect draws the same random values in the same order."""

    def emit(seed: int) -> str:
        rng = Xoshiro256StarStar(seed)
        out: list[str] = []
        for run, befores, contexts in frame:
            run(befores, contexts, rng, out)
        out.append(tail)
        return "".join(out)

    return emit


# --- JSON intermediate representation ------------------------------------------------

# JSON IR and parameter file records are written straight to text, byte for
# byte as json.dumps(..., indent=2) writes their dict form: `indent` is the
# prefix of the line on which a value starts, text goes through json's own
# encoder, ints and finite floats through int.__repr__ and float.__repr__ as
# json does, and every other value through json.dumps, re-indented.

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
    """A parameter value: itself, {"$formula": text} or {"$<kind>": [a, b]}."""
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


def _plain(texts: list) -> bool:
    """Whether `texts` are all text and none needs escaping in JSON. The
    encoder writes each escaped character as two or more, so it does so for
    none exactly when the encoded join is only two quotes longer."""
    try:
        joined = " ".join(texts)
    except TypeError:  # None, or another value that is not text
        return False
    return len(_encode(joined)) == len(joined) + 2


def _instance_records(instances, indent: str):
    """The text of a list of instance records, in pieces to join: each
    record as {"template", "nets", "params", "designator"} and "context"
    when it is not empty.

    The records of a scope are written a column at a time, and the columns
    interleaved: one head per template object, every net name read in one
    pass and cut into rows (_rows, as lint cuts them), "{}" for empty
    overrides, and names and designators quoted without a call per name
    when no text of the scope needs escaping (_plain)."""
    if not instances:
        return ["[]"]
    record = indent + "  "
    key = record + "  "
    item = key + "  "

    arities = [len(inst.nets) for inst in instances]
    used = [net.name for inst in instances for net in inst.nets]
    if None in used:
        used = [name or "" for name in used]
    if _plain(used):  # quoted by the text around each name
        rows = _rows(used, arities, f'",\n{item}"'.join)
        first, last = f'[\n{item}"', f'"\n{key}]'
    else:
        rows = _rows(list(map(_encode, used)), arities, f",\n{item}".join)
        first, last = f"[\n{item}", f"\n{key}]"
    if 0 in arities:  # "[]" for no nets; a row of one unconnected net is empty too
        rows = [first + row + last if n else "[]" for n, row in zip(arities, rows)]
        first = last = ""

    def head(template) -> str:
        return f'{{\n{key}"template": {_json_text(template.name, key)},\n{key}"nets": {first}'

    templates = [inst.template for inst in instances]
    ids = list(map(id, templates))
    head_of = {i: f",\n{record}{head(t)}" for i, t in dict(zip(ids, templates)).items()}
    heads = list(map(head_of.__getitem__, ids))
    heads[0] = f"[\n{record}{head(templates[0])}"

    params = [_object_text(inst.overrides, key, _param_text) if inst.overrides else "{}"
              for inst in instances]

    designators = [inst.designator for inst in instances]
    quote = '"' if _plain(designators) else ""
    if not quote:
        designators = [_json_text(designator, key) for designator in designators]

    end = f"{quote}\n{record}}}"
    tails = [f'{quote},\n{key}"context": {_object_text(inst.context, key)}\n{record}}}'
             if inst.context else end for inst in instances]
    columns = zip(
        heads, rows, repeat(f'{last},\n{key}"params": '), params,
        repeat(f',\n{key}"designator": {quote}'), designators, tails,
    )
    return chain(chain.from_iterable(columns), [f"\n{indent}]"])


def _subckt_text(sub: Subcircuit, indent: str) -> str:
    """A subcircuit record: pins, params, fixed, nested records by name, body."""
    key = indent + "  "
    nested = _object_text({n.name: n for n in sub.nested}, key, _subckt_text)
    return (
        f'{{\n{key}"pins": {_dumped(list(sub.pins), key)},\n'
        f'{key}"params": {_object_text(sub.params, key, _param_text)},\n'
        f'{key}"fixed": {_dumped(sub.fixed, key)},\n'
        f'{key}"nested": {nested},\n'
        f'{key}"body": {"".join(_instance_records(sub.body, key))}\n{indent}}}'
    )


def _component_text(comp: Component, indent: str) -> str:
    key = indent + "  "
    return (
        f'{{\n{key}"ports": {_dumped([str(p) for p in comp.ports], key)},\n'
        f'{key}"params": {_object_text(comp.params, key, _param_text)},\n'
        f'{key}"prefix": {_json_text(comp.prefix, key)},\n'
        f'{key}"metadata": {_object_text(comp.metadata, key)}\n{indent}}}'
    )


def _model_text(model: Model, indent: str) -> str:
    key = indent + "  "
    return (
        f'{{\n{key}"base_type": {_json_text(model.base_type, key)},\n'
        f'{key}"params": {_object_text(model.params, key, _param_text)}\n{indent}}}'
    )


def _collect_components(circuit: Circuit) -> dict[str, Component]:
    """The component templates of the circuit's instances and of reachable
    subcircuit bodies by name, in order of first use; each scope's distinct
    template objects are looked at once, as _instance_records keys them."""
    components: dict[str, Component] = {}
    for body in (circuit.instances, *(sub.body for sub in _reachable_subcircuits(circuit))):
        templates = [inst.template for inst in body]
        for template in dict(zip(map(id, templates), templates)).values():
            if isinstance(template, Component):
                existing = components.setdefault(template.name, template)
                if existing is not template and existing != template:
                    raise NetforgeError(
                        f"two different component templates named {template.name!r}; "
                        "rename one before exporting to JSON"
                    )
    return components


def export_json(circuit: Circuit) -> str:
    """Serialize a circuit losslessly, formulas and distributions unresolved.

    The bytes are those of json.dumps(document, indent=2) + "\\n". Only the
    head (version, rng_seed, globals, directives) goes through json.dumps;
    the component, model, subcircuit and instance records are written
    straight to text.
    """
    head = {
        "version": JSON_IR_VERSION,
        "rng_seed": circuit.rng_seed,
        "globals": list(circuit.global_nets),
        "directives": list(circuit.directives),
    }
    fields = [f"{_encode(name)}: {_dumped(value, '  ')}" for name, value in head.items()]
    components = _collect_components(circuit)
    fields.append(f'"components": {_object_text(components, "  ", _component_text)}')
    fields.append(f'"models": {_object_text(circuit.models, "  ", _model_text)}')
    fields.append(f'"subcircuits": {_object_text(circuit.subcircuits, "  ", _subckt_text)}')
    fields.append('"instances": ')
    records = _instance_records(circuit.instances, "  ")
    return "".join(chain(["{\n  ", ",\n  ".join(fields)], records, ["\n}\n"]))


def _expect(condition, message, path):
    if not condition:
        raise SchemaError(message, path)


def _is_text_list(raw) -> bool:
    return isinstance(raw, list) and all(isinstance(item, str) for item in raw)


def _members(raw: dict, key: str, path: str) -> dict:
    """The name -> definition object under `key`, empty when absent; every
    name is one token."""
    members = raw.get(key, {})
    _expect(isinstance(members, dict), "expected an object of named definitions", path)
    for name in members:
        _checked(names.token, name, "definition name", _key_path(path, name))
    return members


# the default of an absent params or context field; never changed
_NOTHING: dict = {}


def _params_from_ir(raw, path) -> Params:
    _expect(isinstance(raw, dict), "expected a parameter object", path)
    params = Params()
    for name, value in raw.items():
        # export_json writes every number as a JSON number, so IR text stays
        # text, also text that would read as a number ("1k")
        if not isinstance(value, str):
            value = value_from_json(value, f"{path}.{name}")
        try:
            params[name] = value
        except BadNameError as exc:  # Params checks each name
            raise SchemaError(str(exc), _key_path(path, name)) from None
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
    if designator is not None:
        _checked(names.designator, designator, "designator", f"{path}.designator")
    return Instance(
        template,
        nets,
        _params_from_ir(raw.get("params", {}), f"{path}.params"),
        designator=designator,
        context=dict(context),
    )


def _misfits(fits, values) -> set:
    """The indices of the values of which `fits` is false."""
    return set(compress(count(), map(operator.not_, map(fits, values))))


def _all_of(cls, values) -> bool:
    """Whether every value (if any) is exactly a `cls`."""
    return set(map(type, values)) <= {cls}


def _not_of(cls, values: list) -> set:
    """The indices of the values that are not exactly a `cls`."""
    if _all_of(cls, values):
        return set()
    return set(compress(count(), map(operator.is_not, map(type, values), repeat(cls))))


def _instances_from_ir(raw_list, container, templates, path) -> None:
    """Import one scope's instance records into `container`, a circuit or a
    subcircuit, with one Net per net name, and continue its counters.

    The records are read a column at a time: each field of every record is
    taken in one pass and checked in one pass, and only a column that fails
    its check is looked at a record at a time. A record is common when it is
    an object whose template names one of `templates`, whose nets are an
    array of net names as text, whose params are absent or empty, whose
    context is absent or an object, and whose designator is one. Each
    distinct net name is checked and made once (core._text_nets); the
    common records are made in one call (core._instances), on their Nets cut
    into rows as lint cuts their names (_rows). Any other record goes alone,
    in record order, to _instance_from_ir, which makes it on the same Nets
    or raises its error; so the first bad record is reported, at its own
    path. The joined designators and net names continue the counters."""
    _expect(isinstance(raw_list, list), "expected an array of instances", path)
    odd = _not_of(dict, raw_list)  # the indices of the records that are not common
    records = [raw if type(raw) is dict else _NOTHING for raw in raw_list] if odd else raw_list

    def column(key: str, absent=None):
        return map(dict.get, records, repeat(key), repeat(absent))

    try:
        known = templates.keys() >= set(column("template"))
    except TypeError:  # a name that is not hashable
        known = False
    if not known:
        odd |= _misfits(lambda name: type(name) is str and name in templates, column("template"))
    net_lists = list(column("nets"))
    misfits = _not_of(list, net_lists)
    if misfits:
        odd |= misfits
        net_lists = [nets if type(nets) is list else [] for nets in net_lists]
    try:
        distinct = list(dict.fromkeys(chain.from_iterable(net_lists)))
    except TypeError:  # a net that is not hashable, so not text
        distinct = None
    if distinct is None or not _all_of(str, distinct):
        odd |= _misfits(functools.partial(_all_of, str), net_lists)
        net_lists = [nets if _all_of(str, nets) else [] for nets in net_lists]
        distinct = list(dict.fromkeys(chain.from_iterable(net_lists)))
    scope_nets = _text_nets(distinct)
    if len(scope_nets) < len(distinct):
        odd |= _misfits(set(distinct).difference(scope_nets).isdisjoint, net_lists)
    params = list(column("params", _NOTHING))
    odd |= _not_of(dict, params)
    if any(params):  # not empty
        odd.update(compress(count(), params))
    odd |= _not_of(dict, list(column("context", _NOTHING)))
    designators = list(column("designator"))
    joined = names.designator_lines(designators)
    if joined is None:
        odd |= _misfits(names.is_designator, designators)

    wanted, contexts = column("template"), column("context", _NOTHING)
    if odd:
        common = [True] * len(records)
        for i in odd:
            common[i] = False
        wanted, net_lists, designators, contexts = (
            compress(values, common) for values in (wanted, net_lists, designators, contexts)
        )
        net_lists = list(net_lists)
    made = _instances(
        _rows(list(map(scope_nets.__getitem__, chain.from_iterable(net_lists))),
              list(map(len, net_lists)), tuple),
        map(templates.__getitem__, wanted), map(dict.__new__, repeat(Params)), designators,
        map(dict, contexts),
    )
    instances = container.instances if isinstance(container, Circuit) else container.body
    if odd:
        made = iter(made)
        start = 0
        for i in sorted(odd):
            instances.extend(islice(made, i - start))
            instances.append(_instance_from_ir(raw_list[i], templates, scope_nets, f"{path}[{i}]"))
            start = i + 1
    instances.extend(made)
    if joined is None:  # some designators are not text, or not designators
        joined = "\n".join(filter(None, map(operator.attrgetter("designator"), instances)))
    container._continue_numbering(joined, "\n".join(scope_nets))


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
    raw = read_json(text)
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
    try:
        circuit = Circuit(rng_seed=seed, global_nets=global_nets)
    except NetNameError as exc:
        raise SchemaError(str(exc), "globals") from None
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
        circuit.models[name] = Model(
            name,
            _checked(names.token, model_raw["base_type"], "model base type", f"{path}.base_type"),
            _params_from_ir(model_raw.get("params", {}), f"{path}.params"),
        )

    _instances_from_ir(raw.get("instances", []), circuit, scope, "instances")
    return circuit


def _export_json_dialect(circuit: Circuit, seed: int, options: dict) -> str:
    return export_json(circuit)


# --- parameter file writer (inverse of io_readers.read_param_file) -----------------

def write_param_file(param_file: ParamFile) -> str:
    """Serialize a ParamFile to canonical JSON; read_param_file inverts this.

    The bytes are json.dumps(document, indent=2) + "\\n", written as the IR
    writes parameter maps. Text that looks like an SI-suffixed number reads
    back as a number; keep text non-numeric if exact round-tripping matters.
    """
    params_text = functools.partial(_object_text, value_text=_param_text)
    corners_text = functools.partial(_object_text, value_text=params_text)
    return _object_text(param_file, "", corners_text) + "\n"


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

    Text dialects lint and lay the netlist out here, once (raising
    LintErrors), and render it on each call; any other exporter is called
    with each seed. The circuit must not change between calls.
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
    tmp = target.parent / f"{target.name}.{os.urandom(8).hex()}.tmp"
    handle = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def export_to_file(circuit: Circuit, path, dialect: str = "spice", seed=None, options=None) -> None:
    """Export and write atomically (see write_atomic)."""
    write_atomic(path, export(circuit, dialect, seed, options))
