"""Command line front end.

Commands: build, export, sweep, lint, formats. Exit codes are part of the
contract: 0 success (warnings allowed), 2 unreadable or schema-invalid
document, 3 build failure, 4 unknown dialect, 5 lint errors. Output bytes
depend only on the document bytes and the flags given; every command takes
its seed from --seed, else the document, else NETFORGE_SEED, else 0 (_seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import builddoc
from .errors import (
    LintErrors,
    NetforgeError,
    ParseError,
    SchemaError,
    UnknownDialectError,
)
from .exporters import (
    _seed_exporter,
    export,
    exporter_for,
    lint,
    registered_dialects,
    write_atomic,
)
from .numfmt import format_number

EXIT_OK = 0
EXIT_DOC = 2
EXIT_BUILD = 3
EXIT_DIALECT = 4
EXIT_LINT = 5

_EXTENSIONS = {"spice": "sp", "spectre": "scs", "json-ir": "json"}


def _parse_set(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise SchemaError(f"--set expects NAME=VALUE, got {pair!r}", "--set")
        try:
            number = float(value)
        except ValueError:
            raise SchemaError(f"--set value must be a number, got {value!r}", "--set") from None
        if not math.isfinite(number):
            raise SchemaError(f"--set value must be finite, got {value!r}", "--set")
        out[name] = int(number) if number == int(number) else number
    return out


def _parse_vary(specs: list[str]) -> list[tuple[str, list[float]]]:
    out = []
    for spec in specs or []:
        name, sep, rest = spec.partition("=")
        parts = rest.split(":")
        if not sep or not name or len(parts) != 3:
            raise SchemaError(f"--vary expects NAME=lo:hi:steps, got {spec!r}", "--vary")
        try:
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise SchemaError(f"--vary expects numbers in {spec!r}", "--vary") from None
        if steps < 1:
            raise SchemaError("--vary needs at least one step", "--vary")
        if steps == 1:
            values = [lo]
        else:
            values = [lo + k * (hi - lo) / (steps - 1) for k in range(steps)]
        if not all(math.isfinite(v) for v in (lo, hi, *values)):
            raise SchemaError(f"--vary values must be finite, got {spec!r}", "--vary")
        values = [int(v) if v == int(v) else v for v in values]
        out.append((name, values))
    return out


def _seed(args, doc: dict) -> int:
    """The seed of a run: --seed, else the document's, else NETFORGE_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    if "seed" in doc:
        seed = doc["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise SchemaError("seed must be an integer", "seed")
        return seed
    env = os.environ.get("NETFORGE_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise SchemaError(f"NETFORGE_SEED must be an integer, got {env!r}", "env") from None


def _build(args):
    doc = builddoc.load_doc(args.doc)
    return builddoc.build_circuit(
        doc, Path(args.doc).parent, set_vars=_parse_set(args.set), seed=_seed(args, doc)
    )


def _cmd_build(args) -> int:
    circuit = _build(args)
    sys.stdout.write(
        f"circuit: {len(circuit.instances)} instances, {len(circuit.models)} models, "
        f"{len(circuit.subcircuits)} subcircuits, seed {circuit.rng_seed}\n"
    )
    return EXIT_OK


def _cmd_export(args) -> int:
    exporter_for(args.dialect)  # an unknown dialect fails before the build
    circuit = _build(args)
    text = export(circuit, args.dialect)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_lint(args) -> int:
    circuit = _build(args)
    report = lint(circuit)
    sys.stdout.write(str(report) + "\n")
    return EXIT_LINT if report.has_errors else EXIT_OK


def _cmd_formats(args) -> int:
    for dialect in registered_dialects():
        sys.stdout.write(dialect + "\n")
    return EXIT_OK


def _variant_name(stem, corner, var_values, seed, ext) -> str:
    parts = [stem, corner]
    parts += [f"{name}={format_number(value)}" for name, value in var_values]
    parts.append(f"s{seed}")
    return "__".join(parts) + f".{ext}"


def _cmd_sweep(args) -> int:
    exporter_for(args.dialect)  # an unknown dialect fails before any output
    doc = builddoc.load_doc(args.doc)
    base_vars = _parse_set(args.set)
    base_seed = _seed(args, doc)

    corners = args.corner or [doc.get("corner", builddoc.DEFAULT_CORNER)]
    # only the document's corner can be other than text; it names the files
    if not isinstance(corners[0], str):
        raise SchemaError("corner must be a string", "corner")
    vary = _parse_vary(args.vary)
    if args.seeds < 1:
        raise SchemaError("--seeds needs at least one seed", "--seeds")
    seeds = [base_seed + i for i in range(args.seeds)]
    ext = _EXTENSIONS.get(args.dialect, "txt")
    stem = Path(args.doc).stem

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # cartesian product: corners x swept values x seeds, in argument order
    combos: list[list[tuple[str, float]]] = [[]]
    for name, values in vary:
        combos = [combo + [(name, value)] for combo in combos for value in values]

    variants = []
    failure: Exception | None = None
    for corner in corners:
        for combo in combos:
            # one build and one lint per corner x values serve every seed,
            # unless the build derived a seed from the document seed
            emit = None
            for seed in seeds:
                file_name = _variant_name(stem, corner, combo, seed, ext)
                variants.append(
                    {
                        "file": file_name,
                        "corner": corner,
                        "vars": {name: value for name, value in combo},
                        "seed": seed,
                    }
                )
                try:
                    if emit is None or circuit.seed_derived:
                        circuit = builddoc.build_circuit(
                            doc,
                            Path(args.doc).parent,
                            set_vars={**base_vars, **dict(combo)},
                            seed=seed,
                            corner=corner,
                        )
                        emit = _seed_exporter(circuit, args.dialect)
                    # export_json writes rng_seed and ignores the seed argument
                    circuit.rng_seed = seed
                    text = emit(seed)
                except NetforgeError as exc:
                    variants[-1]["error"] = str(exc)
                    failure = exc
                    break
                write_atomic(out_dir / file_name, text)
            if failure:
                break
        if failure:
            break

    manifest = {
        "version": 1,
        "doc": Path(args.doc).name,
        "dialect": args.dialect,
        "variants": variants,
    }
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    if failure is not None:
        sys.stderr.write(f"sweep failed: {failure}\n")
        return EXIT_BUILD
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netforge",
        description="Build, lint, and export parametric netlists from declarative documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_doc_args(p):
        p.add_argument("doc", help="build document (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the document seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="NAME=VALUE",
            help="override a document variable (repeatable)",
        )

    p_build = sub.add_parser("build", help="build the circuit and print a summary")
    add_doc_args(p_build)

    p_export = sub.add_parser("export", help="build and export to a dialect")
    add_doc_args(p_export)
    p_export.add_argument("--dialect", default="spice")
    p_export.add_argument("--out", default=None, help="output file (stdout when omitted)")

    p_sweep = sub.add_parser("sweep", help="export a corner/value/seed sweep")
    add_doc_args(p_sweep)
    p_sweep.add_argument("--dialect", default="spice")
    p_sweep.add_argument("--corner", action="append", help="corner name (repeatable)")
    p_sweep.add_argument(
        "--vary",
        action="append",
        metavar="NAME=lo:hi:steps",
        help="sweep a variable over a linear range (repeatable)",
    )
    p_sweep.add_argument("--seeds", type=int, default=1, help="number of seeds, base..base+n-1")
    p_sweep.add_argument("--out", required=True, help="output directory")

    p_lint = sub.add_parser("lint", help="build and run the lint pass")
    add_doc_args(p_lint)

    sub.add_parser("formats", help="list registered dialects")
    return parser


_HANDLERS = {
    "build": _cmd_build,
    "export": _cmd_export,
    "sweep": _cmd_sweep,
    "lint": _cmd_lint,
    "formats": _cmd_formats,
}


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (SchemaError, ParseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOC
    except UnknownDialectError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIALECT
    except LintErrors as exc:
        sys.stderr.write(str(exc.report) + "\n")
        return EXIT_LINT
    except NetforgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUILD


if __name__ == "__main__":
    sys.exit(main())
