#!/usr/bin/env python3
"""Where the time of one export goes: in-process medians per phase, in ref units.

Usage, from anywhere inside a checkout:

    python3 tools/phase_times.py [--workload W] [--seed K] [--repeats N] [--dialect D]
    python3 tools/phase_times.py --doc path/to/doc.json [--repeats N] [--dialect D]
    python3 tools/phase_times.py --startup N

With --workload (chain_mc by default) the inputs of that benchmark
workload, as perfbench/workloads.py writes them for seed K, go to a
temporary directory outside the repository; --doc names a build document
instead. Each repeat then runs the phases of one `netforge export` in this
process, in order, each timed on its own after a garbage collection:

    load_doc  builddoc.load_doc
    build     builddoc.build_circuit, with the document's seed
    lint      exporters.lint
    layout    exporters._line_frame, the layout of every line, from lint's report
    emit      one call of the seed -> text function of that layout (exporters._render)
    write     exporters.write_atomic of that text, to the temporary directory

These are the steps of exporters._seed_exporter and its seed -> text
function, for a text dialect, one by one; a report with errors stops the
run with LintErrors, as an export does. Each repeat then exports the built
circuit to the JSON IR, as `netforge export --dialect json-ir` does, and
reads it back:

    export_json exporters.export_json of the built circuit
    write       exporters.write_atomic of that text, to the temporary directory
    json_loads  json.loads of that text
    records     exporters.import_json of that text, less json_loads: the
                reading of its records into a circuit

so the second table shows where the time of one IR export and of one
import_json goes.

A phase's time counts in multiples of perfbench/run.py:reference(), the
mean of one pass just before and one just after its repeat, as the
benchmark counts whole operations; so a slow stretch of a shared machine
moves the figures less. Each table gives each phase's median over the
repeats, in ref units and in milliseconds, and its share of the summed
medians; the records row is the median of import_json less that of
json_loads, so the last two rows of the IR table add up to import_json's
median. Stdlib only; perfbench/ is imported, never changed.

--startup N times what every CLI process pays before any work: it starts N
fresh `python -c "import netforge.cli"` processes, each after one bare
`python -c pass`, with this checkout's src/ on PYTHONPATH, and prints the
median wall time of each and their difference. It does so twice. First with
the rest of the environment as given, so PYTHONDONTWRITEBYTECODE decides
whether the sources are compiled in every process. Then from bytecode, as
an installed package starts: with PYTHONDONTWRITEBYTECODE unset and
PYTHONPYCACHEPREFIX set to a temporary directory outside the checkout, after
one warm-up process that writes the bytecode there, so nothing is written
into the checkout. Then it prints each netforge module's self and
cumulative import time, in the order the modules finished importing, from
one `python -X importtime -c "import netforge.cli"` process, with the
environment as given.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
PHASES = ("load_doc", "build", "lint", "layout", "emit", "write")
IR_PHASES = ("export_json", "ir_write", "json_loads", "import_json")


def _perfbench(name: str):
    """perfbench/<name>.py, loaded under a name of its own."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def measure(doc_path: Path, repeats: int, dialect: str, out: Path, reference) -> dict:
    """phase -> (ref units per repeat, seconds per repeat), for PHASES and
    IR_PHASES."""
    from netforge import builddoc, exporters

    table = exporters.exporter_for(dialect)
    header = [line.format(title="Generated netlist") for line in table.header]

    def build(doc):
        seed = None if "seed" in doc else 0
        return builddoc.build_circuit(doc, doc_path.parent, set_vars={}, seed=seed)

    def lint(circuit):
        report = exporters.lint(circuit)
        if report.has_errors:
            raise exporters.LintErrors(report)
        return report

    ratios: dict[str, list[float]] = {phase: [] for phase in PHASES + IR_PHASES}
    seconds: dict[str, list[float]] = {phase: [] for phase in PHASES + IR_PHASES}
    for _ in range(repeats):
        before = reference()
        doc, t_load = _timed(builddoc.load_doc, doc_path)
        circuit, t_build = _timed(build, doc)
        report, t_lint = _timed(lint, circuit)
        layout, t_layout = _timed(exporters._line_frame, table, circuit, report, header)
        text, t_emit = _timed(exporters._render(*layout), circuit.rng_seed)
        _, t_write = _timed(exporters.write_atomic, out, text)
        ir, t_export_json = _timed(exporters.export_json, circuit)
        _, t_ir_write = _timed(exporters.write_atomic, out, ir)
        _, t_loads = _timed(json.loads, ir)
        _, t_import = _timed(exporters.import_json, ir)
        ref = (before + reference()) / 2
        times = (t_load, t_build, t_lint, t_layout, t_emit, t_write,
                 t_export_json, t_ir_write, t_loads, t_import)
        for phase, elapsed in zip(PHASES + IR_PHASES, times):
            ratios[phase].append(elapsed / ref)
            seconds[phase].append(elapsed)
        del doc, circuit, report, layout, text, ir
    return {phase: (ratios[phase], seconds[phase]) for phase in ratios}


def _medians(times: dict, phases: tuple) -> dict:
    """phase -> (median ref units, median seconds), for `phases`."""
    return {
        phase: (statistics.median(times[phase][0]), statistics.median(times[phase][1]))
        for phase in phases
    }


def report(title: str, medians: dict) -> None:
    total_ref = sum(ref for ref, _ in medians.values())
    total_ms = sum(sec for _, sec in medians.values()) * 1e3
    print(f"== {title} ==")
    print(f"{'phase':12s} {'ref':>8s} {'ms':>9s} {'share':>7s}")
    for phase, (ref, sec) in medians.items():
        share = ref / total_ref * 100 if total_ref else 0.0
        print(f"{phase:12s} {ref:8.3f} {sec * 1e3:9.2f} {share:6.1f}%")
    print(f"{'total':12s} {total_ref:8.3f} {total_ms:9.2f} {100.0:6.1f}%")


def _environment(**changes) -> dict:
    """The environment as given, with this checkout's src/ first on
    PYTHONPATH and each of `changes` set, or unset when None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def startup(n: int, env: dict) -> dict:
    """{"pass": seconds, "import netforge.cli": seconds}, the medians of n
    fresh processes each, run in `env`."""
    codes = ("pass", "import netforge.cli")
    times: dict[str, list[float]] = {code: [] for code in codes}
    for _ in range(n):
        for code in codes:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times[code].append(time.perf_counter() - start)
    return {code: statistics.median(times[code]) for code in codes}


def import_times(env: dict) -> list:
    """[(module, self us, cumulative us)] for each netforge module, from one
    `-X importtime` process run in `env`."""
    log = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import netforge.cli"],
        env=env, check=True, capture_output=True, text=True,
    ).stderr
    modules = []
    for line in log.splitlines():  # "import time: self [us] | cumulative | imported package"
        if line.startswith("import time:"):
            self_us, cumulative_us, name = line.removeprefix("import time:").split("|")
            if name.strip().startswith("netforge"):
                modules.append((name.strip(), int(self_us), int(cumulative_us)))
    return modules


def report_startup(title: str, medians: dict) -> None:
    bare, cli = medians["pass"], medians["import netforge.cli"]
    print(f"== {title} ==")
    print(f"{'process':32s} {'ms':>9s}")
    for label, seconds in (("python -c pass", bare),
                           ("python -c 'import netforge.cli'", cli),
                           ("difference", cli - bare)):
        print(f"{label:32s} {seconds * 1e3:9.2f}")


def report_import_times(modules: list) -> None:
    print("== -X importtime of import netforge.cli: netforge modules, one process ==")
    print(f"{'module':32s} {'self ms':>9s} {'cum. ms':>9s}")
    for name, self_us, cumulative_us in modules:
        print(f"{name:32s} {self_us / 1e3:9.2f} {cumulative_us / 1e3:9.2f}")


def run_startup(n: int) -> None:
    """The --startup tables: as given, from bytecode, and per module."""
    given = _environment()
    report_startup(f"start-up: medians of {n} fresh processes", startup(n, given))
    print()
    with tempfile.TemporaryDirectory(prefix="phase_times_pycache_") as cache:
        env = _environment(PYTHONDONTWRITEBYTECODE=None, PYTHONPYCACHEPREFIX=cache)
        subprocess.run([sys.executable, "-c", "import netforge.cli"], env=env, check=True)
        report_startup(
            f"start-up from bytecode: medians of {n} fresh processes, after one warm-up",
            startup(n, env),
        )
    print()
    report_import_times(import_times(given))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", help="a perfbench workload (default chain_mc)")
    source.add_argument("--doc", type=Path, help="a build document instead of a workload")
    source.add_argument("--startup", type=int, metavar="N",
                        help="time N fresh CLI imports against N bare interpreters instead")
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed")
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--dialect", default="spice", help="a text dialect (default spice)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.startup is not None:
        if args.startup < 1:
            parser.error("--startup must be at least 1")
        run_startup(args.startup)
        return 0
    from netforge import exporters

    if not isinstance(exporters._REGISTRY.get(args.dialect), exporters._TextDialect):
        parser.error(f"{args.dialect!r} is not a text dialect")

    reference = _perfbench("run").reference
    with tempfile.TemporaryDirectory(prefix="phase_times_") as temp:
        temp = Path(temp)
        if args.doc is not None:
            doc_path, title = args.doc.resolve(), f"{args.doc.name}, {args.dialect}"
        else:
            workloads = _perfbench("workloads")
            workload = args.workload or "chain_mc"
            if workload not in workloads.WORKLOADS:
                known = ", ".join(workloads.WORKLOADS)
                parser.error(f"unknown workload {workload!r}; known: {known}")
            doc_path = workloads.write_inputs(workloads.spec(workload, args.seed), temp / "inputs")
            title = f"{workload} seed {args.seed}, {args.dialect}"
        times = measure(doc_path, args.repeats, args.dialect, temp / "out.txt", reference)
    report(f"{title}: medians of {args.repeats} repeats", _medians(times, PHASES))
    ir = _medians(times, IR_PHASES)
    loads, whole = ir["json_loads"], ir["import_json"]
    records = (whole[0] - loads[0], whole[1] - loads[1])
    print()
    report(
        f"JSON IR of the built circuit, export and import: medians of {args.repeats} repeats",
        {"export_json": ir["export_json"], "write": ir["ir_write"],
         "json_loads": loads, "records": records},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
