#!/usr/bin/env python3
"""Where the time of one export goes: in-process medians per phase, in ref units.

Usage, from anywhere inside a checkout:

    python3 tools/phase_times.py [--workload W] [--seed K] [--repeats N] [--dialect D]
    python3 tools/phase_times.py --doc path/to/doc.json [--repeats N] [--dialect D]

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
run with LintErrors, as an export does.

A phase's time counts in multiples of perfbench/run.py:reference(), the
mean of one pass just before and one just after its repeat, as the
benchmark counts whole operations; so a slow stretch of a shared machine
moves the figures less. The table gives each phase's median over the
repeats, in ref units and in milliseconds, and its share of the summed
medians. Stdlib only; perfbench/ is imported, never changed.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
PHASES = ("load_doc", "build", "lint", "layout", "emit", "write")


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
    """phase -> (ref units per repeat, seconds per repeat)."""
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

    ratios: dict[str, list[float]] = {phase: [] for phase in PHASES}
    seconds: dict[str, list[float]] = {phase: [] for phase in PHASES}
    for _ in range(repeats):
        before = reference()
        doc, t_load = _timed(builddoc.load_doc, doc_path)
        circuit, t_build = _timed(build, doc)
        report, t_lint = _timed(lint, circuit)
        layout, t_layout = _timed(exporters._line_frame, table, circuit, report, header)
        text, t_emit = _timed(exporters._render(*layout), circuit.rng_seed)
        _, t_write = _timed(exporters.write_atomic, out, text)
        ref = (before + reference()) / 2
        times = (t_load, t_build, t_lint, t_layout, t_emit, t_write)
        for phase, elapsed in zip(PHASES, times):
            ratios[phase].append(elapsed / ref)
            seconds[phase].append(elapsed)
        del doc, circuit, report, layout, text
    return {phase: (ratios[phase], seconds[phase]) for phase in PHASES}


def report(title: str, times: dict) -> None:
    medians = {
        phase: (statistics.median(ratios), statistics.median(seconds))
        for phase, (ratios, seconds) in times.items()
    }
    total_ref = sum(ref for ref, _ in medians.values())
    total_ms = sum(sec for _, sec in medians.values()) * 1e3
    print(f"== {title} ==")
    print(f"{'phase':12s} {'ref':>8s} {'ms':>9s} {'share':>7s}")
    for phase, (ref, sec) in medians.items():
        share = ref / total_ref * 100 if total_ref else 0.0
        print(f"{phase:12s} {ref:8.3f} {sec * 1e3:9.2f} {share:6.1f}%")
    print(f"{'total':12s} {total_ref:8.3f} {total_ms:9.2f} {100.0:6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", help="a perfbench workload (default chain_mc)")
    source.add_argument("--doc", type=Path, help="a build document instead of a workload")
    parser.add_argument("--seed", type=int, default=1, help="the workload's seed")
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--dialect", default="spice", help="a text dialect (default spice)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
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
    report(f"{title}: medians of {args.repeats} repeats", times)
    return 0


if __name__ == "__main__":
    sys.exit(main())
