#!/usr/bin/env python3
"""netforge benchmark: document -> netlist latency, IR round trip, sweep time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain_mc --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

One run writes the workload's inputs (see workloads.py), then for `--seconds`
repeats, in rotating order, the operations a user runs: `netforge export`
to SPICE, Spectre and JSON IR, `import_json` on that IR, and one whole
`netforge sweep`. netforge is driven only through `netforge.cli.main`,
`export_json` and `import_json`, in this one process, with a garbage
collection before every timed call. Every output is checked by the oracles
in oracles.py and by hash against the first output of the same operation.

`--trace 0` reports the end-to-end metrics: each operation's time in
multiples of a reference loop (median over the run), peak traced heap of one
SPICE export, the median set-up time in a fresh process, and the SPICE size.
Every timed operation is bracketed by two passes of `reference()`, a fixed
pure-Python loop in this file that never calls netforge, and counts as its
time over the mean of those two passes. On a shared machine other tenants
slow every operation by a third or more for seconds to minutes at a time,
and the reference loop slows with it, so the ratio moves far less between
runs than seconds do (README.md gives the figures). The table before the
result line also gives each timing's median, the highest percentile with
ten samples beyond it and the sample count, in reference units and in
seconds.
`--trace 1` instead wraps the public functions of each module (tracer.py)
and reports per-layer time (median over traced rounds) and counts for one
operation per metric, plus the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every check passed,
1 when an output was wrong, and 2 when the checkout cannot be benchmarked.
`--workload all` runs each workload in its own process and prints one row per
workload.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
GOLDEN = ROOT / "tests" / "golden"

OPS = ("export_spice", "export_spectre", "export_ir", "import_ir", "sweep")
DIALECT = {"export_spice": "spice", "export_spectre": "spectre", "export_ir": "json-ir"}
SUFFIX = {"spice": "sp", "spectre": "scs", "json-ir": "json"}
SETUP_REPEATS = 5  # before the loop; one more set-up runs in every round
OP_SHARE_S = 0.25
REF_ITEMS = 3000  # reference loop size: about 10 ms on a 2-vCPU virtual machine

# The operation whose spans give a workload's per-layer metrics, unless the
# metric names its own operation (see LAYER_METRICS).
HOME_OP = {"chain_mc": "export_spice", "ro_sweep": "sweep"}

END_TO_END_UNITS = {
    "export_spice_ref": "ref",
    "export_spectre_ref": "ref",
    "export_ir_ref": "ref",
    "import_ir_ref": "ref",
    "sweep_ref": "ref",
    "peak_heap_mb": "MB",
    "setup_s": "s",
    "netlist_bytes": "bytes",
}

# metric -> (operation or None for the home operation, span names, field, unit)
# fields: calls, total (seconds), self (seconds), count
LAYER_METRICS = {
    "builddoc.build_s": (None, ["builddoc.build_circuit"], "total", "s"),
    "builddoc.build_calls": (None, ["builddoc.build_circuit"], "calls", "count"),
    "builddoc.validate_s": (None, ["builddoc.validate_dependencies"], "total", "s"),
    "builddoc.validate_calls": (None, ["builddoc.validate_dependencies"], "calls", "count"),
    "builddoc.subst_parse_s": (None, ["builddoc.parse_formula"], "total", "s"),
    "builddoc.subst_parse_calls": (None, ["builddoc.parse_formula"], "calls", "count"),
    "manip.construct_s": (None, ["manip.construct"], "self", "s"),
    "core.add_s": (None, ["core.Circuit.add"], "total", "s"),
    "core.instances": (None, ["builddoc.build_circuit"], "count", "count"),
    "io_readers.load_s": (None, ["io_readers.load"], "total", "s"),
    "io_readers.value_from_json_calls": ("import_ir", ["io_readers.value_from_json"], "calls", "count"),
    "io_readers.value_from_json_s": ("import_ir", ["io_readers.value_from_json"], "total", "s"),
    "params.eval_params_s": (None, ["params.eval_params"], "self", "s"),
    "params.eval_params_calls": (None, ["params.eval_params"], "calls", "count"),
    "formula.evaluate_s": (None, ["formula.evaluate"], "total", "s"),
    "formula.evaluate_calls": (None, ["formula.evaluate"], "calls", "count"),
    "rng.sample_s": (None, ["rng.sample"], "total", "s"),
    "rng.draws": (None, ["rng.sample"], "calls", "count"),
    "numfmt.format_s": (None, ["numfmt.format_number"], "total", "s"),
    "numfmt.format_calls": (None, ["numfmt.format_number"], "calls", "count"),
    "exporters.lint_s": (None, ["exporters.lint"], "total", "s"),
    "exporters.lint_findings": (None, ["exporters.lint"], "count", "count"),
    "exporters.emit_self_s.spice": ("export_spice", ["exporters.export"], "self", "s"),
    "exporters.emit_self_s.spectre": ("export_spectre", ["exporters.export"], "self", "s"),
    "exporters.export_json_s": ("export_ir", ["exporters.export_json"], "total", "s"),
    "exporters.import_json_s": ("import_ir", ["exporters.import_json"], "total", "s"),
    "cli.sweep_variants": ("sweep", ["exporters.export"], "calls", "count"),
    "cli.write_s": ("sweep", ["op.sweep"], "self", "s"),
}
_FIELD = {"calls": 0, "total": 1, "self": 2, "count": 3}


class CheckoutError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def summarize(values: list[float], value: str) -> dict:
    """Median, minimum, the highest percentile with at least ten samples
    beyond it (from 20 samples on) and the count; `value` names the one the
    result line reports."""
    n = len(values)
    out = {"median": statistics.median(values), "min": min(values), "n": n}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    out["value"] = out[value]
    return out


def reference() -> float:
    """Seconds of one pass of the reference loop: the same pure-Python work
    every time (dicts, float arithmetic, number formatting, string joins,
    random draws), never netforge's code, with the collector off so that
    netforge's heap does not change its cost."""
    rnd = random.Random(0)
    lines = []
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(REF_ITEMS):
            row = {"name": f"X{i}", "w": rnd.uniform(1e-7, 2e-7), "vth": rnd.gauss(0.4, 0.05)}
            row["area"] = row["w"] * row["vth"] * 2
            lines.append(" ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()))
        text = "\n".join(lines)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    del text
    return elapsed


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    """One workload, one seed: operations, their checks and their timings."""

    def __init__(self, workload: str, seed: int, work: Path):
        from netforge import cli, exporters

        self.cli, self.exporters = cli, exporters
        self.workload, self.seed = workload, seed
        self.spec = workloads.spec(workload, seed)
        self.work = work
        self.doc = work / self.spec["doc"]
        self.sweep_dir = work / "sweep"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}  # first output text of each operation
        self.digest: dict[str, str] = {}  # its hash; later outputs must match
        self.times: dict[str, list[float]] = {op: [] for op in OPS}
        # each time over the mean of the reference passes just before and after it
        self.ratios: dict[str, list[float]] = {op: [] for op in OPS}
        self.refs: list[float] = []  # every reference pass
        self.last_ref: float | None = None  # the pass that ended last, if nothing ran since
        self.repeats: dict[str, int] = {op: 1 for op in OPS}  # per round

    # -- bookkeeping -------------------------------------------------------------------

    def fail(self, what: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{what}: {message}")

    def check(self, what: str, fn, *args) -> None:
        """Run one check as an attempted operation; count any exception as failed."""
        self.attempted += 1
        try:
            fn(*args)
        except oracles.Mismatch as exc:
            self.fail(what, str(exc))
        except Exception as exc:  # an unexpected crash is a failed operation too
            self.fail(what, f"{type(exc).__name__}: {exc}")

    def same_as_first(self, op: str, text: str) -> None:
        digest = sha256(text.encode())
        if op not in self.digest:
            self.first[op], self.digest[op] = text, digest
        oracles.expect(digest == self.digest[op], f"{op} output changed between iterations")

    # -- operations --------------------------------------------------------------------

    def run(self, op: str) -> float | None:
        """Time one operation and check its output; None when it failed."""
        self.attempted += 1
        try:
            return self._import_ir() if op == "import_ir" else self._command(op)
        except oracles.Mismatch as exc:
            self.fail(op, str(exc))
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            self.fail(op, f"{type(exc).__name__}: {exc}")
        return None

    def _out(self, op: str) -> Path:
        return self.work / f"out.{SUFFIX[DIALECT[op]]}"

    def _command(self, op: str) -> float:
        if op == "sweep":
            argv = ["sweep", str(self.doc), *self.spec["sweep_args"], "--out", str(self.sweep_dir)]
        else:
            argv = ["export", str(self.doc), "--dialect", DIALECT[op], "--out", str(self._out(op))]
        gc.collect()
        start = time.perf_counter()
        code = self.cli.main(argv)
        elapsed = time.perf_counter() - start
        oracles.expect(code == 0, f"exit code {code}")
        if op == "sweep":
            names = sorted(p.name for p in self.sweep_dir.iterdir())
            text = "".join(name + "\n" + (self.sweep_dir / name).read_text() for name in names)
        else:
            text = self._out(op).read_text()
        self.same_as_first(op, text)
        return elapsed

    def _import_ir(self) -> float:
        text = self.first["export_ir"]
        gc.collect()
        start = time.perf_counter()
        circuit = self.exporters.import_json(text)
        elapsed = time.perf_counter() - start
        count = len(circuit.instances)
        del circuit
        oracles.expect(count == self.ir_instances, f"{count} instances, IR lists {self.ir_instances}")
        return elapsed

    @functools.cached_property
    def ir_instances(self) -> int:
        return len(json.loads(self.first["export_ir"])["instances"])

    def ref(self) -> float:
        self.refs.append(reference())
        return self.refs[-1]

    def round(self, index: int, deadline: float | None) -> bool:
        """One pass over every operation, starting at a rotating offset, each
        bracketed by reference passes. With a deadline, stop early once it has
        passed, from the third round on; False when it stopped."""
        order = OPS if index == 0 else OPS[index % len(OPS) :] + OPS[: index % len(OPS)]
        for op in order:
            for _ in range(self.repeats[op]):
                if deadline is not None and index > 1 and time.perf_counter() >= deadline:
                    return False
                before = self.last_ref if self.last_ref is not None else self.ref()
                elapsed = self.run(op)
                self.last_ref = self.ref()
                if elapsed is not None:
                    self.times[op].append(elapsed)
                    self.ratios[op].append(elapsed / ((before + self.last_ref) / 2))
        return True

    def peak_heap(self) -> float:
        """tracemalloc peak, in MB, over one SPICE export; checked like any other."""
        out = self.work / "heap.sp"
        argv = ["export", str(self.doc), "--dialect", "spice", "--out", str(out)]
        gc.collect()
        tracemalloc.start()
        try:
            code = self.cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.attempted += 1
        if code != 0:
            self.fail("peak_heap", f"exit code {code}")
        elif sha256(out.read_bytes()) != self.digest.get("export_spice"):
            self.fail("peak_heap", "SPICE output differs under tracemalloc")
        return peak / 1e6

    # -- oracles -----------------------------------------------------------------------

    def deep_checks(self) -> None:
        """Check the first output of every operation against the oracles."""
        spice = self.first.get("export_spice")
        if spice is None:
            self.fail("oracles", "no SPICE output to check")
            return
        exp = self.spec["expect"]
        if self.workload == "chain_mc":
            self.check("oracle chain_mc", oracles.check_chain_mc, spice, exp)
        else:
            golden_ro = (GOLDEN / "ro.sp").read_text()
            self.check("oracle ro_sweep", oracles.check_ro_sweep, spice, exp, golden_ro)
        if "export_spectre" in self.first:
            self.check("oracle spectre", oracles.check_spectre_matches, spice, self.first["export_spectre"])
        if "export_ir" in self.first:
            self.check("oracle IR", oracles.check_ir, self.first["export_ir"], spice)
            self.check("IR round trip", self._round_trip, spice)
        if "sweep" in self.first:
            self.check(
                "oracle sweep",
                oracles.check_sweep,
                self.sweep_dir,
                self.doc.stem,
                self.spec["corners"],
                self.spec["seeds"],
                spice,
            )
        self.check("determinism across runs", self._same_as_earlier_runs, spice)

    def _round_trip(self, spice: str) -> None:
        circuit = self.exporters.import_json(self.first["export_ir"])
        text = self.exporters.export(circuit, "spice")
        oracles.expect(text == spice, "SPICE of the imported IR differs from the direct export")

    def _same_as_earlier_runs(self, spice: str) -> None:
        # keyed by the input document, so runs on the same inputs in this
        # checkout (any --trace) must all produce the same bytes
        key = sha256(self.doc.read_bytes())[:16]
        record = OUT / "determinism" / f"{self.workload}-{key}.sha256"
        digest = sha256(spice.encode())
        if record.exists():
            oracles.expect(record.read_text().strip() == digest, "SPICE differs from an earlier run")
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(digest + "\n")

    def golden_checks(self) -> None:
        """The golden circuits export byte-equal to tests/golden through the CLI."""
        docs = workloads.write_golden_inputs(self.work / "golden")
        for name, doc in docs.items():
            for dialect, suffix in (("spice", "sp"), ("spectre", "scs")):
                out = self.work / "golden" / f"out_{name}.{suffix}"
                self.check(f"golden {name}.{suffix}", self._golden, doc, dialect, out, GOLDEN / f"{name}.{suffix}")

    def _golden(self, doc: Path, dialect: str, out: Path, golden: Path) -> None:
        code = self.cli.main(["export", str(doc), "--dialect", dialect, "--out", str(out)])
        oracles.expect(code == 0, f"exit code {code}")
        oracles.expect(out.read_bytes() == golden.read_bytes(), f"differs from {golden.name}")


# --- the two kinds of run ----------------------------------------------------------------


def measure(bench: Bench, seconds: float, setup: list[float]) -> dict:
    """Round 0 warms up and is not counted; rounds 1 on run until the
    deadline, the first of them always whole. After each round one more
    fresh-process set-up is timed and added to `setup`."""
    deadline = time.perf_counter() + seconds
    bench.round(0, deadline)
    # repeat quick operations within a round, so that each gets about
    # OP_SHARE_S of every round and many samples
    for op, times in bench.times.items():
        if times:
            bench.repeats[op] = max(1, round(OP_SHARE_S / times[0]))
        times.clear()
        bench.ratios[op].clear()
    bench.refs.clear()
    setup_dir = bench.work.with_name(bench.work.name + "-setup")
    index = 1
    while bench.round(index, deadline):
        setup += time_setup(bench.workload, bench.seed, setup_dir, 1)
        bench.last_ref = None  # the next operation gets a fresh reference pass
        index += 1
        if time.perf_counter() >= deadline:
            break
    shutil.rmtree(setup_dir, ignore_errors=True)
    stats = {}
    for op in OPS:
        if bench.ratios[op]:
            stats[f"{op}_ref"] = {**summarize(bench.ratios[op], "median"), "unit": "ref"}
            stats[f"{op}_s"] = {**summarize(bench.times[op], "median"), "unit": "s"}
    stats["reference_s"] = {**summarize(bench.refs, "median"), "unit": "s"}
    stats["peak_heap_mb"] = {"value": bench.peak_heap(), "n": 1}
    return stats


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, Tracer]:
    tracer = Tracer()
    untraced: list[float] = []
    rounds: list[dict] = []
    deadline = time.perf_counter() + seconds
    home = HOME_OP[bench.workload]
    bench.round(0, None)  # reference outputs, untraced
    index = 1
    while not rounds or time.perf_counter() < deadline:
        elapsed = bench.run("export_spice")
        if elapsed is not None:
            untraced.append(elapsed)
        first = len(tracer)
        tracer.install()
        try:
            for op in OPS[index % len(OPS) :] + OPS[: index % len(OPS)]:
                with tracer.span(f"op.{op}"):
                    bench.run(op)
        finally:
            restored = tracer.uninstall()
        bench.attempted += 1
        if not restored:
            bench.fail("tracer", "a patched name was not restored")
        rounds.append(tracer.aggregate(first, len(tracer)))
        if len(rounds) > 1:
            tracer.truncate(first)  # keep the first traced round's spans for writing
        index += 1

    stats: dict = {}
    for metric, (op, spans, field, unit) in LAYER_METRICS.items():
        values = []
        for agg in rounds:
            rows = agg.get(f"op.{op or home}", {})
            value = sum(rows.get(span, [0, 0, 0, 0])[_FIELD[field]] for span in spans)
            values.append(value / 1e9 if unit == "s" else value)
        if unit == "count":
            bench.attempted += 1
            if len(set(values)) != 1:
                bench.fail(metric, f"count differs between traced rounds: {values}")
            stats[metric] = {"value": values[0], "n": len(values), "unit": unit}
        else:
            stats[metric] = {**summarize(values, "median"), "unit": unit}
    traced = [agg["op.export_spice"]["op.export_spice"][1] / 1e9 for agg in rounds]
    ratio = statistics.median(traced) / statistics.median(untraced)
    stats["trace.overhead_ratio"] = {"value": ratio, "n": len(rounds), "unit": "ratio"}
    return stats, tracer


# --- entry points -----------------------------------------------------------------------


def time_setup(workload: str, seed: int, directory: Path, repeats: int) -> list[float]:
    """Wall time of fresh processes that import netforge and write the inputs."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(directory)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise CheckoutError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return times


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "netforge" / "__init__.py").is_file() or not GOLDEN.is_dir():
        raise CheckoutError("src/netforge or tests/golden is missing")
    work = WORK / f"{workload}-s{seed}-t{int(trace)}"
    setup = time_setup(workload, seed, work, 1 if trace else SETUP_REPEATS)
    sys.path.insert(0, str(ROOT / "src"))
    bench = Bench(workload, seed, work)

    if trace:
        stats, tracer = measure_traced(bench, seconds)
    else:
        stats = measure(bench, seconds, setup)
        stats["setup_s"] = summarize(setup, "median")
    bench.deep_checks()
    bench.golden_checks()
    if "export_spice" in bench.first:
        stats["netlist_bytes"] = {"value": len(bench.first["export_spice"].encode()), "n": 1}
    if trace:
        tracer.write(OUT / f"spans-{workload}.tsv.gz")
    shutil.rmtree(work, ignore_errors=True)

    names = LAYER_METRICS.keys() | {"trace.overhead_ratio"} if trace else END_TO_END_UNITS.keys()
    metrics = {}
    for name, row in stats.items():
        if name in names:
            unit = row.get("unit") or END_TO_END_UNITS[name]
            metrics[name] = {"value": row["value"], "unit": unit}
    correct = bench.failed == 0 and set(metrics) == set(names)
    for problem in bench.problems:
        sys.stderr.write(f"FAIL {problem}\n")
    print_table(workload, stats, bench.attempted, bench.failed)
    print("# stats " + json.dumps({"workload": workload, "stats": stats}))
    print(
        json.dumps(
            {"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def print_table(workload: str, stats: dict, attempted: int, failed: int) -> None:
    print(f"{workload}: error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"  {'metric':34} {'reported':>12} {'unit':6} {'median':>10} {'min':>10} {'tail':>18}  n")
    for name, row in stats.items():
        unit = row.get("unit") or END_TO_END_UNITS.get(name, "")
        median = f"{row['median']:.6g}" if "median" in row else "-"
        low = f"{row['min']:.6g}" if "min" in row else "-"
        tail = next((f"{k}={v:.6g}" for k, v in row.items() if k[0] == "p"), "-")
        print(f"  {name:34} {row['value']:>12.6g} {unit:6} {median:>10} {low:>10} {tail:>18}  {row['n']}")


def run_all(args) -> int:
    """Each workload in its own process; one row per workload."""
    rows, worst = [], 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().split("\n")
        stats = next((json.loads(l[8:])["stats"] for l in lines if l.startswith("# stats ")), {})
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"attempted": 0, "failed": 0}
        rows.append((workload, stats, result))
    names = sorted({name for _, stats, _ in rows for name in stats})
    print("metric".ljust(34) + "".join(w.rjust(26) for w, _, _ in rows))
    for name in names:
        cells = []
        for _, stats, _ in rows:
            row = stats.get(name)
            if row is None:
                cells.append("-".rjust(26))
                continue
            unit = row.get("unit") or END_TO_END_UNITS.get(name, "")
            cells.append(f"{row['value']:.5g} {unit} n={row['n']}".rjust(26))
        print(name.ljust(34) + "".join(cells))
    rates = []
    for _, _, result in rows:
        attempted, failed = result.get("attempted", 0), result.get("failed", 0)
        rates.append(f"{failed}/{attempted}".rjust(26) if attempted else "no result".rjust(26))
    print("error_rate".ljust(34) + "".join(rates))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckoutError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
