#!/usr/bin/env python3
"""Benchmark a git ref against the working tree in alternating pairs.

Usage, from anywhere inside a checkout:

    python3 tools/bench_pairs.py REF [--workload W]... [--pairs N] [--seconds S] [--seed K]
                                 [--json PATH]

The committed files of REF are extracted (`git archive REF`) into a
temporary directory outside the repository. Then, for each workload W (give
--workload once per workload, or `all` for every workload in
BENCHMARK.json; ro_sweep by default), `perfbench/run.py --workload W --seed
K --seconds S --trace 0` runs N times in each checkout, the two
alternating, each run in its own process with the checkout as its working
directory. Which side goes first swaps from pair to pair, so a slow stretch
of a shared machine does not always fall on the same side, and each pair
runs every workload in turn.

One table per workload gives, for every end-to-end metric in BENCHMARK.json,
both medians, the change, the pairs the working tree won (better in the
metric's direction, within the same pair), the quartile distance (IQR) of
REF's runs, the metric's regression `bound` from BENCHMARK.json, and whether
the working tree's median is within it ("ok": worse than REF's median by at
most that fraction, or "WORSE"). A speed claim holds when the working tree
wins nearly every pair and its median moves by more than that IQR; "nothing
worse" holds when the last column reads "ok" on every row. The last line of
a table gives each side's failed share of the checked operations. So one
command shows a claimed metric better and nothing worse on any workload.
With --json, the same tables also go to PATH as one JSON object: the
run's settings, and per workload and metric the figures of its row (see
report()), with each side's failed and attempted operations.

Stdlib only. It writes nothing in the repository but what perfbench/run.py
writes itself (the ignored `.perfbench_*` directories).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent


def extract(ref: str, directory: Path) -> None:
    """The committed files of `ref` into `directory`."""
    archive = subprocess.run(
        ["git", "-C", str(TREE), "archive", "--format=tar", ref],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(directory, filter="data")
        else:
            tar.extractall(directory)


def run_once(checkout: Path, args, workload: str, names: list[str], label: str) -> dict:
    """One perfbench/run.py run of `workload` in `checkout`; its result line, parsed.

    A run that exits non-zero, prints no JSON result line, or leaves out one
    of `names` stops the whole batch, naming the run by `label`."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    where = f"{label} in {checkout}"
    if done.returncode != 0:
        raise SystemExit(f"{where}: perfbench/run.py exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise SystemExit(f"{where}: perfbench/run.py printed no JSON result line")
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        raise SystemExit(f"{where}: the result has no {', '.join(missing)}")
    return result


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def within(metric: dict, ref_median: float, tree_median: float) -> bool:
    """Whether the tree's median is worse than REF's by at most the metric's bound."""
    lower = metric.get("better", "lower") == "lower"
    worse = tree_median - ref_median if lower else ref_median - tree_median
    return worse <= metric["bound"] * abs(ref_median)


def report(workload: str, metrics: list[dict], ref_runs: list[dict], tree_runs: list[dict]) -> dict:
    """Print the table of one workload's pairs, and return it as data:
    {"pairs", "metrics": {name: row}, "runs": {side: {"failed", "attempted",
    "correct"}}}, where a row holds "ref_median", "tree_median", "change_pct",
    "tree_won", "ref_iqr" and, for a metric with a `bound`, "bound" and
    "within". The bound columns are left out for a metric without one."""
    print(f"== {workload}: {len(tree_runs)} pairs ==")
    print(f"{'metric':20s} {'ref median':>12s} {'tree median':>12s} {'change':>8s} "
          f"{'tree won':>9s} {'ref IQR':>10s} {'bound':>7s} within")
    table = {"pairs": len(tree_runs), "metrics": {}, "runs": {}}
    for metric in metrics:
        name = metric["name"]
        ref = [run["metrics"][name]["value"] for run in ref_runs]
        tree = [run["metrics"][name]["value"] for run in tree_runs]
        lower = metric.get("better", "lower") == "lower"
        won = sum((t < r) if lower else (t > r) for r, t in zip(ref, tree))
        ref_median, tree_median = statistics.median(ref), statistics.median(tree)
        change = (tree_median - ref_median) / ref_median * 100 if ref_median else 0.0
        row = (f"{name:20s} {ref_median:12.4g} {tree_median:12.4g} {change:+7.1f}% "
               f"{won:>4d}/{len(ref):<4d} {iqr(ref):10.3g}")
        data = table["metrics"][name] = {
            "ref_median": ref_median, "tree_median": tree_median, "change_pct": change,
            "tree_won": won, "ref_iqr": iqr(ref),
        }
        if "bound" in metric:
            data["bound"] = metric["bound"]
            data["within"] = within(metric, ref_median, tree_median)
            row += f" {metric['bound'] * 100:6.0f}% {'ok' if data['within'] else 'WORSE'}"
        print(row)
    shares = []
    for side, runs in (("ref", ref_runs), ("tree", tree_runs)):
        failed = sum(run.get("failed", 0) for run in runs)
        attempted = sum(run.get("attempted", 0) for run in runs)
        correct = all(run.get("correct") for run in runs)
        table["runs"][side] = {"failed": failed, "attempted": attempted, "correct": correct}
        shares.append(f"{side} {failed}/{attempted} failed{'' if correct else ', NOT correct'}")
    print("; ".join(shares))
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare the working tree with")
    parser.add_argument("--workload", action="append", help="repeatable, or `all`")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, metavar="PATH", help="also write the tables here")
    args = parser.parse_args(argv)
    benchmark = json.loads((TREE / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in benchmark["workloads"]]
    workloads = []
    for workload in args.workload or ["ro_sweep"]:
        for name in known if workload == "all" else [workload]:
            if name not in known:
                parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")
            if name not in workloads:
                workloads.append(name)
    metrics = benchmark["end_to_end"]
    names = [metric["name"] for metric in metrics]

    runs = {(workload, side): [] for workload in workloads for side in ("ref", "tree")}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as temp:
        ref_checkout = Path(temp)
        extract(args.ref, ref_checkout)
        for pair in range(args.pairs):
            sides = [("ref", ref_checkout), ("tree", TREE)]
            for workload in workloads:
                for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                    label = f"{workload} pair {pair + 1}/{args.pairs} {side}"
                    result = run_once(checkout, args, workload, names, label)
                    runs[workload, side].append(result)
                    values = " ".join(
                        f"{name}={result['metrics'][name]['value']:.4g}" for name in names
                    )
                    print(f"{label}: {values}", file=sys.stderr, flush=True)
    tables = {
        workload: report(workload, metrics, runs[workload, "ref"], runs[workload, "tree"])
        for workload in workloads
    }
    if args.json:
        written = {"ref": args.ref, "pairs": args.pairs, "seconds": args.seconds,
                   "seed": args.seed, "workloads": tables}
        args.json.write_text(json.dumps(written, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
