"""tools/bench_pairs.py reports each workload's pairs in its own table.

The tool itself runs the benchmark for minutes; report() is the part that
turns runs into the verdict, so it is checked here on made-up runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

METRICS = [
    {"name": "sweep_ref", "better": "lower"},
    {"name": "netlist_bytes", "better": "lower"},
]


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(sweep, size=100, failed=0, correct=True):
    metrics = {"sweep_ref": {"value": sweep}, "netlist_bytes": {"value": size}}
    return {"metrics": metrics, "failed": failed, "attempted": 10, "correct": correct}


def _table(capsys, workload, ref, tree):
    _load_tool().report(workload, METRICS, ref, tree)
    return capsys.readouterr().out.splitlines()


def test_report_gives_medians_wins_and_the_ref_iqr(capsys):
    ref = [_run(v) for v in (10.0, 11.0, 12.0, 13.0, 14.0)]
    tree = [_run(v) for v in (9.0, 10.0, 13.0, 12.0, 11.0)]
    lines = _table(capsys, "chain_mc", ref, tree)
    assert lines[0] == "== chain_mc: 5 pairs =="
    sweep = lines[2].split()
    # medians 12 -> 11 (-8.3 %), the tree won all pairs but the third, and
    # the quartiles of 10..14 are 10.5 and 13.5
    assert sweep == ["sweep_ref", "12", "11", "-8.3%", "4/5", "3"]
    assert lines[3].split()[1:5] == ["100", "100", "+0.0%", "0/5"]
    assert lines[4] == "ref 0/50 failed; tree 0/50 failed"


def test_report_gives_each_bound_and_whether_the_median_is_within_it(capsys):
    metrics = [
        {"name": "sweep_ref", "better": "lower", "bound": 0.25},
        {"name": "netlist_bytes", "better": "lower", "bound": 0.05},
    ]
    ref = [_run(v, size=100) for v in (10.0, 11.0, 12.0)]
    tree = [_run(v, size=106) for v in (12.0, 13.0, 14.0)]
    _load_tool().report("ro_sweep", metrics, ref, tree)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-2:] == ["bound", "within"]
    # sweep_ref 11 -> 13 is 18 % worse, inside its 25 %; netlist_bytes
    # 100 -> 106 is 6 % worse, outside its 5 %
    assert lines[2].split()[-2:] == ["25%", "ok"]
    assert lines[3].split()[-2:] == ["5%", "WORSE"]


def test_report_names_failures_and_wrong_runs(capsys):
    ref = [_run(10.0)]
    tree = [_run(9.0, failed=2, correct=False)]
    lines = _table(capsys, "ro_sweep", ref, tree)
    assert lines[2].split()[-2:] == ["1/1", "0"]  # one run: no quartiles
    assert lines[-1] == "ref 0/10 failed; tree 2/10 failed, NOT correct"


@pytest.mark.parametrize("argv", [["HEAD", "--workload", "nope"],
                                  ["HEAD", "--workload", "all", "--workload", "nope"]])
def test_an_unknown_workload_is_refused_before_any_run(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _load_tool().main(argv)
    assert exit_info.value.code == 2
    assert "unknown workload 'nope'" in capsys.readouterr().err


def test_json_writes_the_tables_it_prints(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    # in run order: the second pair runs the tree first, so ref 10, 12, 11 and tree 9, 8, 10
    values = iter([10.0, 9.0, 8.0, 12.0, 11.0, 10.0])

    def run_once(checkout, args, workload, names, label):
        metrics = {name: {"value": 100.0} for name in names}
        metrics["sweep_ref"] = {"value": next(values)}
        return {"metrics": metrics, "failed": 0, "attempted": 4, "correct": True}

    monkeypatch.setattr(tool, "extract", lambda ref, directory: None)
    monkeypatch.setattr(tool, "run_once", run_once)
    path = tmp_path / "bench.json"
    assert tool.main(["HEAD~1", "--workload", "ro_sweep", "--pairs", "3", "--seconds", "2",
                      "--json", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    written = json.loads(path.read_text())
    assert {k: written[k] for k in ("ref", "pairs", "seconds", "seed")} == {
        "ref": "HEAD~1", "pairs": 3, "seconds": 2.0, "seed": 1
    }
    table = written["workloads"]["ro_sweep"]
    assert table["metrics"]["sweep_ref"] == {
        "ref_median": 11.0, "tree_median": 9.0, "change_pct": -100 * 2 / 11, "tree_won": 3,
        "ref_iqr": table["metrics"]["sweep_ref"]["ref_iqr"], "bound": 0.25, "within": True,
    }
    assert table["metrics"]["netlist_bytes"]["within"] is True
    assert table["runs"]["tree"] == {"failed": 0, "attempted": 12, "correct": True}
    assert table["pairs"] == 3 and len(table["metrics"]) == len(printed) - 3
    assert printed[0] == "== ro_sweep: 3 pairs =="
    assert printed[2].split()[:5] == ["export_spice_ref", "100", "100", "+0.0%", "0/3"]
