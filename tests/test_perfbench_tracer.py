"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py patches functions by the names the package looks them up
under (for example `netforge.exporters.eval_params`). A refactor that drops
or renames one of them would otherwise only show in a traced benchmark run.
Tracing must change no byte of what a run renders or writes.
"""

import importlib.util
from pathlib import Path

import pytest
from test_param_plan import _chain_doc

from netforge import builddoc, exporters
from netforge.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracer_module = _load_tracer()
    assert tracer_module.TARGETS
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        restored = tracer.uninstall()
    assert restored


@pytest.mark.parametrize("n", [10, 200])
def test_traced_counts_of_a_second_emit(tmp_path, n):
    # the chain and the load of test_param_plan: their kernels draw, compute
    # and format every value inline, so no traced name is called per value
    circuit = builddoc.build_circuit(_chain_doc(n), tmp_path)
    untraced = exporters.export(circuit, seed=5)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        emit = exporters._seed_exporter(circuit, "spice")
        first_text = emit(5)
        first = len(tracer)
        with tracer.span("op.emit"):
            second_text = emit(5)
        spans = tracer.aggregate(first, len(tracer))["op.emit"]
    finally:
        assert tracer.uninstall()
    assert second_text == first_text == untraced
    assert {name: row[0] for name, row in spans.items()} == {"op.emit": 1}


def _load_workloads():
    path = TRACER.with_name("workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _written(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_traced_sweep_rounds_repeat(tmp_path):
    # a traced benchmark run fails when a round's counts differ from the
    # last one's, or when tracing changes what the run writes
    workloads = _load_workloads()
    doc = workloads.write_inputs(workloads.spec("ro_sweep", 1), tmp_path / "inputs")
    argv = ["sweep", str(doc), "--corner", "TT", "--corner", "FF", "--seeds", "2", "--out"]
    assert main([*argv, str(tmp_path / "untraced")]) == 0
    untraced = _written(tmp_path / "untraced")
    tracer = _load_tracer().Tracer()
    rounds = []
    for k in range(2):
        # as in a traced benchmark run, an untraced export comes before each round
        assert main(["export", str(doc), "--out", str(tmp_path / "export.sp")]) == 0
        out = tmp_path / f"traced{k}"
        first = len(tracer)
        tracer.install()
        try:
            with tracer.span("op.sweep"):
                code = main([*argv, str(out)])
        finally:
            assert tracer.uninstall()
        assert code == 0
        assert _written(out) == untraced
        spans = tracer.aggregate(first, len(tracer))["op.sweep"]
        rounds.append({name: (row[0], row[3]) for name, row in spans.items()})
    assert rounds[0] == rounds[1]
    assert rounds[0]["builddoc.build_circuit"][0] == 2  # one build per corner
    assert rounds[0]["builddoc.validate_dependencies"][0] > 0
