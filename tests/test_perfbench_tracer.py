"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py patches functions by the names the package looks them up
under (for example `netforge.exporters.eval_params`). A refactor that drops
or renames one of them, or that stops calling one per value, would otherwise
only show in a traced benchmark run, as a counter that reads 0.
"""

import importlib.util
from pathlib import Path

import pytest
from test_param_plan import _chain_doc

from netforge import builddoc, exporters

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
    # the chain and the load of test_param_plan: l and vth drawn, 1/vth and
    # w*l*2 computed, and all four formatted per device, plus the load's 1/r
    circuit = builddoc.build_circuit(_chain_doc(n), tmp_path)
    exporters.export(circuit)  # plans and run functions made before the tracer
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
    assert second_text == first_text == exporters.export(circuit, seed=5)
    calls = {name: row[0] for name, row in spans.items()}
    assert calls == {
        "op.emit": 1,
        "rng.sample": 2 * n,
        "formula.evaluate": 2 * n + 1,
        "numfmt.format_number": 4 * n + 1,
    }
