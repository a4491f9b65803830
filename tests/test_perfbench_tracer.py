"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py patches functions by the names the package looks them up
under (for example `netforge.exporters.eval_params`). A refactor that drops
or renames one of them would otherwise only show in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

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
