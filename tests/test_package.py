import os
import subprocess
import sys
from pathlib import Path

import netforge

SRC = Path(netforge.__file__).resolve().parent.parent
# what `import netforge` imports eagerly, each module that __init__ names
EAGER = (
    "netforge.core", "netforge.errors", "netforge.exporters", "netforge.formula",
    "netforge.io_readers", "netforge.manip", "netforge.names", "netforge.numfmt",
    "netforge.params", "netforge.rng",
)
# stdlib modules that cost a CLI process milliseconds to import and that the
# package does without
HEAVY = ("dataclasses", "inspect", "secrets", "hashlib")


def _modules_after(code: str) -> set:
    """The names in sys.modules of a fresh interpreter that ran `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    listing = "import sys; print('\\n'.join(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{listing}"],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    )
    return set(result.stdout.split())


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(netforge.__all__) == len(set(netforge.__all__))
    for name in netforge.__all__:
        assert hasattr(netforge, name), name


def test_a_fresh_import_is_eager_and_loads_no_heavy_stdlib_module():
    bare = _modules_after("pass")  # what this interpreter's site preloads
    package = _modules_after("import netforge")
    assert set(EAGER) <= package
    cli = _modules_after("import netforge.cli")
    assert {"netforge.cli", "netforge.builddoc", *EAGER} <= cli
    for loaded in (package, cli):
        assert sorted(set(HEAVY) & (loaded - bare)) == []
