"""Spans around the public functions of each netforge module, from outside.

`Tracer.install()` replaces each name in `TARGETS` at the place it is looked
up (for example `netforge.exporters.eval_params`, the name the exporters
call) with a wrapper that records a span: name, start, end and parent. The
original objects come back on `uninstall()`. Spans stay in memory, in flat
arrays, until `write()` at the end of the run. A span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter_ns


def _instances(circuit):
    return len(circuit.instances)


# (module, attribute or Class.method, span name, count of the result or None)
TARGETS = [
    ("netforge.builddoc", "build_circuit", "builddoc.build_circuit", _instances),
    ("netforge.builddoc", "validate_dependencies", "builddoc.validate_dependencies", None),
    ("netforge.builddoc", "parse_formula", "builddoc.parse_formula", None),
    ("netforge.builddoc", "Chain", "manip.construct", None),
    ("netforge.builddoc", "NamedChain", "manip.construct", None),
    ("netforge.builddoc", "Array", "manip.construct", None),
    ("netforge.builddoc", "Inject", "manip.construct", None),
    ("netforge.builddoc", "load_param_file", "io_readers.load", None),
    ("netforge.builddoc", "load_spice_models", "io_readers.load", None),
    ("netforge.builddoc", "load_veriloga", "io_readers.load", None),
    ("netforge.core", "Circuit.add", "core.Circuit.add", None),
    ("netforge.exporters", "value_from_json", "io_readers.value_from_json", None),
    ("netforge.exporters", "eval_params", "params.eval_params", None),
    ("netforge.formula", "Formula.evaluate", "formula.evaluate", None),
    ("netforge.params", "RandomSpec.sample", "rng.sample", None),
    ("netforge.exporters", "format_number", "numfmt.format_number", None),
    ("netforge.exporters", "lint", "exporters.lint", len),
    ("netforge.exporters", "export_json", "exporters.export_json", None),
    ("netforge.exporters", "import_json", "exporters.import_json", None),
    ("netforge.cli", "export", "exporters.export", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.count = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.name)

    # -- recording ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.count.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                tracer.count[index] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block, for the benchmark's own operations."""
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    # -- patching --------------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name, count in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, span_name, count))

    def uninstall(self) -> bool:
        """Restore every patched name; True when each holds its original again."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        restored = all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
            for owner, attr, original in self._saved
        )
        self._saved.clear()
        return restored

    # -- analysis --------------------------------------------------------------------

    def aggregate(self, first: int, last: int) -> dict[str, dict[str, list]]:
        """Per root span name, per span name: [calls, total ns, self ns, count],
        over spans first..last-1 (whole root spans only)."""
        child = [0] * (last - first)
        root = [0] * (last - first)
        name, start, end, parent, count = self.name, self.start, self.end, self.parent, self.count
        for i in range(last - 1, first - 1, -1):
            p = parent[i]
            if p >= first:
                child[p - first] += end[i] - start[i]
        for i in range(first, last):
            p = parent[i]
            root[i - first] = i if p < first else root[p - first]
        out: dict[str, dict[str, list]] = {}
        for i in range(first, last):
            op = out.setdefault(self.names[name[root[i - first]]], {})
            row = op.setdefault(self.names[name[i]], [0, 0, 0, 0])
            duration = end[i] - start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i - first]
            row[3] += count[i]
        return out

    def truncate(self, length: int) -> None:
        """Forget the spans from index `length` on (all of them closed)."""
        for column in (self.name, self.start, self.end, self.parent, self.count):
            del column[length:]

    def write(self, path: Path) -> None:
        """Write the spans, gzip-compressed: a JSON list of names on the first
        line, then `name_index start_ns end_ns parent_index` per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if len(self) else 0
        with gzip.open(path, "wt", compresslevel=1) as stream:
            stream.write(json.dumps(self.names) + "\n")
            for i in range(len(self)):
                stream.write(
                    f"{self.name[i]} {self.start[i] - base} {self.end[i] - base} {self.parent[i]}\n"
                )
