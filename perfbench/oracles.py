"""Output checks that do not use netforge to decide what is right.

Every check reads netlist text the way a simulator front end would: split
lines into whitespace tokens, take the designator, the nets, the master and
`name=value` parameters, and compare them with what the workload document
asked for, recomputing formulas from the emitted values. A failed check
raises `Mismatch`; the benchmark counts each one as a failed operation.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

SPICE_TITLE = "Generated netlist"
SPECTRE_HEADER = ["simulator lang=spectre", "// Generated netlist"]

_PARAM_RE = re.compile(r"^([A-Za-z_]\w*)=(\S+)$")
_SPECTRE_RE = re.compile(r"^(\S+) \(([^()]*)\) (\S+)((?: \S+)*)$")


class Mismatch(Exception):
    """An output differs from what the oracle expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise Mismatch(f"{where}: {text!r} is not a number") from None
    expect(math.isfinite(value), f"{where}: {text!r} is not finite")
    return value


def _params(tokens: list[str], where: str) -> dict[str, str]:
    out = {}
    for token in tokens:
        match = _PARAM_RE.match(token)
        expect(match is not None, f"{where}: {token!r} is not name=value")
        expect(match.group(1) not in out, f"{where}: parameter {match.group(1)} repeated")
        out[match.group(1)] = match.group(2)
    return out


def spice_instance(line: str, arity: int) -> tuple[str, list[str], str, dict[str, str]]:
    """designator, nets, master and parameters of one SPICE instance line."""
    tokens = line.split()
    expect(len(tokens) >= arity + 2, f"too few tokens for {arity} nets: {line!r}")
    return tokens[0], tokens[1 : 1 + arity], tokens[1 + arity], _params(tokens[2 + arity :], line)


def spectre_instance(line: str) -> tuple[str, list[str], str, dict[str, str]]:
    """designator, nets, master and parameters of one Spectre instance line."""
    match = _SPECTRE_RE.match(line)
    expect(match is not None, f"not a Spectre instance line: {line!r}")
    return match.group(1), match.group(2).split(), match.group(3), _params(
        match.group(4).split(), line
    )


def spice_body(text: str) -> list[str]:
    """The lines between the SPICE title and `.end`."""
    expect(text.endswith("\n"), "netlist does not end with a newline")
    lines = text[:-1].split("\n")
    expect(len(lines) >= 2 and lines[0] == SPICE_TITLE, "missing SPICE title line")
    expect(lines[-1] == ".end", "missing .end")
    return lines[1:-1]


def spectre_body(text: str) -> list[str]:
    """The lines after the Spectre header."""
    expect(text.endswith("\n"), "netlist does not end with a newline")
    lines = text[:-1].split("\n")
    expect(lines[:2] == SPECTRE_HEADER, "missing Spectre header")
    return lines[2:]


def _close(got: float, want: float, where: str) -> None:
    # emitted numbers carry 12 significant digits, so a value recomputed from
    # other emitted numbers agrees to about 1e-11 relative
    expect(math.isclose(got, want, rel_tol=1e-11), f"{where}: {got!r} != {want!r}")


def _mean_near(values: list[float], mean: float, std: float, where: str) -> None:
    # six standard errors: a correct sampler fails this about once in 1e9 runs
    n = len(values)
    got = statistics.fmean(values)
    expect(abs(got - mean) <= 6 * std / math.sqrt(n), f"{where}: mean {got!r}, want {mean!r}")


# --- per-workload netlist checks -------------------------------------------------


def check_chain_mc(text: str, exp: dict) -> None:
    """A chain of `exp['n']` 4-port devices: ports 0 -> 2 linked, w static,
    l uniform, vth gauss, test = 1/vth and area = w*l*2."""
    lines = spice_body(text)
    n = exp["n"]
    expect(len(lines) == n, f"{len(lines)} instance lines, want {n}")
    lo, hi = exp["l"]
    vths, ls, links = [], [], []
    previous_out = "a"
    for i, line in enumerate(lines):
        where = f"line {i + 2}"
        designator, nets, master, params = spice_instance(line, 4)
        expect(designator == f"X{i + 1}", f"{where}: designator {designator}")
        expect(master == "dev", f"{where}: master {master}")
        expect(list(params) == ["w", "l", "vth", "test", "area"], f"{where}: params {list(params)}")
        expect(nets[0] == previous_out, f"{where}: port 0 is {nets[0]}, want {previous_out}")
        expect(nets[1] == "b" and nets[3] == "d", f"{where}: shared ports {nets}")
        w, l, vth, test, area = (_number(params[k], where) for k in params)
        _close(w, exp["w"], f"{where} w")
        expect(lo <= l <= hi, f"{where}: l={l!r} outside [{lo}, {hi}]")
        _close(test, 1 / vth, f"{where} test")
        _close(area, w * l * 2, f"{where} area")
        vths.append(vth)
        ls.append(l)
        if i < n - 1:
            links.append(nets[2])
        previous_out = nets[2]
    expect(previous_out == "c", f"last port 2 is {previous_out}, want c")
    expect(len(set(links)) == len(links), "chain link nets are not distinct")
    expect(not set(links) & {"a", "b", "c", "d"}, "a chain link reuses a terminal net")
    _mean_near(vths, exp["vth"][0], exp["vth"][1], "vth")
    _mean_near(ls, (lo + hi) / 2, (hi - lo) / math.sqrt(12), "l")


def check_ro_sweep(text: str, exp: dict, golden_ro: str) -> None:
    """The ring oscillator of tests/golden/ro.sp (up to value tokens), then a
    chain of `exp['n']` nmos_tt linked port 0 -> 3 with defect resistors
    from a link to GND placed before the instance they hang on."""
    lines = spice_body(text)
    prefix = spice_body(golden_ro)
    expect(len(lines) > len(prefix), "netlist shorter than the ring oscillator")
    same_but_values("\n".join(prefix), "\n".join(lines[: len(prefix)]))
    n, p = exp["n"], exp["p"]
    devices, defects = 0, 0
    pending_defect = None
    previous_out = "d"
    vths = []
    for offset, line in enumerate(lines[len(prefix) :]):
        where = f"line {len(prefix) + offset + 2}"
        if line.startswith("R"):
            designator, nets, master, params = spice_instance(line, 2)
            defects += 1
            expect(pending_defect is None, f"{where}: two defects in a row")
            expect(designator == f"R{defects}" and master == "Res", f"{where}: {line!r}")
            expect(nets[1] == "GND" and params == {"R": "10000"}, f"{where}: {line!r}")
            pending_defect = nets[0]
            continue
        designator, nets, master, params = spice_instance(line, 4)
        devices += 1
        expect(designator == f"M{devices}" and master == "nmos_tt", f"{where}: {line!r}")
        expect(nets[0] == previous_out, f"{where}: port 0 is {nets[0]}, want {previous_out}")
        expect(nets[1:3] == ["g", "s"], f"{where}: shared ports {nets}")
        expect(list(params) == ["w", "vth", "test"], f"{where}: params {list(params)}")
        w, vth, test = (_number(params[k], where) for k in params)
        _close(w, exp["w"], f"{where} w")
        _close(test, 1 / vth, f"{where} test")
        vths.append(vth)
        if pending_defect is not None:
            expect(pending_defect == nets[3], f"{where}: defect on {pending_defect}, not {nets[3]}")
            pending_defect = None
        previous_out = nets[3]
    expect(pending_defect is None, "a defect resistor hangs on no device")
    expect(devices == n, f"{devices} chain devices, want {n}")
    expect(previous_out == "b", f"last port 3 is {previous_out}, want b")
    spread = 6 * math.sqrt(n * p * (1 - p))
    expect(abs(defects - n * p) <= spread, f"{defects} defects for p={p} over {n}")
    _mean_near(vths, exp["vth"][0], exp["vth"][1], "vth")


def check_spectre_matches(spice: str, spectre: str) -> None:
    """Top-level Spectre instances carry the same designators, nets, masters
    and values as the SPICE ones (both dialects draw the same random stream)."""
    spice_lines = top_level_lines(spice_body(spice))
    expect(bool(spice_lines), "no top-level SPICE instances")
    spectre_lines = spectre_body(spectre)[-len(spice_lines) :]
    expect(len(spectre_lines) == len(spice_lines), "dialects differ in instance count")
    for k, (a, b) in enumerate(zip(spice_lines, spectre_lines)):
        designator, nets, master, params = spectre_instance(b)
        tokens = [designator, *nets, master, *(f"{n}={v}" for n, v in params.items())]
        expect(" ".join(tokens) == a, f"instance {k}: spice {a!r} vs spectre {b!r}")


def top_level_lines(body: list[str]) -> list[str]:
    """SPICE lines after the last model or subcircuit definition."""
    last = 0
    for k, line in enumerate(body):
        if line.startswith((".model", ".subckt", ".ends")):
            last = k + 1
    return body[last:]


def check_ir(ir_text: str, spice: str) -> int:
    """The JSON IR lists the top-level instances of the SPICE netlist with
    the same designators and nets; returns the instance count."""
    try:
        doc = json.loads(ir_text)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"IR is not JSON: {exc}") from None
    instances = doc.get("instances")
    expect(isinstance(instances, list), "IR has no instance list")
    lines = top_level_lines(spice_body(spice))
    expect(len(instances) == len(lines), f"IR has {len(instances)} instances, SPICE {len(lines)}")
    for k, (inst, line) in enumerate(zip(instances, lines)):
        designator, nets, master, _ = spice_instance(line, len(inst["nets"]))
        got = (inst["designator"], inst["nets"], inst["template"])
        expect(got == (designator, nets, master), f"IR instance {k} {got} vs {line!r}")
    return len(instances)


# --- comparisons between outputs ---------------------------------------------------


def same_but_values(a: str, b: str) -> None:
    """`a` and `b` agree token by token, except the values of name=value tokens."""
    lines_a, lines_b = a.split("\n"), b.split("\n")
    expect(len(lines_a) == len(lines_b), f"{len(lines_a)} vs {len(lines_b)} lines")
    for k, (la, lb) in enumerate(zip(lines_a, lines_b)):
        ta, tb = la.split(), lb.split()
        expect(len(ta) == len(tb), f"line {k + 1}: {la!r} vs {lb!r}")
        for x, y in zip(ta, tb):
            if x == y:
                continue
            name_x, eq_x, value_x = x.partition("=")
            name_y, eq_y, value_y = y.partition("=")
            expect(
                eq_x and eq_y and name_x == name_y,
                f"line {k + 1}: {x!r} vs {y!r} is not a value change",
            )
            _number(value_x.rstrip(")"), f"line {k + 1}")
            _number(value_y.rstrip(")"), f"line {k + 1}")


def check_sweep(out_dir: Path, doc_stem: str, corners: list[str], seeds: list[int], first: str) -> None:
    """The manifest lists corners x seeds in order, every variant exists,
    the first variant equals `first` (the plain export at the document's
    corner and seed) and every other differs from it only in values."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    want = [(c, s) for c in corners for s in seeds]
    variants = manifest.get("variants", [])
    got = [(v.get("corner"), v.get("seed")) for v in variants]
    expect(got == want, f"manifest lists {got}, want {want}")
    for v in variants:
        expect("error" not in v, f"variant {v['file']} failed: {v.get('error')}")
        expect(v["file"] == f"{doc_stem}__{v['corner']}__s{v['seed']}.sp", f"file name {v['file']}")
    texts = [(out_dir / v["file"]).read_text() for v in variants]
    expect(texts[0] == first, "first sweep variant differs from the plain export")
    for v, text in zip(variants[1:], texts[1:]):
        expect(text != first, f"{v['file']} is identical to the first variant")
        same_but_values(first, text)
