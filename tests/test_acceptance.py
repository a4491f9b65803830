"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test prints "[criterion N] <label>: PASS|FAIL" so a plain pytest run
doubles as the acceptance report (use -s or read captured output).
"""

import importlib.util
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from netforge.core import Circuit, Component, Instance, Net, PendingNet, Subcircuit
from netforge.errors import CyclicDependencyError, DivisionByZeroError, NonFiniteResultError
from netforge.exporters import export, export_json, import_json, lint, write_param_file
from netforge.formula import BinOp, Call, Formula, Neg, Num, Var, parse_formula, unparse
from netforge.io_readers import ParamFile, read_param_file
from netforge.manip import Array, Chain, Inject, Parallel
from netforge.params import _DRAW_KINDS, ParamSet, Params, RandomSpec, eval_params, gauss
from netforge.rng import Xoshiro256StarStar

from sample_circuits import (
    DATA_DIR,
    GOLDEN_DIR,
    capacitor_circuit,
    crossbar_circuit,
    crossbar_ports,
    defect_chain_circuit,
    ro_circuit,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {label}: FAIL")
        raise
    print(f"[criterion {number:2d}] {label}: PASS")


NMOS = Component("nmos", [1, "INPUT", 3, "GND"])


# --- 1: combinator cardinalities -----------------------------------------------

def test_criterion_1_combinator_cardinalities():
    with criterion(1, "combinator cardinalities"):
        for n in (0, 1, 5, 50):
            start = time.perf_counter()
            assert len(Parallel(NMOS, n)) == n
            assert time.perf_counter() - start < 1.0
        for n in (1, 5, 50):
            start = time.perf_counter()
            chain = Chain(NMOS, n, 0, 2)
            assert len(chain) == n
            generated = {
                id(net)
                for inst in chain
                for net in inst.nets
                if isinstance(net, PendingNet)
            }
            assert len(generated) == n - 1
            assert time.perf_counter() - start < 1.0
        for rows in (1, 2, 3):
            for cols in (1, 2, 3):
                start = time.perf_counter()
                assert len(Array((rows, cols), NMOS)) == rows * cols
                assert time.perf_counter() - start < 1.0


# --- 2: daisy-chain reconstruction ---------------------------------------------

def test_criterion_2_chain_reconstruction():
    with criterion(2, "daisy-chain wiring reconstruction"):
        chain = Chain(NMOS, 3, in_port=0, out_port=2)
        instances = list(chain)
        # boundary nets preserved
        assert instances[0].nets[0] == Net("1")
        assert instances[-1].nets[2] == Net("3")
        # untouched ports keep INPUT / GND on every instance
        for inst in instances:
            assert inst.nets[1] == Net("INPUT")
            assert inst.nets[3] == Net("GND")
        # shared-net graph over the chain terminals is the simple path 0-1-2
        edges = set()
        for i, a in enumerate(instances):
            for j in range(i + 1, len(instances)):
                b = instances[j]
                terms_a = {a.nets[0], a.nets[2]}
                terms_b = {b.nets[0], b.nets[2]}
                if any(x is y or x == y for x in terms_a for y in terms_b):
                    edges.add((i, j))
        assert edges == {(0, 1), (1, 2)}


# --- 3: defect injection ----------------------------------------------------

def test_criterion_3_defect_injection():
    with criterion(3, "defect injection boundaries and statistics"):
        chain = Chain(Component("mosfet", [1, "INPUT", 3, "GND"]), 7)
        assert len(Inject(chain, p=0.0, rng=0)) == 7
        full = Inject(chain, p=1.0, rng=0)
        assert len(full) == 14
        for k in range(0, 14, 2):
            assert full[k].template.name == "Res"
            assert full[k + 1].template.name == "mosfet"
        trials = 10_000
        total_defects = sum(
            len(Inject(chain, p=0.7, rng=seed)) - 7 for seed in range(trials)
        )
        mean = total_defects / trials
        assert abs(mean - 4.9) < 0.1  # Binomial(7, 0.7) mean, 5 sigma of SE


# --- 4: crossbar array --------------------------------------------------------

def test_criterion_4_crossbar_array():
    with criterion(4, "3x3 crossbar array wiring"):
        device = Component("memristor", ["", ""])
        arr = Array((3, 3), device, crossbar_ports)
        assert len(arr) == 9
        nets = {str(n) for inst in arr for n in inst.nets}
        assert nets == {"X_0", "X_1", "X_2", "Y_0", "Y_1", "Y_2"}
        seen = set()
        for inst in arr:
            x, y = inst.context["_x"], inst.context["_y"]
            assert (str(inst.nets[0]), str(inst.nets[1])) == (f"X_{x}", f"Y_{y}")
            seen.add((x, y))
        assert seen == {(x, y) for x in range(3) for y in range(3)}


# --- 5: ring-oscillator end to end ----------------------------------------------

def test_criterion_5_ring_oscillator_end_to_end():
    with criterion(5, "ring-oscillator document end to end"):
        start = time.perf_counter()
        circuit = ro_circuit()

        inv = circuit.subcircuits["INV"]
        assert len(inv.body) == 2
        assert {i.template.name for i in inv.body} == {"nmos_tt", "pmos_tt"}

        ro_chain = circuit.subcircuits["RO_CHAIN"]
        assert len(ro_chain.body) == 5
        assert all(i.template.name == "INV" for i in ro_chain.body)
        assert str(ro_chain.body[-1].nets[1]) == "OUT"

        chains = [i for i in circuit.instances if i.template.name == "RO_CHAIN"]
        counters = [i for i in circuit.instances if i.template.name == "counter"]
        assert len(chains) == 3
        assert len(counters) == 3
        for left, right in zip(chains, chains[1:]):
            assert str(left.nets[1]) == str(right.nets[0])
        chain_outs = [str(i.nets[1]) for i in chains]
        assert [str(c.nets[0]) for c in counters] == chain_outs

        report = lint(circuit)
        assert not report.has_errors

        spice = export(circuit, "spice")
        spectre = export(circuit, "spectre")
        assert spice.startswith("Generated netlist\n")
        assert spectre.startswith("simulator lang=spectre\n")
        assert time.perf_counter() - start < 1.0


# --- 6: formula engine -------------------------------------------------------------------

def test_criterion_6_formula_engine():
    with criterion(6, "formula engine and gaussian statistics"):
        entries = [("w", 0.135), ("vth", 0.4), ("test", Formula("1 / vth"))]
        expected = {"w": 0.135, "vth": 0.4, "test": 2.5}
        import itertools

        for order in itertools.permutations(entries):
            out = eval_params(Params(dict(order)))
            assert out == expected
            assert out["test"] == 2.5  # exact

        with pytest.raises(CyclicDependencyError):
            eval_params(Params({"a": Formula("b"), "b": Formula("a")}))

        gen = Xoshiro256StarStar(20260809)
        spec = gauss(0.4, 0.1)
        n = 100_000
        values = [spec.sample(gen) for _ in range(n)]
        mean = sum(values) / n
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        assert abs(mean - 0.4) < 0.002
        assert abs(std - 0.1) < 0.002


# --- 7: randomized round-trips --------------------------------------------------------------

_WORDS = ("fast", "slow", "lvt", "hvt", "typ", "metal1")
_IDENTS = ("a", "b", "w", "vth")


class _Rand:
    def __init__(self, seed):
        self.gen = Xoshiro256StarStar(seed)
        self.draws = 0

    def int(self, lo, hi):
        return lo + self.gen.next_u64() % (hi - lo + 1)

    def pick(self, seq):
        return seq[self.gen.next_u64() % len(seq)]

    def number(self):
        return round(self.gen.uniform(-100.0, 100.0), 6)

    def ast(self, depth):
        if depth == 0 or self.int(0, 3) == 0:
            if self.int(0, 1):
                return Num(round(self.gen.uniform(0.0, 50.0), 6))
            return Var(self.pick(_IDENTS))
        kind = self.int(0, 3)
        if kind == 0:
            return Neg(self.ast(depth - 1))
        if kind == 1:
            return BinOp(self.pick("+-*/^"), self.ast(depth - 1), self.ast(depth - 1))
        if kind == 2:
            return Call(self.pick(("min", "max", "pow")), (self.ast(depth - 1), self.ast(depth - 1)))
        return Call(self.pick(("abs", "sqrt", "exp")), (self.ast(depth - 1),))

    def param_value(self):
        """A number, a word, a formula or (two times in five) a draw. The
        draws take turns over every kind params defines and take no choice
        from the generator, so the generated circuits keep their shapes."""
        kind = self.int(0, 4)
        if kind == 0:
            return self.number()
        if kind == 1:
            return self.pick(_WORDS)
        if kind == 2:
            return Formula.from_ast(self.ast(2))
        draw = _DRAW_KINDS[self.draws % len(_DRAW_KINDS)]
        self.draws += 1
        a, spread = self.number(), abs(self.number())
        return RandomSpec(draw, a, a + spread if draw == "uniform" else spread)

    def params(self, max_keys=3):
        return Params({f"p{k}": self.param_value() for k in range(self.int(0, max_keys))})


def _random_circuit(seed: int) -> Circuit:
    rand = _Rand(seed)
    circuit = Circuit(rng_seed=rand.int(0, 2**31))

    components = [
        Component(
            f"c{k}",
            [f"t{j}" for j in range(rand.int(1, 4))],
            rand.params(),
            metadata={"tag": rand.pick(_WORDS)} if rand.int(0, 1) else None,
        )
        for k in range(rand.int(1, 3))
    ]

    from netforge.core import Model

    for k in range(rand.int(0, 2)):
        circuit += Model(f"m{k}", rand.pick(("nmos", "pmos", "res")), rand.params())

    if rand.int(0, 1):
        scratch = Circuit()
        scratch += Parallel(rand.pick(components), rand.int(1, 2))
        sub = scratch.into_subckt(f"s{seed % 7}", ["p0", "p1"], rand.params(2))
        if rand.int(0, 1):
            sub.fix()
        circuit += sub @ [rand.pick(("n1", "n2", "GND")), "VDD"]

    for _ in range(rand.int(1, 3)):
        template = rand.pick(components)
        op = rand.int(0, 4)
        if op == 0:
            circuit += Parallel(template, rand.int(0, 3))
        elif op == 1 and template.arity >= 2:
            circuit += Chain(template, rand.int(1, 4))
        elif op == 2:
            shape = (rand.int(1, 3),) if rand.int(0, 1) else (rand.int(1, 2), rand.int(1, 2))
            circuit += Array(shape, template, lambda c, r=rand: [f"g{r.int(0, 5)}"])
        elif op == 3 and template.arity >= 2:
            circuit += Inject(Chain(template, rand.int(1, 3)), p=rand.int(0, 10) / 10, rng=seed)
        else:
            inst = template % rand.params(2)
            circuit += inst @ [f"n{rand.int(0, 5)}" for _ in range(template.arity)]

    for _ in range(rand.int(0, 2)):
        circuit.directives.append(f".option gmin=1e-{rand.int(9, 15)}")
    return circuit


def _random_param_file(seed: int) -> ParamFile:
    rand = _Rand(seed)
    return ParamFile(
        {
            f"dev{d}": ParamSet(
                {
                    rand.pick(("TT", "FF", "SS")): Params(
                        {f"k{j}": rand.param_value() for j in range(rand.int(1, 4))}
                    )
                }
            )
            for d in range(rand.int(1, 3))
        }
    )


def test_criterion_7_randomized_round_trips():
    with criterion(7, "randomized round-trip identities (1000 circuits)"):
        for seed in range(1000):
            circuit = _random_circuit(seed)
            text = export_json(circuit)
            again = import_json(text)
            assert again == circuit, f"circuit round trip failed at seed {seed}"
            assert export_json(again) == text

        rand = _Rand(12345)
        for _ in range(1000):
            ast = rand.ast(3)
            assert parse_formula(unparse(ast)).ast == ast

        for seed in range(300):
            pf = _random_param_file(seed)
            assert read_param_file(write_param_file(pf)) == pf


# --- generated circuits: a lint-clean circuit exports ----------------------------------------

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


def _load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def _without_lines(text: str, lines) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if line[:-1] not in lines)


def test_generated_lint_clean_circuits_export():
    """Every lint-clean generated circuit exports in both text dialects, or
    fails only on a value that is not finite or a division by zero; another
    seed changes only value tokens; and both dialects print the same
    top-level instance lines (directives aside, which only SPICE checks)."""
    exported = 0
    for seed in range(300):
        circuit = _random_circuit(seed)
        if lint(circuit).has_errors:
            continue
        try:
            texts = [export(circuit, dialect) for dialect in ("spice", "spectre")]
            reseeded = export(circuit, "spice", seed=circuit.rng_seed + 1)
        except (NonFiniteResultError, DivisionByZeroError):
            continue
        exported += 1
        oracles.same_but_values(texts[0], reseeded)
        if circuit.instances:
            spice, spectre = (_without_lines(text, circuit.directives) for text in texts)
            oracles.check_spectre_matches(spice, spectre)
    assert exported >= 150


# --- 8: cross-process determinism --------------------------------------------------------------

def _run_export(dialect: str, seed: int) -> bytes:
    cmd = [
        sys.executable,
        "-m",
        "netforge",
        "export",
        str(DATA_DIR / "ro.json"),
        "--dialect",
        dialect,
        "--seed",
        str(seed),
    ]
    return subprocess.run(cmd, capture_output=True, check=True).stdout


def test_criterion_8_process_determinism():
    with criterion(8, "byte-identical exports across processes"):
        for dialect in ("spice", "spectre"):
            assert _run_export(dialect, 7) == _run_export(dialect, 7)
        a = _run_export("spice", 7).decode().splitlines()
        b = _run_export("spice", 8).decode().splitlines()
        assert len(a) == len(b)
        changed = [(x, y) for x, y in zip(a, b) if x != y]
        assert changed  # the document carries gaussian parameters
        for x, y in changed:
            xt, yt = x.split(), y.split()
            assert len(xt) == len(yt)
            for tx, ty in zip(xt, yt):
                if tx != ty:
                    assert "=" in tx and "=" in ty
                    assert tx.split("=")[0] == ty.split("=")[0]


# --- 9: golden files ------------------------------------------------------------------------------

def test_criterion_9_golden_files():
    with criterion(9, "golden netlists byte equality"):
        cases = {
            "capacitor": capacitor_circuit,
            "crossbar": crossbar_circuit,
            "defect_chain": defect_chain_circuit,
            "ro": ro_circuit,
        }
        for name, factory in cases.items():
            for dialect, ext in (("spice", "sp"), ("spectre", "scs"), ("json-ir", "json")):
                golden = (GOLDEN_DIR / f"{name}.{ext}").read_text()
                assert export(factory(), dialect) == golden, f"{name}.{ext} drifted"


# --- 10: lint oracle --------------------------------------------------------------------------------

def _findings(circuit):
    return [(f.severity, f.code, f.location) for f in lint(circuit)]


def test_criterion_10_lint_oracle():
    with criterion(10, "lint rules on hand-built netlists"):
        res = Component("res", ["a", "b"], prefix="R")

        unconnected = Circuit()
        unconnected += res @ ["", "GND"]
        assert _findings(unconnected) == [("error", "UNCONNECTED", "R1")]

        dangling = Circuit()
        dangling += res @ ["n1", "GND"]
        assert _findings(dangling) == [("warn", "DANGLING", "n1")]

        duplicate = Circuit()
        first, second = res @ ["x", "GND"], res @ ["x", "GND"]
        first.designator = "R1"
        second.designator = "R1"
        duplicate += [first, second]
        assert _findings(duplicate) == [("error", "DUPLICATE_DESIGNATOR", "R1")]

        ghost = Subcircuit("GHOST", ["p", "q"])
        orphan = Instance(ghost, ["GND", "GND"], designator="X1")
        undefined = Circuit()
        undefined.instances.append(orphan)  # bypass auto-registration
        assert _findings(undefined) == [("error", "UNDEFINED_MASTER", "X1")]

        holder = Subcircuit("S", ["used", "unused"])
        holder += res @ ["used", "GND"]
        unused = Circuit()
        unused += holder @ ["GND", "GND"]
        assert _findings(unused) == [("warn", "UNUSED_PIN", "S.unused")]

        # one netlist triggering several rules: deterministic combined order
        combined = Circuit()
        combined += res @ ["", "GND"]
        combined += res @ ["lonely", "GND"]
        combined.instances.append(orphan)
        assert _findings(combined) == [
            ("error", "UNCONNECTED", "R1"),
            ("error", "UNDEFINED_MASTER", "X1"),
            ("warn", "DANGLING", "lonely"),
        ]
