"""A text export's compiled run functions equal a plain evaluation.

Text export renders each run of parameterised lines that share a plan
through the plan's compiled run function (ParamPlan.run). The reference
here builds the same netlist the slow way: each line's values come from
ParamPlan.evaluate with the one rng of the seed, in line order, and are
formatted with format_number (text verbatim). The two must give the same bytes for every seed, on a second
emit of one exporter as on the first, and after a parameter changes.
"""

import pytest
from sample_circuits import capacitor_circuit, crossbar_circuit, defect_chain_circuit, ro_circuit

from netforge import Array, Chain, Circuit, Component, Formula, Model, Subcircuit
from netforge.exporters import _seed_exporter, exporter_for, lint
from netforge.numfmt import format_number
from netforge.params import gauss, lognormal, plan_of, uniform
from netforge.rng import Xoshiro256StarStar

SEEDS = (0, 1, 2**63, 2**64 - 1)
TITLE = "Generated netlist"


def _tokens(params, context, rng) -> str:
    values = plan_of(params).evaluate(context, rng)
    return " ".join(
        f"{name}={value if isinstance(value, str) else format_number(value)}"
        for name, value in values.items()
    )


def reference_text(circuit: Circuit, dialect: str, seed: int) -> str:
    table = exporter_for(dialect)
    rng = Xoshiro256StarStar(seed)
    lines = [line.format(title=TITLE) for line in table.header]

    def line(prefix, params, wrap, context=None):
        lines.append(prefix + wrap.format(_tokens(params, context, rng)) if params else prefix)

    def instance(inst):
        nets = table.nets.format(" ".join(str(net) for net in inst.nets))
        prefix = " ".join([inst.designator, *([nets] if nets else []), inst.template.name])
        if isinstance(inst.template, Subcircuit):
            params = inst.overrides
        else:
            params = inst.template.params.merged(inst.overrides)
        line(prefix, params, " {}", inst.context)

    kw = table.keyword
    for model in circuit.models.values():
        line(f"{kw}model {model.name} {model.base_type}", model.params, table.model_params)
    for sub in lint(circuit).subcircuits:
        line(f"{kw}subckt {sub.name} {' '.join(sub.pins)}", sub.params, table.subckt_params)
        for inst in sub.body:
            instance(inst)
        lines.append(f"{kw}ends {sub.name}")
    for inst in circuit.instances:
        instance(inst)
    lines.extend(circuit.directives)
    lines.extend(table.footer)
    return "\n".join(lines) + "\n"


def mixed_chain_circuit(n: int = 12) -> Circuit:
    """Every kind of value on every kind of line: uniform, gauss and
    lognormal draws, formulas over siblings and over the array context,
    text, primitive overrides (a merged plan), subcircuit parameters, and a
    plan without formulas whose draw order differs from its token order."""
    dev = Component(
        "dev",
        ["a", "b", "c", "d"],
        {
            "w": 1e-6,
            "l": uniform(1e-7, 2e-7),
            "vth": gauss(0.4, 0.05),
            "k": lognormal(-1.0, 0.3),
            "area": Formula("w*l*2"),
            "test": Formula("1/vth"),
            "kind": "nch%{x}",
        },
        prefix="X",
    )
    cell = Component(
        "cell", ["p", "q"], {"r": 1e3, "g": Formula("(1 + _x + 10*_y)/r"), "t": gauss(1, 0.5)},
        prefix="R",
    )
    # no formula: its draws (name order ac, vdc) fill its slots (map order vdc, ac)
    source = Component(
        "src", ["p", "n"], {"vdc": gauss(1.8, 0.1), "dc": "x", "ac": uniform(0, 1)}, prefix="V"
    )
    amp = Subcircuit("AMP", ["in", "out"], {"gain": 2.0, "bias": gauss(0.5, 0.1)})
    amp += dev @ ["in", "n1", "out", "0"]
    amp += (dev % {"w": 3e-6, "vth": uniform(0.3, 0.5)}) @ ["n1", "in", "out", "0"]
    circuit = Circuit()
    circuit.models["nch"] = Model("nch", "nmos", {"vt0": gauss(0.45, 0.02), "tox": 2e-9})
    circuit += Chain(dev, n)
    circuit += (dev % {"l": 5e-7, "vth": lognormal(0.0, 0.1)}) @ ["x1", "x2", "x3", "0"]
    circuit += source @ ["x1", "0"]
    circuit += Array((2, 3), cell, lambda xy: [f"p_{xy[0]}", f"q_{xy[1]}"])
    circuit += amp @ ["net_0_0", "o1"]
    circuit += (amp % {"gain": 4.0}) @ ["o1", "o2"]
    circuit += (amp % {"gain": Formula("bias*3"), "bias": uniform(0, 1)}) @ ["o2", "o3"]
    circuit.directives.append(".op")
    return circuit


CIRCUITS = {
    "capacitor": capacitor_circuit,
    "crossbar": crossbar_circuit,
    "defect_chain": defect_chain_circuit,
    "ro": ro_circuit,
    "mixed_chain": mixed_chain_circuit,
}


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_second_emit_equals_the_reference(name, dialect):
    circuit = CIRCUITS[name]()
    emit = _seed_exporter(circuit, dialect)
    for seed in SEEDS:
        expected = reference_text(circuit, dialect, seed)
        assert emit(seed) == expected
        assert emit(seed) == expected


def test_the_mixed_chain_draws_every_kind():
    circuit = mixed_chain_circuit()
    one, other = (_seed_exporter(circuit, "spice")(seed) for seed in (0, 1))
    # the seed moves the drawn and computed values; constants and text stay
    assert one != other
    for token in (" w=1e-6 ", " kind=nch%{x}", " r=1000 ", "tox=2e-9", " gain=4"):
        assert token in one and token in other


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
def test_a_params_mutation_between_exports_is_seen(dialect):
    circuit = mixed_chain_circuit()
    dev = circuit.instances[0].template
    before = _seed_exporter(circuit, dialect)(7)
    dev.params["w"] = 2.5e-6
    dev.params["vth"] = uniform(0.1, 0.2)
    circuit.models["nch"].params["tox"] = 3e-9
    after = _seed_exporter(circuit, dialect)(7)
    assert after != before
    assert after == reference_text(circuit, dialect, 7)
    assert "tox=3e-9" in after and "w=2.5e-6" in after
