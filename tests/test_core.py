import pytest

from netforge.core import (
    GND,
    UNCONNECTED,
    Circuit,
    Component,
    Model,
    Net,
    Subcircuit,
    as_net,
    fix,
    override_params,
    rebind,
)
from netforge.errors import (
    ArityMismatchError,
    DuplicateModelError,
    DuplicatePinError,
    DuplicateSubcircuitError,
    EmptyNameError,
    EmptyPortsError,
    FrozenSubcircuitError,
    NetNameError,
)
from netforge.manip import Chain, Inject, Manipulation, Parallel
from netforge.params import Params


# --- nets -----------------------------------------------------------------

def test_net_normalization():
    assert as_net("INPUT") == Net("INPUT")
    assert as_net(0) == Net("0")
    assert as_net(7) == Net("7")
    assert as_net("007") == Net("7")
    assert as_net("0" * 4299 + "7") == Net("7")
    assert as_net("") is UNCONNECTED
    assert as_net(None) is UNCONNECTED
    assert as_net(GND) is GND


def test_net_names_case_sensitive():
    assert as_net("a") != as_net("A")


def test_net_rejects_bad_names():
    with pytest.raises(NetNameError):
        as_net("1abc")
    with pytest.raises(NetNameError):
        as_net("a b")
    with pytest.raises(NetNameError):
        as_net(-1)
    # more digits than Python converts between text and int
    with pytest.raises(NetNameError, match="^numeric net name has 5000 digits, more than "):
        as_net("1" * 5000)
    with pytest.raises(TypeError):
        as_net(1.5)


def test_net_allows_dots_and_underscores():
    assert as_net("X_0.a").name == "X_0.a"


def test_net_has_no_instance_dict():
    net = Net("a")
    assert not hasattr(net, "__dict__")
    with pytest.raises(AttributeError):
        net.name = "b"


@pytest.mark.parametrize(
    "scope", [Circuit, lambda: Subcircuit("S", ["a", "d"])], ids=["circuit", "subcircuit"]
)
def test_chain_neighbours_share_one_link_net(scope):
    dev = Component("dev", ["a", "b", "c", "d"])
    container = scope()
    container += Inject(Chain(dev, 6, in_port=0, out_port=3), p=0.5, rng=3)
    placed = container.instances if isinstance(container, Circuit) else container.body
    chain = [inst for inst in placed if inst.template is dev]
    assert len(chain) == 6
    for a, b in zip(chain, chain[1:]):
        assert str(a.nets[3]).startswith("net_0_")
        assert a.nets[3] is b.nets[0]
    # Inject places each defect just before its device, on the device's out port
    defects = [(d, inst) for d, inst in zip(placed, placed[1:]) if d.template is not dev]
    assert len(defects) > 1
    for defect, inst in defects:
        assert defect.nets[0] is inst.nets[3]


# --- components ---------------------------------------------------------------

def test_capacitor_template():
    cap = Component("Cap", [0, 1], {"C": 1e-12}, prefix="C")
    assert cap.arity == 2
    assert cap.prefix == "C"
    assert cap.ports == (Net("0"), Net("1"))
    assert cap.params == Params({"C": 1e-12})


def test_four_port_template():
    nmos = Component("nmos", [1, "INPUT", 3, "GND"])
    assert nmos.arity == 4
    assert nmos.ports[1] == Net("INPUT")


def test_empty_ports_rejected():
    with pytest.raises(EmptyPortsError):
        Component("X", [])


def test_empty_name_rejected():
    with pytest.raises(EmptyNameError):
        Component("", [0])


@pytest.mark.parametrize(
    "name,expected",
    [("nmos", "N"), ("Cap", "C"), ("res", "R"), ("2n7000", "N"), ("123", "U")],
)
def test_default_prefix_is_first_letter_uppercased(name, expected):
    assert Component(name, [0]).prefix == expected


def test_prefix_must_be_alphabetic():
    with pytest.raises(ValueError):
        Component("r", [0], prefix="R2")


def test_metadata_is_validated_and_ordered():
    comp = Component("c", [0], metadata={"a": "1", "b": "2"})
    assert list(comp.metadata.items()) == [("a", "1"), ("b", "2")]
    with pytest.raises(TypeError):
        Component("c", [0], metadata={"a": 1})


def test_component_is_frozen():
    comp = Component("c", [0])
    with pytest.raises(AttributeError):
        comp.name = "d"


# --- rebind ----------------------------------------------------------------------

def test_rebind_full_form():
    inv = Subcircuit("INV", ["in", "out"])
    inst = inv @ ["in_chain", "1"]
    assert inst.nets == (Net("in_chain"), Net("1"))
    assert inst.designator is None


def test_rebind_arity_mismatch():
    cap = Component("Cap", [0, 1])
    with pytest.raises(ArityMismatchError):
        rebind(cap, ["a", "b", "c"])


def test_rebind_single_net_hits_first_unconnected():
    counter = Component("counter", ["", ""])
    inst = counter @ "OUT"
    assert inst.nets == (Net("OUT"), UNCONNECTED)


def test_rebind_single_net_defaults_to_port_zero():
    res = Component("res", ["a", "b"])
    inst = res @ "n1"
    assert inst.nets == (Net("n1"), Net("b"))


def test_rebind_identity_equal_up_to_designator():
    cap = Component("Cap", [0, 1])
    inst = cap @ [0, 1]
    circuit = Circuit()
    circuit += inst
    again = rebind(inst, [0, 1])
    assert again == inst
    assert again.designator is None
    assert inst.designator == "C1"


def test_rebind_preserves_overrides():
    cap = Component("Cap", [0, 1], {"C": 1e-12})
    inst = (cap % {"C": 2e-12}) @ ["a", "b"]
    assert inst.effective_params()["C"] == 2e-12


def test_template_unchanged_by_rebind_and_override():
    cap = Component("Cap", [0, 1], {"C": 1e-12})
    ports_before = cap.ports
    params_before = Params(cap.params)
    _ = ((cap @ ["x", "y"]) % {"C": 5e-12}) @ "z"
    assert cap.ports == ports_before
    assert cap.params == params_before


def test_inplace_rebind_mutates_instance():
    counter = Component("counter", [""])
    inst = counter()
    inst @= "net_0_1"
    assert inst.nets == (Net("net_0_1"),)


# --- override_params ----------------------------------------------------------------

def test_override_single_key():
    cap = Component("Cap", [0, 1], {"C": 1e-12})
    inst = cap % {"C": 1e-12}
    assert inst.effective_params() == Params({"C": 1e-12})


def test_override_empty_is_identity():
    cap = Component("Cap", [0, 1], {"C": 1e-12})
    assert (cap % {}).effective_params() == cap.params


def test_override_shadows_template_value():
    nmos = Component("nmos", [0, 1, 2, 3], {"w": 0.135})
    inst = nmos % {"w": 0.27}
    assert inst.effective_params()["w"] == 0.27


def test_override_unknown_keys_extend():
    nmos = Component("nmos", [0, 1, 2, 3], {"w": 0.135})
    inst = nmos % {"nf": 4}
    assert dict(inst.effective_params()) == {"w": 0.135, "nf": 4}


def test_rebind_and_override_commute():
    nmos = Component("nmos", [0, 1, 2, 3], {"w": 0.135})
    a = override_params(rebind(nmos, ["d", "g", "s", "b"]), {"w": 0.27})
    b = rebind(override_params(nmos, {"w": 0.27}), ["d", "g", "s", "b"])
    assert a == b
    assert a.nets == b.nets
    assert a.effective_params() == b.effective_params()


# --- circuit add / designators -----------------------------------------------------

def test_designator_counter_oracle():
    res = Component("res", ["a", "b"], prefix="R")
    circuit = Circuit()
    circuit += [res @ ["1", "2"], res @ ["2", "3"], res @ ["3", "4"]]
    assert [i.designator for i in circuit.instances] == ["R1", "R2", "R3"]


def test_counters_are_per_prefix():
    res = Component("res", ["a", "b"], prefix="R")
    cap = Component("cap", ["a", "b"], prefix="C")
    circuit = Circuit()
    circuit += [res(), cap(), res()]
    assert [i.designator for i in circuit.instances] == ["R1", "C1", "R2"]


def test_add_empty_manipulation_is_noop():
    circuit = Circuit()
    circuit += Manipulation()
    assert circuit.instances == []


def test_add_flattens_nested_sequences():
    res = Component("res", ["a", "b"])
    circuit = Circuit()
    circuit += [res(), [res(), res()]]
    assert len(circuit.instances) == 3


def test_duplicate_model_name_rejected():
    circuit = Circuit()
    circuit += Model("custom_nmos", "nmos", {"TYPE": 1})
    with pytest.raises(DuplicateModelError):
        circuit += Model("custom_nmos", "nmos", {"TYPE": 1})


def test_duplicate_subcircuit_name_rejected():
    circuit = Circuit()
    circuit += Subcircuit("INV", ["in", "out"])
    with pytest.raises(DuplicateSubcircuitError):
        circuit += Subcircuit("INV", ["a", "b"])


def test_subcircuit_template_autoregisters():
    inv = Subcircuit("INV", ["in", "out"])
    circuit = Circuit()
    circuit += inv @ ["a", "b"]
    assert circuit.subcircuits["INV"] is inv
    assert circuit.instances[0].designator == "X1"


def test_explicit_designator_is_kept():
    res = Component("res", ["a", "b"])
    inst = res @ ["1", "2"]
    inst.designator = "R9"
    circuit = Circuit()
    circuit += inst
    assert circuit.instances[0].designator == "R9"


def test_add_rejects_garbage():
    circuit = Circuit()
    with pytest.raises(TypeError):
        circuit += "R1 a b res"
    with pytest.raises(TypeError):
        circuit += 3.14


def test_designator_determinism_across_fresh_circuits():
    res = Component("res", ["a", "b"])

    def build():
        c = Circuit()
        c += Parallel(res, 3)
        c += res()
        return [i.designator for i in c.instances]

    assert build() == build()


# --- subcircuits ---------------------------------------------------------------------

def test_subcircuit_pins_validated():
    with pytest.raises(DuplicatePinError):
        Subcircuit("S", ["a", "a"])
    with pytest.raises(NetNameError):
        Subcircuit("S", ["a b"])


def test_subcircuit_add_assigns_designators():
    inv = Subcircuit("INV", ["in", "out"])
    nmos = Component("nmos", ["d", "g", "s", "b"], prefix="M")
    inv += nmos @ ["out", "in", "GND", "GND"]
    inv += nmos @ ["out", "in", "VDD", "VDD"]
    assert [i.designator for i in inv.body] == ["M1", "M2"]


def test_fix_blocks_additions_and_is_idempotent():
    inv = Subcircuit("INV", ["in", "out"])
    inv += Component("nmos", ["d", "g", "s", "b"])()
    fix(inv)
    fix(inv)
    assert inv.fixed
    with pytest.raises(FrozenSubcircuitError):
        inv += Component("pmos", ["d", "g", "s", "b"])()
    assert len(inv.body) == 1


def test_subcircuit_behaves_like_component_template():
    inv = Subcircuit("INV", ["in", "out"])
    inst = inv()
    assert inst.nets == (Net("in"), Net("out"))
    assert inst.template is inv


# --- into_subckt ------------------------------------------------------------------------

def test_into_subckt_basic():
    inv = Subcircuit("INV", ["in", "out"])
    chain = Circuit()
    chain += inv @ ["in_chain", "OUT"]
    ro = chain.into_subckt("RO_CHAIN", ["in_chain", "OUT"], {})
    assert ro.pins == ("in_chain", "OUT")
    assert len(ro.body) == 1
    assert ro.nested == [inv]
    assert not ro.fixed


def test_into_subckt_empty_circuit():
    sub = Circuit().into_subckt("EMPTY", ["a"], {})
    assert sub.body == []


def test_into_subckt_duplicate_pins():
    with pytest.raises(DuplicatePinError):
        Circuit().into_subckt("S", ["a", "a"], {})


def test_into_subckt_original_circuit_usable():
    res = Component("res", ["a", "b"])
    circuit = Circuit()
    circuit += res()
    sub = circuit.into_subckt("S", ["a"], {})
    circuit += res()
    assert len(circuit.instances) == 2
    assert len(sub.body) == 1


def test_into_subckt_counters_continue():
    res = Component("res", ["a", "b"])
    circuit = Circuit()
    circuit += res()
    sub = circuit.into_subckt("S", ["a"], {})
    sub += res()
    assert [i.designator for i in sub.body] == ["R1", "R2"]


def test_into_subckt_only_carries_referenced_defs():
    helper = Subcircuit("HELPER", ["p"])
    unused = Subcircuit("UNUSED", ["p"])
    circuit = Circuit()
    circuit += unused  # registered but never instantiated
    circuit += helper @ ["n1"]
    sub = circuit.into_subckt("TOP", ["n1"], {})
    assert sub.nested == [helper]


# --- misc -------------------------------------------------------------------------------

def test_instance_convenience_accessors():
    nmos = Component("nmos", [1, "INPUT", 3, "GND"])
    inst = nmos()
    assert inst.nodes == inst.nets
    assert inst.ports == inst.nets
    assert inst.last_port == Net("GND")
    assert nmos.last_port == Net("GND")


def test_instance_call_combines_rebind_and_override():
    cap = Component("Cap", [0, 1], {"C": 1e-12})
    inst = cap(["a", "b"], {"C": 3e-12})
    assert inst.nets == (Net("a"), Net("b"))
    assert inst.effective_params()["C"] == 3e-12


def test_model_requires_names():
    with pytest.raises(EmptyNameError):
        Model("", "nmos")
    with pytest.raises(EmptyNameError):
        Model("m", "")
