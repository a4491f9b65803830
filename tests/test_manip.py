import copy
import pickle

import pytest

from netforge import manip
from netforge.core import (
    Circuit,
    Component,
    Net,
    PendingNet,
    Subcircuit,
)
from netforge.errors import (
    ArityMismatchError,
    EmptyNameError,
    InvalidProbabilityError,
    PortFnArityError,
    PortOutOfRangeError,
    SamePortError,
    ZeroLengthError,
)
from netforge.exporters import export
from netforge.formula import Formula
from netforge.manip import Array, Chain, Inject, Manipulation, NamedChain, Parallel, concat
from netforge.rng import Xoshiro256StarStar

RES = Component("res", [1, "GND"])
NMOS = Component("nmos", [1, "INPUT", 3, "GND"])


# --- Parallel --------------------------------------------------------------

def test_parallel_three_resistors():
    batch = Parallel(RES, 3)
    assert len(batch) == 3
    for inst in batch:
        assert inst.nets == (Net("1"), Net("GND"))


def test_parallel_children_are_independent_copies():
    batch = Parallel(RES, 2)
    batch[0] @= "other"
    assert batch[1].nets == (Net("1"), Net("GND"))


def test_parallel_zero_is_empty():
    assert len(Parallel(RES, 0)) == 0


def test_parallel_one_equals_single_instantiation():
    assert Parallel(RES, 1)[0] == RES()


def test_parallel_negative_rejected():
    with pytest.raises(ValueError):
        Parallel(RES, -1)


# --- Chain --------------------------------------------------------------------

def test_chain_wiring_hand_enumerated():
    chain = Chain(NMOS, 3, in_port=0, out_port=2)
    a, b, c = chain
    # boundary nets preserved
    assert a.nets[0] == Net("1")
    assert c.nets[2] == Net("3")
    # untouched ports keep template nets on every instance
    for inst in chain:
        assert inst.nets[1] == Net("INPUT")
        assert inst.nets[3] == Net("GND")
    # consecutive instances share exactly one generated link net
    assert a.nets[2] is b.nets[0]
    assert b.nets[2] is c.nets[0]
    links = {a.nets[2], b.nets[2]}
    assert len(links) == 2
    assert all(isinstance(link, PendingNet) for link in links)


def test_chain_generated_net_count():
    for n in (1, 2, 5, 50):
        chain = Chain(NMOS, n, 0, 2)
        generated = {
            id(net) for inst in chain for net in inst.nets if isinstance(net, PendingNet)
        }
        assert len(generated) == n - 1


def test_chain_single_is_unchanged_instance():
    chain = Chain(NMOS, 1, 0, 2)
    assert len(chain) == 1
    assert chain[0] == NMOS()


def test_chain_default_ports_are_first_and_last():
    chain = Chain(RES, 2)
    assert isinstance(chain[0].nets[1], PendingNet)
    assert chain[1].nets[0] is chain[0].nets[1]


def test_chain_errors():
    with pytest.raises(ZeroLengthError):
        Chain(NMOS, 0, 0, 2)
    with pytest.raises(SamePortError):
        Chain(NMOS, 3, 0, 0)
    with pytest.raises(PortOutOfRangeError):
        Chain(NMOS, 3, 0, 9)
    with pytest.raises(SamePortError):
        Chain(Component("x", ["only"]), 2)  # 1-port template: in == out


def test_chain_of_instance_keeps_overrides():
    inst = NMOS % {"w": 0.27}
    chain = Chain(inst, 3, 0, 2)
    for child in chain:
        assert child.overrides == inst.overrides


def test_chain_nets_named_on_insertion():
    circuit = Circuit()
    circuit += Chain(NMOS, 3, 0, 2)
    nets = [[str(n) for n in inst.nets] for inst in circuit.instances]
    assert nets == [
        ["1", "INPUT", "net_0_0", "GND"],
        ["net_0_0", "INPUT", "net_0_1", "GND"],
        ["net_0_1", "INPUT", "3", "GND"],
    ]


def test_two_chains_get_distinct_link_names():
    circuit = Circuit()
    circuit += Chain(NMOS, 3, 0, 2)
    circuit += Chain(NMOS, 3, 0, 2)
    first = {str(n) for i in circuit.instances[:3] for n in i.nets}
    second = {str(n) for i in circuit.instances[3:] for n in i.nets}
    assert "net_0_0" in first and "net_1_0" in second
    assert not (first & second) - {"1", "INPUT", "3", "GND"}


def test_concatenated_chains_keep_distinct_links_in_one_add():
    circuit = Circuit()
    circuit += concat([Chain(NMOS, 3, 0, 2), Chain(NMOS, 3, 0, 2)])
    first = {str(n) for i in circuit.instances[:3] for n in i.nets}
    second = {str(n) for i in circuit.instances[3:] for n in i.nets}
    assert "net_0_0" in first and "net_1_0" in second
    assert not (first & second) - {"1", "INPUT", "3", "GND"}


def test_insertion_mutates_the_manipulation_children():
    # callers read instance nets back from the manipulation after +=
    chain = Chain(NMOS, 3, 0, 2)
    circuit = Circuit()
    circuit += chain
    assert str(chain[0].nets[2]) == "net_0_0"
    assert chain[0].designator == "N1"


def test_chain_construction_determinism():
    a = Chain(NMOS, 4, 0, 2)
    b = Chain(NMOS, 4, 0, 2)
    assert list(a) == list(b)


# --- NamedChain -------------------------------------------------------------------

def test_named_chain_renames_last_output():
    inv = Subcircuit("INV", ["in", "out"])
    chain = NamedChain(inv @ ["in_chain", "1"], 5, out_name="OUT")
    assert len(chain) == 5
    assert chain[0].nets[0] == Net("in_chain")
    assert chain[-1].nets[1] == Net("OUT")
    links = [inst.nets[1] for inst in chain[:-1]]
    assert all(isinstance(link, PendingNet) for link in links)


def test_named_chain_single():
    inv = Subcircuit("INV", ["in", "out"])
    chain = NamedChain(inv, 1, out_name="OUT")
    assert chain[0].nets == (Net("in"), Net("OUT"))


def test_named_chain_requires_out_name():
    inv = Subcircuit("INV", ["in", "out"])
    with pytest.raises(EmptyNameError):
        NamedChain(inv, 3, out_name="")


# --- Array -----------------------------------------------------------------------

def crossbar(coords):
    x, y = coords
    return [f"X_{x}", f"Y_{y}"]


def test_array_crossbar_3x3():
    device = Component("memristor", ["", ""])
    arr = Array((3, 3), device, crossbar)
    assert len(arr) == 9
    nets = {str(n) for inst in arr for n in inst.nets}
    assert nets == {f"X_{i}" for i in range(3)} | {f"Y_{i}" for i in range(3)}
    # row-major order and per-coordinate wiring
    expected = [(f"X_{x}", f"Y_{y}") for x in range(3) for y in range(3)]
    assert [(str(i.nets[0]), str(i.nets[1])) for i in arr] == expected


def test_array_1d_single():
    device = Component("d", ["a"])
    arr = Array((1,), device, lambda i: [f"N_{i}"])
    assert len(arr) == 1
    assert arr[0].nets == (Net("N_0"),)
    assert arr[0].context == {"_i": 0}


def test_array_int_shape_means_1d():
    device = Component("d", ["a"])
    assert len(Array(4, device)) == 4


def test_array_port_fn_arity_checked():
    device = Component("d", ["a", "b"])
    with pytest.raises(PortFnArityError):
        Array((2, 2), device, lambda c: ["1", "2", "3", "4", "5"])


def test_array_partial_ports_keep_template_nets():
    device = Component("d", ["a", "fixed"])
    arr = Array((2,), device, lambda i: [f"N_{i}"])
    for inst in arr:
        assert str(inst.nets[1]) == "fixed"


def test_array_injects_coordinates_into_context():
    device = Component("d", ["a", "b"])
    arr = Array((2, 2), device, crossbar)
    assert arr[3].context == {"_x": 1, "_y": 1}


def test_array_coordinate_dependent_params_at_export():
    from netforge.exporters import export

    device = Component("d", ["a", "b"], {"g": Formula("_x + 10 * _y")})
    circuit = Circuit()
    circuit += Array((2, 2), device, crossbar)
    text = export(circuit, "spice")
    assert "D1 X_0 Y_0 d g=0" in text
    assert "D4 X_1 Y_1 d g=11" in text


def test_array_bad_shapes():
    device = Component("d", ["a"])
    with pytest.raises(ValueError):
        Array((0,), device)
    with pytest.raises(ValueError):
        Array((1, 2, 3), device)


# --- Inject ------------------------------------------------------------------------

def test_inject_p_zero_keeps_children_only():
    chain = Chain(NMOS, 7)
    injected = Inject(chain, p=0.0, rng=1)
    assert len(injected) == 7
    assert list(injected) == list(chain)


def test_inject_p_one_alternates_defect_component():
    chain = Chain(NMOS, 7)
    injected = Inject(chain, p=1.0, rng=1)
    assert len(injected) == 14
    for i in range(0, 14, 2):
        assert injected[i].template.name == "Res"
        assert injected[i + 1].template.name == "nmos"


def test_inject_defect_taps_last_port_to_gnd():
    chain = Chain(NMOS, 3)
    injected = Inject(chain, p=1.0, rng=1)
    for defect, comp in zip(injected[::2], injected[1::2]):
        assert defect.nets[0] is comp.nets[-1] or defect.nets[0] == comp.nets[-1]
        assert defect.nets[1] == Net("GND")


def test_inject_default_defect_params():
    injected = Inject(Chain(NMOS, 2), p=1.0, rng=1)
    defect = injected[0]
    assert defect.template.prefix == "R"
    assert defect.effective_params()["R"] == 1e4


def test_inject_intermediate_count():
    injected = Inject(Chain(NMOS, 7), p=0.7, rng=3)
    assert 7 <= len(injected) <= 14


def test_inject_custom_defect():
    diode = Component("leak", ["a", "k"], {"isat": 1e-15})
    injected = Inject(Chain(NMOS, 2), p=1.0, defect=diode, rng=1)
    assert injected[0].template is diode


def test_inject_probability_validated():
    with pytest.raises(InvalidProbabilityError):
        Inject(Chain(NMOS, 2), p=1.5)
    with pytest.raises(InvalidProbabilityError):
        Inject(Chain(NMOS, 2), p=-0.1)


def test_inject_deterministic_for_equal_seeds():
    a = Inject(Chain(NMOS, 7), p=0.5, rng=9)
    b = Inject(Chain(NMOS, 7), p=0.5, rng=9)
    assert [i.template.name for i in a] == [i.template.name for i in b]


def test_inject_defects_share_link_net_names_after_insertion():
    circuit = Circuit()
    injected = Inject(Chain(NMOS, 3), p=1.0, rng=1)
    circuit += injected
    comps = [i for i in circuit.instances if i.template.name == "nmos"]
    defects = [i for i in circuit.instances if i.template.name == "Res"]
    for defect, comp in zip(defects, comps):
        assert str(defect.nets[0]) == str(comp.nets[-1])
    assert str(comps[0].nets[-1]) == "net_0_0"


def test_inject_accepts_plain_instance_lists():
    instances = [NMOS(), NMOS()]
    injected = Inject(instances, p=0.0, rng=0)
    assert list(injected) == instances


# the defect pattern of Inject(Chain(NMOS, 12), 0.5) at seed 9, then of a
# second Inject that shares its generator: one random() per child, in order
SHARED_PATTERNS = (
    [True, True, True, False, False, False, False, False, True, True, False, False],
    [True, False, False, False, True, True, False, False, False, False, True, True],
)


def _pattern(batch) -> list:
    """Whether each non-defect child of `batch` has a defect just before it."""
    names = [inst.template.name for inst in batch]
    return [k > 0 and names[k - 1] == "Res" for k, name in enumerate(names) if name != "Res"]


def test_injects_sharing_a_generator_draw_one_uniform_per_child_in_turn():
    gen, reference = Xoshiro256StarStar(9), Xoshiro256StarStar(9)
    first = Inject(Chain(NMOS, 12), p=0.5, rng=gen)
    second = Inject(Chain(NMOS, 12), p=0.5, rng=gen)
    assert (_pattern(first), _pattern(second)) == SHARED_PATTERNS
    expected = [[reference.random() < 0.5 for _ in range(12)] for _ in range(2)]
    assert tuple(expected) == SHARED_PATTERNS
    assert gen.next_u64() == reference.next_u64()


def test_inject_accepts_a_generator_of_instances_and_bare_templates():
    made = Inject((NMOS() for _ in range(3)), p=1.0, rng=1)
    assert [inst.template.name for inst in made] == ["Res", "nmos"] * 3
    bare = Inject([NMOS, RES], p=1.0, rng=1)
    assert [inst.template for inst in bare][1::2] == [NMOS, RES]
    assert bare[1].nets == NMOS().nets and bare[3].nets == RES().nets
    assert [defect.nets for defect in bare[::2]] == [
        (Net("GND"), Net("GND")), (Net("GND"), Net("GND"))
    ]
    assert bare[0].nets[0] is bare[1].nets[-1]


def test_inject_at_the_probability_bounds():
    children = list(Chain(NMOS, 50))
    none = Inject(children, p=0.0, rng=4)
    assert none.children == children
    every = Inject(children, p=1.0, rng=4)
    assert every[1::2] == children
    assert [defect.template.name for defect in every[::2]] == ["Res"] * 50
    assert len({id(defect) for defect in every[::2]}) == 50
    assert len({id(defect.overrides) for defect in every[::2]}) == 50


def test_inject_checks_the_defect_only_when_one_is_drawn():
    three = Component("tri", ["a", "b", "c"], prefix="X")
    assert len(Inject(Chain(NMOS, 3), p=0.0, defect=three, rng=1)) == 3
    with pytest.raises(ArityMismatchError) as info:
        Inject(Chain(NMOS, 3), p=1.0, defect=three, rng=1)
    assert str(info.value) == "tri has 3 ports, got 2 nets"
    assert len(Inject(Chain(NMOS, 3), p=0.0, defect="not a template", rng=1)) == 3
    with pytest.raises(TypeError):
        Inject(Chain(NMOS, 3), p=1.0, defect="not a template", rng=1)


def test_inject_copies_an_instance_defect_per_hit():
    leak = Component("leak", ["a", "k"], {"isat": 1e-15}, prefix="D") % {"isat": 2e-15}
    leak.context["_i"] = 3
    injected = Inject(Chain(NMOS, 2), p=1.0, defect=leak, rng=1)
    a, b = injected[0], injected[2]
    assert a.overrides == b.overrides == leak.overrides
    assert a.overrides is not b.overrides and a.context is not b.context
    assert a.context == {"_i": 3} and a.designator is None


# --- made where inserted ------------------------------------------------------------

THREE = Component("tri", ["a", "b", "c"], prefix="X")


@pytest.mark.parametrize("make, error, message", [
    (lambda: Chain(NMOS, 0, 0, 2), ZeroLengthError, "a chain needs at least one instance, got n=0"),
    (lambda: NamedChain(NMOS, 3, 0, 9, out_name="o"), PortOutOfRangeError,
     "port 9 out of range for 4-port template"),
    (lambda: Chain(NMOS, 3, 2, 2), SamePortError, "in_port and out_port are both 2"),
    (lambda: Inject(Chain(NMOS, 3), p=1.5), InvalidProbabilityError,
     "probability must be in [0, 1], got 1.5"),
    (lambda: Inject(Chain(NMOS, 3), p=1.0, defect=THREE, rng=1), ArityMismatchError,
     "tri has 3 ports, got 2 nets"),
])
def test_constructors_raise_what_they_raised(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_the_length_of_an_unread_batch_makes_no_children(monkeypatch):
    def made(*args):
        raise AssertionError("children made")

    monkeypatch.setattr(manip, "_children", made)
    chain, injected = Chain(NMOS, 5), Inject(Chain(NMOS, 5), p=1.0, rng=1)
    assert (len(chain), len(injected)) == (5, 10)
    assert repr(chain) == "Chain(5 instances)" and repr(injected) == "Inject(10 instances)"
    monkeypatch.undo()
    assert len(list(chain)) == 5 and len(list(injected)) == 10


def test_an_inject_over_a_listed_batch_makes_its_defects_when_read(monkeypatch):
    made = []
    children = manip._children

    def spy(proto, *args):
        made.append(proto.template.name)
        return children(proto, *args)

    source = Parallel(RES, 3)
    monkeypatch.setattr(manip, "_children", spy)
    injected = Inject(Inject(source, p=0.0, rng=2), p=1.0, rng=1)
    assert len(injected) == 6 and made == []
    circuit = Circuit()
    circuit += injected
    assert made == ["Res"]
    assert [inst.designator for inst in circuit.instances] == ["R1", "R2", "R3", "R4", "R5", "R6"]
    assert [inst.template.name for inst in circuit.instances] == ["Res", "res"] * 3


def test_injects_over_unread_chains_leave_a_shared_generator_as_a_draw_per_child():
    gen, reference = Xoshiro256StarStar(9), Xoshiro256StarStar(9)
    first = Inject(Chain(NMOS, 12), p=0.5, rng=gen)
    second = Inject(Chain(NMOS, 12), p=0.5, rng=gen)
    for _ in range(24):
        reference.random()
    assert gen.next_u64() == reference.next_u64()  # drawn before any child is made
    circuit = Circuit()
    circuit += [first, second]
    assert (_pattern(first), _pattern(second)) == SHARED_PATTERNS


@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))])
@pytest.mark.parametrize("make", [
    lambda: Chain(NMOS, 6, 0, 2),
    lambda: NamedChain(NMOS % {"w": 2e-6}, 4, 1, 2, out_name="OUT"),
    lambda: Inject(Chain(NMOS, 9), p=0.5, rng=3),
])
def test_an_unread_batch_copied_exports_the_bytes_of_the_original(make, round_trip):
    batch = make()
    copied = round_trip(batch)
    texts = []
    for inserted in (batch, copied):
        circuit = Circuit(rng_seed=4)
        circuit += [Chain(RES, 2), inserted]
        texts.append((export(circuit, "spice"), export(circuit, "json-ir")))
    assert texts[0] == texts[1]


# --- concat / composition ------------------------------------------------------------

def test_concat_counts():
    assert len(concat([Parallel(RES, 2), Parallel(RES, 3)])) == 5


def test_concat_empty():
    assert len(concat([])) == 0


def test_concat_single_is_identity():
    inner = Inject(Chain(NMOS, 3), p=0.3, rng=2)
    assert list(concat([inner])) == list(inner)


def test_concat_via_plus_operator():
    combined = Parallel(RES, 1) + Parallel(RES, 2)
    assert len(combined) == 3


def test_cardinality_invariants():
    assert len(Parallel(RES, 5)) == 5
    assert len(Chain(NMOS, 5)) == 5
    assert len(Array((2, 3), RES)) == 6
    cs = Chain(NMOS, 4)
    assert len(Inject(cs, 0, rng=0)) == 4
    assert len(Inject(Chain(NMOS, 4), 1, rng=0)) == 8


def test_manipulation_children_editable_in_place():
    counters = Parallel(Component("counter", [""]), 3)
    for i, comp in enumerate(counters):
        comp @= f"node_{i}"
    assert [str(c.nets[0]) for c in counters] == ["node_0", "node_1", "node_2"]


def test_manipulation_rejects_non_instances():
    with pytest.raises(TypeError):
        Manipulation(["not an instance"])
