"""Bulk insertion equals a per-instance reference.

`Circuit.add` and `Subcircuit.add` insert a batch in one loop: they name
each chain link group once per add, share one `Net` per link between the
instances it joins, and assign designators inline. The reference here is
the slow per-instance insertion: every net of every instance is checked for
a PendingNet, every link end is formatted to its name and looked up by that
name, and the designator is assigned in a call of its own. Over generated
batches of every combinator, both must leave equal instances, designators,
link names, counters, and the same sharing of `Net` and instance objects.
"""

import copy
import gc
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforge.core import (
    Circuit,
    Component,
    Instance,
    Model,
    Net,
    PendingNet,
    Subcircuit,
    _iter_addable,
    as_instance,
)
from netforge.errors import DuplicateModelError, DuplicateSubcircuitError
from netforge.exporters import export
from netforge.manip import Array, Chain, Inject, NamedChain, Parallel, concat
from netforge.params import Params

NMOS = Component("nmos", ["d", "g", "s", "b"], {"w": 1e-6}, prefix="M")
RES = Component("res", ["a", "b"], {"R": 1e3})
BUF = Subcircuit("buf", ["i", "o"])
BUF += RES @ ["i", "o"]
BOUND = NMOS @ ["x", "y", "GND", "GND"] % {"w": 2e-6}  # an instance as template
TEMPLATES = (NMOS, RES, BUF, BOUND)


def reference_add(container, element) -> None:
    """Insert `element` into `container` one instance at a time."""
    instances = container.instances if isinstance(container, Circuit) else container.body
    links = {}  # link name -> its Net, for this add
    for item in _iter_addable(element):
        if isinstance(item, Instance):
            nets = []
            for net in item.nets:
                if isinstance(net, PendingNet):
                    k = container._link_groups.get(net.group)
                    if k is None:
                        k = container._next_link_group
                        container._next_link_group += 1
                        container._link_groups[net.group] = k
                    name = f"net_{k}_{net.index}"
                    net = links.setdefault(name, Net(name))
                nets.append(net)
            item.nets = tuple(nets)
            if isinstance(container, Circuit) and isinstance(item.template, Subcircuit):
                container._register_subcircuit(item.template)
            if item.designator is None:
                template = item.template
                prefix = "X" if isinstance(template, Subcircuit) else template.prefix
                count = container._counters.get(prefix, 0) + 1
                container._counters[prefix] = count
                item.designator = f"{prefix}{count}"
            instances.append(item)
        elif isinstance(item, Subcircuit) and isinstance(container, Circuit):
            container._register_subcircuit(item)
        elif isinstance(item, Subcircuit):
            same = [sub for sub in container.nested if sub.name == item.name]
            if same and same[0] is not item:
                raise DuplicateSubcircuitError(f"nested subcircuit {item.name!r} already defined")
            if not same:
                container.nested.append(item)
        elif isinstance(item, Model) and isinstance(container, Circuit):
            if item.name in container.models:
                raise DuplicateModelError(f"model {item.name!r} already defined")
            container.models[item.name] = item
        else:
            kind = "circuit" if isinstance(container, Circuit) else "subcircuit"
            raise TypeError(f"cannot add {type(item).__name__} to a {kind}")


def bulk_add(container, element) -> None:
    container.add(element)


# --- batches, described as data so that each side builds its own ------------------

def _ports(arity):
    return st.lists(st.integers(0, arity - 1), min_size=2, max_size=2, unique=True)


@st.composite
def _chain(draw, named=False):
    t = draw(st.integers(0, len(TEMPLATES) - 1))
    in_port, out_port = draw(_ports(TEMPLATES[t].arity))
    n = draw(st.integers(1, 6))
    if named:
        return ("named_chain", t, n, in_port, out_port, draw(st.sampled_from(["OUT", "tap"])))
    return ("chain", t, n, in_port, out_port)


_leaf = st.one_of(
    _chain(),
    _chain(named=True),
    st.tuples(st.just("parallel"), st.integers(0, 3), st.integers(0, 4)),
    st.tuples(
        st.just("array"),
        st.integers(0, 3),
        st.one_of(st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 3), st.integers(1, 3))),
        st.booleans(),
    ),
    st.tuples(st.just("instance"), st.integers(0, 3)),
)

_batch = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(st.just("inject"), inner, st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 9)),
        st.tuples(st.just("concat"), st.lists(inner, min_size=1, max_size=3)),
        st.tuples(st.just("setitem"), inner, st.integers(0, 20), st.booleans()),
    ),
    max_leaves=4,
)


def build(spec):
    kind = spec[0]
    if kind == "chain":
        _, t, n, in_port, out_port = spec
        return Chain(TEMPLATES[t], n, in_port, out_port)
    if kind == "named_chain":
        _, t, n, in_port, out_port, name = spec
        return NamedChain(TEMPLATES[t], n, in_port, out_port, out_name=name)
    if kind == "parallel":
        return Parallel(TEMPLATES[spec[1]], spec[2])
    if kind == "array":
        _, t, shape, wired = spec
        def port_fn(coord):
            return [f"a{coord}" if isinstance(coord, int) else f"a{coord[0]}_{coord[1]}"]

        return Array(shape, TEMPLATES[t], port_fn if wired else None)
    if kind == "instance":
        return as_instance(TEMPLATES[spec[1]])
    if kind == "inject":
        _, inner, p, seed = spec
        made = build(inner)
        return Inject(made if not isinstance(made, Instance) else [made], p, rng=seed)
    if kind == "concat":
        return concat(build(part) for part in spec[1])
    # setitem: replace one child, by a fresh instance or by another chain's child
    _, inner, index, from_chain = spec
    made = build(inner)
    if isinstance(made, Instance) or len(made) == 0:
        return made
    made[index % len(made)] = Chain(RES, 2)[1] if from_chain else RES @ ["p", "q"]
    return made


@st.composite
def scenarios(draw):
    adds = draw(st.lists(st.lists(_batch, min_size=1, max_size=3), min_size=1, max_size=3))
    with_defs = draw(st.booleans())  # models and subcircuit definitions mixed into an add
    again = draw(st.lists(st.integers(0, len(adds) - 1), max_size=2))
    return adds, with_defs, again


def run(scenario, insert, container_kind):
    """Apply a scenario through `insert`; the two containers it fills."""
    adds, with_defs, again = scenario
    first = Circuit() if container_kind == "circuit" else Subcircuit("top", ["p"])
    second = Circuit()
    elements = []
    for k, specs in enumerate(adds):
        element = [build(spec) for spec in specs]
        if with_defs:
            element.insert(1, BUF)
            if container_kind == "circuit":
                element.append(Model(f"m{k}", "nmos", {"vth": 0.4}))
        insert(first, element)
        elements.append(element)
    for k in again:  # one batch into a second circuit
        insert(second, [item for item in elements[k] if not isinstance(item, Model)])
    return first, second


def _instances(container):
    return container.instances if isinstance(container, Circuit) else container.body


def observed(*containers):
    """Everything insertion decides, with object identity as first-seen indices."""
    net_ids, inst_ids = {}, {}
    out = []
    for container in containers:
        rows = []
        for inst in _instances(container):
            rows.append((
                inst,
                inst.designator,
                tuple(net.name for net in inst.nets),
                tuple(net_ids.setdefault(id(net), len(net_ids)) for net in inst.nets),
                inst_ids.setdefault(id(inst), len(inst_ids)),
            ))
        out.append((
            rows,
            dict(container._counters),
            list(container._link_groups.values()),
            container._next_link_group,
            list(getattr(container, "subcircuits", {})),
            list(getattr(container, "models", {})),
            [sub.name for sub in getattr(container, "nested", [])],
        ))
    return out


@settings(max_examples=120, derandomize=True, deadline=None)
@given(scenarios(), st.sampled_from(["circuit", "subcircuit"]))
def test_bulk_insertion_equals_the_reference(scenario, container_kind):
    bulk = run(scenario, bulk_add, container_kind)
    ref = run(scenario, reference_add, container_kind)
    assert observed(*bulk) == observed(*ref)
    for container in bulk:
        for inst in _instances(container):
            assert not any(isinstance(net, PendingNet) for net in inst.nets)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(scenarios(), st.integers(1, 5))
def test_into_subckt_counters_continue_as_the_reference(scenario, n):
    sides = []
    for insert in (bulk_add, reference_add):
        circuit, _ = run(scenario, insert, "circuit")
        sub = circuit.into_subckt("blk", ["d"])
        insert(sub, Chain(NMOS, n, 0, 2))
        insert(circuit, Chain(RES, n))
        sides.append(observed(circuit, sub))
    assert sides[0] == sides[1]


def _chains_made_from_other_chains():
    inner = Chain(NMOS, 3, 0, 2)
    return [
        inner[1],
        Chain(inner[1], 3, 1, 3),  # its children's nets hold the links of `inner` too
        NamedChain(inner[2], 2, 1, 3, out_name="tap"),
        copy.deepcopy(Chain(RES, 4)),
        pickle.loads(pickle.dumps(Chain(NMOS, 3, 0, 2))),
        Inject(Chain(RES, 4), 1.0, rng=0),
    ]


@pytest.mark.parametrize("split", [False, True])
def test_chains_of_chain_children_and_copied_chains_equal_the_reference(split):
    sides = []
    for insert in (bulk_add, reference_add):
        circuit = Circuit()
        batch = _chains_made_from_other_chains()
        for part in ([batch[:3], batch[3:]] if split else [batch]):
            insert(circuit, part)
        sides.append(observed(circuit))
        assert PendingNet not in {type(net) for inst in circuit.instances for net in inst.nets}
    assert sides[0] == sides[1]


def test_a_link_and_a_defect_tap_share_one_net():
    circuit = Circuit()
    circuit += Inject(Chain(RES, 3), p=1.0, rng=0)  # a defect on each last port
    defect, first, _, second, *_ = circuit.instances
    assert defect.template.name == "Res" and first.template is RES
    assert first.nets[1] is second.nets[0] is defect.nets[0]
    assert first.nets[1] == Net("net_0_0")


def _failing_add(insert, element):
    """What an add that fails partway leaves: the error, the circuit, and the
    nets and designators of the instances it was given."""
    circuit = Circuit()
    circuit += Subcircuit("buf", ["i", "o"])  # another definition named buf
    with pytest.raises((DuplicateSubcircuitError, TypeError)) as error:
        insert(circuit, element)
    given = [(inst.designator, tuple(net.name for net in inst.nets))
             for part in element if not isinstance(part, (str, int)) for inst in part]
    return (error.type, str(error.value)), observed(circuit), given


@pytest.mark.parametrize("make", [
    lambda: [Chain(RES, 3), Chain(BUF, 2), Chain(RES, 2)],  # a second buf
    lambda: [Chain(RES, 3), "text", Chain(RES, 2)],
    lambda: [Parallel(RES, 2), 7],
    lambda: [Chain(RES, 2), Inject(Chain(BUF, 3), 1.0, rng=0)],  # buf chained
    lambda: [Inject(Chain(NMOS, 6), 0.5, defect=BUF, rng=1)],  # buf as the defect
])
def test_a_failing_add_leaves_what_the_reference_leaves(make):
    assert _failing_add(bulk_add, make()) == _failing_add(reference_add, make())


def test_subcircuit_add_rejects_what_the_reference_rejects():
    for insert in (bulk_add, reference_add):
        sub = Subcircuit("blk", ["p"])
        with pytest.raises(TypeError, match="cannot add Model to a subcircuit"):
            insert(sub, [Chain(RES, 2), Model("m", "nmos")])
        assert [inst.designator for inst in sub.body] == ["R1", "R2"]


@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))])
def test_a_built_chain_survives_deepcopy_and_pickle(round_trip):
    circuit = Circuit(rng_seed=3)
    circuit += Chain(NMOS, 40, 0, 2)
    circuit += Chain(BUF, 3)
    copied = round_trip(circuit)
    assert copied == circuit
    assert export(copied, "spice") == export(circuit, "spice")
    first, second = copied.instances[:2]
    assert first.nets[2] is second.nets[0]
    assert list(copied._link_groups.values()) == [0, 1] and copied._next_link_group == 2
    copied += Chain(RES, 2)
    assert copied.instances[-1].nets[0] == Net("net_2_0")


# --- the heap guard ----------------------------------------------------------------

def test_naming_a_chains_links_lets_go_of_its_pending_nets():
    # a scope keeps each link group for good, but no tuple the chain made
    chain = Chain(NMOS, 4, 0, 2)
    made = [child.nets for child in chain]  # read first: on pending nets
    group = made[0][2].group
    circuit = Circuit()
    circuit += chain[:2]
    assert group in circuit._link_groups
    assert gc.get_referrers(made[0], made[1]) == [made]
    circuit += chain[2:]  # the rest is relinked net by net
    assert gc.get_referrers(*made) == [made]
    ends = [inst.nets[2].name for inst in circuit.instances]
    assert ends == ["net_0_0", "net_0_1", "net_0_2", "s"]
    placed = Circuit()
    placed += Chain(NMOS, 4, 0, 2)  # unread: made once, on the scope's Nets
    assert all(gc.get_referrers(inst.nets) == [inst] for inst in placed.instances)


# --- batches made where they are inserted ------------------------------------------

def _both(fill):
    """observed() of the containers `fill(insert)` returns, once through
    bulk_add and once through reference_add, which reads every batch first."""
    bulk, ref = (observed(*fill(insert)) for insert in (bulk_add, reference_add))
    assert bulk == ref
    return bulk


@pytest.mark.parametrize("make", [
    lambda: Chain(NMOS, 1, 0, 2),
    lambda: NamedChain(BOUND, 1, 0, 2, out_name="OUT"),
    lambda: Inject(Chain(NMOS, 1), 1.0, rng=0),
])
def test_a_chain_of_one_names_no_link_group(make):
    def fill(insert):
        circuit = Circuit()
        insert(circuit, [make(), Chain(RES, 2)])
        return [circuit]

    [(rows, _, groups, next_group, *_)] = _both(fill)
    assert groups == [0] and next_group == 1
    assert rows[-1][2] == ("net_0_0", "b")


def test_a_chain_read_before_add_is_relinked_as_the_reference():
    def fill(insert):
        circuit = Circuit()
        chain = Chain(NMOS, 5, 0, 2)
        assert isinstance(chain[1].nets[0], PendingNet)  # read: made on pending nets
        insert(circuit, [Chain(RES, 2), chain, NamedChain(NMOS, 2, 0, 2, out_name="OUT")])
        return [circuit]

    [(rows, *_)] = _both(fill)
    assert [row[2][2] for row in rows[2:7]] == ["net_1_0", "net_1_1", "net_1_2", "net_1_3", "s"]


def test_a_chain_added_to_a_second_circuit_appends_the_same_instances():
    def fill(insert):
        first, second = Circuit(), Circuit()
        chain = Chain(NMOS, 3, 0, 2)
        insert(second, Chain(RES, 2))
        insert(first, chain)
        placed = [(inst, inst.designator, inst.nets) for inst in first.instances]
        insert(second, chain)
        assert [(inst, inst.designator, inst.nets) for inst in second.instances[2:]] == placed
        assert all(a is b for a, b in zip(second.instances[2:], first.instances))
        return first, second

    assert _both(fill)[1][3] == 1  # the second circuit named only its own chain


@pytest.mark.parametrize("ports", [(1, 3), (3, 0)])
def test_a_chain_on_another_chains_pending_link_equals_the_reference(ports):
    # (1, 3): the inner chain's links come first in net order; (3, 0): the new one's
    def fill(insert):
        circuit = Circuit()
        inner = Chain(NMOS, 3, 0, 2)
        insert(circuit, [Chain(inner[1], 3, *ports), inner])
        return [circuit]

    [(rows, *_)] = _both(fill)
    assert not any(isinstance(net, PendingNet) for row in rows for net in row[0].nets)


@pytest.mark.parametrize("template", [NMOS, RES])  # RES: the default defect's prefix
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_inject_over_an_unread_chain_equals_the_reference(p, template, monkeypatch):
    def fill(insert):
        circuit = Circuit()
        insert(circuit, [Chain(RES, 2), Inject(Chain(template, 8), p, rng=5)])
        return [circuit]

    _both(fill)
    circuit = fill(bulk_add)[0]
    for inst, after in zip(circuit.instances[2:], circuit.instances[3:]):
        if inst.template.name == "Res" and after.template is template:
            assert inst.nets[0] is after.nets[-1]  # the defect taps the link's Net
    if template is NMOS:  # placed: no net is relinked, defect taps included
        monkeypatch.setattr(Circuit, "_relink", None)
        assert observed(*fill(bulk_add)) == observed(circuit)


def test_inject_over_a_chain_read_after_the_draw_equals_the_reference():
    def fill(insert):
        circuit = Circuit()
        chain = Chain(NMOS, 6)
        injected = Inject(chain, 0.5, rng=5)
        assert isinstance(chain[0].nets[-1], PendingNet)  # read before the add
        insert(circuit, injected)
        return [circuit]

    [(rows, *_)] = _both(fill)
    assert not any(isinstance(net, PendingNet) for row in rows for net in row[0].nets)


def test_a_chain_in_a_body_then_into_subckt_continues_the_counters():
    def fill(insert):
        body = Subcircuit("blk", ["p"])
        insert(body, [Chain(NMOS, 3, 0, 2), NamedChain(RES, 2, out_name="p")])
        circuit = Circuit()
        insert(circuit, [Chain(NMOS, 2, 0, 2), Inject(Chain(NMOS, 3, 0, 2), 1.0, rng=2)])
        sub = circuit.into_subckt("top", ["d"])
        insert(sub, Chain(NMOS, 3, 0, 2))
        insert(circuit, Chain(RES, 2))
        return body, circuit, sub

    body, circuit, sub = _both(fill)
    assert body[2] == [0, 1] and circuit[2] == [0, 1, 2] and sub[2] == [0, 1, 2]
    assert [row[1] for row in sub[0][-3:]] == ["M6", "M7", "M8"]
    assert sub[0][-1][2][0] == "net_2_1" and circuit[0][-1][2][0] == "net_2_0"


def _combinator_children():
    yield Chain(NMOS, 5, 0, 2)
    yield NamedChain(BOUND, 4, 0, 2, out_name="OUT")
    yield Parallel(BOUND, 4)
    yield Array((2, 3), RES)
    yield Array(4, NMOS, lambda i: [f"n{i}"])


def test_combinator_children_are_sized_like_constructed_instances():
    """A child keeps the key-sharing instance dict that __init__ gives. A
    child whose `__dict__` is filled directly gets a combined dict of its
    own instead, which reports another size and costs more heap."""
    made = Instance(NMOS, NMOS.ports)
    for batch in _combinator_children():
        for child in batch:
            assert sys.getsizeof(child.__dict__) == sys.getsizeof(made.__dict__)
    inserted = Circuit()
    inserted += Chain(NMOS, 3, 0, 2)
    made.designator = "M9"
    assert sys.getsizeof(inserted.instances[1].__dict__) == sys.getsizeof(made.__dict__)


def test_combinator_children_share_no_overrides_or_context():
    for batch in _combinator_children():
        children = list(batch)
        assert len({id(child.overrides) for child in children}) == len(children)
        assert len({id(child.context) for child in children}) == len(children)
    chain = Chain(BOUND, 3)
    chain[0].overrides["w"] = 5e-6
    chain[0].context["_i"] = 1
    assert [child.overrides["w"] for child in chain] == [5e-6, 2e-6, 2e-6]
    assert [child.context for child in chain] == [{"_i": 1}, {}, {}]
    array = Array((2, 2), RES)
    assert [child.context for child in array] == [
        {"_x": 0, "_y": 0}, {"_x": 0, "_y": 1}, {"_x": 1, "_y": 0}, {"_x": 1, "_y": 1}
    ]


@pytest.mark.parametrize("mutate", [
    lambda p: p.__setitem__("w", 3e-6),
    lambda p: p.update(w=3e-6),
    lambda p: p.setdefault("w", 3e-6),
    lambda p: p.__ior__({"w": 3e-6}),
])
def test_a_childs_empty_overrides_take_mutations_and_drop_the_plan(mutate):
    # a child's empty overrides are made without Params.__init__
    chain = Chain(NMOS, 3, 0, 2)
    overrides = chain[1].overrides
    assert type(overrides) is Params and overrides == {}
    planned = overrides.plan
    assert planned.names == () and overrides.plan is planned
    mutate(overrides)
    assert overrides.plan is not planned
    assert overrides == {"w": 3e-6} and overrides.plan.names == ("w",)
    assert chain[1].effective_params() == {"w": 3e-6}
    assert chain[0].overrides == {} and chain[2].overrides == {}
    for removed in (lambda p: p.pop("w"), lambda p: p.popitem(), Params.clear,
                    lambda p: p.__delitem__("w")):
        mutate(overrides)
        assert overrides.plan.names == ("w",)
        removed(overrides)
        assert overrides == {} and overrides.plan.names == ()


def test_a_childs_unplanned_overrides_copy_and_pickle():
    overrides = Chain(NMOS, 2, 0, 2)[0].overrides
    for copied in (overrides.copy(), copy.copy(overrides), copy.deepcopy(overrides),
                   pickle.loads(pickle.dumps(overrides)), NMOS.params.merged(overrides)):
        assert type(copied) is Params
        copied["l"] = 1e-7
        assert copied.plan.names[-1] == "l"
    assert overrides == {}
