"""The value records of netforge behave as fixed here: `==` and `hash`,
`repr`, refusal of assignment and deletion, storage (slots or `__dict__`),
the shared constructor's one value per field, and copy and pickle round
trips.

The records are core's Net, PendingNet, Component, UnresolvedTemplate,
Model and Instance; formula's Formula, Num, Var, Neg, BinOp and Call;
params' RandomSpec; and exporters' Finding and _TextDialect."""

import copy
import pickle

import pytest

from netforge.core import (
    UNCONNECTED,
    Component,
    Instance,
    Model,
    Net,
    PendingNet,
    UnresolvedTemplate,
    _LinkGroup,
)
from netforge.errors import InvalidDistributionError, Record
from netforge.exporters import _SPECTRE, _SPICE, Finding, _TextDialect
from netforge.formula import BinOp, Call, Formula, Neg, Num, Var
from netforge.params import Params, RandomSpec

RES = Component("res", ["a", "b"], {"R": 1e3})


def _frozen():
    """(record, an equal record made apart, a different record of its class)
    for each frozen record class."""
    return [
        (Net("a"), Net("a"), Net("b")),
        (UNCONNECTED, Net(None), Net("0")),
        (PendingNet(_LinkGroup(2), 1), PendingNet(_LinkGroup(3), 1), PendingNet(_LinkGroup(2), 0)),
        (RES, Component("res", ["a", "b"], {"R": 1e3}), Component("res", ["a", "c"], {"R": 1e3})),
        (UnresolvedTemplate("ghost", 2), UnresolvedTemplate("ghost", 2.0),
         UnresolvedTemplate("ghost", 3)),
        (Model("nch", "nmos", {"vth0": 0.4}), Model("nch", "nmos", {"vth0": 0.4}),
         Model("nch", "pmos", {"vth0": 0.4})),
        (Num(2.0), Num(2.0), Num(3.0)),
        (Var("a"), Var("a"), Var("b")),
        (Neg(Var("a")), Neg(Var("a")), Neg(Num(1.0))),
        (BinOp("+", Var("a"), Num(2.0)), BinOp("+", Var("a"), Num(2.0)),
         BinOp("-", Var("a"), Num(2.0))),
        (Call("max", (Var("a"), Num(1.0))), Call("max", (Var("a"), Num(1.0))),
         Call("min", (Var("a"), Num(1.0)))),
        (Formula("a+1"), Formula("a + 1"), Formula("a+2")),
        (RandomSpec("gauss", 0.0, 1.0), RandomSpec("gauss", 0.0, 1.0),
         RandomSpec("uniform", 0.0, 1.0)),
        (Finding("warn", "DANGLING", "used once", "n1"), Finding("warn", "DANGLING", "used once", "n1"),
         Finding("error", "DANGLING", "used once", "n1")),
        (_SPICE, _TextDialect(("{title}",), ".", " ({})", " {}", "{}", (".end",)), _SPECTRE),
    ]


FROZEN = _frozen()
IDS = [type(record).__name__ for record, _, _ in FROZEN]
FIELDS = {
    Net: ("name",),
    PendingNet: ("group", "index"),
    Component: ("name", "ports", "params", "prefix", "metadata"),
    UnresolvedTemplate: ("name", "arity"),
    Model: ("name", "base_type", "params"),
    Num: ("value",),
    Var: ("name",),
    Neg: ("operand",),
    BinOp: ("op", "left", "right"),
    Call: ("func", "args"),
    Formula: ("text", "ast"),
    RandomSpec: ("kind", "a", "b"),
    Finding: ("severity", "code", "message", "location"),
    _TextDialect: ("header", "keyword", "model_params", "subckt_params", "nets", "footer"),
}
UNHASHABLE = (Component, Model)  # their params (and metadata) are dicts
SLOTS = {  # the slotted records and their slots; the others keep a __dict__
    Net: ("name",),
    PendingNet: ("group", "index"),
    Formula: ("text", "ast", "_program", "_function"),
}


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def _instance(**kwargs) -> Instance:
    return Instance(RES, ["x", "y"], {"R": 2e3}, **kwargs)


# --- == and hash -------------------------------------------------------------

@pytest.mark.parametrize("record, twin, other", FROZEN, ids=IDS)
def test_equal_records_are_equal_and_others_are_not(record, twin, other):
    assert record is not twin
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert record != _values(record)  # a tuple of the fields is no record
    assert (record == object()) is False
    assert record.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("record, twin, other", FROZEN, ids=IDS)
def test_a_record_hashes_as_its_fields_or_not_at_all(record, twin, other):
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
    elif isinstance(record, PendingNet):
        assert hash(record) == hash(twin) == hash(("pending-net", record.index))
    else:
        key = record.ast if isinstance(record, Formula) else _values(record)
        assert hash(record) == hash(twin) == hash(key)
        assert len({record, twin, other}) == 2


def test_a_net_hashes_as_the_tuple_of_its_name():
    assert hash(Net("a")) == hash(("a",))
    assert hash(UNCONNECTED) == hash((None,))
    assert {Net("a"): 1}[Net("a")] == 1


def test_records_of_different_classes_are_never_equal():
    assert Net("a") != Var("a") and Var("a") != Net("a")
    assert Net("net_0_1") != PendingNet(_LinkGroup(2), 1)
    assert Num(1.0) != Var("a") and Num(1.0) != 1.0
    assert UnresolvedTemplate("res", 2) != RES


def test_pending_nets_compare_by_link_index_only():
    group = _LinkGroup(4)
    assert PendingNet(group, 2) == PendingNet(_LinkGroup(9), 2)
    assert PendingNet(group, 2) != PendingNet(group, 3)


def test_equal_fields_compare_field_by_field():
    assert Num(2) == Num(2.0)  # 2 == 2.0, as the tuples of fields compare
    nan = float("nan")
    assert Num(nan) == Num(nan)  # one object: the tuple comparison takes identity first
    assert Num(nan) != Num(float("nan"))


def test_instances_compare_without_designators_and_are_unhashable():
    a, b = _instance(designator="R1"), _instance(designator="R2")
    assert a == b
    assert a != _instance(context={"i": 1})
    assert a != Instance(RES, ["x", "z"], {"R": 2e3})
    assert a != Instance(RES, ["x", "y"])
    assert (a == "R1") is False and a.__eq__("R1") is NotImplemented
    with pytest.raises(TypeError, match="unhashable type"):
        hash(a)


# --- repr --------------------------------------------------------------------

def test_generated_reprs_name_each_field():
    assert repr(Num(2.0)) == "Num(value=2.0)"
    assert repr(Var("a")) == "Var(name='a')"
    assert repr(Neg(Num(1.0))) == "Neg(operand=Num(value=1.0))"
    assert repr(BinOp("+", Var("a"), Num(2.0))) == (
        "BinOp(op='+', left=Var(name='a'), right=Num(value=2.0))"
    )
    assert repr(Call("max", (Var("a"), Num(1.0)))) == (
        "Call(func='max', args=(Var(name='a'), Num(value=1.0)))"
    )
    assert repr(UnresolvedTemplate("ghost", 2)) == "UnresolvedTemplate(name='ghost', arity=2)"
    assert repr(Finding("warn", "DANGLING", "net n1 is used once", "n1")) == (
        "Finding(severity='warn', code='DANGLING', message='net n1 is used once', "
        "location='n1')"
    )
    assert repr(_SPICE) == (
        "_TextDialect(header=('{title}',), keyword='.', model_params=' ({})', "
        "subckt_params=' {}', nets='{}', footer=('.end',))"
    )


def test_custom_reprs_and_strs():
    assert repr(Net("a")) == "Net('a')" and str(Net("a")) == "a"
    assert repr(UNCONNECTED) == "UNCONNECTED" and str(UNCONNECTED) == ""
    pending = PendingNet(_LinkGroup(3), 2)
    assert repr(pending) == "PendingNet(2)"
    assert str(pending) == pending.name == "net_0_2"
    assert repr(RES) == "Component('res', ports=2, prefix='R')"
    assert repr(Model("nch", "nmos")) == "Model('nch', 'nmos')"
    assert repr(RandomSpec("gauss", 0.0, 1.0)) == "gauss(0.0, 1.0)"
    assert repr(Formula("a + 1")) == "Formula('a + 1')"
    assert str(Finding("warn", "DANGLING", "used once", "n1")) == (
        "WARN  DANGLING              n1: used once"
    )
    assert repr(_instance()) == "<? res (x y)>"
    assert repr(_instance(designator="R4")) == "<R4 res (x y)>"


# --- assignment and storage --------------------------------------------------

@pytest.mark.parametrize("record, twin, other", FROZEN, ids=IDS)
def test_assigning_or_deleting_a_field_raises_attribute_error(record, twin, other):
    for name in FIELDS[type(record)]:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    assert record == twin


@pytest.mark.parametrize("record, twin, other", FROZEN, ids=IDS)
def test_a_record_keeps_its_fields_in_slots_or_in_its_dict(record, twin, other):
    cls = type(record)
    if cls in SLOTS:
        assert cls.__slots__ == SLOTS[cls]
        assert not hasattr(record, "__dict__")
        assert not hasattr(record, "__weakref__")
    else:
        assert sorted(vars(record)) == sorted(FIELDS[cls])
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            record.extra = 1
        assert "extra" not in vars(record)


@pytest.mark.parametrize("name", ["_program", "_function"])
def test_a_formula_cache_slot_can_be_neither_assigned_nor_deleted(name):
    formula = Formula("2*a")
    for _ in range(2):  # unset, then made by evaluate
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(formula, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(formula, name)
        assert formula.evaluate({"a": 3.0}) == 6.0
    assert getattr(formula, name) is not None


def test_nets_and_pending_nets_have_no_dict():
    for net in (Net("a"), UNCONNECTED, PendingNet(_LinkGroup(1), 0)):
        assert not hasattr(net, "__dict__")


def test_a_component_stores_its_checked_fields():
    comp = Component("nfet", [1, "d", None], {"w": 1e-6}, metadata={"k": "v"})
    assert vars(comp) == {
        "prefix": "N",
        "name": "nfet",
        "ports": (Net("1"), Net("d"), UNCONNECTED),
        "params": {"w": 1e-6},
        "metadata": {"k": "v"},
    }
    assert type(comp.params) is Params
    params = Params({"R": 1.0})
    assert Component("r", ["a"], params).params is params
    assert Model("m", "nmos", params).params is params
    assert type(Model("m", "nmos").params) is Params


def test_an_instance_stores_its_fields_in_order_and_stays_mutable():
    inst = Instance(RES, ["x", 3])
    assert list(vars(inst)) == ["template", "nets", "overrides", "designator", "context"]
    assert inst.nets == (Net("x"), Net("3")) and type(inst.nets) is tuple
    assert type(inst.overrides) is Params and inst.overrides == {}
    assert inst.designator is None and inst.context == {}
    assert Instance(RES, ["x", "y"]).context is not inst.context
    assert Instance(RES, ["x", "y"]).overrides is not inst.overrides
    nets = (Net("p"), Net("q"))
    assert Instance(RES, nets).nets is nets  # Nets need no coercion
    overrides, context = Params({"R": 5.0}), {"i": 1}
    inst = Instance(RES, nets, overrides, "R7", context)
    assert inst.overrides is overrides and inst.context is context
    assert inst.designator == "R7"
    assert type(Instance(RES, nets, {"R": 5.0}).overrides) is Params
    inst.designator = "R8"
    inst.nets = (Net("r"), Net("s"))
    assert inst.designator == "R8" and inst.nets == (Net("r"), Net("s"))
    inst.extra = 1
    del inst.extra
    assert list(vars(inst)) == ["template", "nets", "overrides", "designator", "context"]


@pytest.mark.parametrize("record, twin, other", FROZEN, ids=IDS)
def test_a_record_takes_one_value_per_field(record, twin, other):
    cls, values = type(record), _values(record)
    makers = [lambda *wrong: Record.__init__(cls.__new__(cls), *wrong)]
    if cls.__init__ is Record.__init__:  # the class only stores its fields
        assert cls(*values) == record
        makers.append(cls)
    for make in makers:
        for wrong in (values[:-1], values + (values[-1],)):
            message = rf"{cls.__name__} takes one value per field of .*, got {len(wrong)}$"
            with pytest.raises(TypeError, match=message):
                make(*wrong)


def test_random_specs_check_their_fields():
    with pytest.raises(InvalidDistributionError, match="unknown distribution 'beta'"):
        RandomSpec("beta", 0.0, 1.0)
    with pytest.raises(InvalidDistributionError, match="uniform bounds inverted"):
        RandomSpec("uniform", 1.0, 0.0)
    assert RandomSpec("uniform", 0.0, 1.0).args == (0.0, 1.0)


# --- copy and pickle ---------------------------------------------------------

def _round_trips():
    yield "copy", copy.copy
    yield "deepcopy", copy.deepcopy
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        yield f"pickle{protocol}", lambda obj, p=protocol: pickle.loads(pickle.dumps(obj, p))


ROUND_TRIPS = list(_round_trips())


@pytest.mark.parametrize("how, trip", ROUND_TRIPS, ids=[how for how, _ in ROUND_TRIPS])
@pytest.mark.parametrize("record, twin, other", FROZEN, ids=IDS)
def test_a_copied_record_is_an_equal_frozen_record(record, twin, other, how, trip):
    made = trip(record)
    assert type(made) is type(record)
    assert made == record and made != other
    if not isinstance(record, UNHASHABLE):
        assert hash(made) == hash(record)
    assert repr(made) == repr(record)
    if isinstance(record, PendingNet):  # a _LinkGroup compares by identity
        assert made.index == record.index and made.group.size == record.group.size
    else:
        assert _values(made) == _values(record)
    name = FIELDS[type(record)][0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(made, name, getattr(record, name))
    assert hasattr(made, "__dict__") == hasattr(record, "__dict__")
    if how == "copy":
        assert all(a is b for a, b in zip(_values(made), _values(record)))


@pytest.mark.parametrize("how, trip", ROUND_TRIPS, ids=[how for how, _ in ROUND_TRIPS])
def test_a_copied_formula_carries_text_and_ast_and_still_evaluates(how, trip):
    formula = Formula("max(a, 2) * -b")
    assert formula.evaluate({"a": 3.0, "b": 2.0}) == -6.0  # fills both caches
    made = trip(formula)
    assert made.text == formula.text and made.ast == formula.ast
    assert not hasattr(made, "_program") and not hasattr(made, "_function")
    assert made.evaluate({"a": 1.0, "b": 0.5}) == -1.0
    assert made.program() == formula.program()


def test_copies_of_pending_nets_share_their_group_as_the_originals_do():
    group = _LinkGroup(2)
    a, b = PendingNet(group, 0), PendingNet(group, 1)
    assert copy.copy(a).group is group
    for trip in (copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        c, d = trip((a, b))
        assert c.group is d.group and c.group is not group
        assert (c.index, d.index, c.group.size) == (0, 1, 2)


def test_a_copied_formula_tree_shares_no_node_when_deep():
    tree = BinOp("*", Neg(Var("w")), Call("max", (Var("l"), Num(1e-7))))
    deep = copy.deepcopy(tree)
    assert deep == tree and deep.left is not tree.left and deep.right.args is not tree.right.args
    shallow = copy.copy(tree)
    assert shallow.left is tree.left and shallow.right is tree.right


@pytest.mark.parametrize("how, trip", ROUND_TRIPS, ids=[how for how, _ in ROUND_TRIPS])
def test_a_copied_instance_is_equal_and_keeps_its_designator(how, trip):
    inst = _instance(designator="R3", context={"i": 2})
    made = trip(inst)
    assert type(made) is Instance and made == inst
    assert made.designator == "R3" and repr(made) == repr(inst)
    assert list(vars(made)) == list(vars(inst))
    assert type(made.overrides) is Params
    if how == "copy":
        assert made.nets is inst.nets and made.overrides is inst.overrides
    else:
        assert made.overrides is not inst.overrides and made.context is not inst.context


def test_a_copied_component_checks_nothing_again():
    comp = Component("nfet", [1, "d"], {"w": 1e-6}, prefix="Q", metadata={"k": "v"})
    for made in (copy.copy(comp), copy.deepcopy(comp), pickle.loads(pickle.dumps(comp))):
        assert vars(made) == vars(comp) and list(vars(made)) == list(vars(comp))
        assert made.prefix == "Q" and type(made.params) is Params
