"""Netlist model: nets, component templates, instances, models, subcircuits, circuits.

Templates (Component, Model, and a Subcircuit once fixed) are immutable values
and can be shared freely. A Circuit is a single-writer container: it owns the
designator counters and the naming of chain-generated nets, both assigned when
elements are inserted.

Overloaded operators are available on templates and instances:

    inst = comp @ ["out", "in", "GND", "GND"]     rebind nets
    inst = comp % {"w": 0.27}                     override parameters
    circuit += inst                               insert (assigns designator)

Every name is checked where it enters, by the rules of netforge.names:
template, model and subcircuit names and model base types are one token,
net and pin names follow the net rule, and a designator prefix is
alphabetic. Designators can still be set from Python, so lint checks them.
"""

from __future__ import annotations

import re
import sys
from collections import deque
from functools import partial
from itertools import compress, filterfalse, repeat
from typing import Iterable, Union

from . import names
from .errors import (
    ArityMismatchError,
    DuplicateModelError,
    DuplicatePinError,
    DuplicateSubcircuitError,
    EmptyPortsError,
    FrozenSubcircuitError,
    NetNameError,
    Record,
)
from .params import Params

__all__ = [
    "Net",
    "UNCONNECTED",
    "GND",
    "VDD",
    "PendingNet",
    "as_net",
    "Component",
    "Instance",
    "Model",
    "Subcircuit",
    "Circuit",
    "UnresolvedTemplate",
    "rebind",
    "override_params",
    "fix",
]

# a designator and a chain link net name, each on a line of its own
_DESIGNATOR_LINES_RE = re.compile(r"^([A-Za-z_]+)(\d+)$", re.M)
_LINK_NET_LINES_RE = re.compile(r"^net_(\d+)_\d+$", re.M)
# what an import leaves unset until it is read (_InstanceScope.__getattr__)
_COUNTERS = ("_counters", "_next_link_group")

DEFAULT_GLOBALS = ("GND", "VDD", "0")


class Net(Record):
    """A named electrical node; `name` is None for the unconnected marker.

    Integer literals and text of ASCII digits are accepted wherever nets are
    and normalize to their decimal text ("0" is ground by SPICE convention).
    Symbolic names are case-sensitive and follow the net rule of
    netforge.names. Nets are immutable values without a __dict__, so
    instances may share one freely.
    """

    __slots__ = _fields = ("name",)
    name: str | None

    @property
    def is_unconnected(self) -> bool:
        return self.name is None

    def __str__(self) -> str:
        return self.name if self.name is not None else ""

    def __repr__(self) -> str:
        return f"Net({self.name!r})" if self.name is not None else "UNCONNECTED"


UNCONNECTED = Net(None)
GND = Net("GND")
VDD = Net("VDD")


class _LinkGroup:
    """Identity token shared by the generated nets of one chain; `size` is
    its number of links."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        self.size = size


class PendingNet(Record):
    """A chain-generated net awaiting its final name.

    A chain read before insertion makes one PendingNet per link (manip); a
    container replaces it with Net(f"net_{k}_{index}") at insertion, where k
    is the container's chain counter, and the instances one add() puts on a
    link share that Net. Two pending nets compare equal when their link
    index matches, which is what construction-determinism checks need.
    """

    __slots__ = _fields = ("group", "index")
    group: _LinkGroup
    index: int

    def __eq__(self, other):
        if not isinstance(other, PendingNet):
            return NotImplemented
        return self.index == other.index

    def __hash__(self):
        return hash(("pending-net", self.index))

    @property
    def is_unconnected(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"net_0_{self.index}"

    name = property(__str__)  # read where a Net's name is

    def __repr__(self) -> str:
        return f"PendingNet({self.index})"


def _made(cls, n: int, **columns) -> list:
    """`n` new instances of the slotted record `cls`, each field set from
    its column of `columns` (n values each), without a call of its __init__
    per instance. For the link nets of a chain, which need no checks."""
    made = list(map(object.__new__, repeat(cls, n)))
    for name, values in columns.items():
        deque(map(getattr(cls, name).__set__, made, values), maxlen=0)
    return made


NetLike = Union[Net, PendingNet, str, int, None]
_NET_TYPES = (Net, PendingNet)


def as_net(value: NetLike) -> Net | PendingNet:
    """Normalize a net-like value: Net/PendingNet pass through, "" and None
    mean unconnected, non-negative integers (and text of ASCII digits) become
    their decimal text, and anything else must be a valid symbolic name."""
    if isinstance(value, (Net, PendingNet)):
        return value
    if value is None:
        return UNCONNECTED
    if isinstance(value, bool):
        raise TypeError("bool is not a net")
    if isinstance(value, int):
        if value < 0:
            raise NetNameError(f"numeric nets must be >= 0, got {value}")
        return Net(str(value))
    if isinstance(value, str):
        if value == "":
            return UNCONNECTED
        # ASCII digits only: other decimal digits ("３", "٣") would merge
        # nets that were named differently
        if value.isascii() and value.isdecimal():
            try:
                return Net(str(int(value)))
            except ValueError:  # more digits than Python converts to an int
                raise NetNameError(
                    f"numeric net name has {len(value)} digits, more than "
                    f"{sys.get_int_max_str_digits()}"
                ) from None
        return Net(names.net(value))
    raise TypeError(f"expected a net name, got {type(value).__name__}")


def _text_nets(texts: list) -> dict:
    """as_net of each of the distinct texts `texts` that as_net takes, by
    text. A symbolic name, the usual kind, takes no call of its own: one
    pattern match over them all checks them (names.all_nets), and one pass
    makes their Nets. Only digits and "" go through as_net one by one."""
    nets = {}
    special = list(compress(texts, map(str.isdigit, texts)))
    if "" in texts:
        special.append("")
    if special:
        texts = list(filterfalse(set(special).__contains__, texts))
    if not names.all_nets(texts):  # a name as_net rejects: left out
        special += texts
        texts = []
    for text in special:
        try:
            nets[text] = as_net(text)
        except NetNameError:
            pass
    nets.update(zip(texts, _made(Net, len(texts), name=texts)))
    return nets


def _global_name(value) -> str:
    """The name of the global net `value`, as as_net reads it: one that
    is not a net name, or names no net, raises NetNameError."""
    name = as_net(value).name
    if name is None:
        raise NetNameError(f"invalid global net name {value!r}")
    return name


def _as_metadata(metadata) -> dict[str, str]:
    out: dict[str, str] = {}
    for key, value in dict(metadata or {}).items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise TypeError("metadata keys and values must be strings")
        out[key] = value
    return out


def _derive_prefix(name: str) -> str:
    for ch in name:
        if ch.isalpha():
            return ch.upper()
    return "U"


class _TemplateOps:
    """Operator sugar shared by everything usable as an instantiation template."""

    def __matmul__(self, nets):
        return rebind(self, nets)

    def __mod__(self, overrides):
        return override_params(self, overrides)

    def __call__(self, nets=None, params=None) -> "Instance":
        inst = as_instance(self)
        if nets is not None:
            inst = rebind(inst, nets)
        if params is not None:
            inst = override_params(inst, params)
        return inst


class Component(_TemplateOps, Record):
    """Reusable device template.

    `ports` holds the default nets that new instances start from; its length
    fixes the arity of every instance. `prefix` seeds designators (R -> R1,
    R2, ...) and defaults to the first letter of the name, uppercased.
    """

    _fields = ("name", "ports", "params", "prefix", "metadata")
    name: str
    ports: tuple
    params: Params
    prefix: str
    metadata: dict

    def __init__(self, name, ports, params=None, prefix=None, metadata=None):
        names.token(name, "component name")
        ports = tuple(as_net(p) for p in (ports or ()))
        if not ports:
            raise EmptyPortsError(f"component {name!r} needs at least one port")
        prefix = names.prefix(_derive_prefix(name) if prefix is None else prefix)
        params = params if isinstance(params, Params) else Params(params)
        Record.__init__(self, name, ports, params, prefix, _as_metadata(metadata))

    @property
    def arity(self) -> int:
        return len(self.ports)

    @property
    def last_port(self):
        return self.ports[-1]

    def __repr__(self):
        return f"Component({self.name!r}, ports={len(self.ports)}, prefix={self.prefix!r})"


class UnresolvedTemplate(Record):
    """Master known only by name, e.g. from an imported document whose
    definition is missing; lint reports it as UNDEFINED_MASTER."""

    _fields = ("name", "arity")
    name: str
    arity: int

    def __init__(self, name: str, arity: int):
        Record.__init__(self, name, int(arity))

    @property
    def ports(self) -> tuple:
        return (UNCONNECTED,) * self.arity

    @property
    def params(self) -> Params:
        return Params()

    @property
    def prefix(self) -> str:
        return "U"


class Model(Record):
    """A device model card: name, base type (nmos, pmos, ...), parameters."""

    _fields = ("name", "base_type", "params")
    name: str
    base_type: str
    params: Params

    def __init__(self, name, base_type, params=None):
        name = names.token(name, "model name")
        base_type = names.token(base_type, "model base type")
        params = params if isinstance(params, Params) else Params(params)
        Record.__init__(self, name, base_type, params)

    def __repr__(self):
        return f"Model({self.name!r}, {self.base_type!r})"


class Instance(_TemplateOps):
    """A concrete placement of a template on specific nets.

    `overrides` shadow the template's parameters; `designator` stays None
    until the instance enters a circuit or subcircuit. `context` carries
    extra names (array coordinates) visible to formula evaluation.

    Equality ignores the designator, so rebinding an instance onto the same
    nets produces an equal instance.
    """

    template: object
    nets: tuple
    overrides: Params
    designator: str | None
    context: dict

    def __init__(self, template, nets, overrides=None, designator=None, context=None):
        # stores in this order keep the instance dicts key-sharing (_instances)
        self.template = template
        # nets that are already Nets (built or imported ones) need no coercion
        if type(nets) is not tuple or not all(isinstance(n, _NET_TYPES) for n in nets):
            nets = tuple(as_net(n) for n in nets)
        self.nets = nets
        self.overrides = overrides if isinstance(overrides, Params) else Params(overrides)
        self.designator = designator
        self.context = {} if context is None else context

    @property
    def arity(self) -> int:
        return len(self.nets)

    @property
    def nodes(self) -> tuple:
        return self.nets

    @property
    def ports(self) -> tuple:
        # instances expose their bound nets under the template vocabulary,
        # so chain/inject code can treat templates and instances alike
        return self.nets

    @property
    def last_port(self):
        return self.nets[-1]

    def effective_params(self) -> Params:
        return self.template.params.merged(self.overrides)

    def copy(self) -> "Instance":
        return Instance(
            self.template,
            self.nets,
            self.overrides.copy(),
            designator=None,
            context=dict(self.context),
        )

    def __imatmul__(self, nets):
        self.nets = _rebound_nets(self, nets)
        return self

    def __imod__(self, overrides):
        self.overrides = self.overrides.merged(overrides)
        return self

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.template == other.template
            and self.nets == other.nets
            and self.overrides == other.overrides
            and self.context == other.context
        )

    def __repr__(self):
        nets = " ".join(str(n) or "''" for n in self.nets)
        return f"<{self.designator or '?'} {getattr(self.template, 'name', '?')} ({nets})>"


def _instances(nets_rows, templates, overrides, designators, contexts) -> list:
    """New instances, one per tuple of `nets_rows` (Nets and PendingNets
    only), each given the next item of every other column, which may be
    longer: its template, its own overrides (a Params) and context (a
    dict), and its designator; no __init__, coercion or check per instance."""
    made = []
    for nets, template, params, designator, context in zip(
        nets_rows, templates, overrides, designators, contexts
    ):
        # plain stores in field order, as __init__ makes them, keep the
        # instance dicts key-sharing
        inst = object.__new__(Instance)
        inst.template = template
        inst.nets = nets
        inst.overrides = params
        inst.designator = designator
        inst.context = context
        made.append(inst)
    return made


def _children(proto: Instance, nets_list, designators=None) -> list:
    """Copies of `proto`, one per tuple of `nets_list` (Nets and PendingNets
    only, as `proto`'s nets hold), designated by `designators` or None. Each
    copy gets its own overrides and context, since it stays mutable."""
    overrides = proto.overrides
    # an empty map needs no Params.__init__ (see Params)
    params = map(Params.copy, repeat(overrides)) if overrides else map(dict.__new__, repeat(Params))
    return _instances(
        nets_list, repeat(proto.template), params, designators or repeat(None),
        map(dict, repeat(proto.context)),
    )


def as_instance(obj) -> Instance:
    """Instantiate a template with its default nets, or copy an instance."""
    if isinstance(obj, Instance):
        return obj.copy()
    if isinstance(obj, (Component, Subcircuit, UnresolvedTemplate)):
        return Instance(obj, obj.ports)
    raise TypeError(f"cannot instantiate {type(obj).__name__}")


def _rebound_nets(inst: Instance, nets) -> tuple:
    if isinstance(nets, (str, int, Net, PendingNet)) or nets is None:
        # single-net form: rebind the first unconnected port, else port 0
        target = 0
        for i, net in enumerate(inst.nets):
            if isinstance(net, Net) and net.is_unconnected:
                target = i
                break
        new = list(inst.nets)
        new[target] = as_net(nets)
        return tuple(new)
    nets = tuple(as_net(n) for n in nets)
    if len(nets) != len(inst.nets):
        raise ArityMismatchError(
            f"{getattr(inst.template, 'name', '?')} has {len(inst.nets)} ports, "
            f"got {len(nets)} nets"
        )
    return nets


def rebind(template_or_instance, nets) -> Instance:
    """Fresh instance with nets rebound (the template is never modified).

    Passing a single net rebinds the first unconnected port, or port 0 when
    every port is already connected.
    """
    inst = as_instance(template_or_instance)
    inst.nets = _rebound_nets(inst, nets)
    return inst


def override_params(template_or_instance, overrides) -> Instance:
    """Fresh instance whose parameters are shadowed by `overrides`.

    Unknown keys extend the parameter map; nothing is ever deleted.
    """
    inst = as_instance(template_or_instance)
    inst.overrides = inst.overrides.merged(overrides)
    return inst


class _InstanceScope:
    """Shared insertion machinery: designator counters and chain-net naming.

    A chain (or an Inject over one) not made yet is placed in one run: the
    scope names its links and the chain makes its children on those Nets,
    with their designators (_place). Other instances are inserted one by
    one; their PendingNets are relinked net by net, one add() naming each
    link group once, so the result is the one per-instance insertion gives.

    An import only records the designators and net names a scope already
    uses (_continue_numbering); its counters continue past them the first
    time they are read (__getattr__), so an import that is only exported
    never reads those texts again."""

    def _init_scope(self):
        self._counters: dict[str, int] = {}
        self._link_groups: dict[_LinkGroup, int] = {}
        self._next_link_group = 0

    def _insert(self, element, instances: list) -> None:
        """Append the instances of `element` to `instances` in order, naming
        their chain links and assigning their designators; any other item
        goes to _define. One add() names each link group once, when it first
        meets it, so the instances a link joins share one Net."""
        counters = self._counters
        links: dict[_LinkGroup, list] = {}  # each link group met so far -> its Nets
        template = None
        for item in _iter_addable(element, partial(self._place, instances)):
            if not isinstance(item, Instance):
                self._define(item)
                continue
            nets = item.nets
            if PendingNet in map(type, nets):
                item.nets = self._relink(nets, links)
            if item.template is not template:
                template = item.template
                self._uses(template)
                prefix = template.prefix
            if item.designator is None:
                count = counters[prefix] = counters.get(prefix, 0) + 1
                item.designator = f"{prefix}{count}"
            instances.append(item)

    def _place(self, instances: list, batch) -> list:
        """Append the children `batch` makes here to `instances` and return
        []; or return its children, to insert one by one, also if it uses a
        template this scope rejects, so the add fails where that fails."""
        try:
            placed = batch._place(self)
        except DuplicateSubcircuitError:  # from _uses, before anything changed
            placed = None
        if placed is None:
            return batch.children
        instances.extend(placed)
        return []

    def _designators(self, prefix: str, n: int):
        """The next `n` designators of `prefix`, counted as used."""
        count = self._counters.get(prefix, 0)
        self._counters[prefix] = count + n
        return map(prefix.__add__, map(str, range(count + 1, count + n + 1)))

    def _relink(self, nets: tuple, links: dict) -> tuple:
        """`nets` with each PendingNet replaced by its link's Net, naming
        each link group not in `links` yet."""
        relinked = list(nets)
        for i, net in enumerate(nets):
            if type(net) is PendingNet:
                named = links.get(net.group)
                if named is None:
                    named = links[net.group] = self._link_nets(net.group)
                relinked[i] = named[net.index]
        return tuple(relinked)

    def _link_nets(self, group: _LinkGroup) -> list:
        """New Nets for the links of `group`, in link order; a group keeps
        its number k in this scope for good."""
        k = self._link_groups.get(group)
        if k is None:
            k = self._link_groups[group] = self._next_link_group
            self._next_link_group += 1
        return _made(Net, group.size, name=map(f"net_{k}_".__add__, map(str, range(group.size))))

    def _uses(self, template) -> None:
        """Called once per run of instances that share `template`, before
        the first of them is appended."""

    def _continue_numbering(self, designators: str, net_names: str) -> None:
        """After an import, continue numbering past what a scope already
        uses: `designators` holds its designators, and `net_names` the
        names of its named nets (numeric ones may be left out: a chain link
        name never is numeric), one per line. Each is one token, so none
        holds a newline of its own. The texts are kept, and the counters
        left unset until they are first read (__getattr__)."""
        self._numbering = (self._counters, self._next_link_group, designators, net_names)
        del self._counters, self._next_link_group

    def __getattr__(self, name: str):
        """`_counters` and `_next_link_group`, read for the first time since
        _continue_numbering: continued past its texts, once."""
        numbering = self.__dict__.pop("_numbering", None) if name in _COUNTERS else None
        if numbering is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}", name=name, obj=self
            )
        counters, next_group, designators, net_names = numbering
        for prefix, num in _DESIGNATOR_LINES_RE.findall(designators):
            num = int(num)
            if num > counters.get(prefix, 0):
                counters[prefix] = num
        # the links of one group share its number: convert each number once
        groups = set(_LINK_NET_LINES_RE.findall(net_names))
        if groups:
            next_group = max(next_group, 1 + max(map(int, groups)))
        self._counters, self._next_link_group = counters, next_group
        return getattr(self, name)


class Subcircuit(_TemplateOps, _InstanceScope):
    """A reusable hierarchical block, instantiated like a component.

    Pins are symbolic names; when the subcircuit is used as a template its
    default nets are the pin names themselves. `fix()` freezes the body so
    no further elements can be added.
    """

    def __init__(self, name: str, pins, params=None):
        names.token(name, "subcircuit name")
        pins = tuple(names.net(pin, "pin") for pin in pins or ())
        if len(set(pins)) != len(pins):
            raise DuplicatePinError(f"duplicate pins in subcircuit {name!r}: {list(pins)}")
        self.name = name
        self.pins = pins
        self.params = params if isinstance(params, Params) else Params(params)
        self.body: list[Instance] = []
        self.nested: list[Subcircuit] = []
        self.fixed = False
        self._init_scope()

    @property
    def ports(self) -> tuple:
        return tuple(Net(pin) for pin in self.pins)

    @property
    def arity(self) -> int:
        return len(self.pins)

    @property
    def prefix(self) -> str:
        return "X"

    def fix(self) -> None:
        """Freeze the body; idempotent."""
        self.fixed = True

    def add(self, element) -> "Subcircuit":
        """Append instances (or register nested definitions) in order."""
        if self.fixed:
            raise FrozenSubcircuitError(f"subcircuit {self.name!r} is fixed")
        self._insert(element, self.body)
        return self

    def _define(self, sub) -> None:
        if not isinstance(sub, Subcircuit):
            raise TypeError(f"cannot add {type(sub).__name__} to a subcircuit")
        for existing in self.nested:
            if existing.name == sub.name:
                if existing is sub:
                    return
                raise DuplicateSubcircuitError(
                    f"nested subcircuit {sub.name!r} already defined in {self.name!r}"
                )
        self.nested.append(sub)

    def __iadd__(self, element):
        return self.add(element)

    def __eq__(self, other):
        if not isinstance(other, Subcircuit):
            return NotImplemented
        return (
            self.name == other.name
            and self.pins == other.pins
            and self.params == other.params
            and self.fixed == other.fixed
            and len(self.body) == len(other.body)
            and all(
                a == b and a.designator == b.designator
                for a, b in zip(self.body, other.body)
            )
            and self.nested == other.nested
        )

    def __hash__(self):
        return hash(("subcircuit", self.name, self.pins))

    def __repr__(self):
        return f"Subcircuit({self.name!r}, pins={list(self.pins)}, body={len(self.body)})"


class Circuit(_InstanceScope):
    """An exportable netlist: instances plus model and subcircuit definitions.

    Insertion order is preserved everywhere and determines export order.
    Designator counters belong to the circuit and are never reused. Adding an
    instance of a subcircuit registers that subcircuit's definition
    automatically. Single-writer: mutate from one thread only.
    """

    def __init__(self, rng_seed: int = 0, global_nets=DEFAULT_GLOBALS):
        self.instances: list[Instance] = []
        self.subcircuits: dict[str, Subcircuit] = {}
        self.models: dict[str, Model] = {}
        self.global_nets: list[str] = list(dict.fromkeys(map(_global_name, global_nets)))
        self.directives: list[str] = []
        self.rng_seed = int(rng_seed)
        # True when a build derived part of the structure from rng_seed, so
        # another seed needs another build; build documents set it
        self.seed_derived = False
        self._init_scope()

    def add(self, element) -> "Circuit":
        """Insert instances, manipulations, models, subcircuit definitions,
        or (possibly nested) sequences of those, in order."""
        self._insert(element, self.instances)
        return self

    def __iadd__(self, element):
        return self.add(element)

    def _define(self, item) -> None:
        if isinstance(item, Model):
            if item.name in self.models:
                raise DuplicateModelError(f"model {item.name!r} already defined")
            self.models[item.name] = item
        elif isinstance(item, Subcircuit):
            self._register_subcircuit(item)
        else:
            raise TypeError(f"cannot add {type(item).__name__} to a circuit")

    def _uses(self, template) -> None:
        if isinstance(template, Subcircuit):
            self._register_subcircuit(template)

    def _register_subcircuit(self, sub: Subcircuit) -> None:
        existing = self.subcircuits.get(sub.name)
        if existing is None:
            self.subcircuits[sub.name] = sub
        elif existing is not sub:
            raise DuplicateSubcircuitError(f"subcircuit {sub.name!r} already defined")

    def into_subckt(self, name: str, pins, params=None) -> Subcircuit:
        """Package this circuit's instances as a subcircuit definition.

        The new subcircuit shares the instance objects; the circuit itself
        stays usable. Definitions referenced by the body travel along as
        nested definitions. A pin that never appears as a net in the body is
        reported later by lint (UNUSED_PIN), not rejected here.
        """
        sub = Subcircuit(name, pins, params)
        sub.body = list(self.instances)
        used = {
            inst.template.name
            for inst in sub.body
            if isinstance(inst.template, Subcircuit)
        }
        sub.nested = [d for d in self.subcircuits.values() if d.name in used]
        sub._counters = dict(self._counters)
        sub._link_groups = dict(self._link_groups)
        sub._next_link_group = self._next_link_group
        return sub

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            len(self.instances) == len(other.instances)
            and all(
                a == b and a.designator == b.designator
                for a, b in zip(self.instances, other.instances)
            )
            and list(self.subcircuits.items()) == list(other.subcircuits.items())
            and list(self.models.items()) == list(other.models.items())
            and self.global_nets == other.global_nets
            and self.directives == other.directives
            and self.rng_seed == other.rng_seed
        )

    def __repr__(self):
        return (
            f"Circuit(instances={len(self.instances)}, models={len(self.models)}, "
            f"subcircuits={len(self.subcircuits)}, seed={self.rng_seed})"
        )


def _iter_addable(element, place=None):
    """Flatten whatever `add` accepts into a stream of addable items.

    Manipulations and nested sequences flatten depth-first in child order;
    a manipulation yields `place(manipulation)`, when given, not its children.
    """
    from .manip import Manipulation  # local import avoids a cycle

    if isinstance(element, (Instance, Model, Subcircuit)):
        yield element
    elif isinstance(element, Manipulation):
        yield from element.children if place is None else place(element)
    elif isinstance(element, (str, bytes, dict)):
        raise TypeError(f"cannot add {type(element).__name__} to a container")
    elif isinstance(element, Iterable):
        for item in element:
            yield from _iter_addable(item, place)
    else:
        yield element  # let the caller produce its TypeError


def fix(subcircuit: Subcircuit) -> None:
    """Freeze a subcircuit so later additions raise FrozenSubcircuitError."""
    subcircuit.fix()
