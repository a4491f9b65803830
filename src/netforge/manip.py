"""Manipulation combinators: bulk instantiation with deterministic wiring.

A Manipulation is an ordered batch of instances. Combinators are pure
functions of their arguments (plus an explicit seed where randomness is
involved), so equal calls produce equal batches. Batches compose: they can
be concatenated, fed to Inject, or added to circuits and subcircuits
wherever a sequence of instances is accepted.

Chains wire consecutive instances through generated link nets, which a
circuit names net_<k>_<i> with k taken from its per-circuit chain counter
(so two chains in one circuit never collide, and golden files stay stable).
A chain made before insertion, because its children were read, holds
PendingNet placeholders for those nets until then.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from . import names
from .core import (
    GND,
    Component,
    Instance,
    Net,
    PendingNet,
    _children,
    _LinkGroup,
    _made,
    _rebound_nets,
    as_instance,
    as_net,
)
from .errors import (
    InvalidProbabilityError,
    PortFnArityError,
    PortOutOfRangeError,
    SamePortError,
    ZeroLengthError,
)
from .rng import as_generator

__all__ = ["Manipulation", "Parallel", "Chain", "NamedChain", "Array", "Inject", "concat"]


class Manipulation:
    """An ordered, iterable batch of instances.

    Children can be read and replaced in place before insertion; nested
    manipulations flatten depth-first at construction. The combinators set
    `children` to the instances they make; Chain, NamedChain and Inject
    make them (`_make`) when first read, or when a scope places the batch
    (`_place`), and keep them. Until then their length is `_size`.
    """

    _list = None

    def __init__(self, children=None):
        self.children = []
        if children is not None:
            self._extend(children)

    @property
    def children(self) -> list[Instance]:
        if self._list is None:
            self._list = self._make()
        return self._list

    @children.setter
    def children(self, value) -> None:
        self._list = value

    def _extend(self, children) -> None:
        for child in children:
            if isinstance(child, Manipulation):
                self.children.extend(child.children)
            elif isinstance(child, Instance):
                self.children.append(child)
            else:
                raise TypeError(
                    f"manipulations hold instances, got {type(child).__name__}"
                )

    def __iter__(self):
        return iter(self.children)

    def __len__(self) -> int:
        return self._size if self._list is None else len(self._list)

    def __getitem__(self, index):
        return self.children[index]

    def __setitem__(self, index, value):
        self.children[index] = value

    def __add__(self, other) -> "Manipulation":
        return concat([self, other])

    def __repr__(self):
        return f"{type(self).__name__}({len(self)} instances)"

    def _place(self, scope) -> list | None:
        """None: the children are inserted one by one (see Chain._place)."""
        return None


class Parallel(Manipulation):
    """n copies of a template, every copy on the template's own nets."""

    def __init__(self, template, n: int):
        if n < 0:
            raise ValueError(f"parallel count must be >= 0, got {n}")
        proto = as_instance(template)
        self.children = _children(proto, [proto.nets] * n)


def _chain_plan(template, n, in_port, out_port, out_name=None) -> tuple:
    """A chain's template instance, nets (`out_name`, when given, replacing
    the out_port net), in_port and out_port, its arguments checked."""
    proto = as_instance(template)
    arity = proto.arity
    if n < 1:
        raise ZeroLengthError(f"a chain needs at least one instance, got n={n}")
    if out_port is None:
        out_port = arity - 1
    for port in (in_port, out_port):
        if not 0 <= port < arity:
            raise PortOutOfRangeError(
                f"port {port} out of range for {arity}-port template"
            )
    if in_port == out_port:
        raise SamePortError(f"in_port and out_port are both {in_port}")
    nets = list(proto.nets)
    if out_name is not None:
        nets[out_port] = as_net(out_name)
    return proto, nets, in_port, out_port


class Chain(Manipulation):
    """n instances in a daisy chain from in_port to out_port.

    Instance i+1's in_port shares a generated net with instance i's
    out_port; the first in_port and last out_port keep the template's own
    nets, so they remain the chain's external terminals. Ports default to
    the first and last.
    """

    def __init__(self, template, n: int, in_port: int = 0, out_port: int | None = None):
        self._plan, self._size = _chain_plan(template, n, in_port, out_port), n

    def _make(self, scope=None, designators=None) -> list:
        """The children, on PendingNets or on the link Nets `scope` names."""
        proto, nets, in_port, out_port = self._plan
        n = self._size
        group = _LinkGroup(n - 1)
        if scope is None:
            links = _made(PendingNet, n - 1, group=repeat(group), index=range(n - 1))
        else:
            links = scope._link_nets(group) if n > 1 else []
        # instance i joins link i-1 on in_port and link i on out_port
        columns = [repeat(net, n) for net in nets]
        columns[in_port] = [nets[in_port], *links]
        columns[out_port] = [*links, nets[out_port]]
        return _children(proto, zip(*columns), designators)

    def _placeable(self) -> bool:
        # a template on another chain's links is relinked net by net, in order
        return self._list is None and PendingNet not in map(type, self._plan[1])

    def _place(self, scope) -> list | None:
        """The children made on `scope`'s link Nets, if not made yet."""
        if not self._placeable():
            return None
        template = self._plan[0].template
        scope._uses(template)
        self._list = self._make(scope, scope._designators(template.prefix, self._size))
        return self._list


class NamedChain(Chain):
    """Like Chain, but the final out_port net is renamed to `out_name`."""

    def __init__(
        self,
        template,
        n: int,
        in_port: int = 0,
        out_port: int | None = None,
        out_name: str = "",
    ):
        # an empty name would leave the end unconnected
        names.token(out_name, "out_name")
        self._plan, self._size = _chain_plan(template, n, in_port, out_port, out_name), n


class Array(Manipulation):
    """A 1D or 2D grid of instances wired through a coordinate function.

    `port_fn` receives the index i (1D) or the tuple (x, y) (2D, row-major)
    and returns up to arity nets; unreturned ports keep the template's nets.
    Each instance also gets its coordinates as `_i` (or `_x`/`_y`) in its
    formula-evaluation context, so parameters can depend on position.
    """

    def __init__(self, shape, template, port_fn=None):
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(shape)
        if len(shape) not in (1, 2) or any(
            not isinstance(d, int) or d < 1 for d in shape
        ):
            raise ValueError(f"shape must be (len,) or (rows, cols) with dims >= 1, got {shape}")

        coords: list
        if len(shape) == 1:
            coords = [(i, {"_i": i}) for i in range(shape[0])]
        else:
            coords = [
                ((x, y), {"_x": x, "_y": y})
                for x in range(shape[0])
                for y in range(shape[1])
            ]

        proto = as_instance(template)
        nets_list = [proto.nets] * len(coords)
        if port_fn is not None:
            for k, (coord, _) in enumerate(coords):
                returned = port_fn(coord)
                if isinstance(returned, (str, int, Net, PendingNet)):
                    returned = [returned]
                returned = [as_net(n) for n in returned]
                if len(returned) > proto.arity:
                    raise PortFnArityError(
                        f"port function returned {len(returned)} nets for a "
                        f"{proto.arity}-port template"
                    )
                nets_list[k] = (*returned, *proto.nets[len(returned):])
        self.children = _children(proto, nets_list)
        for inst, (_, context) in zip(self.children, coords):
            inst.context.update(context)


_DEFAULT_DEFECT = Component("Res", ["", "GND"], {"R": 1e4}, prefix="R")


class Inject(Manipulation):
    """Probabilistic defect insertion over a batch of instances.

    Each incoming instance is emitted unchanged; with probability p a defect
    instance is emitted just before it, wired from the instance's last port
    to GND. The default defect is a 10 kOhm resistor. `rng` is a seed or
    generator; equal seeds reproduce the same defect pattern.

    The batch draws once, when constructed: one random() per child, in child
    order, in one call (Xoshiro256StarStar.randoms), so the pattern and the
    generator's state are those of a draw per child. `defect` is
    instantiated and checked only when one is drawn, and the defects are
    made only when the children are read or placed, so a build's budget
    counts them first. Over a chain whose children are not made yet, a
    scope places the chain first, and the defects tap its link Nets; any
    other batch is listed at once, and its defects made on first read.
    """

    def __init__(self, children, p: float = 0.5, defect=None, rng=None):
        if not 0.0 <= p <= 1.0:
            raise InvalidProbabilityError(f"probability must be in [0, 1], got {p}")
        gen = as_generator(rng)
        if not (isinstance(children, Chain) and children._list is None):
            children = [c if isinstance(c, Instance) else as_instance(c) for c in children]
        self._source = children
        self._hits = [k for k, u in enumerate(gen.randoms(len(children))) if u < p]
        self._size = len(children) + len(self._hits)
        if self._hits:
            self._defect = as_instance(defect if defect is not None else _DEFAULT_DEFECT)
            _rebound_nets(self._defect, (GND, GND))  # its arity, checked as rebind does

    def _make(self, children=None, designators=None) -> list:
        """`children` (the source's), a defect with `designators` before each hit."""
        children = list(self._source) if children is None else children
        hits = self._hits
        if not hits:
            return children
        rows = [(children[k].nets[-1], GND) for k in hits]
        out, start = [], 0
        for k, made in zip(hits, _children(self._defect, rows, designators)):
            out += children[start:k]
            out.append(made)
            start = k
        out += children[start:]
        return out

    def _place(self, scope) -> list | None:
        source, hits = self._source, self._hits
        if self._list is not None or isinstance(source, list) or not source._placeable():
            return None
        if not hits:  # the batch is the chain's children
            return source._place(scope)
        defect = self._defect.template
        if defect.prefix == source._plan[0].template.prefix:
            return None  # one counter, in batch order: numbered one by one
        # different prefixes: at most one template is a Subcircuit, so
        # _uses may come in any order, and fail before anything is placed
        scope._uses(defect)
        children = source._place(scope)
        self._list = self._make(children, scope._designators(defect.prefix, len(hits)))
        return self._list


def concat(manips: Iterable) -> Manipulation:
    """Concatenate batches (or bare instances) into one, in order."""
    return Manipulation(manips)
