"""Manipulation combinators: bulk instantiation with deterministic wiring.

A Manipulation is an ordered batch of instances. Combinators are pure
functions of their arguments (plus an explicit seed where randomness is
involved), so equal calls produce equal batches. Batches compose: they can
be concatenated, fed to Inject, or added to circuits and subcircuits
wherever a sequence of instances is accepted.

Chains wire consecutive instances through generated link nets. Those nets
are placeholders until the batch enters a circuit, which names them
net_<k>_<i> with k taken from its per-circuit chain counter (so two chains
in one circuit never collide, and golden files stay stable).
"""

from __future__ import annotations

from typing import Iterable

from . import names
from .core import (
    Component,
    Instance,
    Net,
    PendingNet,
    _LinkGroup,
    as_instance,
    as_net,
    rebind,
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
    manipulations flatten depth-first at construction.
    """

    def __init__(self, children=None):
        self.children: list[Instance] = []
        if children is not None:
            self._extend(children)

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
        return len(self.children)

    def __getitem__(self, index):
        return self.children[index]

    def __setitem__(self, index, value):
        self.children[index] = value

    def __add__(self, other) -> "Manipulation":
        return concat([self, other])

    def __repr__(self):
        return f"{type(self).__name__}({len(self.children)} instances)"


class Parallel(Manipulation):
    """n copies of a template, every copy on the template's own nets."""

    def __init__(self, template, n: int):
        if n < 0:
            raise ValueError(f"parallel count must be >= 0, got {n}")
        super().__init__(as_instance(template) for _ in range(n))


def _chain_children(template, n, in_port, out_port):
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

    group = _LinkGroup()
    links = [PendingNet(group, i) for i in range(n - 1)]
    children = []
    for i in range(n):
        inst = as_instance(template)
        nets = list(inst.nets)
        if i > 0:
            nets[in_port] = links[i - 1]
        if i < n - 1:
            nets[out_port] = links[i]
        inst.nets = tuple(nets)
        children.append(inst)
    return children, out_port


class Chain(Manipulation):
    """n instances in a daisy chain from in_port to out_port.

    Instance i+1's in_port shares a generated net with instance i's
    out_port; the first in_port and last out_port keep the template's own
    nets, so they remain the chain's external terminals. Ports default to
    the first and last.
    """

    def __init__(self, template, n: int, in_port: int = 0, out_port: int | None = None):
        children, _ = _chain_children(template, n, in_port, out_port)
        super().__init__(children)


class NamedChain(Manipulation):
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
        children, out_port = _chain_children(template, n, in_port, out_port)
        last = children[-1]
        nets = list(last.nets)
        nets[out_port] = as_net(out_name)
        last.nets = tuple(nets)
        super().__init__(children)


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

        children = []
        for coord, context in coords:
            inst = as_instance(template)
            if port_fn is not None:
                returned = port_fn(coord)
                if isinstance(returned, (str, int, Net, PendingNet)):
                    returned = [returned]
                returned = [as_net(n) for n in returned]
                if len(returned) > inst.arity:
                    raise PortFnArityError(
                        f"port function returned {len(returned)} nets for a "
                        f"{inst.arity}-port template"
                    )
                nets = list(inst.nets)
                nets[: len(returned)] = returned
                inst.nets = tuple(nets)
            inst.context.update(context)
            children.append(inst)
        super().__init__(children)


_DEFAULT_DEFECT = Component("Res", ["", "GND"], {"R": 1e4}, prefix="R")


class Inject(Manipulation):
    """Probabilistic defect insertion over a batch of instances.

    Each incoming instance is emitted unchanged; with probability p a defect
    instance is emitted just before it, wired from the instance's last port
    to GND. The default defect is a 10 kOhm resistor. `rng` is a seed or
    generator; equal seeds reproduce the same defect pattern.
    """

    def __init__(self, children, p: float = 0.5, defect=None, rng=None):
        if not 0.0 <= p <= 1.0:
            raise InvalidProbabilityError(f"probability must be in [0, 1], got {p}")
        gen = as_generator(rng)
        defect = defect if defect is not None else _DEFAULT_DEFECT
        out = []
        for child in children:
            if not isinstance(child, Instance):
                child = as_instance(child)
            if gen.random() < p:
                out.append(rebind(defect, [child.nets[-1], "GND"]))
            out.append(child)
        super().__init__(out)


def concat(manips: Iterable) -> Manipulation:
    """Concatenate batches (or bare instances) into one, in order."""
    return Manipulation(manips)
