"""Parameter values, process-corner sets, random specs, and evaluation.

A parameter value is a finite number, verbatim text, a Formula, or a
RandomSpec. Evaluation resolves formulas in dependency order and draws each
random spec exactly once per call from an explicit seeded generator, so a
(params, context, seed) triple always produces bitwise-identical numbers.

Everything about a parameter map that does not depend on the context or the
seed is analysed once, into a ParamPlan that the Params keeps: the constant
values, the random specs in name order (the draw order), and the formulas in
dependency order. Every mutation of a Params (item assignment or deletion,
update, setdefault, |=, pop, popitem, clear) goes through one checked path
that also drops the plan, so the next evaluation analyses the new contents.
Evaluating through the plan gives the same values, drawn in the same order,
bit for bit, as analysing the map on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CyclicDependencyError,
    InvalidDistributionError,
    NonFiniteResultError,
    UnknownCornerError,
)
from .formula import Formula
from .rng import Xoshiro256StarStar, as_generator

__all__ = [
    "Params",
    "ParamSet",
    "RandomSpec",
    "gauss",
    "uniform",
    "lognormal",
    "sample",
    "eval_params",
    "ParamPlan",
]


@dataclass(frozen=True)
class RandomSpec:
    """Distribution descriptor: gauss(mean, std), uniform(lo, hi), lognormal(mu, sigma)."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in ("gauss", "uniform", "lognormal"):
            raise InvalidDistributionError(f"unknown distribution {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidDistributionError(f"{self.kind} arguments must be finite")
        if self.kind in ("gauss", "lognormal") and self.b < 0:
            raise InvalidDistributionError(f"{self.kind} spread must be >= 0, got {self.b}")
        if self.kind == "uniform" and self.a > self.b:
            raise InvalidDistributionError(f"uniform bounds inverted: {self.a} > {self.b}")

    @property
    def args(self) -> tuple[float, float]:
        return (self.a, self.b)

    def sample(self, rng: Xoshiro256StarStar | int | None) -> float:
        gen = as_generator(rng)
        if self.kind == "gauss":
            value = self.a + self.b * gen.gauss(0.0, 1.0)
        elif self.kind == "uniform":
            # exact at a degenerate interval, and lo is always attainable
            value = self.a + (self.b - self.a) * gen.random()
        else:
            try:
                value = gen.lognormal(self.a, self.b)
            except OverflowError:
                raise NonFiniteResultError(f"sample from {self!r} overflowed") from None
        if not math.isfinite(value):
            raise NonFiniteResultError(f"sample from {self!r} is not finite")
        return value

    def __repr__(self):
        return f"{self.kind}({self.a}, {self.b})"


def gauss(mean: float, std: float) -> RandomSpec:
    return RandomSpec("gauss", float(mean), float(std))


def uniform(lo: float, hi: float) -> RandomSpec:
    return RandomSpec("uniform", float(lo), float(hi))


def lognormal(mu: float, sigma: float) -> RandomSpec:
    return RandomSpec("lognormal", float(mu), float(sigma))


def sample(spec: RandomSpec, rng: Xoshiro256StarStar | int | None) -> float:
    """Draw one value from `spec` using the given generator or seed."""
    return spec.sample(rng)


def _check_value(name, value):
    if isinstance(value, bool):
        raise TypeError(f"parameter {name!r}: bool is not a parameter value")
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ValueError(f"parameter {name!r} must be finite, got {value!r}")
        return value
    if isinstance(value, (str, Formula, RandomSpec)):
        return value
    raise TypeError(
        f"parameter {name!r}: expected number, text, Formula, or RandomSpec, "
        f"got {type(value).__name__}"
    )


class Params(dict):
    """Ordered parameter map; insertion order drives export order.

    Every value is checked on the way in, by every mutator. The ParamPlan
    built on first evaluation is kept until the next mutation.
    """

    __slots__ = ("_plan",)

    def __init__(self, values=None):
        super().__init__()
        self._plan = None
        if values:
            self.update(values)

    def __setitem__(self, name, value):
        if not isinstance(name, str) or not name:
            raise TypeError("parameter names must be non-empty strings")
        value = _check_value(name, value)
        self._plan = None
        super().__setitem__(name, value)

    def __delitem__(self, name):
        self._plan = None
        super().__delitem__(name)

    def update(self, *args, **kwargs):
        for name, value in dict(*args, **kwargs).items():
            self[name] = value

    def setdefault(self, name, default=None):
        if name not in self:
            self[name] = default
        return self[name]

    def __ior__(self, other):
        self.update(other)
        return self

    def pop(self, name, *default):
        self._plan = None
        return super().pop(name, *default)

    def popitem(self):
        self._plan = None
        return super().popitem()

    def clear(self):
        self._plan = None
        super().clear()

    def __reduce__(self):
        # copies and pickles carry the values only, never the cached plan
        return (Params, (dict(self),))

    @property
    def plan(self) -> "ParamPlan":
        """The analysis of the current contents, built on first use."""
        if self._plan is None:
            self._plan = ParamPlan(self)
        return self._plan

    def merged(self, overrides) -> "Params":
        """New Params with `overrides` shadowing (or extending) this map."""
        out = self.copy()
        out.update(overrides)
        return out

    def copy(self) -> "Params":
        out = Params()
        # this map's values were checked when they were set
        dict.update(out, self)
        return out


class ParamSet(dict):
    """Named parameter corners, e.g. {"TT": Params(...), "FF": Params(...)}."""

    def __init__(self, corners=None):
        super().__init__()
        if corners:
            for name, params in dict(corners).items():
                self[name] = params

    def __setitem__(self, name, params):
        if not isinstance(name, str) or not name:
            raise TypeError("corner names must be non-empty strings")
        super().__setitem__(name, params if isinstance(params, Params) else Params(params))

    def __missing__(self, name):
        raise UnknownCornerError(name, list(self))

    def corner(self, name: str) -> Params:
        """The Params for a corner; unknown names report the available corners."""
        return self[name]


def _formula_order(params: Params) -> list[str]:
    """Topological order of formula-valued parameters, ties broken by name."""
    formula_names = {n for n, v in params.items() if isinstance(v, Formula)}
    deps = {
        name: sorted(set(params[name].identifiers) & formula_names)
        for name in formula_names
    }
    # edges run dep -> name
    indegree = {name: len(deps[name]) for name in formula_names}
    dependents: dict[str, list[str]] = {name: [] for name in formula_names}
    for name, dlist in deps.items():
        for dep in dlist:
            dependents[dep].append(name)

    ready = sorted(name for name, deg in indegree.items() if deg == 0)
    order: list[str] = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        freed = []
        for dependent in dependents[name]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                freed.append(dependent)
        if freed:
            ready = sorted(ready + freed)
    if len(order) != len(formula_names):
        raise CyclicDependencyError(_find_cycle(deps, set(order)))
    return order


def _find_cycle(deps: dict[str, list[str]], done: set[str]) -> list[str]:
    remaining = [n for n in sorted(deps) if n not in done]
    stack: list[str] = []
    on_stack: set[str] = set()
    visited: set[str] = set()

    def walk(node: str):
        stack.append(node)
        on_stack.add(node)
        for dep in deps[node]:
            if dep in done:
                continue
            if dep in on_stack:
                start = stack.index(dep)
                return stack[start:] + [dep]
            if dep not in visited:
                found = walk(dep)
                if found:
                    return found
        on_stack.discard(node)
        visited.add(stack.pop())
        return None

    for node in remaining:
        if node not in visited:
            cycle = walk(node)
            if cycle:
                return cycle
    return remaining  # unreachable in practice


class ParamPlan:
    """What evaluating a parameter map needs that no context or seed changes:
    the constants, the random specs in name order, and the formulas in
    dependency order. Building one raises CyclicDependencyError on a cycle."""

    __slots__ = ("names", "constants", "randoms", "formulas")

    def __init__(self, params):
        self.names = tuple(params)
        self.constants = {}
        randoms = []
        for name, value in params.items():
            if isinstance(value, RandomSpec):
                randoms.append((name, value))
            elif not isinstance(value, Formula):
                self.constants[name] = value
        self.randoms = sorted(randoms, key=lambda item: item[0])
        self.formulas = [(name, params[name]) for name in _formula_order(params)]

    def evaluate(self, extra_context=None, rng=None) -> dict:
        """Resolve every parameter; see eval_params."""
        gen = as_generator(rng)
        scope = dict(extra_context) if extra_context else {}
        scope.update(self.constants)
        for name, spec in self.randoms:
            scope[name] = spec.sample(gen)
        for name, formula in self.formulas:
            scope[name] = formula.evaluate(scope)
        return {name: scope[name] for name in self.names}


def _plan_of(params) -> ParamPlan:
    # a plain mapping gets a fresh plan; a Params keeps its own
    return params.plan if isinstance(params, Params) else ParamPlan(params)


def validate_dependencies(params: Params) -> None:
    """Raise CyclicDependencyError if formula references can never resolve.

    Cheap static check (no evaluation, no sampling): it builds the plan that
    later evaluations reuse, so failing fast at construction costs nothing
    extra at export.
    """
    _plan_of(params)


def eval_params(params: Params, extra_context=None, rng=None) -> dict:
    """Resolve every parameter to a number or text.

    Random specs are sampled exactly once per call, in name-sorted order so
    the result is independent of parameter insertion order. Formulas are then
    evaluated after their dependencies; they may reference sibling parameters
    and `extra_context` names (sibling parameters shadow the context).
    """
    return _plan_of(params).evaluate(extra_context, rng)
