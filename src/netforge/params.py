"""Parameter values, process-corner sets, random specs, and evaluation.

A parameter value is a finite number, verbatim text, a Formula, or a
RandomSpec, and a parameter name follows the identifier rule of
netforge.names ([A-Za-z_][A-Za-z0-9_]*), so every exported `k=v` names
something a formula can refer to. Text values are printed verbatim; lint,
not Params, reports one that is not one token (BAD_TOKEN). Evaluation
resolves formulas in dependency order and draws each random spec exactly
once per call from an explicit seeded generator, so a (params, context,
seed) triple always produces bitwise-identical numbers.

Everything about a parameter map that does not depend on the context or the
seed is analysed once, into a ParamPlan that the Params keeps: the constant
values, the random specs in name order (the draw order), and the formulas in
dependency order, where a formula depends on the formulas of the map that
its compiled program reads (Formula.identifiers, the program's read steps).
No analysis recurses, so a chain of formulas of any length orders, or
reports its cycle as a CyclicDependencyError. Once a text exporter asks,
the plan also keeps its token layout, with the constants' `name=value`
text, and its run function (ParamPlan.run), which a text exporter calls
once for every stretch of consecutive lines that share the plan, such as a
whole chain.

The run function is the plan's kernel, and the only renderer: one generated
function that draws, computes and formats this map's values for a run of
lines inline (ParamPlan._kernel), with RandomSpec.sample's and
Formula.evaluate's checks, error types and messages, and format_number's
rule (numfmt.line_source). Kernels are cached by plan shape, so plans that
differ only in their values, such as the merged maps of many primitive
instances with overrides, share one compile(). A kernel has one form: its
draws take the generator's 53-bit outputs from an iterator, such as a
stream drawn lane-parallel in chunks (rng.stream), a seed's outputs drawn
once and replayed, or a generator stepped one output at a time, and each
gives the bytes and errors of that generator. ParamPlan.evaluate (and
eval_params), RandomSpec.sample and Formula.evaluate are the per-value API,
and the reference that kernels are tested against.
Params, ParamSet and io_readers.ParamFile share one base, CheckedDict, whose
constructor, update, setdefault and |= insert through __setitem__. There a
Params checks the name and value and drops its plan (as deletion, pop,
popitem and clear do), so the next evaluation analyses the new contents; a
ParamSet or ParamFile makes each entry a Params or ParamSet, under a name
that must be non-empty text.
Evaluating or rendering through the plan gives the same values, drawn in the
same order, bit for bit, as analysing the map on every call.
"""

from __future__ import annotations

import functools
import math
from bisect import insort

from .errors import (
    CyclicDependencyError,
    InvalidDistributionError,
    NonFiniteResultError,
    Record,
    UnknownCornerError,
)
from .formula import NAMESPACE, Formula, read_context, splice
from .names import identifier, nonempty_text
from .numfmt import format_number, line_formats, line_source
from .rng import GAUSS, UNIT, UNIT_OPEN, Xoshiro256StarStar, as_generator

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


_DRAW_KINDS = ("gauss", "uniform", "lognormal")
# how a draw takes each generator output: the next 53-bit one from the
# kernel's stream
_TAKE = "x = take()"


class RandomSpec(Record):
    """Distribution descriptor: gauss(mean, std), uniform(lo, hi), lognormal(mu, sigma)."""

    _fields = ("kind", "a", "b")
    kind: str
    a: float
    b: float

    def __init__(self, kind: str, a: float, b: float):
        if kind not in _DRAW_KINDS:
            raise InvalidDistributionError(f"unknown distribution {kind!r}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidDistributionError(f"{kind} arguments must be finite")
        if kind in ("gauss", "lognormal") and b < 0:
            raise InvalidDistributionError(f"{kind} spread must be >= 0, got {b}")
        if kind == "uniform" and a > b:
            raise InvalidDistributionError(f"uniform bounds inverted: {a} > {b}")
        if kind == "uniform" and not math.isfinite(b - a):
            # every draw would be inf (or nan), so nothing could ever export
            raise InvalidDistributionError(f"uniform span overflows: {b} - {a} is not finite")
        Record.__init__(self, kind, a, b)

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


class CheckedDict(dict):
    """A dict whose constructor, update, setdefault, |= and | insert through
    __setitem__; copy() and | (this map on the left) keep the map's type."""

    __slots__ = ()

    def __init__(self, items=None):
        super().__init__()
        if items:
            self.update(items)

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

    def copy(self):
        return type(self)(self)

    def __or__(self, other):
        if not isinstance(other, dict):
            return NotImplemented
        return self.copy().__ior__(other)


class Params(CheckedDict):
    """Ordered parameter map; insertion order drives export order.

    Every name and value is checked on the way in, by every mutator. The
    ParamPlan built on first evaluation is kept until the next mutation.
    An unset plan slot (a map never mutated or planned, such as one that
    core._children made as dict.__new__(Params)) reads as no plan.
    """

    __slots__ = ("_plan",)

    def __setitem__(self, name, value):
        value = _check_value(identifier(name), value)
        self._plan = None
        super().__setitem__(name, value)

    def __delitem__(self, name):
        self._plan = None
        super().__delitem__(name)

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
        try:
            plan = self._plan
        except AttributeError:  # never mutated or planned
            plan = None
        if plan is None:
            plan = self._plan = ParamPlan(self)
        return plan

    def merged(self, overrides) -> "Params":
        """New Params with `overrides` shadowing (or extending) this map."""
        out = self.copy()
        out.update(overrides)
        return out

    def copy(self) -> "Params":
        out = dict.__new__(Params)
        # this map's values were checked when they were set
        dict.update(out, self)
        return out


class ParamSet(CheckedDict):
    """Named parameter corners, e.g. {"TT": Params(...), "FF": Params(...)}."""

    def __setitem__(self, name, params):
        nonempty_text(name, "corner name")
        super().__setitem__(name, params if isinstance(params, Params) else Params(params))

    def __missing__(self, name):
        raise UnknownCornerError(name, list(self))

    def corner(self, name: str) -> Params:
        """The Params for a corner; unknown names report the available corners."""
        return self[name]


def _formula_order(params: Params) -> list[str]:
    """Topological order of formula-valued parameters, ties broken by name.
    On a cycle, CyclicDependencyError names the one reached from the first
    unplaced formula by name along first unplaced dependencies by name (each
    unplaced formula has one, or the order would have placed it)."""
    formula_names = {n for n, v in params.items() if isinstance(v, Formula)}
    deps = {
        name: sorted(set(params[name].identifiers) & formula_names)
        for name in formula_names
    }
    indegree = {name: len(dlist) for name, dlist in deps.items()}
    dependents: dict[str, list[str]] = {name: [] for name in formula_names}
    for name, dlist in deps.items():
        for dep in dlist:
            dependents[dep].append(name)

    ready = sorted(name for name, deg in indegree.items() if deg == 0)
    order: list[str] = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for dependent in dependents[name]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                insort(ready, dependent)
    if len(order) != len(formula_names):
        placed = set(order)
        path = [min(formula_names - placed)]
        step = {}  # name -> its place on the path
        while path[-1] not in step:
            step[path[-1]] = len(path) - 1
            path.append(next(dep for dep in deps[path[-1]] if dep not in placed))
        raise CyclicDependencyError(path[step[path[-1]]:])
    return order


def _draw(kind: str, i: int) -> tuple[list[str], list[str]]:
    """Source for RandomSpec.sample of the spec `d{i}` into the local `v{i}`,
    with the same arithmetic, checks and messages, taking each of its
    outputs (_OUTPUTS[kind]) from the kernel's stream (_TAKE) and making
    its uniforms with rng.UNIT and rng.UNIT_OPEN. Returns (the lines that
    read the spec's arguments once per plan, the lines of the draw)."""
    a, b, target, spec = f"a{i}", f"b{i}", f"v{i}", f"d{i}"
    lines = [_TAKE]
    if kind == "uniform":
        # the span, as sample computes it; __post_init__ made sure it is finite
        arguments = [f"{a}, {b} = {spec}.a, {spec}.b - {spec}.a"]
        lines.append(f"{target} = {a} + {b} * ({UNIT})")
    else:
        arguments = [f"{a}, {b} = {spec}.a, {spec}.b"]
        lines += [f"u1 = {UNIT_OPEN}", _TAKE, f"u2 = {UNIT}", f"z = {GAUSS}"]
        if kind == "gauss":
            # a + b * generator.gauss(0.0, 1.0)
            lines.append(f"{target} = {a} + {b} * (0.0 + 1.0 * z)")
        else:
            # generator.lognormal(a, b)
            lines += [
                "try:",
                f"    {target} = math.exp({a} + {b} * z)",
                "except OverflowError:",
                f"    raise NonFiniteResultError('sample from %r overflowed' % ({spec},)) "
                "from None",
            ]
    lines.append(
        f"if not isfinite({target}): "
        f"raise NonFiniteResultError('sample from %r is not finite' % ({spec},))"
    )
    return arguments, lines


# distribution kind -> the generator outputs one draw takes
_OUTPUTS = {kind: _draw(kind, 0)[1].count(_TAKE) for kind in _DRAW_KINDS}


def _source(shape: tuple) -> tuple[str, tuple]:
    """The source of the run factory for a plan shape (see ParamPlan._kernel),
    and the names of the constants that its formulas read, in the order the
    factory takes them. The factory takes the line formats of the plan's
    layout (numfmt.line_formats) first: `fast` is None unless the shape's
    last item, `plain`, says the line text lets a line format at once."""
    names, kinds, order, plain = shape
    kind_of = dict(zip(names, kinds))
    # drawn and computed values and the constants formulas read -> their variables
    local: dict[str, str] = {}
    arguments: list[str] = []
    body: list[str] = []
    draws = sorted(name for name in names if kind_of[name] in _DRAW_KINDS)
    for i, name in enumerate(draws):
        read_arguments, lines = _draw(kind_of[name], i)
        arguments += read_arguments
        body += lines
        local[name] = f"v{i}"
    read_constants: list[str] = []
    from_context = []

    def read(temp: str, name: str) -> list[str]:
        if kind_of.get(name) == "text":
            message = f"identifier {name!r} refers to text, not a number"
            return [f"raise UnresolvedIdentifierError({message!r})"]
        if kind_of.get(name) == "number" and name not in local:
            local[name] = f"c{len(read_constants)}"
            read_constants.append(name)
        if name in local:
            return [f"{temp} = {local[name]}"]
        from_context.append(name)
        return read_context(temp, name)

    for k, name in enumerate(order):
        program = kind_of[name]
        body += splice(program, read)
        local[name] = f"r{k}"
        body.append(f"r{k} = {program[1]}")
    # the drawn and computed values, in map order, formatted into the line
    body += line_source([local[name] for name in names if kind_of[name] not in ("number", "text")],
                        plain)
    body.append("append(before + line)")
    if from_context:
        loop = [
            "for before, context in zip(befores, contexts):",
            "    if context is None: context = {}",
        ]
    else:
        loop = ["for before in befores:"]
    loop += ["    " + line for line in body]
    if draws:
        loop = ["take = rng.__next__", *loop]
    parameters = ["text", "fast", *(f"d{i}" for i in range(len(draws))),
                  *(f"c{i}" for i in range(len(read_constants)))]
    source = "\n".join([
        f"def factory({', '.join(parameters)}):",
        *("    " + line for line in arguments),
        "    def run(befores, contexts, rng, out):",
        "        append = out.append",
        *("        " + line for line in loop),
        "    return run",
    ])
    return source, tuple(read_constants)


@functools.lru_cache(maxsize=256)
def _factory(shape: tuple) -> tuple:
    """The compiled run factory of a plan shape, with the names of the
    constants it takes; one compile() per shape."""
    source, constants = _source(shape)
    namespace = dict(NAMESPACE, format_number=format_number)
    exec(compile(source, "<param plan>", "exec"), namespace)
    return namespace["factory"], constants


class ParamPlan:
    """What evaluating a parameter map needs that no context or seed changes:
    the constants, the random specs in name order, and the formulas in
    dependency order. Building one raises CyclicDependencyError on a cycle."""

    __slots__ = ("names", "constants", "randoms", "formulas", "_layout", "_run")

    def __init__(self, params):
        self.names = tuple(params)
        self._layout = None
        self._run = None
        self.constants = {}
        randoms = []
        for name, value in params.items():
            if isinstance(value, RandomSpec):
                randoms.append((name, value))
            elif not isinstance(value, Formula):
                self.constants[name] = value
        self.randoms = sorted(randoms, key=lambda item: item[0])
        self.formulas = [(name, params[name]) for name in _formula_order(params)]

    def layout(self) -> tuple:
        """This map's tokens (`name=value`, space-separated, in map order) as
        (head, ((name, tail), ...)): the head, then for each drawn or
        computed value its name and the text after it. Constants draw
        nothing and shadow the context, so their text is formatted here,
        once, into the head and tails: text verbatim, a number with
        format_number. Made on the first call and kept with the plan."""
        if self._layout is None:
            pieces = [""]
            slots = []
            for i, name in enumerate(self.names):
                space = " " if i else ""
                if name in self.constants:
                    value = self.constants[name]
                    text = value if isinstance(value, str) else format_number(value)
                    pieces[-1] += f"{space}{name}={text}"
                else:
                    pieces[-1] += f"{space}{name}="
                    slots.append(name)
                    pieces.append("")
            self._layout = (pieces[0], tuple(zip(slots, pieces[1:])))
        return self._layout

    def run(self):
        """This plan's kernel (_kernel), made on the first call and kept:
        `(befores, contexts, rng, out)` appends to `out` one netlist line per
        text in `befores`, that text followed by the tokens of layout(), with
        each drawn or computed value drawn from `rng`, an iterator over a
        generator's 53-bit outputs (rng.stream, an array of
        Xoshiro256StarStar.batch, or the generator itself), and formatted
        by format_number's rule. `contexts` holds each line's context (a
        mapping, or None for an empty one). Each line takes outputs() of
        them, and draws and computes exactly what evaluate does with that
        generator, in the same order, with the same checks and errors; the
        lines before one that raises stay in `out`."""
        if self._run is None:
            self._run = self._kernel()
        return self._run

    def outputs(self) -> int:
        """The generator outputs that one line of run() takes."""
        return sum(_OUTPUTS[spec.kind] for _, spec in self.randoms)

    def _kernel(self):
        """This plan's kernel: one generated function that renders a run of
        lines. For each line it takes each draw's outputs from the stream
        and makes the draw in place, in name order, with RandomSpec.sample's
        arithmetic, checks and messages (rng.UNIT, rng.UNIT_OPEN and
        rng.GAUSS on the 53-bit output); runs each formula's program
        (Formula.program) in dependency order, reading this plan's drawn and
        computed values from locals, its constants from the factory's
        arguments, and only other names from the line's context; and
        formats the line's values into the layout's text at once
        (numfmt.line_source, format_number's rule), after the line's
        `before`, which is never searched or mended. It holds no generator
        state: what it has taken from the stream is gone from it.

        The source depends only on the plan's shape: its names, the kind of
        each value (a number or text constant, a distribution kind, or a
        formula's program), the formulas' order and whether the layout's
        text lets a line format at once (numfmt.line_formats, decided here
        once per plan), so plans of one shape share one compile()
        (_factory). Every user value (the layout text, the specs, the
        constants) is an argument of the factory, which each plan calls
        once; user text reaches the source only as repr() literals of
        formula identifiers and messages."""
        randoms, formulas = dict(self.randoms), dict(self.formulas)
        kinds = tuple(
            randoms[name].kind if name in randoms
            else formulas[name].program() if name in formulas
            else "text" if isinstance(self.constants[name], str) else "number"
            for name in self.names
        )
        order = tuple(name for name, _ in self.formulas)
        head, slots = self.layout()
        text, fast = line_formats([head, *(tail for _, tail in slots)])
        factory, constants = _factory((self.names, kinds, order, fast is not None))
        return factory(
            text, fast, *[spec for _, spec in self.randoms],
            *[float(self.constants[name]) for name in constants],
        )

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


def plan_of(params) -> ParamPlan:
    """The plan of `params`: a Params keeps its own, a plain mapping gets a fresh one."""
    return params.plan if isinstance(params, Params) else ParamPlan(params)


def validate_dependencies(params: Params) -> None:
    """Raise CyclicDependencyError if formula references can never resolve.

    Cheap static check (no evaluation, no sampling): it builds the plan that
    later evaluations reuse, so failing fast at construction costs nothing
    extra at export.
    """
    plan_of(params)


def eval_params(params: Params, extra_context=None, rng=None) -> dict:
    """Resolve every parameter to a number or text.

    Random specs are sampled exactly once per call, in name-sorted order so
    the result is independent of parameter insertion order. Formulas are then
    evaluated after their dependencies; they may reference sibling parameters
    and `extra_context` names (sibling parameters shadow the context).
    """
    return plan_of(params).evaluate(extra_context, rng)
