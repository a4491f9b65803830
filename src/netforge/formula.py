"""Arithmetic formula language for dynamically computed parameters.

Grammar, loosest to tightest binding:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?            right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Unary minus binds looser than '^', so "-x^2" parses as "-(x^2)", while the
exponent itself may be negated: "2^-3". Known functions: min, max, abs,
sqrt, exp, ln, log10, pow. A NUMBER past the float range ("1e999") is a
FormulaSyntaxError. Formula.from_ast keeps only a tree that parsing its own
text gives back, as every tree the parser makes does.

Nesting is capped at MAX_DEPTH levels, counted across parentheses, unary
minus, '^' and calls while parsing, and over the finished tree's depth, so
every recursive walk stays far from Python's recursion limit; deeper text,
or a deeper tree given to Formula.from_ast, raises FormulaSyntaxError.

There is one compiler, _compile, called once per Formula (Formula.program):
it turns the AST into straight-line Python source, one step per operation
and one per identifier read, which checks every result for finiteness,
division by zero and unresolved or text identifiers, with the error types
in errors.py. Formula.evaluate runs that source as a function over its
mapping (compiled once per distinct program, _function); the kernels of
params.ParamPlan splice the same steps into a netlist line's code and read
the plan's own values from locals instead of the mapping. What a formula
reads, Formula.identifiers, is the names of its program's read steps, so
the compiler alone defines it, and params orders formulas by it. Generated source
holds user text only as repr() literals. A plain tree walk with the same
arithmetic and checks lives in tests/test_formula.py as the reference the
compiled formulas are compared with.
"""

from __future__ import annotations

import functools
import math
import re

from .errors import (
    DivisionByZeroError,
    FormulaSyntaxError,
    NonFiniteResultError,
    Record,
    UnknownFunctionError,
    UnresolvedIdentifierError,
)
from .numfmt import format_number

__all__ = ["Formula", "parse_formula", "Num", "Var", "Neg", "BinOp", "Call"]

# deeper formulas raise FormulaSyntaxError instead of exhausting the stack
MAX_DEPTH = 100


class Num(Record):
    # Always non-negative: negative literals parse as Neg(Num(...)).
    _fields = ("value",)
    value: float


class Var(Record):
    _fields = ("name",)
    name: str


class Neg(Record):
    _fields = ("operand",)
    operand: Expr


class BinOp(Record):
    _fields = ("op", "left", "right")
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


class Call(Record):
    _fields = ("func", "args")
    func: str
    args: tuple[Expr, ...]


Expr = Num | Var | Neg | BinOp | Call

# name -> (min arity, max arity or None for unbounded)
FUNCTIONS = {
    "min": (2, None),
    "max": (2, None),
    "abs": (1, 1),
    "sqrt": (1, 1),
    "exp": (1, 1),
    "ln": (1, 1),
    "log10": (1, 1),
    "pow": (2, 2),
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def enter(self, offset: int):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", offset)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != symbol:
            raise FormulaSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {value!r}", offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            self.enter(offset)
            node = Neg(self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            self.enter(offset)
            node = BinOp("^", node, self.unary())
            self.depth -= 1
        return node

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "number":
            number = float(value)
            if number == math.inf:
                raise FormulaSyntaxError(f"number out of range: {value}", offset)
            return Num(number)
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                return self.call(value, offset)
            return Var(value)
        if kind == "op" and value == "(":
            self.enter(offset)
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        if kind == "end":
            raise FormulaSyntaxError("unexpected end of formula", offset)
        raise FormulaSyntaxError(f"unexpected {value!r}", offset)

    def call(self, func: str, offset: int) -> Expr:
        if func not in FUNCTIONS:
            raise UnknownFunctionError(f"unknown function {func!r}", offset)
        self.expect_op("(")
        self.enter(offset)
        args = [self.expr()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        self.depth -= 1
        lo, hi = FUNCTIONS[func]
        if len(args) < lo or (hi is not None and len(args) > hi):
            expected = str(lo) if hi == lo else f"at least {lo}"
            raise FormulaSyntaxError(
                f"{func}() expects {expected} argument(s), got {len(args)}", offset
            )
        return Call(func, tuple(args))


def _parse_text(text: str) -> Expr:
    if not isinstance(text, str):
        raise TypeError(f"formula text must be str, not {type(text).__name__}")
    if not text.strip():
        raise FormulaSyntaxError("empty formula", 0)
    node = _Parser(text).parse()
    # a long chain such as "1+1+...+1" parses in a loop but still nests deeply
    _check_depth(node)
    return node


def _check_depth(node: Expr) -> None:
    if _depth(node) > MAX_DEPTH:
        raise FormulaSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", 0)


def _children(node: Expr) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def _depth(node: Expr) -> int:
    """Operators on the tree's longest path (a leaf is 0), found without recursion."""
    deepest = 0
    stack = [(node, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in _children(node))
    return deepest


# precedence levels used by the unparser; atoms are 5
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _LEVEL[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def _wrap(node: Expr, minimum: int) -> str:
    text = unparse(node)
    return f"({text})" if _prec(node) < minimum else text


def unparse(node: Expr) -> str:
    """Render an AST back to text; parse(unparse(ast)) == ast for a tree the
    parser makes. A value that is not a formula node raises TypeError."""
    if isinstance(node, Num) and isinstance(node.value, (int, float)):
        return format_number(node.value)
    if isinstance(node, Var) and isinstance(node.name, str):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, 3)
    if isinstance(node, BinOp) and node.op in _LEVEL:
        level = _LEVEL[node.op]
        if node.op == "^":
            # right-associative; the exponent may carry a unary minus
            return f"{_wrap(node.left, 5)}^{_wrap(node.right, 3)}"
        left = _wrap(node.left, level)
        right = _wrap(node.right, level + 1)
        return f"{left} {node.op} {right}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(unparse(a) for a in node.args)})"
    raise TypeError(f"not a formula node: {node!r}")


def _non_finite(value) -> NonFiniteResultError:
    return NonFiniteResultError(f"formula produced non-finite value {value!r}")


def _call_error(func: str, args, exc: Exception) -> NonFiniteResultError:
    return NonFiniteResultError(f"{func}({', '.join(map(repr, args))}): {exc}")


# --- the compiler: straight-line source -------------------------------------------------

# the functions that can fail, as generated code calls them
_MATH_CALLS = {
    "sqrt": "math.sqrt", "exp": "math.exp", "ln": "math.log", "log10": "math.log10",
    "pow": "math.pow",
}

# the globals of generated code: formula functions here, plan kernels in params
NAMESPACE = {
    "math": math,
    "isfinite": math.isfinite,
    "_non_finite": _non_finite,
    "_call_error": _call_error,
    "DivisionByZeroError": DivisionByZeroError,
    "NonFiniteResultError": NonFiniteResultError,
    "UnresolvedIdentifierError": UnresolvedIdentifierError,
}


def _literal(value) -> str:
    """A number as a Python literal with exactly its value (never user text):
    an int or a finite float, the only literals the parser and from_ast keep."""
    text = float.__repr__(value) if isinstance(value, float) else int.__repr__(value)
    return f"({text})" if text[0] == "-" else text


def read_context(temp: str, name: str) -> list[str]:
    """Source that reads identifier `name` from the mapping `context` into `temp`
    as a float, with the errors of an unknown or text identifier."""
    return [
        "try:",
        f"    {temp} = context[{name!r}]",
        "except KeyError:",
        f"    raise UnresolvedIdentifierError({f'unknown identifier {name!r}'!r}) from None",
        f"if isinstance({temp}, str):",
        "    raise UnresolvedIdentifierError("
        f"{f'identifier {name!r} refers to text, not a number'!r})",
        f"{temp} = float({temp})",
    ]


def _compile(node: Expr) -> tuple:
    """Compile an AST into straight-line source, as (steps, result): the
    tree's arithmetic in evaluation order (operands left to right, then the
    operation), one step per operation with its finiteness, division-by-zero
    and domain checks and their error types, and one step per identifier
    read. A step is a line of source, or a read: the pair (temp, name),
    which the user of the program turns into source that puts the value of
    identifier `name` into `temp` (read_context for a mapping; a plan kernel
    reads its own values from locals). `result` is the expression, a temp or
    a literal, that holds the value. Temps are `_t0`, `_t1`, ...; user text
    reaches the source only as repr() literals."""
    steps: list = []
    temps: list[str] = []

    def fresh() -> str:
        temps.append(f"_t{len(temps)}")
        return temps[-1]

    def emit(node) -> str:
        if isinstance(node, Num):
            return _literal(node.value)
        if isinstance(node, Var):
            steps.append((fresh(), node.name))
            return temps[-1]
        if isinstance(node, Neg):
            operand = emit(node.operand)
            steps.append(f"{fresh()} = -{operand}")
            return temps[-1]
        if isinstance(node, BinOp) and node.op in _LEVEL:
            left, right = emit(node.left), emit(node.right)
            temp = fresh()
            if node.op == "/":
                message = f"division by zero in {unparse(node)!r}"
                steps.append(f"if {right} == 0.0: raise DivisionByZeroError({message!r})")
            if node.op == "^":
                message = f"zero raised to negative power in {unparse(node)!r}"
                steps.extend([
                    f"if {left} == 0.0 and {right} < 0.0: "
                    f"raise DivisionByZeroError({message!r})",
                    "try:",
                    f"    {temp} = math.pow({left}, {right})",
                    "except (ValueError, OverflowError) as exc:",
                    f"    raise NonFiniteResultError({f'{unparse(node)!r}: '!r} + str(exc)) "
                    "from exc",
                ])
            else:
                steps.append(f"{temp} = {left} {node.op} {right}")
        elif isinstance(node, Call) and node.func in FUNCTIONS:
            args = [emit(arg) for arg in node.args]
            temp = fresh()
            if node.func in ("min", "max"):
                steps.append(f"{temp} = {node.func}(({', '.join(args)},))")
            elif node.func == "abs":
                steps.append(f"{temp} = abs({args[0]})")
            else:
                used = args[:2] if node.func == "pow" else args[:1]
                steps.extend([
                    "try:",
                    f"    {temp} = {_MATH_CALLS[node.func]}({', '.join(used)})",
                    "except (ValueError, OverflowError) as exc:",
                    f"    raise _call_error({node.func!r}, ({', '.join(used)},), exc) from exc",
                ])
        else:
            raise TypeError(f"not a formula node: {node!r}")
        steps.append(f"if not isfinite({temp}): raise _non_finite({temp})")
        return temp

    result = emit(node)
    return tuple(steps), result


def splice(program: tuple, read) -> list[str]:
    """The lines of a compiled program, with `read(temp, name)` giving the
    lines of each identifier read."""
    lines: list[str] = []
    for step in program[0]:
        if isinstance(step, tuple):
            lines.extend(read(*step))
        else:
            lines.append(step)
    return lines


@functools.lru_cache(maxsize=1024)
def _function(program: tuple):
    """`fn(context) -> float` running `program` over the mapping `context`.
    Equal programs share one function, so equal formulas compile once."""
    body = splice(program, read_context)
    source = "\n    ".join(["def formula(context):", *body, f"return {program[1]}"])
    namespace = dict(NAMESPACE)
    exec(compile(source, "<formula>", "exec"), namespace)
    return namespace["formula"]


class Formula(Record):
    """A parsed arithmetic expression over parameter names.

    Formulas compare equal when their ASTs are equal, regardless of the
    whitespace in the original text. Instances are immutable. The program
    compiled on first use and the function evaluate() runs are caches in
    slots left unset until then; copies and pickles carry the text and the
    AST only, and compile again when first used.
    """

    __slots__ = ("text", "ast", "_program", "_function")
    _fields = ("text", "ast")
    text: str
    ast: Expr

    def __init__(self, text: str):
        Record.__init__(self, text, _parse_text(text))

    @classmethod
    def from_ast(cls, ast: Expr) -> "Formula":
        """The Formula of `ast`, which parsing its own text must give back, as
        for every tree the parser makes: else a FormulaSyntaxError, or a
        TypeError for a value that is not a formula node."""
        _check_depth(ast)  # before unparse, which recurses
        try:
            text = unparse(ast)
        except (ValueError, OverflowError) as exc:  # a literal format_number refuses
            raise FormulaSyntaxError(f"no text holds this tree: {exc}", 0) from None
        if _parse_text(text) != ast:
            raise FormulaSyntaxError(f"{text!r} does not parse back to {ast!r}", 0)
        self = cls.__new__(cls)
        Record.__init__(self, text, ast)
        return self

    @property
    def identifiers(self) -> list[str]:
        """The distinct identifiers this formula reads, in the order its
        program first reads them: the names of the program's read steps."""
        reads = [step[1] for step in self.program()[0] if isinstance(step, tuple)]
        return list(dict.fromkeys(reads))

    def program(self) -> tuple:
        """This formula's straight-line source (see _compile), made on first use."""
        try:
            return self._program
        except AttributeError:  # not made yet
            program = _compile(self.ast)
            object.__setattr__(self, "_program", program)
            return program

    def evaluate(self, context) -> float:
        """Value under `context` (identifier -> number), via the compiled program."""
        try:
            function = self._function
        except AttributeError:  # not made yet
            function = _function(self.program())
            object.__setattr__(self, "_function", function)
        return function(context)

    def unparse(self) -> str:
        return unparse(self.ast)

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return self.ast == other.ast

    def __hash__(self):
        return hash(self.ast)

    def __repr__(self):
        return f"Formula({self.text!r})"


def parse_formula(text: str) -> Formula:
    """Parse formula text into a Formula; raises FormulaSyntaxError on bad input."""
    return Formula(text)
