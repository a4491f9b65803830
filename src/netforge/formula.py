"""Arithmetic formula language for dynamically computed parameters.

Grammar, loosest to tightest binding:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?            right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Unary minus binds looser than '^', so "-x^2" parses as "-(x^2)", while the
exponent itself may be negated: "2^-3". Known functions: min, max, abs,
sqrt, exp, ln, log10, pow.

Nesting is capped at MAX_DEPTH levels, counted across parentheses, unary
minus, '^' and calls while parsing, and over the finished tree's depth, so
every recursive walk stays far from Python's recursion limit; deeper text
raises FormulaSyntaxError.

Formula.evaluate compiles its AST once, on first use, into a closure that it
keeps on the Formula; later calls run the closure instead of walking the tree.
The closure performs the same arithmetic in the same order, with the same
checks and error types (finiteness, division by zero, unresolved or text
identifiers), as the tree-walking evaluate(node, context), which stays the
reference.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

from .errors import (
    DivisionByZeroError,
    FormulaSyntaxError,
    NonFiniteResultError,
    UnknownFunctionError,
    UnresolvedIdentifierError,
)
from .numfmt import format_number

__all__ = ["Formula", "parse_formula", "Num", "Var", "Neg", "BinOp", "Call"]

# deeper formulas raise FormulaSyntaxError instead of exhausting the stack
MAX_DEPTH = 100


@dataclass(frozen=True)
class Num:
    # Always non-negative: negative literals parse as Neg(Num(...)).
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


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
            return Num(float(value))
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
    if _depth(node) > MAX_DEPTH:
        raise FormulaSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", 0)
    return node


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
    """Render an AST back to text; parse(unparse(ast)) == ast."""
    if isinstance(node, Num):
        return format_number(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, 3)
    if isinstance(node, BinOp):
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


def _check_finite(value: float) -> float:
    if not math.isfinite(value):
        raise NonFiniteResultError(f"formula produced non-finite value {value!r}")
    return value


def _apply_call(func: str, args: list[float]) -> float:
    try:
        if func == "min":
            return min(args)
        if func == "max":
            return max(args)
        if func == "abs":
            return abs(args[0])
        if func == "sqrt":
            return math.sqrt(args[0])
        if func == "exp":
            return math.exp(args[0])
        if func == "ln":
            return math.log(args[0])
        if func == "log10":
            return math.log10(args[0])
        if func == "pow":
            return math.pow(args[0], args[1])
    except (ValueError, OverflowError) as exc:
        raise NonFiniteResultError(f"{func}({', '.join(map(repr, args))}): {exc}") from exc
    raise AssertionError(func)


def evaluate(node: Expr, context) -> float:
    """Evaluate an AST with `context` mapping identifier -> number."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in context:
            raise UnresolvedIdentifierError(f"unknown identifier {node.name!r}")
        value = context[node.name]
        if isinstance(value, str):
            raise UnresolvedIdentifierError(
                f"identifier {node.name!r} refers to text, not a number"
            )
        return float(value)
    if isinstance(node, Neg):
        return -evaluate(node.operand, context)
    if isinstance(node, BinOp):
        left = evaluate(node.left, context)
        right = evaluate(node.right, context)
        if node.op == "+":
            return _check_finite(left + right)
        if node.op == "-":
            return _check_finite(left - right)
        if node.op == "*":
            return _check_finite(left * right)
        if node.op == "/":
            if right == 0.0:
                raise DivisionByZeroError(f"division by zero in {unparse(node)!r}")
            return _check_finite(left / right)
        if node.op == "^":
            if left == 0.0 and right < 0.0:
                raise DivisionByZeroError(f"zero raised to negative power in {unparse(node)!r}")
            try:
                return _check_finite(math.pow(left, right))
            except (ValueError, OverflowError) as exc:
                raise NonFiniteResultError(f"{unparse(node)!r}: {exc}") from exc
    if isinstance(node, Call):
        args = [evaluate(a, context) for a in node.args]
        return _check_finite(_apply_call(node.func, args))
    raise TypeError(f"not a formula node: {node!r}")


def _free_vars(node: Expr, seen: list[str]) -> None:
    if isinstance(node, Var):
        if node.name not in seen:
            seen.append(node.name)
    for child in _children(node):
        _free_vars(child, seen)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _compile(node: Expr):
    """Compile an AST into `fn(context) -> float`, equal to evaluate(node, context):
    same operations in the same order, same checks, same error types."""
    if isinstance(node, Num):
        value = node.value
        return lambda context: value
    if isinstance(node, Var):
        name = node.name

        def variable(context):
            try:
                value = context[name]
            except KeyError:
                raise UnresolvedIdentifierError(f"unknown identifier {name!r}") from None
            if isinstance(value, str):
                raise UnresolvedIdentifierError(
                    f"identifier {name!r} refers to text, not a number"
                )
            return float(value)

        return variable
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda context: -operand(context)
    if isinstance(node, BinOp):
        left, right = _compile(node.left), _compile(node.right)
        if node.op in _ARITHMETIC:
            arithmetic = _ARITHMETIC[node.op]
            return lambda context: _check_finite(arithmetic(left(context), right(context)))
        if node.op == "/":

            def divide(context):
                numerator, denominator = left(context), right(context)
                if denominator == 0.0:
                    raise DivisionByZeroError(f"division by zero in {unparse(node)!r}")
                return _check_finite(numerator / denominator)

            return divide
        if node.op == "^":

            def power(context):
                base, exponent = left(context), right(context)
                if base == 0.0 and exponent < 0.0:
                    raise DivisionByZeroError(
                        f"zero raised to negative power in {unparse(node)!r}"
                    )
                try:
                    return _check_finite(math.pow(base, exponent))
                except (ValueError, OverflowError) as exc:
                    raise NonFiniteResultError(f"{unparse(node)!r}: {exc}") from exc

            return power
    if isinstance(node, Call):
        func, args = node.func, [_compile(a) for a in node.args]
        return lambda context: _check_finite(_apply_call(func, [a(context) for a in args]))
    raise TypeError(f"not a formula node: {node!r}")


class Formula:
    """A parsed arithmetic expression over parameter names.

    Formulas compare equal when their ASTs are equal, regardless of the
    whitespace in the original text. Instances are immutable; the closure
    compiled on the first evaluate() is a cache, never copied or pickled (a
    copy is re-parsed from the text and compiles again when first used).
    """

    __slots__ = ("text", "ast", "_compiled")

    def __init__(self, text: str):
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "ast", _parse_text(text))
        object.__setattr__(self, "_compiled", None)

    @classmethod
    def from_ast(cls, ast: Expr) -> "Formula":
        self = cls.__new__(cls)
        object.__setattr__(self, "text", unparse(ast))
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "_compiled", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Formula is immutable")

    def __reduce__(self):
        return (Formula, (self.text,))

    @property
    def identifiers(self) -> list[str]:
        """Free identifiers in first-occurrence order."""
        seen: list[str] = []
        _free_vars(self.ast, seen)
        return seen

    def evaluate(self, context) -> float:
        """Value under `context` (identifier -> number), via the compiled closure."""
        compiled = self._compiled
        if compiled is None:
            compiled = _compile(self.ast)
            object.__setattr__(self, "_compiled", compiled)
        return compiled(context)

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
