import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforge.errors import (
    DivisionByZeroError,
    FormulaSyntaxError,
    NonFiniteResultError,
    UnknownFunctionError,
    UnresolvedIdentifierError,
)
from netforge.formula import BinOp, Call, Formula, Neg, Num, Var, parse_formula, unparse


def test_reciprocal_formula_shape():
    f = parse_formula("1 / vth")
    assert f.ast == BinOp("/", Num(1.0), Var("vth"))
    assert f.identifiers == ["vth"]


def test_literal_zero():
    assert parse_formula("0").ast == Num(0.0)


def test_precedence_mul_before_add():
    # independent arithmetic oracle: 1 + 2 * 3 = 7
    assert parse_formula("1+2*3").evaluate({}) == 7.0
    assert parse_formula("(1+2)*3").evaluate({}) == 9.0


def test_power_right_associative():
    # 2^3^2 = 2^(3^2) = 512, not (2^3)^2 = 64
    assert parse_formula("2^3^2").evaluate({}) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert parse_formula("-2^2").evaluate({}) == -4.0
    assert parse_formula("(-2)^2").evaluate({}) == 4.0
    assert parse_formula("-x^2").ast == Neg(BinOp("^", Var("x"), Num(2.0)))


def test_negative_exponent():
    assert parse_formula("2^-3").evaluate({}) == 0.125


def test_double_negation():
    assert parse_formula("--4").evaluate({}) == 4.0


def test_division_chain_left_associative():
    assert parse_formula("8/4/2").evaluate({}) == 1.0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("min(3, 5)", 3.0),
        ("max(3, 5, 7)", 7.0),
        ("abs(-2.5)", 2.5),
        ("sqrt(9)", 3.0),
        ("exp(0)", 1.0),
        ("ln(1)", 0.0),
        ("log10(1000)", 3.0),
        ("pow(2, 10)", 1024.0),
    ],
)
def test_functions(text, expected):
    assert parse_formula(text).evaluate({}) == expected


def test_function_values_match_math_module():
    context = {"x": 2.7}
    assert parse_formula("exp(x)").evaluate(context) == math.exp(2.7)
    assert parse_formula("ln(x)").evaluate(context) == math.log(2.7)
    assert parse_formula("sqrt(x)").evaluate(context) == math.sqrt(2.7)


def test_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse_formula("sin(1)")


def test_function_arity_checked():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("pow(2)")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("abs(1, 2)")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("min(1)")


def test_syntax_error_offsets():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("1 + ")
    assert err.value.offset == 4
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("1 $ 2")
    assert err.value.offset == 2
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(1 + 2")
    assert err.value.offset == 6


def test_empty_formula_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("   ")


def test_unresolved_identifier():
    with pytest.raises(UnresolvedIdentifierError):
        parse_formula("a + 1").evaluate({})


def test_text_identifier_rejected():
    with pytest.raises(UnresolvedIdentifierError):
        parse_formula("a + 1").evaluate({"a": "fast"})


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        parse_formula("1/0").evaluate({})
    with pytest.raises(DivisionByZeroError):
        parse_formula("0^-1").evaluate({})


def test_domain_errors_are_non_finite():
    with pytest.raises(NonFiniteResultError):
        parse_formula("sqrt(0 - 1)").evaluate({})
    with pytest.raises(NonFiniteResultError):
        parse_formula("ln(0)").evaluate({})


def test_overflow_is_non_finite():
    with pytest.raises(NonFiniteResultError):
        parse_formula("exp(10000)").evaluate({})


def test_formula_equality_ignores_whitespace():
    assert parse_formula("1/vth") == parse_formula("1 / vth")
    assert hash(parse_formula("1/vth")) == hash(parse_formula("1 / vth"))
    assert parse_formula("1/vth") != parse_formula("vth/1")


def test_unparse_spacing_roundtrip():
    text = "1 / vth"
    assert parse_formula(text).unparse() == text


def test_from_ast_sets_text():
    f = Formula.from_ast(BinOp("+", Var("a"), Num(2.0)))
    assert f.text == "a + 2"


def test_formula_is_immutable():
    f = parse_formula("1 + 2")
    with pytest.raises(AttributeError):
        f.text = "3"


# --- property tests: parse/unparse identities --------------------------------

_NAMES = ("a", "b2", "vth", "w", "_x")


def _asts(depth: int):
    leaf = st.one_of(
        st.sampled_from([Num(0.0), Num(1.0), Num(2.5), Num(0.135), Num(4.0)]),
        st.integers(0, 99).map(lambda n: Num(float(n))),
        st.sampled_from(_NAMES).map(Var),
    )
    if depth == 0:
        return leaf
    sub = _asts(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(*t)),
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda t: Call("min", t)),
        st.tuples(sub, sub).map(lambda t: Call("pow", t)),
        sub.map(lambda a: Call("abs", (a,))),
    )


@given(_asts(3))
@settings(max_examples=300)
def test_parse_unparse_identity_on_asts(ast):
    assert parse_formula(unparse(ast)).ast == ast


@given(_asts(3))
@settings(max_examples=300)
def test_unparse_parse_identity_on_text(ast):
    text = unparse(ast)
    assert unparse(parse_formula(text).ast) == text


_CONTEXT = {"a": 1.5, "b2": 2.0, "vth": 0.4, "w": 3.0, "_x": 2.0}


def _substituted(node):
    if isinstance(node, Var):
        return Num(_CONTEXT[node.name])
    if isinstance(node, Neg):
        return Neg(_substituted(node.operand))
    if isinstance(node, BinOp):
        return BinOp(node.op, _substituted(node.left), _substituted(node.right))
    if isinstance(node, Call):
        return Call(node.func, tuple(_substituted(a) for a in node.args))
    return node


@given(_asts(3))
@settings(max_examples=300)
def test_substitution_consistency(ast):
    # evaluating with a context equals evaluating the pre-substituted tree
    from netforge.errors import EvalError
    from netforge.formula import evaluate

    try:
        expected = evaluate(ast, _CONTEXT)
    except EvalError:
        return  # division by zero or domain error: nothing to compare
    assert evaluate(_substituted(ast), {}) == expected


# --- nesting cap ------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "(" * 200 + "1" + ")" * 200,
        "-" * 5000 + "1",
        "2^" * 200 + "2",
        "abs(" * 200 + "1" + ")" * 200,
        "+".join(["1"] * 3000),
        "(" * 3000 + "1" + ")" * 3000,
    ],
    ids=["parens", "unary", "power", "calls", "sum-chain", "parens-3000"],
)
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(FormulaSyntaxError, match="nests deeper"):
        parse_formula(text)


def test_realistic_nesting_still_parses():
    text = "(" * 40 + "w" + " * 2)" * 40
    assert parse_formula(text).evaluate({"w": 1.0}) == 2.0**40
    assert parse_formula("-" * 60 + "3").evaluate({}) == 3.0
    assert parse_formula("+".join(["1"] * 90)).evaluate({}) == 90.0
    nested = "min(" * 30 + "1" + ", 2)" * 30
    assert parse_formula(nested).evaluate({}) == 1.0


# --- the compiled closure equals the reference tree walk ------------------------------

def _outcome(fn):
    try:
        return ("value", fn())
    except Exception as exc:  # compared by class below
        return ("error", type(exc))


_CONTEXTS = st.fixed_dictionaries(
    {name: st.floats(-1e3, 1e3, allow_nan=False) for name in _NAMES}
) | st.just({"a": 0.0, "b2": -0.0, "vth": 1e300, "w": "text", "_x": -2.0}) | st.just({"a": 1.0})


@given(_asts(4), _CONTEXTS)
@settings(max_examples=500)
def test_compiled_evaluate_matches_reference(ast, context):
    from netforge.formula import evaluate

    formula = Formula.from_ast(ast)
    expected = _outcome(lambda: evaluate(ast, context))
    assert _outcome(lambda: formula.evaluate(context)) == expected
    # a second call runs the kept closure
    assert _outcome(lambda: formula.evaluate(context)) == expected


def test_nesting_cap_is_inclusive():
    assert parse_formula("-" * 100 + "3").evaluate({}) == 3.0
    assert parse_formula("(" * 100 + "1" + ")" * 100).ast == Num(1.0)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("-" * 101 + "3")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("+".join(["1"] * 102))
