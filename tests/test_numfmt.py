import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforge import Formula, Params, params
from netforge.numfmt import format_number, line_formats, line_source
from netforge.rng import Xoshiro256StarStar


def _reference_sig_digits(text: str) -> int:
    mantissa = text.split("e")[0].split("E")[0]
    digits = mantissa.lstrip("+-").replace(".", "").lstrip("0")
    return max(len(digits), 1)


def _reference_format(value) -> str:
    """The earlier algorithm: repr, and `.12g` when repr has over 12 digits."""
    f = float(value)
    if f == int(f) and abs(f) < 1e16:
        return str(int(f))
    text = repr(f)
    if _reference_sig_digits(text) > 12:
        text = f"{f:.12g}"
    if "e" not in text and "E" not in text:
        return text
    mantissa, _, exp = text.lower().partition("e")
    return f"{mantissa}e{int(exp)}"


_EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    4.9e-320,
    1e-310,
    2.225073858507201e-308,
    sys.float_info.min,
    sys.float_info.max,
    1e12 + 0.5,
    123456789012.5,
    9999999999999.9,
    1e15 + 0.25,
    1e16,
    1.5e16,
    2.0**60,
    12345678901234567890.0,
    9.999999999995,
    0.1 + 0.2,
    1e-5,
    0.0001,
    1 / 3,
]


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=2000)
def test_format_number_matches_reference(value):
    assert format_number(value) == _reference_format(value)


@pytest.mark.parametrize("value", _EDGES + [-v for v in _EDGES])
def test_format_number_edge_cases(value):
    assert format_number(value) == _reference_format(value)


@given(st.floats(1e-30, 1e30), st.integers(1, 12))
@settings(max_examples=1000)
def test_short_decimals_print_their_digits(value, digits):
    short = float(f"{value:.{digits}g}")
    assert float(format_number(short)) == short
    assert format_number(short) == _reference_format(short)


def test_integers_print_without_point():
    assert format_number(-0.0) == "0"
    assert format_number(3.0) == "3"
    assert format_number(1e15) == "1000000000000000"
    assert format_number(1e16) == "1e16"
    assert format_number(5e-324) == "5e-324"
    assert format_number(2.5e-7) == "2.5e-7"


# --- the rule inline in a plan kernel (numfmt.line_source) -----------------------------

# a plan whose one value is computed from the context, so it is formatted in the kernel
_INLINE = Params({"y": Formula("x")}).plan
# integral values from 1e12, where `.12g` takes an exponent, to past 1e16
_INLINE_EDGES = _EDGES + [
    float(10**k + d) for k in range(12, 17) for d in (-1, 0, 1)
] + [1e12 - 0.5, 123456789012345.0, 1e-5, 1.5e-10, 1e-30, 3.5e-39, 1e-299, 1e-300]


def test_the_plan_kernel_formats_inline():
    assert _INLINE.run().__name__ == "run"
    for plain in (True, False):
        shape = (("y",), (Formula("x").program(),), ("y",), plain)
        source = [line.strip() for line in params._source(shape)[0].splitlines()]
        expected = [line.strip() for line in line_source(["r0"], plain)]
        start = source.index(expected[0])
        assert source[start:start + len(expected)] == expected


def test_line_formats_leave_searched_text_to_format_number():
    assert line_formats(["a=", " b=1e-6 c=", " d=5%"]) == (
        "a=%s b=1e-6 c=%s d=5%%", "a=%.12g b=1e-6 c=%.12g d=5%%"
    )
    for piece in ("x=e+", "x=1e-30", "x=e-05"):
        assert line_formats(["a=", " " + piece]) == ("a=%s " + piece, None)


@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.sampled_from(_INLINE_EDGES + [-v for v in _INLINE_EDGES]))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_inline_format_equals_format_number(value):
    out = []
    _INLINE.run()([""], [{"x": value}], Xoshiro256StarStar(0), out)
    assert out == [f"y={format_number(value)}"]
