import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforge.numfmt import format_number


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
