"""Numeric text helpers: SI-suffix parsing and deterministic formatting.

format_number prints an integral value below 1e16 in magnitude as an integer,
and any other finite value as `.12g` with the exponent normalised ("1.5e-7"),
which equals the shortest round-trip form whenever that has at most 12
significant digits. The one exception is a subnormal, whose few bits of
precision `.12g` would pad with digits, so it keeps its shortest form when
that is shorter.

The rule is also kept here as source for a whole netlist line, which a
plan kernel (params.ParamPlan.run) splices in once per line instead of
calling format_number once per drawn or computed value (line_source): one
`%` operation puts every value, as `.12g`, between the line's literal
pieces (line_formats), and one text replacement takes the leading zero
off every negative exponent. Each value goes in as `value + 0.0`, so -0.0
prints "0". Only two kinds of value need more than that, and both print
with an exponent no common value has: an integral value that `.12g`
prints with an exponent (always a positive one, |value| >= 1e12) and a
subnormal (an exponent of -308 or below). So a line whose text holds an
exponent that is positive, or negative with a first digit 3 (-30 to -39,
and -300 or below), is formatted again with format_number per value,
which stays the one definition of the rule and the oracle that
tests/test_numfmt.py and tests/test_render_line_format.py hold the line
source to. The literal pieces must not hold what the line is searched
for or mended at (`e+`, `e-3`, `e-0`); a line whose pieces do (a text
constant, or a number constant with an exponent of -30 or below) always
formats per value, as line_formats decides once per plan. The text in
front of a line's first piece (its designator, nets and master) is never
searched.
"""

from __future__ import annotations

import math
import re
import sys

_MIN_NORMAL = sys.float_info.min

SI_EXPONENTS = {
    "f": -15,
    "p": -12,
    "n": -9,
    "u": -6,
    "m": -3,
    "k": 3,
    "meg": 6,
    "g": 9,
    "t": 12,
}

# "meg" must be tried before "m"
_SI_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(meg|f|p|n|u|m|k|g|t)?$",
    re.IGNORECASE,
)
_MANTISSA_EXP_RE = re.compile(r"([^eE]*)[eE]([+-]?\d+)$")


# what a line's literal pieces must not hold for its values to be formatted
# by one `%` and one replacement (line_source)
_SEARCHED = ("e+", "e-3", "e-0")


def line_formats(pieces) -> tuple:
    """The %-formats of a line made of its literal `pieces` with one value
    between each two, as (text, fast): `text` takes each value as text
    (%s), `fast` as a number (%.12g), or is None when a piece holds what
    line_source searches for or mends, so the line formats per value."""
    escaped = [piece.replace("%", "%%") for piece in pieces]
    plain = not any(found in piece for piece in pieces for found in _SEARCHED)
    return "%s".join(escaped), "%.12g".join(escaped) if plain else None


def line_source(values, plain: bool) -> list:
    """Source that formats the finite numbers in the locals `values` into
    the local `line`, each with format_number's rule, as the line formats
    (line_formats) in the locals `text` and, if `plain`, `fast`."""
    formatted = f"line = text % ({''.join(f'format_number({v}), ' for v in values)})"
    if not plain:
        return [formatted]
    return [
        f"line = fast % ({''.join(f'{v} + 0.0, ' for v in values)})",
        "if 'e+' in line or 'e-3' in line:",
        f"    {formatted}",
        "else:",
        "    line = line.replace('e-0', 'e-')",
    ]


def parse_si_number(text: str):
    """Parse a decimal literal with an optional SI suffix (f p n u m k meg g t).

    Returns a float, or None when the text is not of that shape. Suffixes are
    case-insensitive; "meg" is mega (1e6) and "m" is milli, per SPICE usage.
    The suffix is folded into the literal's exponent before conversion, so
    "45n" parses to exactly 45e-9. The caller rejects non-finite results.
    """
    if not isinstance(text, str):
        return None
    m = _SI_NUMBER_RE.match(text.strip())
    if m is None:
        return None
    literal, suffix = m.group(1), m.group(2)
    if not suffix:
        return float(literal)
    exponent = SI_EXPONENTS[suffix.lower()]
    em = _MANTISSA_EXP_RE.match(literal)
    if em:
        literal = em.group(1)
        exponent += int(em.group(2))
    return float(f"{literal}e{exponent}")


def format_number(value) -> str:
    """Shortest decimal form that round-trips, capped at 12 significant digits.

    Exponents print with no plus sign or leading zeros, so output is stable
    across platforms; the module docstring states the rule.
    """
    f = float(value)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    if not math.isfinite(f):
        raise ValueError(f"cannot format non-finite number {f!r}")
    text = f"{f:.12g}"
    if "e" not in text:
        return text
    if abs(f) < _MIN_NORMAL:
        # a subnormal may hold fewer than 12 digits of precision, so `.12g`
        # can print digits its shortest round-trip form does not need
        shortest = repr(f)
        if len(shortest) <= len(text):
            text = shortest
    mantissa, _, exponent = text.partition("e")
    return f"{mantissa}e{int(exponent)}"
