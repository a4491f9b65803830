"""Numeric text helpers: SI-suffix parsing and deterministic formatting.

format_number prints an integral value below 1e16 in magnitude as an integer,
and any other finite value as `.12g` with the exponent normalised ("1.5e-7"),
which equals the shortest round-trip form whenever that has at most 12
significant digits. The one exception is a subnormal, whose few bits of
precision `.12g` would pad with digits, so it keeps its shortest form when
that is shorter.
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


def _normalize_exponent(text: str) -> str:
    mantissa, e, exp = text.partition("e")
    return f"{mantissa}e{int(exp)}" if e else text


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
    if abs(f) < _MIN_NORMAL:
        # a subnormal may hold fewer than 12 digits of precision, so `.12g`
        # can print digits its shortest round-trip form does not need
        shortest = repr(f)
        if len(shortest) <= len(text):
            text = shortest
    return _normalize_exponent(text)
