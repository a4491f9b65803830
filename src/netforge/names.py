"""What a simulator must read as one token: the one name rule of netforge.

A simulator splits a netlist line at whitespace and reads each parameter as
one `name=value` token. So every name and text value netforge prints has to
be one token, or the line means something else than what was built. These
rules say what one token is, and every other module calls them instead of
checking names itself:

- token: non-empty text with no whitespace and no "=". Template, model and
  subcircuit names, model base types and text parameter values.
- designator: a token that starts with [A-Za-z_], as a designator prefix
  does. A designator is the first token of its line, and a reader takes a
  line that starts with "*", "+", "." or ";" as a comment, a continuation
  or a control card, not as an element.
- identifier: [A-Za-z_][A-Za-z0-9_]*, the formula tokenizer's `ident`.
  Parameter names, so every exported `k=v` names something a formula can
  refer to.
- net: [A-Za-z_][A-Za-z0-9_.]* for a symbolic net or pin name (core.as_net
  also takes non-negative integers and decimal text), and [A-Za-z_]+ for a
  designator prefix.

Corner and device names, which only parameter files print (as JSON keys),
need only be non-empty text (nonempty_text).

Each check returns the name it was given or raises a BadNameError:
EmptyNameError (also a TypeError) for an empty or non-text name, NetNameError
for a net or pin. is_token and is_designator are the tests themselves, for
lint, which reports designators and text values that break their rule as
BAD_TOKEN; all_designators tests a whole scope's designators at once.

This module imports only errors, so every other module can use it.
"""

from __future__ import annotations

import re

from .errors import BadNameError, EmptyNameError, NetNameError

__all__ = [
    "is_token", "token", "is_designator", "all_designators", "designator", "identifier", "net",
    "prefix", "nonempty_text",
]

_TOKEN_RE = re.compile(r"[^\s=]+\Z")
_NET_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")
_PREFIX_RE = re.compile(r"[A-Za-z_]+\Z")
# what a designator may start with: what a designator prefix is made of
_DESIGNATOR_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# designators, one per line: [^\s=] takes no newline
_DESIGNATOR_LINES_RE = re.compile(r"[A-Za-z_][^\s=]*(?:\n[A-Za-z_][^\s=]*)*\Z")


def is_token(text) -> bool:
    """True when `text` is non-empty text with no whitespace and no "="."""
    # alphanumeric text, the usual case, needs no pattern match
    return isinstance(text, str) and (text.isalnum() or _TOKEN_RE.match(text) is not None)


def nonempty_text(text, what: str):
    """`text`, if it is non-empty text; a corner or device name."""
    if not isinstance(text, str) or not text:
        raise EmptyNameError(f"{what} must be a non-empty string, got {text!r}")
    return text


def token(text, what: str):
    """`text`, if it is one token; `what` names it in the error."""
    if is_token(text):
        return text
    nonempty_text(text, what)
    raise BadNameError(f"{what} {text!r} must be one token, without whitespace or '='")


def is_designator(text) -> bool:
    """True when `text` is one token that starts with [A-Za-z_]."""
    return is_token(text) and text[0] in _DESIGNATOR_START


def all_designators(texts: list) -> bool:
    """is_designator of every text of `texts`, in one pattern match over
    them all, joined by newlines: the pattern puts a designator on every
    line, and no text may add a line of its own."""
    try:
        joined = "\n".join(texts)
    except TypeError:  # not all text
        return False
    return not texts or (
        joined.count("\n") == len(texts) - 1 and _DESIGNATOR_LINES_RE.match(joined) is not None
    )


def designator(text, what: str = "designator"):
    """`text`, if it is one token that starts with [A-Za-z_]."""
    # is_designator, inline: import_json checks here every designator that
    # is not alphanumeric text starting with a letter (those it tests inline)
    if is_token(text) and text[0] in _DESIGNATOR_START:
        return text
    token(text, what)
    raise BadNameError(f"{what} {text!r} must start with [A-Za-z_], as a designator prefix does")


def identifier(text, what: str = "parameter name"):
    """`text`, if it matches [A-Za-z_][A-Za-z0-9_]*."""
    # an ASCII Python identifier is exactly that pattern
    if isinstance(text, str) and text.isascii() and text.isidentifier():
        return text
    nonempty_text(text, what)
    raise BadNameError(f"{what} {text!r} must match [A-Za-z_][A-Za-z0-9_]*")


def net(text, what: str = "net"):
    """`text`, if it is a symbolic net name, [A-Za-z_][A-Za-z0-9_.]*."""
    if isinstance(text, str) and _NET_RE.match(text):
        return text
    raise NetNameError(f"invalid {what} name {text!r}")


def prefix(text):
    """`text`, if it can start a designator: [A-Za-z_]+."""
    if isinstance(text, str) and _PREFIX_RE.match(text):
        return text
    raise BadNameError(f"designator prefix must be alphabetic, got {text!r}")
