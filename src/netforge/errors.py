"""Exception hierarchy for the netforge package.

Everything raised on purpose derives from NetforgeError so callers can catch
one base class at API boundaries (the CLI maps subfamilies to exit codes).
"""

from __future__ import annotations


class NetforgeError(Exception):
    """Base class for all errors raised by this package."""


# --- circuit model -----------------------------------------------------------

class BadNameError(NetforgeError, ValueError):
    """A name or text value that a simulator would not read as one token;
    the rules live in netforge.names."""


class EmptyNameError(BadNameError, TypeError):
    """A name that is empty or not text at all."""


class EmptyPortsError(NetforgeError):
    pass


class NetNameError(BadNameError):
    """A net or pin name outside the net rule of netforge.names."""


class ArityMismatchError(NetforgeError):
    pass


class DuplicateModelError(NetforgeError):
    pass


class DuplicateSubcircuitError(NetforgeError):
    pass


class DuplicatePinError(NetforgeError):
    pass


class FrozenSubcircuitError(NetforgeError):
    """Raised when adding to a subcircuit after fix()."""


# --- formulas and parameter evaluation ---------------------------------------

class FormulaSyntaxError(NetforgeError):
    """Malformed formula text; carries the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownFunctionError(FormulaSyntaxError):
    pass


class EvalError(NetforgeError):
    """Base class for failures while evaluating parameters."""


class CyclicDependencyError(EvalError):
    def __init__(self, cycle: list[str]):
        super().__init__("cyclic parameter dependency: " + " -> ".join(cycle))
        self.cycle = list(cycle)


class UnresolvedIdentifierError(EvalError):
    pass


class DivisionByZeroError(EvalError):
    pass


class NonFiniteResultError(EvalError):
    pass


class InvalidDistributionError(NetforgeError):
    pass


class UnknownCornerError(NetforgeError, KeyError):
    def __init__(self, name: str, available):
        self.available = list(available)
        NetforgeError.__init__(
            self, f"unknown corner {name!r}; available: {self.available}"
        )

    # KeyError's __str__ would print the message as a quoted repr
    __str__ = Exception.__str__


# --- manipulations ------------------------------------------------------------

class PortOutOfRangeError(NetforgeError):
    pass


class SamePortError(NetforgeError):
    pass


class ZeroLengthError(NetforgeError):
    pass


class PortFnArityError(NetforgeError):
    pass


class InvalidProbabilityError(NetforgeError):
    pass


# --- file readers --------------------------------------------------------------

class ParseError(NetforgeError):
    """Unparseable input; carries a line number when one is known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class NoModuleError(ParseError):
    pass


class MultipleModulesError(ParseError):
    pass


class NoPortsError(ParseError):
    pass


class SchemaError(NetforgeError):
    """Structurally valid document that violates the expected schema."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownDirectiveError(SchemaError):
    pass


# --- exporters ------------------------------------------------------------------

class LintErrors(NetforgeError):
    """Export refused because the lint pass found errors; carries the report."""

    def __init__(self, report):
        super().__init__("lint found errors:\n" + str(report))
        self.report = report


class UnknownDialectError(NetforgeError):
    def __init__(self, dialect: str, available):
        self.available = sorted(available)
        super().__init__(
            f"unknown dialect {dialect!r}; registered: {', '.join(self.available)}"
        )


class DuplicateDialectError(NetforgeError):
    pass


class VersionMismatchError(NetforgeError):
    pass
