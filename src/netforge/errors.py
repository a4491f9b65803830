"""Exception hierarchy for the netforge package, and the base of its value
records.

Everything raised on purpose derives from NetforgeError so callers can catch
one base class at API boundaries (the CLI maps subfamilies to exit codes).
Record sits here because this module imports nothing of the package, so
every other module can build on it.
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


class _UnknownNameError(NetforgeError, KeyError):
    """A lookup of a `what` by a name that is not there; `available` lists
    the names that are."""

    what = "name"

    def __init__(self, name: str, available):
        self.available = list(available)
        NetforgeError.__init__(self, f"unknown {self.what} {name!r}; available: {self.available}")

    # KeyError's __str__ would print the message as a quoted repr
    __str__ = Exception.__str__


class UnknownCornerError(_UnknownNameError):
    what = "corner"


class UnknownDeviceError(_UnknownNameError):
    what = "device"


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


# --- value records ------------------------------------------------------------

class Record:
    """Base of the package's immutable values: nets, templates, formulas and
    their nodes, distributions, lint findings and text dialects.

    A subclass lists its fields in `_fields`, in order, kept in `__slots__`
    named after them or else in its __dict__. Record.__init__ stores one
    value per field, positionally, and raises TypeError on a wrong count; a
    subclass that checks or converts its arguments calls it once, after.
    core.Net stores its one field itself, as the one record made in volume.

    Two records are equal when they are of one class and their tuples of
    fields are, and a record hashes as that tuple, so one that holds a dict
    is unhashable. repr reads Name(field=value, ...). Assigning or deleting
    any attribute raises AttributeError. copy and pickle carry the tuple of
    fields and set it back without calling __init__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes one value per field of {self._fields}, "
                f"got {len(values)}"
            )
        self.__setstate__(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    __getstate__ = _values

    def __setstate__(self, state):
        for name, value in zip(self._fields, state):
            object.__setattr__(self, name, value)
