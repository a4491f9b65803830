"""Readers that turn external files into parameters, models, and components.

Three formats are supported:

* parameter files: JSON mapping device -> corner -> parameter -> value,
  where a value is a number, a string with an optional SI suffix ("1p"),
  plain text, or a directive object such as {"$formula": "1 / vth"},
  {"$gauss": [0.4, 0.1]}, {"$uniform": [lo, hi]}, {"$lognormal": [mu, s]}
  (params_from_json reads one parameter map, here and in build documents);
* SPICE .model cards, with "+" continuation lines and "*" comments (a card
  whose name, type or parameter name breaks the rules of netforge.names is a
  ParseError with its line);
* Verilog-A module signatures (module name, port list, and
  "parameter real|integer name = value;" declarations; bodies are ignored).

All readers are pure functions of the input bytes.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from .core import Component, Model, UNCONNECTED
from .errors import (
    BadNameError,
    FormulaSyntaxError,
    InvalidDistributionError,
    MultipleModulesError,
    NoModuleError,
    NoPortsError,
    ParseError,
    SchemaError,
    UnknownDirectiveError,
)
from .formula import parse_formula
from .numfmt import parse_si_number
from .names import nonempty_text
from .params import CheckedDict, ParamSet, Params, gauss, lognormal, uniform

__all__ = [
    "ParamFile",
    "read_param_file",
    "load_param_file",
    "parse_spice_models",
    "load_spice_models",
    "parse_veriloga",
    "load_veriloga",
]


class ParamFile(CheckedDict):
    """A parameter library: device name -> ParamSet (corner -> Params)."""

    def __setitem__(self, device, corners):
        nonempty_text(device, "device name")
        super().__setitem__(device, corners if isinstance(corners, ParamSet) else ParamSet(corners))

    def __missing__(self, device):
        raise KeyError(f"unknown device {device!r}; available: {sorted(self)}")

    def __repr__(self):
        return f"ParamFile(devices={sorted(self)})"


_DIRECTIVE_MAKERS = {
    "$gauss": gauss,
    "$uniform": uniform,
    "$lognormal": lognormal,
}


def _distribution_from_json(key, raw, path):
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in raw)
    ):
        raise SchemaError(f"{key} expects a two-number array", path)
    try:
        return _DIRECTIVE_MAKERS[key](float(raw[0]), float(raw[1]))
    except InvalidDistributionError as exc:
        raise SchemaError(str(exc), path) from exc


def value_from_json(raw, path: str):
    """Decode one parameter value from its JSON form."""
    if isinstance(raw, bool):
        raise SchemaError("booleans are not parameter values", path)
    if isinstance(raw, (int, float)):
        if not math.isfinite(raw):
            raise SchemaError(f"number must be finite, got {raw!r}", path)
        return raw
    if isinstance(raw, str):
        number = parse_si_number(raw)
        if number is not None:
            if not math.isfinite(number):
                raise SchemaError(f"number out of range: {raw!r}", path)
            return number
        return raw
    if isinstance(raw, dict):
        if len(raw) != 1:
            raise SchemaError("directive objects hold exactly one key", path)
        key, payload = next(iter(raw.items()))
        if key == "$formula":
            if not isinstance(payload, str):
                raise SchemaError("$formula expects a string", path)
            try:
                return parse_formula(payload)
            except FormulaSyntaxError as exc:
                raise SchemaError(f"bad formula: {exc}", path) from exc
        if key in _DIRECTIVE_MAKERS:
            return _distribution_from_json(key, payload, path)
        if key.startswith("$"):
            raise UnknownDirectiveError(f"unknown directive {key!r}", path)
        raise SchemaError(f"unexpected object key {key!r}", path)
    raise SchemaError(f"unsupported value of type {type(raw).__name__}", path)


def params_from_json(raw, path: str, decode=value_from_json) -> Params:
    """A parameter map from its JSON form, each value read by decode(value,
    its path); a build document passes one that substitutes ${...} first."""
    if not isinstance(raw, dict):
        raise SchemaError("expected a parameter object", path)
    params = Params()
    for name, value in raw.items():
        params[name] = decode(value, f"{path}.{name}")
    return params


def _key_path(path: str, key) -> str:
    """The path of the member `key` of the object at `path`, for any key text."""
    return f"{path}[{json.dumps(key)}]"


def _checked(rule, name, what: str, path: str):
    """rule(name, what), a rule of netforge.names, with its BadNameError
    raised as a SchemaError at `path`."""
    try:
        return rule(name, what)
    except BadNameError as exc:
        raise SchemaError(str(exc), path) from None


def read_param_file(source, format: str = "json") -> ParamFile:
    """Parse a parameter file from bytes, text, or a binary stream; an empty
    device or corner name is a SchemaError at its path."""
    if format != "json":
        raise ValueError(f"unsupported parameter file format {format!r}")
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        document = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc

    if not isinstance(document, dict):
        raise SchemaError("top level must be an object of devices", "$")
    param_file = ParamFile()
    for device, corners in document.items():
        _checked(nonempty_text, device, "device name", _key_path("$", device))
        if not isinstance(corners, dict):
            raise SchemaError("expected an object of corners", device)
        param_set = param_file[device] = ParamSet()
        for corner, raw_params in corners.items():
            _checked(nonempty_text, corner, "corner name", _key_path(device, corner))
            param_set[corner] = params_from_json(raw_params, f"{device}.{corner}")
    return param_file


def load_param_file(path) -> ParamFile:
    return read_param_file(Path(path).read_bytes())


# --- SPICE .model cards ---------------------------------------------------------

_MODEL_HEAD_RE = re.compile(r"\.model\s+(\S+)\s+([A-Za-z_]\w*)\s*(.*)$", re.IGNORECASE)


def _logical_lines(text: str):
    """Fold '+' continuations; yields (first line number, joined text)."""
    current: list[str] | None = None
    current_line = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if current is None:
                raise ParseError("continuation line with nothing to continue", number)
            current.append(stripped[1:].strip())
            continue
        if current is not None:
            yield current_line, " ".join(current)
        current = [stripped]
        current_line = number
    if current is not None:
        yield current_line, " ".join(current)


def _model_value(token: str):
    number = parse_si_number(token)
    if number is not None and math.isfinite(number):
        return number
    return token


def parse_spice_models(text: str) -> list[Model]:
    """Extract .model cards from SPICE text; other lines are ignored."""
    models: list[Model] = []
    for line_number, line in _logical_lines(text):
        if not line.lower().startswith(".model"):
            continue
        m = _MODEL_HEAD_RE.match(line)
        if m is None:
            raise ParseError(f"malformed .model card: {line!r}", line_number)
        name, base_type, rest = m.group(1), m.group(2), m.group(3).strip()
        if rest.count("(") != rest.count(")"):
            raise ParseError(f"unbalanced parentheses in .model {name}", line_number)
        if rest.startswith("(") and rest.endswith(")"):
            rest = rest[1:-1].strip()
        params = Params()
        try:
            for token in re.sub(r"\s*=\s*", "=", rest).split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    if not key or not value:
                        raise ParseError(
                            f"malformed parameter {token!r} in .model {name}", line_number
                        )
                    params[key] = _model_value(value)
                else:
                    params[token] = "1"  # bare flag
            models.append(Model(name, base_type, params))
        except BadNameError as exc:
            raise ParseError(f"{exc} in .model {name}", line_number) from None
    return models


def load_spice_models(path) -> list[Model]:
    return parse_spice_models(Path(path).read_text(encoding="utf-8"))


# --- Verilog-A signatures ---------------------------------------------------------

_VA_COMMENTS_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
_VA_MODULE_RE = re.compile(r"\bmodule\s+([A-Za-z_]\w*)\s*(\(([^)]*)\))?\s*;", re.DOTALL)
_VA_PARAM_RE = re.compile(
    r"\bparameter\s+(real|integer)\s+([A-Za-z_]\w*)\s*=\s*([^;]+);"
)
_VA_PORT_KEYWORDS = {"input", "output", "inout", "electrical", "wire", "real", "integer"}


def parse_veriloga(text: str) -> Component:
    """Read one module's signature: name, port order, and parameter defaults.

    The body is not interpreted; the component is a black box whose ports all
    default to unconnected. Port names are kept in metadata["port_names"].
    """
    clean = _VA_COMMENTS_RE.sub(" ", text)
    headers = list(_VA_MODULE_RE.finditer(clean))
    if not headers:
        raise NoModuleError("no Verilog-A module found")
    if len(headers) > 1:
        raise MultipleModulesError(f"expected one module, found {len(headers)}")
    header = headers[0]
    name = header.group(1)

    port_names: list[str] = []
    port_list = header.group(3)
    if header.group(2) is not None and port_list is not None:
        for segment in port_list.split(","):
            idents = [
                ident
                for ident in re.findall(r"[A-Za-z_]\w*", segment)
                if ident not in _VA_PORT_KEYWORDS
            ]
            if not idents:
                if segment.strip():
                    raise ParseError(f"unparseable port declaration {segment.strip()!r}")
                continue
            port_names.append(idents[-1])
    if not port_names:
        raise NoPortsError(f"module {name!r} declares no ports; a device needs terminals")

    params = Params()
    for kind, pname, raw_value in _VA_PARAM_RE.findall(clean):
        value = parse_si_number(raw_value.strip())
        if value is None or not math.isfinite(value):
            params[pname] = raw_value.strip()
        elif kind == "integer" and value == int(value):
            params[pname] = int(value)
        else:
            params[pname] = value

    return Component(
        name,
        [UNCONNECTED] * len(port_names),
        params,
        metadata={"source": "verilog-a", "port_names": ",".join(port_names)},
    )


def load_veriloga(path) -> Component:
    return parse_veriloga(Path(path).read_text(encoding="utf-8"))
