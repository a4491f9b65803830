"""netforge: modular, parametric SPICE netlist generation.

Component templates with static, formula-driven, or randomly drawn
parameters; deterministic manipulation combinators (Parallel, Chain,
NamedChain, Array, Inject) for bulk instantiation and wiring; subcircuit
composition; readers for parameter files, SPICE model cards, and Verilog-A
signatures; and pluggable exporters (SPICE, Spectre, lossless JSON) behind
one registry, plus a declarative-document CLI.
"""

from .core import (
    GND,
    UNCONNECTED,
    VDD,
    Circuit,
    Component,
    Instance,
    Model,
    Net,
    Subcircuit,
    UnresolvedTemplate,
    as_net,
    fix,
    override_params,
    rebind,
)
from .errors import NetforgeError
from .exporters import (
    Finding,
    LintReport,
    export,
    export_json,
    export_to_file,
    import_json,
    lint,
    register_exporter,
    registered_dialects,
    write_param_file,
)
from .formula import Formula, parse_formula
from .io_readers import (
    ParamFile,
    load_param_file,
    load_spice_models,
    load_veriloga,
    parse_spice_models,
    parse_veriloga,
    read_param_file,
)
from .manip import Array, Chain, Inject, Manipulation, NamedChain, Parallel, concat
from .params import (
    ParamSet,
    Params,
    RandomSpec,
    eval_params,
    gauss,
    lognormal,
    sample,
    uniform,
)
from .rng import Xoshiro256StarStar, derive_seed

__version__ = "0.1.0"

__all__ = [
    "Array",
    "Chain",
    "Circuit",
    "Component",
    "Finding",
    "Formula",
    "GND",
    "Inject",
    "Instance",
    "LintReport",
    "Manipulation",
    "Model",
    "NamedChain",
    "Net",
    "NetforgeError",
    "ParamFile",
    "ParamSet",
    "Params",
    "Parallel",
    "RandomSpec",
    "Subcircuit",
    "UNCONNECTED",
    "VDD",
    "UnresolvedTemplate",
    "Xoshiro256StarStar",
    "as_net",
    "concat",
    "derive_seed",
    "eval_params",
    "export",
    "export_json",
    "export_to_file",
    "fix",
    "gauss",
    "import_json",
    "lint",
    "load_param_file",
    "load_spice_models",
    "load_veriloga",
    "lognormal",
    "override_params",
    "parse_formula",
    "parse_spice_models",
    "parse_veriloga",
    "read_param_file",
    "rebind",
    "register_exporter",
    "registered_dialects",
    "sample",
    "uniform",
    "write_param_file",
]
