import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforge import Circuit, Component, export
from netforge.errors import (
    CyclicDependencyError,
    EmptyNameError,
    InvalidDistributionError,
    UnknownCornerError,
    UnresolvedIdentifierError,
)
from netforge.formula import Formula
from netforge.params import (
    ParamSet,
    Params,
    eval_params,
    gauss,
    lognormal,
    sample,
    uniform,
)
from netforge.rng import Xoshiro256StarStar

from sample_circuits import defect_chain_circuit, long_cycle_formulas, ro_circuit


def test_params_preserve_insertion_order():
    p = Params({"w": 0.135, "l": 0.045, "a": 1})
    assert list(p) == ["w", "l", "a"]


def test_params_reject_non_finite():
    with pytest.raises(ValueError):
        Params({"x": float("nan")})
    with pytest.raises(ValueError):
        Params({"x": float("inf")})


def test_params_reject_bool_and_junk():
    with pytest.raises(TypeError):
        Params({"x": True})
    with pytest.raises(TypeError):
        Params({"x": [1, 2]})
    with pytest.raises(TypeError):
        Params({3: 1})


def test_merged_shadow_oracle():
    # map-shadow oracle: build the expected map key by key
    base = Params({"w": 0.135, "l": 0.045})
    merged = base.merged({"w": 0.27, "nf": 2})
    expected = {}
    for key, value in {"w": 0.135, "l": 0.045}.items():
        expected[key] = value
    for key, value in {"w": 0.27, "nf": 2}.items():
        expected[key] = value
    assert dict(merged) == expected
    assert list(merged) == ["w", "l", "nf"]  # original key keeps its slot
    assert base["w"] == 0.135  # source untouched


def test_paramset_corner_lookup():
    nmos = Params({"w": 0.135})
    corners = ParamSet({"TT": nmos})
    assert corners.corner("TT") == nmos
    assert corners["TT"] == nmos


def test_paramset_unknown_corner_lists_available():
    corners = ParamSet({"TT": {"w": 1.0}})
    with pytest.raises(UnknownCornerError) as err:
        corners.corner("FF")
    assert err.value.available == ["TT"]
    with pytest.raises(UnknownCornerError):
        ParamSet().corner("TT")


# every way into a ParamSet: the constructor, item assignment, update (a
# mapping, pairs or keywords), setdefault and |=
_CORNER_INSERTIONS = {
    "constructor": lambda ps, corners: ParamSet(corners),
    "setitem": lambda ps, corners: [ps.__setitem__(k, v) for k, v in corners.items()] and ps,
    "update": lambda ps, corners: ps.update(corners) or ps,
    "update pairs": lambda ps, corners: ps.update(list(corners.items())) or ps,
    "update keywords": lambda ps, corners: ps.update(**corners) or ps,
    "setdefault": lambda ps, corners: [ps.setdefault(k, v) for k, v in corners.items()] and ps,
    "ior": lambda ps, corners: ps.__ior__(corners),
    "or": lambda ps, corners: ps | corners,
}


@pytest.mark.parametrize("insert", list(_CORNER_INSERTIONS))
def test_paramset_coerces_every_insertion(insert):
    ps = _CORNER_INSERTIONS[insert](ParamSet(), {"TT": {"w": 1.0}, "FF": Params({"w": 2.0})})
    assert type(ps) is ParamSet and list(ps) == ["TT", "FF"]
    assert all(type(params) is Params for params in ps.values())
    assert ps.corner("TT") == {"w": 1.0} and ps.corner("FF") == {"w": 2.0}
    with pytest.raises(TypeError):  # a value Params rejects
        _CORNER_INSERTIONS[insert](ParamSet(), {"TT": {"w": True}})


@pytest.mark.parametrize("insert", sorted(set(_CORNER_INSERTIONS) - {"update keywords"}))
@pytest.mark.parametrize("name", ["", 5, None])
def test_paramset_rejects_a_corner_name_that_is_not_text(insert, name):
    with pytest.raises(EmptyNameError, match="corner name must be a non-empty string"):
        _CORNER_INSERTIONS[insert](ParamSet(), {name: {"w": 1.0}})


def test_paramset_setdefault_keeps_a_present_corner():
    ps = ParamSet({"TT": {"w": 1.0}})
    tt = ps["TT"]
    assert ps.setdefault("TT", {"w": 2.0}) is tt and ps.corner("TT") == {"w": 1.0}
    assert type(ps.setdefault("FF", {"w": 3.0})) is Params


def test_random_spec_validation():
    with pytest.raises(InvalidDistributionError):
        gauss(0.4, -0.1)
    with pytest.raises(InvalidDistributionError):
        uniform(2.0, 1.0)
    with pytest.raises(InvalidDistributionError):
        lognormal(0.0, -1.0)
    with pytest.raises(InvalidDistributionError):
        gauss(float("inf"), 1.0)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-1.7976931348623157e308, 1e300)])
def test_uniform_span_that_overflows_is_rejected(lo, hi):
    # hi - lo is inf, so every draw would be inf (or nan): no export could succeed
    with pytest.raises(InvalidDistributionError, match="span"):
        uniform(lo, hi)


def test_widest_uniform_span_that_fits_still_draws():
    spec = uniform(-8.9e307, 8.9e307)
    assert -8.9e307 <= sample(spec, 3) < 8.9e307


def test_sample_determinism():
    spec = gauss(0.4, 0.1)
    assert sample(spec, 12) == sample(spec, 12)
    assert sample(spec, 12) != sample(spec, 13)


def test_uniform_degenerate_interval():
    assert sample(uniform(0.3, 0.3), 5) == 0.3


def test_gauss_zero_variance():
    assert sample(gauss(0.4, 0.0), 5) == 0.4


def test_eval_mosfet_style_params():
    params = Params({"w": 0.135, "vth": 0.4, "test": Formula("1 / vth")})
    out = eval_params(params)
    assert out == {"w": 0.135, "vth": 0.4, "test": 2.5}
    assert out["test"] == 2.5  # exact, not approximate


def test_eval_keeps_insertion_order():
    params = Params({"b": Formula("a"), "a": 1.0})
    assert list(eval_params(params)) == ["b", "a"]


def test_eval_text_passthrough():
    out = eval_params(Params({"kind": "fast", "w": 1.0}))
    assert out == {"kind": "fast", "w": 1.0}


def test_eval_cycle_rejected_with_cycle_members():
    params = Params({"a": Formula("b"), "b": Formula("a")})
    with pytest.raises(CyclicDependencyError) as err:
        eval_params(params)
    assert set(err.value.cycle) >= {"a", "b"}


def test_eval_self_reference_rejected():
    with pytest.raises(CyclicDependencyError):
        eval_params(Params({"a": Formula("a + 1")}))


# the map -> the cycle it reports: from the first formula by name that no
# order places, each formula's first such dependency by name until one repeats
_CYCLES = {
    "pair": ({"a": "b", "b": "a"}, "a -> b -> a"),
    "self": ({"a": "a + 1"}, "a -> a"),
    "tail": ({"x": "y", "y": "z", "z": "y"}, "y -> z -> y"),
    "placed dependency": ({"c": "b + a", "b": "c", "a": "1"}, "b -> c -> b"),
    "two cycles": ({"p": "q", "q": "p", "a": "b + a", "b": "2"}, "a -> a"),
    "first by name": ({"z": "min(y, x)", "y": "z * x", "x": "w", "w": "y"}, "w -> y -> x -> w"),
}


@pytest.mark.parametrize("case", list(_CYCLES))
def test_a_cycle_is_reported_along_first_dependencies(case):
    texts, cycle = _CYCLES[case]
    with pytest.raises(CyclicDependencyError) as err:
        eval_params(Params({name: Formula(text) for name, text in texts.items()}))
    assert str(err.value) == f"cyclic parameter dependency: {cycle}"
    assert err.value.cycle == cycle.split(" -> ")


def _long_chain(**last) -> Params:
    texts = long_cycle_formulas()
    return Params({**{name: Formula(text) for name, text in texts.items()}, **last})


def test_a_long_chain_into_a_cycle_is_a_cyclic_dependency_error():
    # it ended in a RecursionError
    with pytest.raises(CyclicDependencyError) as err:
        eval_params(_long_chain())
    assert str(err.value) == "cyclic parameter dependency: f1199 -> f1200 -> f1199"


def test_a_long_acyclic_chain_evaluates():
    assert eval_params(_long_chain(f1200=1.5))["f0"] == 1.5


def test_eval_chained_formulas():
    params = Params(
        {"c": Formula("b * 2"), "b": Formula("a + 1"), "a": 3.0}
    )
    assert eval_params(params) == {"c": 8.0, "b": 4.0, "a": 3.0}


def test_eval_unresolved_identifier():
    with pytest.raises(UnresolvedIdentifierError):
        eval_params(Params({"a": Formula("missing")}))


def test_eval_text_referenced_by_formula_is_an_error():
    params = Params({"kind": "fast", "x": Formula("kind + 1")})
    with pytest.raises(UnresolvedIdentifierError):
        eval_params(params)


def test_formula_over_sampled_value():
    # the formula must see the sampled vth, not the spec
    params = Params({"vth": gauss(0.4, 0.1), "test": Formula("1 / vth")})
    out = eval_params(params, rng=99)
    assert out["test"] == 1 / out["vth"]


def test_eval_zero_variance_distribution_is_exact():
    out = eval_params(Params({"vth": gauss(0.4, 0.0)}), rng=42)
    assert out == {"vth": 0.4}


def test_extra_context_and_shadowing():
    params = Params({"w": Formula("_x + 1"), "_y": 10.0, "z": Formula("_y")})
    out = eval_params(params, extra_context={"_x": 2, "_y": 0})
    assert out["w"] == 3.0
    assert out["z"] == 10.0  # sibling parameter shadows the context


def test_permutation_invariance_all_orders():
    entries = [
        ("w", 0.135),
        ("vth", 0.4),
        ("test", Formula("1 / vth")),
    ]
    results = []
    for order in itertools.permutations(entries):
        results.append(eval_params(Params(dict(order)), rng=3))
    for result in results[1:]:
        assert result == results[0]


def test_permutation_invariance_with_random_specs():
    entries = [("a", gauss(1.0, 0.1)), ("b", gauss(2.0, 0.1)), ("c", Formula("a + b"))]
    baseline = eval_params(Params(dict(entries)), rng=7)
    for order in itertools.permutations(entries):
        assert eval_params(Params(dict(order)), rng=7) == baseline


def test_eval_bitwise_determinism():
    params = Params({"vth": gauss(0.4, 0.1), "u": uniform(0, 1), "t": Formula("vth * u")})
    a = eval_params(params, rng=Xoshiro256StarStar(11))
    b = eval_params(params, rng=Xoshiro256StarStar(11))
    assert a == b


@given(
    st.permutations(
        [("a", 1.5), ("b", 2.0), ("f", Formula("a + b")), ("g", Formula("f * a"))]
    ),
    st.integers(0, 2**32),
)
@settings(max_examples=100)
def test_property_permutation_invariance(order, seed):
    expected = {"a": 1.5, "b": 2.0, "f": 3.5, "g": 5.25}
    assert eval_params(Params(dict(order)), rng=seed) == expected


def test_gauss_statistics():
    gen = Xoshiro256StarStar(1)
    spec = gauss(0.4, 0.1)
    n = 20_000
    values = [spec.sample(gen) for _ in range(n)]
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    assert abs(mean - 0.4) < 0.005
    assert abs(std - 0.1) < 0.005


# --- every mutator checks values and drops the cached plan ----------------------

@pytest.mark.parametrize(
    "mutate,error",
    [
        (lambda p: p.update({"x": float("nan")}), ValueError),
        (lambda p: p.update({"y": True}), TypeError),
        (lambda p: p.update({"z": [1]}), TypeError),
        (lambda p: p.update(x=float("inf")), ValueError),
        (lambda p: p.setdefault("a", float("inf")), ValueError),
        (lambda p: p.__ior__({"b": float("nan")}), ValueError),
        (lambda p: p.update({"": 1.0}), TypeError),
        (lambda p: p | {"bad name": 1.0}, ValueError),
        (lambda p: p | {"y": True}, TypeError),
    ],
)
def test_mutators_reject_bad_values(mutate, error):
    params = Params({"w": 1.0})
    with pytest.raises(error):
        mutate(params)
    assert eval_params(params) == {"w": 1.0}


def test_or_and_copy_keep_the_checked_type():
    # dict's | and copy() returned plain dicts that no check had seen
    params = Params({"x": 1.0})
    merged = params | {"y": 2.0}
    assert type(merged) is Params and merged == {"x": 1.0, "y": 2.0} and params == {"x": 1.0}
    assert type(params.copy()) is Params
    corners = ParamSet({"TT": {"x": 1.0}})
    both = corners | {"FF": {"y": 2.0}}
    assert type(both) is ParamSet and all(type(p) is Params for p in both.values())
    copied = corners.copy()
    assert type(copied) is ParamSet and copied == corners and copied["TT"] is corners["TT"]
    assert type({"a": 1} | params) is dict  # a plain map on the left stays plain


def test_ior_operator_checks_values():
    params = Params({"w": 1.0})
    with pytest.raises(ValueError):
        params |= {"b": float("nan")}
    params |= {"b": 2.0}
    assert eval_params(params) == {"w": 1.0, "b": 2.0}


def test_setdefault_keeps_existing_value():
    params = Params({"w": 1.0})
    assert params.setdefault("w", 5.0) == 1.0
    assert params.setdefault("l", 2.0) == 2.0
    assert eval_params(params) == {"w": 1.0, "l": 2.0}


@pytest.mark.parametrize(
    "mutate,expected",
    [
        (lambda p: p.__setitem__("a", 5.0), {"a": 5.0, "b": 10.0}),
        (lambda p: p.update({"a": 4.0}), {"a": 4.0, "b": 8.0}),
        (lambda p: p.__ior__({"b": Formula("a * 3")}), {"a": 1.0, "b": 3.0}),
        (lambda p: p.__setitem__("b", Formula("a + w")), None),
        (lambda p: p.setdefault("w", 7.0), {"a": 1.0, "b": 2.0, "w": 7.0}),
        (lambda p: p.__delitem__("b"), {"a": 1.0}),
        (lambda p: p.pop("b"), {"a": 1.0}),
        (lambda p: p.popitem(), {"a": 1.0}),
        (lambda p: p.clear(), {}),
    ],
)
def test_mutation_after_evaluation_is_seen(mutate, expected):
    params = Params({"a": 1.0, "b": Formula("a * 2")})
    assert eval_params(params) == {"a": 1.0, "b": 2.0}
    mutate(params)
    if expected is None:
        with pytest.raises(UnresolvedIdentifierError):
            eval_params(params)
    else:
        assert eval_params(params) == expected


def test_mutation_that_adds_a_cycle_is_seen():
    params = Params({"a": 1.0, "b": Formula("a * 2")})
    eval_params(params)
    params["a"] = Formula("b")
    with pytest.raises(CyclicDependencyError):
        eval_params(params)


def test_template_params_mutated_after_export_are_exported():
    device = Component("dev", ["a", "b"], {"w": 1.0, "area": Formula("w * 2")}, prefix="X")
    circuit = Circuit()
    circuit += device @ ["a", "b"]
    assert "X1 a b dev w=1 area=2\n" in export(circuit, "spice")
    device.params.update({"w": 3.0})
    assert "X1 a b dev w=3 area=6\n" in export(circuit, "spice")
    device.params["extra"] = Formula("area + 1")
    assert "X1 a b dev w=3 area=6 extra=7\n" in export(circuit, "spice")


def test_plan_is_built_once_and_reused():
    params = Params({"w": 1.0, "vth": gauss(0.4, 0.1), "t": Formula("1 / vth")})
    plan = params.plan
    eval_params(params, rng=3)
    assert params.plan is plan
    assert [name for name, _ in plan.formulas] == ["t"]
    params["w"] = 2.0
    assert params.plan is not plan


def test_plan_of_plain_dict_matches_params():
    values = {"b": Formula("a + 1"), "a": 2.0, "g": uniform(0.0, 1.0)}
    assert eval_params(values, rng=9) == eval_params(Params(values), rng=9)


def test_merged_and_copy_do_not_share_a_plan():
    base = Params({"a": 1.0, "b": Formula("a * 2")})
    eval_params(base)
    child = base.merged({"a": 4.0})
    copy = base.copy()
    assert eval_params(child) == {"a": 4.0, "b": 8.0}
    copy["a"] = 5.0
    assert eval_params(copy) == {"a": 5.0, "b": 10.0}
    assert eval_params(base) == {"a": 1.0, "b": 2.0}


# --- copies and pickles ----------------------------------------------------------------

@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_formula_and_params_copy_and_pickle(duplicate):
    formula = Formula("w * l * 2")
    assert formula.evaluate({"w": 1.0, "l": 3.0}) == 6.0  # compiled before copying
    twin = duplicate(formula)
    assert twin == formula and twin.text == formula.text
    assert twin.evaluate({"w": 2.0, "l": 3.0}) == 12.0

    params = Params({"w": 1.0, "vth": gauss(0.4, 0.1), "t": Formula("1 / vth")})
    eval_params(params, rng=5)
    twin = duplicate(params)
    assert type(twin) is Params and twin == params
    assert eval_params(twin, rng=5) == eval_params(params, rng=5)
    with pytest.raises(ValueError):
        twin["w"] = float("nan")


@pytest.mark.parametrize(
    "duplicate",
    [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["deepcopy", "pickle"],
)
def test_circuit_with_formulas_copies_and_exports_same_bytes(duplicate):
    for circuit in (ro_circuit(), defect_chain_circuit()):
        before = export(circuit, "spice", seed=4)
        twin = duplicate(circuit)
        assert twin == circuit
        assert export(twin, "spice", seed=4) == before
        assert export(twin, "spectre", seed=4) == export(circuit, "spectre", seed=4)
        # chain links stay one Net shared by the instances they join
        assert _shared_nets(twin) == _shared_nets(circuit)


def _shared_nets(circuit):
    """(i, j) for each pair of top-level instances that hold one Net object."""
    instances = circuit.instances
    return {
        (i, j)
        for i, inst in enumerate(instances)
        for j in range(i + 1, len(instances))
        if any(net is other for net in inst.nets for other in instances[j].nets)
    }
