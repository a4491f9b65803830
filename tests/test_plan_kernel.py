"""A plan's generated kernel renders exactly what per-value evaluation does.

ParamPlan.run compiles each plan into one kernel that renders a run of lines
(ParamPlan._kernel). These tests hold the kernel, on generated plans, to a
call-through reference that evaluates each line with ParamPlan.evaluate and
formats each value with format_number (the same bytes, or the same error
class and message and the same lines before it, and the same generator
state after the run), to the generator's own methods bit for bit, and to
one compile per plan shape, however many plans share it. Wrapping the
per-value names, as a tracer does, leaves the kernel in place.
"""

import inspect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_formula import _NAMES, _asts
from test_render_reference import _tokens

from netforge import Component, Formula, exporters, params
from netforge.core import Circuit
from netforge.errors import CyclicDependencyError
from netforge.numfmt import format_number
from netforge.params import ParamPlan, Params, RandomSpec, gauss, lognormal, uniform
from netforge.rng import STEP, Xoshiro256StarStar, _batch_kernel, _batch_source, _lanes

SEEDS = (0, 42, 2**64 - 1)
FACTORY = params._factory  # the cache of compiled kernels, one per plan shape

# every hostile string carries the marker, so no generated source may hold it
MARKER = "§"
HOSTILE = tuple(
    MARKER + text
    for text in ('q"uote', "apo's", "new\nline", "%s", "%(w)s", "{}", "{0}", "k=v", "\\", "")
)

_draws = st.one_of(
    st.tuples(st.floats(-1e3, 1e3), st.floats(0, 1e3)).map(lambda t: uniform(t[0], t[0] + t[1])),
    st.tuples(st.floats(-1e3, 1e3), st.floats(0, 10)).map(lambda t: gauss(*t)),
    st.tuples(st.floats(-5, 5), st.floats(0, 2)).map(lambda t: lognormal(*t)),
    # overflows: exp(800) always, and a huge spread sometimes
    st.sampled_from([lognormal(800.0, 0.0), lognormal(0.0, 1e300), gauss(1e308, 1e308)]),
)
_constants = st.one_of(
    st.floats(-1e6, 1e6), st.integers(-5, 5), st.sampled_from([0.0, 1e-300, 1e300]),
    st.sampled_from(HOSTILE), st.sampled_from(["fast", "nch"]),
)
# one of the three kinds, each a third of the time (one_of alone would weigh
# them by their number of branches)
_values = st.sampled_from([_constants, _draws, _asts(3).map(Formula.from_ast)]).flatmap(
    lambda kind: kind
)
_plans = st.dictionaries(st.sampled_from(_NAMES + HOSTILE), _values, min_size=1, max_size=7)
# each name present, with a number or (less often) text, or missing
_context_values = st.floats(-1e3, 1e3) | st.sampled_from([0, 2, 0.0, "text", HOSTILE[0]])
_contexts = st.none() | st.fixed_dictionaries(
    {}, optional=dict.fromkeys(_NAMES + HOSTILE[:3] + ("zz",), _context_values)
)


def _render(run, context, seed):
    # two lines with one context, so a run's second line starts from the first's state
    rng, out = Xoshiro256StarStar(seed), []
    befores = [MARKER + "X1 a b ", "\nX2 b c "]
    try:
        run(befores, [context, context], rng, out)
        outcome = ("text", out)
    except Exception as exc:  # compared by class and message
        outcome = ("error", type(exc), str(exc), out)
    return outcome, (rng._s0, rng._s1, rng._s2, rng._s3)


def _call_through(values):
    """The run function the slow way: each line's values from
    ParamPlan.evaluate, each formatted with format_number (text verbatim)."""

    def run(befores, contexts, rng, out):
        for before, context in zip(befores, contexts):
            out.append(before + _tokens(values, context, rng))

    return run


@pytest.fixture
def sources(monkeypatch):
    """The source of every kernel compiled while the test runs."""
    seen = []
    source_of = params._source

    def spy(shape):
        source = source_of(shape)
        seen.append(source[0])
        return source

    monkeypatch.setattr(params, "_source", spy)
    FACTORY.cache_clear()
    return seen


@given(values=_plans, context=_contexts, seed=st.sampled_from(SEEDS))
@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_kernel_equals_the_call_through_path(sources, values, context, seed):
    # a plain mapping: Params takes only identifier names, but a plan (and
    # eval_params) takes any mapping, so hostile names must stay out of the source
    try:
        plan = ParamPlan(values)
    except CyclicDependencyError:
        return
    assert _render(plan._kernel(), context, seed) == _render(_call_through(values), context, seed)
    # user values reach the kernel only as bound values, never as source
    assert not any(MARKER in source for source in sources)


def test_run_returns_the_kernel_while_the_per_value_names_are_wrapped(monkeypatch):
    plan = Params({"w": 1.0, "l": uniform(1.0, 2.0), "a": Formula("w*l")}).plan
    kernel = plan.run()
    calls = []
    for owner, attr in ((RandomSpec, "sample"), (Formula, "evaluate"),
                        (exporters, "format_number")):
        original = getattr(owner, attr)
        monkeypatch.setattr(
            owner, attr, lambda *args, original=original: calls.append(1) or original(*args)
        )
    assert plan.run() is kernel and kernel.__name__ == "run"
    fresh = Params(dict(plan.constants, l=uniform(1.0, 2.0), a=Formula("w*l"))).plan.run()
    assert fresh.__name__ == "run"
    out = []
    fresh([""], [None], Xoshiro256StarStar(1), out)
    assert out[0].startswith("w=1 l=1.") and calls == []


# --- the rng stream ------------------------------------------------------------------


def test_next_u64_runs_the_step_that_kernels_splice_in():
    body = inspect.getsource(Xoshiro256StarStar.next_u64)
    positions = [body.index("\n        " + line + "\n") for line in STEP]
    assert positions == sorted(positions)
    # the batch runs the kernel compiled from rng's source: STEP on the lanes,
    # with the lane mask, once per output of a lane, before the outputs are stored
    source = _batch_source()
    loop = source.index("    for k in range(min(n, LANE)):\n")
    lines = _lanes(STEP)
    assert lines != list(STEP) and all("0xFFFFFFFFFFFFFFFF" not in line for line in lines)
    positions = [source.index("\n        " + line + "\n") for line in lines]
    assert loop < positions[0] and positions == sorted(positions)
    assert positions[-1] < source.index("        out[k::LANE] = ")
    [code] = [c for c in compile(source, "<rng batch>", "exec").co_consts if inspect.iscode(c)]
    assert _batch_kernel().__code__.co_code == code.co_code
    # no plan kernel steps a generator: each takes its outputs from a stream
    kernel, _ = params._source((("u",), ("uniform",), (), True))
    assert "take = rng.__next__" in kernel and not any(line in kernel for line in STEP[3:])


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_draws_equal_the_generator_bit_for_bit(seed):
    # name order g, n, r, u is the draw order; each d* reads 0 only while its draw
    # equals the reference value, taken from the line's context, to the last bit
    plan = Params({
        "u": uniform(-2.5, 7.0), "g": gauss(0.4, 0.05), "n": lognormal(-1.0, 0.5),
        "r": uniform(0.0, 1.0), "du": Formula("u - _u"), "dg": Formula("g - _g"),
        "dn": Formula("n - _n"), "dr": Formula("r - _r"),
    }).plan
    run = plan._kernel()
    rng, reference = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    out = []
    for _ in range(250):
        g = 0.4 + 0.05 * reference.gauss(0.0, 1.0)
        n = reference.lognormal(-1.0, 0.5)
        r = 0.0 + 1.0 * ((reference.next_u64() >> 11) * 2.0**-53)
        u = -2.5 + (7.0 - -2.5) * reference.random()
        expected = (
            f"u={format_number(u)} g={format_number(g)} n={format_number(n)} "
            f"r={format_number(r)} du=0 dg=0 dn=0 dr=0"
        )
        run([""], [{"_u": u, "_g": g, "_n": n, "_r": r}], rng, out)
        assert out[-1] == expected
        state = (rng._s0, rng._s1, rng._s2, rng._s3)
        assert state == (reference._s0, reference._s1, reference._s2, reference._s3)


# --- compile work per shape -----------------------------------------------------------


def _overridden_instances(n: int) -> Circuit:
    """`n` instances of one primitive, each with its own override map: the
    same keys, other constants and distribution arguments."""
    dev = Component(
        "dev", ["a", "b"],
        {"w": 1e-6, "l": uniform(1e-7, 2e-7), "vth": gauss(0.4, 0.05), "area": Formula("w*l*2"),
         "kind": "nch"},
        prefix="X",
    )
    circuit = Circuit()
    for i in range(n):
        overrides = {
            "w": 1e-6 * (1 + i), "l": uniform(1e-7, 2e-7 + i * 1e-10),
            "vth": gauss(0.4 + i * 1e-5, 0.05), "kind": f"nch{i}",
        }
        circuit += (dev % overrides) @ [f"n{i}", f"n{i + 1}"]
    return circuit


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
def test_compile_work_does_not_grow_with_instances(dialect):
    compiled = {}
    for n in (10, 2_000):
        circuit = _overridden_instances(n)
        FACTORY.cache_clear()
        text = exporters.export(circuit, dialect, seed=3)
        assert text.count(" w=") == n and " kind=nch7" in text
        info = FACTORY.cache_info()
        # every instance brings its own merged plan, and all of them one shape
        assert info.hits + info.misses == n
        compiled[n] = info.misses
    assert compiled[10] == compiled[2_000] == 1


@pytest.mark.parametrize("dialect", ["spice", "spectre"])
def test_export_merges_each_overridden_instance_once(monkeypatch, dialect):
    n = 20
    circuit = _overridden_instances(n)
    merged = Params.merged
    calls = []
    monkeypatch.setattr(
        Params, "merged", lambda self, overrides: calls.append(1) or merged(self, overrides)
    )
    text = exporters.export(circuit, dialect, seed=3)
    # lint decides each line's map, and the layout reuses it
    assert len(calls) == n and text.count(" w=") == n


def test_equal_plans_of_other_values_share_the_kernel_source(sources):
    shape = {"a": 1.5, "b": uniform(0.0, 1.0), "c": Formula("a*b + _x"), "d": "x"}
    other = {"a": -3, "b": uniform(-1e300, 1e300), "c": Formula("a*b + _x"), "d": MARKER}
    texts = []
    for values in (shape, other):
        Params(values).plan.run()([""], [{"_x": 1}], Xoshiro256StarStar(1), texts)
    assert len(sources) == 1 and FACTORY.cache_info().hits == 1
    assert texts[0].startswith("a=1.5 b=0.") and texts[0].endswith(" d=x")
    assert texts[1].startswith("a=-3 b=") and texts[1].endswith(f" d={MARKER}")
