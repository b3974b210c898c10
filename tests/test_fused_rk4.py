"""The generated RK4 loop against the loops it replaced.

`rk4_solve` and both paths of `check_solve_functoriality` run one loop that
`opendyn.ode` generates per system. Each case here runs three ways (a
constant signal, a sampled signal, and live wiring through a lens) and must
give what the plain loop of `tree_walk_oracle` gives, over opendyn's compiled
evaluators and over the tree walk: the same trajectory bits and deviation bits, or the
same error class and message.
"""

import math
import re
import struct
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opendyn
from opendyn import (
    ExprEvalError,
    IntegrationError,
    OdeLens,
    OdeSystem,
    ParamSignal,
    ValidationError,
    check_solve_functoriality,
    rk4_solve,
    substitute,
)
from opendyn.expr import Num, Var

import tree_walk_oracle
from test_compiled_expr import _extend, trees

UNFUSED = SimpleNamespace(
    rk4_solve=partial(tree_walk_oracle.rk4_solve, evaluators=tree_walk_oracle.COMPILED),
    check_solve_functoriality=partial(
        tree_walk_oracle.check_solve_functoriality, evaluators=tree_walk_oracle.COMPILED
    ),
)
ORACLES = (UNFUSED, tree_walk_oracle)

# Trees from the expression tests, over x, y (states) and z (the parameter);
# the unbound `w` of those tests becomes a constant. The tame ones keep most
# trajectories finite for several steps; the others blow up or fail early.
tame_trees = st.recursive(
    st.one_of(
        st.floats(-2.0, 2.0).map(Num),
        st.sampled_from(("x", "y", "z", "w")).map(Var),
    ),
    _extend,
    max_leaves=10,
)
system_trees = st.one_of(tame_trees, trees).map(lambda e: substitute(e, {"w": Num(0.5)}))
readout_trees = system_trees.map(lambda e: substitute(e, {"z": Var("y")}))
lens_trees = system_trees.map(
    lambda e: substitute(e, {"x": Var("o"), "y": Var("q"), "z": Var("o")})
)
values = st.one_of(st.sampled_from((0.0, -0.0, 0.5, -1.0, 2.0, 1e-300)), st.floats(-3.0, 3.0))


@st.composite
def cases(draw):
    system = OdeSystem(
        ["x", "y"], ["o"], ["z"],
        {"o": draw(readout_trees)},
        {"x": draw(system_trees), "y": draw(system_trees)},
    )
    lens = OdeLens(["o"], ["z"], ["o2"], ["q"], {"o2": Var("o")}, {"z": draw(lens_trees)})
    h = draw(st.sampled_from((0.125, 0.1, 0.3)))
    t1 = draw(st.sampled_from((0.5, 1.0, 1.3)))
    times = sorted(set(draw(st.lists(st.floats(0.0, t1), min_size=2, max_size=4))))
    if len(times) < 2:
        times.append(t1 + 1.0)
    rows = [(draw(values),) for _ in times]
    return {
        "system": system,
        "lens": lens,
        "s0": (draw(values), draw(values)),
        "constant": ParamSignal.constant((draw(values),)),
        "sampled": ParamSignal(times, rows),
        "window": (0.0, t1, h),
    }


def outcome(call):
    """IEEE bytes of every number in the result, or the error's class,
    message and (for a blow-up) time."""
    try:
        result = call()
    except (ExprEvalError, IntegrationError) as exc:
        return type(exc), str(exc), getattr(exc, "time", None)
    if hasattr(result, "max_deviation"):
        return result.passed, struct.pack("<2d", result.max_deviation, result.time)
    rows = (result.times, *result.values, *result.outputs)
    return [struct.pack(f"<{len(row)}d", *row) for row in rows]


def solve(module, case, signal):
    return outcome(lambda: module.rk4_solve(case["system"], case["s0"], signal, *case["window"]))


def wire(module, case, signal):
    return outcome(
        lambda: module.check_solve_functoriality(
            case["lens"], case["system"], case["s0"], signal, *case["window"], 1e-9
        )
    )


class TestAgainstTheUnfusedLoops:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(cases())
    def test_constant_signal(self, case):
        fused = solve(opendyn, case, case["constant"])
        for oracle in ORACLES:
            assert fused == solve(oracle, case, case["constant"])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(cases())
    def test_sampled_signal(self, case):
        fused = solve(opendyn, case, case["sampled"])
        for oracle in ORACLES:
            assert fused == solve(oracle, case, case["sampled"])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(cases(), st.booleans())
    def test_live_wiring(self, case, sampled):
        signal = case["sampled" if sampled else "constant"]
        fused = wire(opendyn, case, signal)
        for oracle in ORACLES:
            assert fused == wire(oracle, case, signal)

    def test_the_cases_reach_every_outcome(self):
        """The generated cases integrate cleanly, fail in the field, blow up,
        and fail in the readout, each several times."""
        seen = {}

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(cases())
        def tally(case):
            result = solve(opendyn, case, case["constant"])
            if isinstance(result, list):
                kind = "clean"
            else:
                kind = result[1].split(" ")[0] if result[0] is ExprEvalError else "blow-up"
            seen[kind] = seen.get(kind, 0) + 1

        tally()
        assert {"clean", "field", "readout", "blow-up"} <= set(seen)
        assert min(seen.values()) >= 3, seen


# -- errors placed at a chosen stage ------------------------------------------

H = 0.25
STAGES = ("k1", "k2", "k3", "k4")


def stage_records(s0):
    """(step, stage, stage time, x) of every field evaluation of `x' = x`."""
    records = []
    step = {"j": 0, "s": 0}

    def f(t, y):
        records.append((step["j"], STAGES[step["s"]], t, y[0]))
        step["s"] = (step["s"] + 1) % 4
        step["j"] += step["s"] == 0
        return (y[0], -y[1])

    tree_walk_oracle.integrate(f, ("x", "y"), s0, 0.0, 2.0, H)
    return records


def trap(c: float, switch: float):
    """`x' = x`, `y' = -y`, plus a term that fails, with `log(0.0) is
    undefined`, at the first stage at or after time `switch` whose x is
    exactly `c`. Before `switch` the parameter p is 0 and the term reads
    log(x^2), which is finite while x grows from 1."""
    system = OdeSystem(
        ["x", "y"], ["o"], ["p"], {"o": "x"},
        {"x": f"x + 0*log((x - {c!r}*p)^2)", "y": "-y"},
    )
    if switch == 0.0:
        return system, ParamSignal.constant((1.0,))
    return system, ParamSignal((0.0, switch), ((0.0,), (1.0,)))


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("step", [0, 3])
def test_an_evaluation_error_at_each_stage(step, stage):
    s0 = (1.0, 0.5)
    records = stage_records(s0)
    _, _, when, c = next(r for r in records if r[:2] == (step, stage))
    system, signal = trap(c, when)
    lens = OdeLens(["o"], ["p"], ["o2"], ["q"], {"o2": "o"}, {"p": "q"})
    args = (system, s0, signal, 0.0, 2.0, H)
    fused = outcome(lambda: rk4_solve(*args))
    assert fused[0] is ExprEvalError
    assert fused[1].startswith(
        f"field component 'x': log(0.0) is undefined at t={when!r} in state (x={c!r}, y="
    )
    for oracle in ORACLES:
        assert outcome(lambda: oracle.rk4_solve(*args)) == fused
    wired = (lens, system, s0, signal, 0.0, 2.0, H, 1e-9)
    live = outcome(lambda: check_solve_functoriality(*wired))
    assert live[0] is ExprEvalError
    for oracle in ORACLES:
        assert outcome(lambda: oracle.check_solve_functoriality(*wired)) == live


BLOW_UP = re.compile(
    r"state became non-finite in the step from t=(\S+) to t=(\S+): "
    r"\(x=(\S+), y=(\S+)\) -> \(x=(\S+), y=(\S+)\)"
)


@pytest.mark.parametrize("s0", [1.0, 2.0, 4.0])
def test_a_blow_up_names_its_step_and_states(s0):
    # x' = x^4 leaves the floats at a step that comes sooner for a larger x0
    system = OdeSystem(["x", "y"], ["o"], [], {"o": "y"}, {"x": "x*x*x*x", "y": "1"})
    args = (system, (s0, 0.0), ParamSignal.constant(()), 0.0, 1.0, 0.01)
    fused = outcome(lambda: rk4_solve(*args))
    assert fused[0] is IntegrationError
    match = BLOW_UP.fullmatch(fused[1])
    assert match, fused[1]
    t, t_next, x, y, x_next, y_next = map(float, match.groups())
    assert t_next == fused[2] and t_next - t == pytest.approx(0.01)
    assert math.isfinite(x) and not math.isfinite(x_next) and y_next == t_next
    for oracle in ORACLES:
        assert outcome(lambda: oracle.rk4_solve(*args)) == fused


def test_a_readout_error_comes_after_a_clean_integration():
    # x falls through 0 at t = 0.5: the readout log(x) fails there, the field never
    system = OdeSystem(["x"], ["o"], [], {"o": "log(x)"}, {"x": "-1"})
    args = (system, (0.5,), ParamSignal.constant(()), 0.0, 1.0, 0.125)
    fused = outcome(lambda: rk4_solve(*args))
    assert fused[:2] == (ExprEvalError, "readout component 'o': log(0.0) is undefined")
    for oracle in ORACLES:
        assert outcome(lambda: oracle.rk4_solve(*args)) == fused


def test_an_integration_error_wins_over_a_readout_error():
    # the readout fails from t = 0.5 on, the field only at t = 0.875
    system = OdeSystem(["x"], ["o"], [], {"o": "log(x)"}, {"x": "-1 + 0*log(x + 0.375)"})
    args = (system, (0.5,), ParamSignal.constant(()), 0.0, 1.0, 0.125)
    fused = outcome(lambda: rk4_solve(*args))
    assert fused[0] is ExprEvalError and fused[1].startswith("field component 'x'")
    for oracle in ORACLES:
        assert outcome(lambda: oracle.rk4_solve(*args)) == fused


def test_the_loop_is_built_once_per_system_and_shared_by_shape():
    a = OdeSystem(["x"], ["o"], ["p"], {"o": "x"}, {"x": "p*x"})
    b = OdeSystem(["u"], ["v"], ["q"], {"v": "u"}, {"u": "-q*u"})
    assert a.integrator() is a.integrator()
    assert a.integrator() is not b.integrator()
    assert a.integrator().__code__ is b.integrator().__code__
    signal = ParamSignal.constant((0.5,))
    assert rk4_solve(a, (1.0,), signal, 0.0, 1.0, 0.5).values[-1][0] > 1.0
    assert rk4_solve(b, (1.0,), signal, 0.0, 1.0, 0.5).values[-1][0] < 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_initial_value_is_refused_by_name(bad):
    system = OdeSystem(["x", "y"], ["o"], [], {"o": "x"}, {"x": "y", "y": "-x"})
    with pytest.raises(ValidationError) as err:
        rk4_solve(system, (1.0, bad), ParamSignal.constant(()), 0.0, 1.0, 0.1)
    assert str(err.value) == f"initial value of 'y' must be finite, got {bad!r}"
