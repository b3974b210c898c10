"""The generated RK4 loop against the loops it replaced.

`rk4_solve` and both paths of `check_solve_functoriality` run one loop that
`opendyn.ode` generates per system. Each case here runs three ways (a
constant signal, a sampled signal, and live wiring through a lens) and must
give what the plain loop of `tree_walk_oracle` gives, over opendyn's compiled
evaluators and over the tree walk: the same trajectory bits and deviation bits, or the
same error class and message.
"""

import math
import random
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
    ProjectFile,
    ValidationError,
    check_solve_functoriality,
    cli,
    rk4_solve,
    save_project,
    substitute,
)
from opendyn.expr import Num, Var

import tree_walk_oracle
from helpers import fixture_path, wired
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


# -- outputs read at stage a ---------------------------------------------------

SIGNALS = {
    "constant": ParamSignal.constant((0.4, 0.9)),
    "sampled": ParamSignal((0.0, 0.25, 0.6), ((0.4, 0.9), (0.7, -0.3), (0.1, 1.2))),
}


def hexed(module, *args):
    """`float.hex` of every time, state and output of `module.rk4_solve`."""
    traj = module.rk4_solve(*args)
    return [tuple(map(float.hex, row)) for row in (traj.times, *traj.values, *traj.outputs)]


@pytest.mark.parametrize("signal", SIGNALS)
@pytest.mark.parametrize("depth", [1, 4, 16])
def test_tower_outputs_are_the_oracles_bit_for_bit(depth, signal):
    args = (wired(depth), (0.3, -0.7), SIGNALS[signal], 0.0, 1.0, 1 / 64)
    fused = hexed(opendyn, *args)
    for oracle in ORACLES:
        assert fused == hexed(oracle, *args)


@pytest.mark.parametrize("signal", SIGNALS)
@pytest.mark.parametrize("seed", range(6))
def test_seeded_computed_readouts_are_the_oracles_bit_for_bit(seed, signal):
    # outputs that copy a state, share a field term, or hold terms of their own
    rng = random.Random(seed)
    a, b, c = (round(rng.uniform(0.2, 1.0), 3) for _ in range(3))
    system = OdeSystem(
        ["x", "y"], ["o1", "o2", "o3", "o4"], ["p", "q"],
        {"o1": "y", "o2": f"sin(x*y) + {a}*x", "o3": f"exp(y)/(1 + x*x) - {b}", "o4": f"{c}*2.0"},
        {"x": f"p*cos(y) - {b}*x + 0.1*(sin(x*y) + {a}*x)", "y": f"q*sin(x) - {c}*y"},
    )
    args = (system, (rng.uniform(-1, 1), rng.uniform(-1, 1)), SIGNALS[signal], 0.0, 1.0, 1 / 32)
    fused = hexed(opendyn, *args)
    for oracle in ORACLES:
        assert fused == hexed(oracle, *args)


def test_a_readout_failing_only_at_the_last_row():
    # x = t exactly: 1 - x is 0 at the last row alone, which no step starts from
    system = OdeSystem(["x"], ["o"], [], {"o": "log(1 - x)"}, {"x": "1"})
    args = (system, (0.0,), ParamSignal.constant(()), 0.0, 1.0, 0.125)
    fused = outcome(lambda: rk4_solve(*args))
    assert fused[:2] == (ExprEvalError, "readout component 'o': log(0.0) is undefined")
    for oracle in ORACLES:
        assert outcome(lambda: oracle.rk4_solve(*args)) == fused


def cubic(trap: float, readout: str):
    """x' = 1, y' = x*x from (0, 0) over [0, 1] at h = 0.125: x is t exactly,
    and y's rows and stage states differ. The field of x fails where y is
    `trap`."""
    system = OdeSystem(
        ["x", "y"], ["o"], [], {"o": readout}, {"x": f"1 + 0*log((y - {trap!r})^2)", "y": "x*x"}
    )
    return system, (0.0, 0.0), ParamSignal.constant(()), 0.0, 1.0, 0.125


def cubic_states():
    """The rows of `cubic`, and the state of each stage in the loop's order."""
    stages = []

    def field(t, s):
        stages.append(s)
        return (1.0, s[0] * s[0])

    _, rows = tree_walk_oracle.integrate(field, ("x", "y"), (0.0, 0.0), 0.0, 1.0, 0.125)
    return rows, stages


def test_a_readout_failing_only_at_a_stage_state_is_never_evaluated_there():
    rows, stages = cubic_states()
    assert stages[1][0] == 0.0625 and all(x != 0.0625 for x, _ in rows)  # stage b, step 1
    args = cubic(-1.0, "log((x - 0.0625)^2)")
    fused = hexed(opendyn, *args)
    for oracle in ORACLES:
        assert fused == hexed(oracle, *args)


def test_a_field_failing_only_at_the_last_row_is_never_evaluated_there():
    rows, stages = cubic_states()
    last = rows[-1][1]
    assert all(y != last for _, y in stages)
    args = cubic(last, "x*y")
    fused = hexed(opendyn, *args)
    assert fused == hexed(opendyn, *cubic(-1.0, "x*y"))
    for oracle in ORACLES:
        assert fused == hexed(oracle, *args)


def test_a_field_error_wins_over_a_readout_only_error_at_the_same_row():
    rows, stages = cubic_states()
    row = rows[4][1]
    assert [y for _, y in stages].index(row) == 16  # stage a from row 4, and none before
    # the readout's log((row - y)^2) is a term of its own, and fails at row 4 too
    args = cubic(row, f"log(({row!r} - y)^2)")
    fused = outcome(lambda: rk4_solve(*args))
    assert fused[:2] == (
        ExprEvalError,
        f"field component 'x': log(0.0) is undefined at t=0.5 in state (x=0.5, y={row!r})",
    )
    for oracle in ORACLES:
        assert outcome(lambda: oracle.rk4_solve(*args)) == fused


@pytest.mark.parametrize("kind", ["tower", "lv"])
def test_one_compile_per_system_per_simulate_op(kind, tmp_path, monkeypatch, capsys):
    import opendyn.expr as expr

    if kind == "lv":
        path, system = fixture_path("lv.json"), "lotka_volterra"
        options = ["--init=2.0,1.0", "--params=1.0,0.5,0.2,0.4"]
    else:
        path, system = tmp_path / "tower.json", "wired"
        save_project(ProjectFile(systems={"wired": wired(4)}), path)
        options = ["--init=0.3,-0.7", "--params=0.4,0.9"]
    argv = ["simulate", str(path), "--system", system, *options, "--t1", "1", "--h", "0.125"]
    cli.main([*argv, "--out", str(tmp_path / "warm.csv")])  # the RK4 loop of this shape, cached
    compiled = []

    def counted(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(expr, "compile", counted, raising=False)
    for op in range(3):
        assert cli.main([*argv, "--out", str(tmp_path / f"{op}.csv")]) == 0
        assert compiled == ["<compiled field>"] * (op + 1)
    assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
    capsys.readouterr()
