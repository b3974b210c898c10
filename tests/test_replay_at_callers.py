"""Errors of generated code, explained by the code that calls it.

The functions `expr.compile_tables` generates only compute: where one
raises an ArithmeticError, ValueError or LookupError (`expr.FAULTS`), its
caller replays the tables through `evaluate` (`expr.replayed`). The callers
are each RK4 stage of the generated loop, `eval_field` and so
`check_residual`, `compile_table`, and the live-wired loop of
`check_solve_functoriality`. Each must raise the error the tree walk of
`tree_walk_oracle` raises: its text, and the stage's time and state. The
fields here fail by each class generated code raises, at a chosen stage.
"""

import dis

import pytest

from opendyn import (
    ExprEvalError,
    OdeLens,
    OdeSystem,
    ParamSignal,
    check_residual,
    check_solve_functoriality,
    compile_table,
    compose_lens_ode,
    eval_field,
    load_project,
    parse,
    rk4_solve,
    substitute,
)
from opendyn.expr import Var, compile_tables

import tree_walk_oracle as oracle
from helpers import fixture_path, wired
from test_compiled_expr import outcome as values_or_error
from test_fused_rk4 import outcome

H = 0.125
SIGNALS = {
    "constant": ParamSignal.constant((0.9, 0.5)),
    "sampled": ParamSignal((0.0, 0.3, 0.55), ((0.9, 0.5), (1.3, -0.5), (0.6, 0.25))),
}

# Terms in x that fail where x reaches K, by class: division by an exact
# zero, an undefined `log` or `pow` (ValueError), an overflowing `exp` or
# `pow` (OverflowError). Each reads the parameter p, so a replay at another
# parameter row would show another value or none.
TERMS = {
    "division": "p/(x - {K})",
    "log": "log(({K} - x)*p)",
    "pow undefined": "(({K} - x)*p)^0.5",
    "exp overflow": "exp((x - {K})*(p*1e300))",
    "pow overflow": "10.0^((x - {K})*(p*1e300))",
}


def system(y_term: str = "0.0", v: str = "x*y") -> OdeSystem:
    """x grows at rate p, y at `y_term`; q is unused; the readout v is computed."""
    return OdeSystem(["x", "y"], ["o", "v"], ["p", "q"], {"o": "x", "v": v}, {"x": "x*p", "y": y_term})


def stages(sys: OdeSystem, signal: ParamSignal) -> list[tuple[str, float, tuple]]:
    """Each stage of the plain RK4 loop over `sys` from (1, 0) on [0, 1]:
    its letter, time and state, in the order evaluated."""
    seen = []

    def field(t, y):
        seen.append((t, y))
        return oracle.eval_field(sys, y, signal(t))

    oracle.integrate(field, sys.state_vars, (1.0, 0.0), 0.0, 1.0, H)
    return [("abcd"[j % 4], t, y) for j, (t, y) in enumerate(seen)]


def failing_term(kind: str, run: list, letter: str) -> tuple[str, int]:
    """The term of `kind` that first fails at the last stage `letter` can
    first fail at, and that stage's position in `run`. A threshold fails at
    a stage whose x passes every earlier one's; an exact zero at a stage
    whose x no earlier one has."""
    xs = [y[0] for _, _, y in run]
    if kind == "division":
        at = max(j for j, (s, _, _) in enumerate(run) if s == letter and xs[j] not in xs[:j])
        return TERMS[kind].format(K=repr(xs[at])), at
    at = max(j for j, (s, _, _) in enumerate(run) if s == letter and xs[j] > max(xs[:j], default=0.0))
    return TERMS[kind].format(K=repr((xs[at] + max(xs[:at], default=0.0)) / 2)), at


CASES = [(kind, letter) for kind in TERMS for letter in "abcd"]


@pytest.mark.parametrize("signal", SIGNALS)
@pytest.mark.parametrize("kind, letter", CASES)
def test_each_rk4_stage_replays_the_tree_walks_error(kind, letter, signal):
    run = stages(system(), SIGNALS[signal])
    term, at = failing_term(kind, run, letter)
    _, t, y = run[at]
    args = (system(term), (1.0, 0.0), SIGNALS[signal], 0.0, 1.0, H)
    got = outcome(lambda: rk4_solve(*args))
    assert got == outcome(lambda: oracle.rk4_solve(*args))
    assert got[0] is ExprEvalError and got[1].startswith("field component 'y': ")
    assert f" at t={t!r} in state (x={y[0]!r}, y=" in got[1]


@pytest.mark.parametrize("signal", SIGNALS)
@pytest.mark.parametrize("kind, letter", CASES)
def test_eval_field_and_compile_table_replay_at_the_failing_stage(kind, letter, signal):
    run = stages(system(), SIGNALS[signal])
    term, at = failing_term(kind, run, letter)
    sys = system(term)
    table = compile_table(sys.field, sys.state_vars, sys.state_vars + sys.param_vars, "field")
    for j in range(max(at - 1, 0), at + 1):  # the stage before computes
        _, t, y = run[j]
        row = SIGNALS[signal](t)
        expected = values_or_error(lambda: oracle.eval_field(sys, y, row))
        assert values_or_error(lambda: eval_field(sys, y, row)) == expected
        assert values_or_error(lambda: table(*y, *row)) == expected
        assert (expected[0] is ExprEvalError) == (j == at)


@pytest.mark.parametrize("signal", SIGNALS)
@pytest.mark.parametrize("kind", TERMS)
def test_check_residual_replays_at_the_first_failing_grid_point(kind, signal):
    traj = rk4_solve(system(), (1.0, 0.0), SIGNALS[signal], 0.0, 1.0, H)
    xs = [y[0] for y in traj.values]
    sys = system(TERMS[kind].format(K=repr(xs[5] if kind == "division" else (xs[4] + xs[5]) / 2)))
    with pytest.raises(ExprEvalError) as err:
        oracle.eval_field(sys, traj.values[5], SIGNALS[signal](traj.times[5]))
    expected = str(err.value)
    with pytest.raises(ExprEvalError) as err:
        check_residual(sys, traj, SIGNALS[signal], 1.0)
    assert str(err.value) == expected


def test_compile_table_replays_an_unbound_name():
    table = {"y": parse("x*2.0"), "z": parse("x + w")}
    expected = values_or_error(lambda: oracle.eval_table(table, ["y", "z"], {"x": 1.0}, "t"))
    assert expected == (ExprEvalError, "t component 'z': unbound variable 'w'")
    compiled = compile_table(table, ["y", "z"], ["x"], "t")
    assert values_or_error(lambda: compiled(1.0)) == expected


def live(v: str = "x", q: str = "s", y_term: str = "0.0"):
    """A lens whose `bwd` q and the system's readout v feed nothing that the
    composed system computes: only the live-wired loop meets them."""
    sys = system(y_term, v)
    lens = OdeLens(["o", "v"], ["p", "q"], ["u"], ["r", "s"], {"u": "o"}, {"p": "r", "q": q})
    return lens, sys


@pytest.mark.parametrize("signal", SIGNALS)
@pytest.mark.parametrize("where", ["readout", "bwd", "field"])
@pytest.mark.parametrize("kind, letter", CASES)
def test_the_live_wired_loop_replays_readout_bwd_and_field(kind, letter, where, signal):
    lens, sys = live()
    run = stages(compose_lens_ode(lens, sys), SIGNALS[signal])
    term, at = failing_term(kind, run, letter)
    if where == "readout":  # over the states alone: x for p, positive as p is
        lens, sys = live(v=substitute(parse(term), {"p": Var("x")}))
    elif where == "bwd":  # over the outputs and outer parameters
        lens, sys = live(q=substitute(parse(term), {"x": Var("o"), "p": Var("r")}))
    else:  # the composed system fails first, at the same stage
        lens, sys = live(y_term=term)
    args = (lens, sys, (1.0, 0.0), SIGNALS[signal], 0.0, 1.0, H, 1e-9)
    got = outcome(lambda: check_solve_functoriality(*args))
    assert got == outcome(lambda: oracle.check_solve_functoriality(*args))
    assert got[0] is ExprEvalError and got[1].startswith(f"{where} component ")
    _, t, y = run[at]
    assert f" at t={t!r} in state (x={y[0]!r}, y=" in got[1]


def handlers(f) -> int:
    """The `except` clauses in the code of `f`, as Python 3.10 to 3.13 spell
    their type test."""
    return sum(
        i.opname in ("CHECK_EXC_MATCH", "JUMP_IF_NOT_EXC_MATCH") for i in dis.get_instructions(f)
    )


def test_generated_code_holds_no_handler_but_the_readout_hand_off():
    lv = load_project(fixture_path("lv.json")).system("lotka_volterra")
    row = (0.5,) * len(lv.param_vars)
    assert handlers(lv.compiled()(*row)) == 0
    assert handlers(wired(16).compiled()(0.4, 0.9)) == 0
    # a readout term the field does not hold may fail: its hand-off catches
    assert handlers(system(v="log(x)").compiled()(0.9, 0.5)) == 1
    table = compile_table(lv.field, lv.state_vars, lv.state_vars + lv.param_vars, "field")
    assert handlers(table.__wrapped__) == 0 and handlers(table) == 1
    lens, sys = live()
    tables = (
        (sys.readout, sys.output_vars, "readout", None),
        (lens.bwd, sys.param_vars, "bwd", None),
        (sys.field, sys.state_vars, "field", None),
    )
    assert handlers(compile_tables(tables, sys.state_vars, lens.target_params)(0.9, 0.5)) == 0
