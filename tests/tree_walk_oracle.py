"""Field evaluation by the recursive tree walk and RK4 as a plain loop, kept as oracles.

`opendyn.ode` evaluates fields, readouts and lens `bwd` tables through
functions that `opendyn.expr.compile_table` generates, and steps RK4 in a
loop it generates per system. The functions here are the direct definitions
they replaced: `eval_table` binds each coordinate by name and calls
`evaluate` on every expression, and `integrate` is the RK4 loop that builds a
state tuple per stage. `rk4_solve` and `check_solve_functoriality` run that
loop over a choice of evaluators: `TREE_WALK` (the default) or `COMPILED`,
opendyn's own compiled functions, which isolates the stepping. They serve the
differential tests, which require bit-identical trajectories and deviations
and the same errors, messages included.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import opendyn
from opendyn import (
    ExprEvalError,
    FunctorialityResult,
    IntegrationError,
    OdeLens,
    OdeSystem,
    ParamSignal,
    Trajectory,
    compile_table,
    compose_lens_ode,
    evaluate,
)
from opendyn.expr import Expr
from opendyn.ode import _grid


def eval_table(
    table: Mapping[str, Expr], keys: Sequence[str], env: Mapping[str, float], what: str
) -> tuple[float, ...]:
    out = []
    for key in keys:
        try:
            out.append(evaluate(table[key], env))
        except ExprEvalError as exc:
            raise ExprEvalError(f"{what} component {key!r}: {exc}") from None
    return tuple(out)


def eval_field(sys: OdeSystem, state, params) -> tuple[float, ...]:
    env = dict(zip(sys.state_vars, state))
    env.update(zip(sys.param_vars, params))
    return eval_table(sys.field, sys.state_vars, env, "field")


def eval_readout(sys: OdeSystem, state) -> tuple[float, ...]:
    return eval_table(sys.readout, sys.output_vars, dict(zip(sys.state_vars, state)), "readout")


def _state(names, values) -> str:
    return ", ".join(f"{name}={v!r}" for name, v in zip(names, values))


def integrate(f, names, y0, t0: float, t1: float, h: float):
    """Classical RK4 over `opendyn.ode`'s grid, each stage written out.

    Errors carry the context `opendyn.ode` gives them: an evaluation error
    the stage time and state, a blow-up the step and the states around it.
    """

    def stage(ts, ys):
        try:
            return f(ts, ys)
        except ExprEvalError as exc:
            raise ExprEvalError(f"{exc} at t={ts!r} in state ({_state(names, ys)})") from None

    times = _grid(t0, t1, h)
    y = tuple(float(x) for x in y0)
    values = [y]
    for t, t_next in zip(times, times[1:]):
        step = t_next - t
        half = step / 2.0
        k1 = stage(t, y)
        k2 = stage(t + half, tuple(yi + half * ki for yi, ki in zip(y, k1)))
        k3 = stage(t + half, tuple(yi + half * ki for yi, ki in zip(y, k2)))
        k4 = stage(t_next, tuple(yi + step * ki for yi, ki in zip(y, k3)))
        new = tuple(
            yi + step / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        if not all(map(math.isfinite, new)):
            raise IntegrationError(
                f"state became non-finite in the step from t={t!r} to t={t_next!r}: "
                f"({_state(names, y)}) -> ({_state(names, new)})",
                time=t_next,
            )
        y = new
        values.append(y)
    return times, values


def tree_walk_bwd(lens: OdeLens, sys: OdeSystem):
    def bwd(outs, outer_values):
        penv = dict(zip(sys.output_vars, outs))
        penv.update(zip(lens.target_params, outer_values))
        return eval_table(lens.bwd, sys.param_vars, penv, "bwd")

    return bwd


def compiled_bwd(lens: OdeLens, sys: OdeSystem):
    table = compile_table(lens.bwd, sys.param_vars, sys.output_vars + lens.target_params, "bwd")
    return lambda outs, outer_values: table(*outs, *outer_values)


# (field, readout, bwd builder)
TREE_WALK = (eval_field, eval_readout, tree_walk_bwd)
COMPILED = (opendyn.eval_field, opendyn.eval_readout, compiled_bwd)


def rk4_solve(
    sys: OdeSystem, s0, signal: ParamSignal, t0: float, t1: float, h: float,
    evaluators=TREE_WALK,
):
    field, readout, _ = evaluators
    times, values = integrate(
        lambda t, y: field(sys, y, signal(t)), sys.state_vars, s0, t0, t1, h
    )
    outputs = [readout(sys, y) for y in values]
    return Trajectory(tuple(times), tuple(values), tuple(outputs))


def check_solve_functoriality(
    lens: OdeLens, sys: OdeSystem, s0, outer: ParamSignal, t0: float, t1: float, h: float,
    tol: float, evaluators=TREE_WALK,
) -> FunctorialityResult:
    field, readout, make_bwd = evaluators
    path_a = rk4_solve(compose_lens_ode(lens, sys), s0, outer, t0, t1, h, evaluators)
    bwd = make_bwd(lens, sys)

    def f(t, y):
        return field(sys, y, bwd(readout(sys, y), outer(t)))

    times, values = integrate(f, sys.state_vars, s0, t0, t1, h)
    worst, worst_time = 0.0, t0
    for t, row_a, row_b in zip(times, path_a.values, values):
        for a, b in zip(row_a, row_b):
            if abs(a - b) > worst:
                worst, worst_time = abs(a - b), t
    return FunctorialityResult(worst <= tol, worst, worst_time)
