"""Field evaluation and RK4 by the recursive tree walk, kept as an oracle.

`opendyn.ode` evaluates fields, readouts and lens `bwd` tables through
functions that `opendyn.expr.compile_table` generates. The functions here are
the direct definitions it replaced: bind each coordinate by name and call
`evaluate` on every expression, at every integrator stage. They serve the
differential tests, which require bit-identical trajectories and deviations.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from opendyn import (
    ExprEvalError,
    FunctorialityResult,
    IntegrationError,
    OdeLens,
    OdeSystem,
    ParamSignal,
    Trajectory,
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


def integrate(f, y0, t0: float, t1: float, h: float):
    """Classical RK4 over `opendyn.ode`'s grid, each stage written out."""
    times = _grid(t0, t1, h)
    y = tuple(float(x) for x in y0)
    values = [y]
    for t, t_next in zip(times, times[1:]):
        step = t_next - t
        half = step / 2.0
        k1 = f(t, y)
        k2 = f(t + half, tuple(yi + half * ki for yi, ki in zip(y, k1)))
        k3 = f(t + half, tuple(yi + half * ki for yi, ki in zip(y, k2)))
        k4 = f(t_next, tuple(yi + step * ki for yi, ki in zip(y, k3)))
        y = tuple(
            yi + step / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        if not all(map(math.isfinite, y)):
            raise IntegrationError("state became non-finite", time=t_next)
        values.append(y)
    return times, values


def rk4_solve(sys: OdeSystem, s0, signal: ParamSignal, t0: float, t1: float, h: float):
    times, values = integrate(lambda t, y: eval_field(sys, y, signal(t)), s0, t0, t1, h)
    outputs = [eval_readout(sys, y) for y in values]
    return Trajectory(tuple(times), tuple(values), tuple(outputs))


def check_solve_functoriality(
    lens: OdeLens, sys: OdeSystem, s0, outer: ParamSignal, t0: float, t1: float, h: float,
    tol: float,
) -> FunctorialityResult:
    path_a = rk4_solve(compose_lens_ode(lens, sys), s0, outer, t0, t1, h)

    def f(t, y):
        outs = eval_readout(sys, y)
        penv = dict(zip(sys.output_vars, outs))
        penv.update(zip(lens.target_params, outer(t)))
        return eval_field(sys, y, eval_table(lens.bwd, sys.param_vars, penv, "bwd"))

    times, values = integrate(f, s0, t0, t1, h)
    worst, worst_time = 0.0, t0
    for t, row_a, row_b in zip(times, path_a.values, values):
        for a, b in zip(row_a, row_b):
            if abs(a - b) > worst:
                worst, worst_time = abs(a - b), t
    return FunctorialityResult(worst <= tol, worst, worst_time)
