"""Expression walks by recursion and RK4 as a plain loop, kept as oracles.

`opendyn.expr` walks expressions as loops over one hash-consed post-order
list. `free_vars`, `to_text`, `substitute` and `evaluate` here are the
recursive tree walks they replaced: each visits a subtree once per path to
it and needs a Python frame per level, so they serve trees within the
recursion limit.

`opendyn.ode` evaluates fields, readouts and lens `bwd` tables through
functions that `opendyn.expr.compile_table` generates, and steps RK4 in a
loop it generates per system. The functions here are the direct definitions
they replaced: `eval_table` binds each coordinate by name and calls the
recursive `evaluate` on every expression, and `integrate` is the RK4 loop
that builds a state tuple per stage. `rk4_solve` and
`check_solve_functoriality` run that loop over a choice of evaluators:
`TREE_WALK` (the default) or `COMPILED`, opendyn's own compiled functions,
which isolates the stepping. They serve the differential tests, which
require bit-identical trajectories and deviations and the same errors,
messages included.
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
)
from opendyn.expr import FUNCTIONS, BinOp, Call, Expr, Neg, Num, Var
from opendyn.ode import _grid

# Precedence levels for the printer; higher binds tighter.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _ATOM_PREC


def to_text(e: Expr) -> str:
    """Canonical printing: parse(to_text(e)) reproduces e exactly."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        if _prec(e.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    left, right = to_text(e.left), to_text(e.right)
    if e.op == "^":
        # right-associative: parenthesize the left child on ties
        if _prec(e.left) <= _PREC["^"]:
            left = f"({left})"
        if _prec(e.right) < _PREC["^"]:
            right = f"({right})"
        return f"{left}^{right}"
    if _prec(e.left) < _PREC[e.op]:
        left = f"({left})"
    if _prec(e.right) <= _PREC[e.op]:
        right = f"({right})"
    if e.op in "+-":
        return f"{left} {e.op} {right}"
    return f"{left}{e.op}{right}"


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Call):
        return free_vars(e.arg)
    return free_vars(e.left) | free_vars(e.right)


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous replacement of variables by expressions."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, bindings))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, bindings))
    return BinOp(e.op, substitute(e.left, bindings), substitute(e.right, bindings))


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Call):
        arg = evaluate(e.arg, env)
        try:
            return FUNCTIONS[e.fn](arg)
        except ValueError:
            raise ExprEvalError(f"{e.fn}({arg!r}) is undefined") from None
        except OverflowError:
            raise ExprEvalError(f"{e.fn}({arg!r}) overflows") from None
    left = evaluate(e.left, env)
    right = evaluate(e.right, env)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if e.op == "/":
        if right == 0.0:
            raise ExprEvalError(f"division by zero: {to_text(e)}")
        return left / right
    try:
        return math.pow(left, right)
    except ValueError:
        raise ExprEvalError(f"{left!r}^{right!r} is undefined") from None
    except OverflowError:
        raise ExprEvalError(f"{left!r}^{right!r} overflows") from None


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
