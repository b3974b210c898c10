"""Continuous-time systems on Euclidean state spaces, wired by substitution.

An OdeSystem names its state, output, and parameter coordinates and gives
one expression per output (the readout) and one per state coordinate (the
vector field). An OdeLens renames the interface: each new output is an
expression in the old outputs, and each old parameter is an expression in
the old outputs and the new parameters. Composition is textbook simultaneous
substitution, so wiring two populations into a predator-prey loop literally
produces the expected right-hand sides.

Every evaluation runs straight-line Python that `expr.compile_table`
generates: a system compiles its field and readout once, on first use, with
each repeated subtree of a deeply wired field computed once. The results
and error messages are those of the tree walk `expr.evaluate`, which stays
the reference.

Solving is fixed-step classical RK4 on a grid of at most MAX_STEPS steps; an
evaluation error names the stage time and state it happened at.
`check_residual` replays a trajectory against the field with central
differences; `check_solve_functoriality` compares substitute-then-solve
against solving with parameters filled in on the fly at every integrator
stage. Both integrations share one stepping routine, so the two paths differ
only by where expressions are evaluated.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .errors import ExprEvalError, IntegrationError, ValidationError
from .expr import Expr, Var, compile_table, free_vars, parse, substitute

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Most steps a fixed-step time grid may take; `_grid` refuses a longer one
#: before building it. A step holds a state and an output row, so this keeps
#: a run's memory in the hundreds of megabytes.
MAX_STEPS = 1_000_000

ExprLike = Union[Expr, str]


def _as_expr(e: ExprLike) -> Expr:
    return parse(e) if isinstance(e, str) else e


def _check_vars(names: Sequence[str], what: str) -> tuple[str, ...]:
    out = tuple(names)
    seen = set()
    for name in out:
        if not isinstance(name, str) or not _IDENT.fullmatch(name):
            raise ValidationError(f"{what}: bad identifier {name!r}")
        if name in seen:
            raise ValidationError(f"{what}: duplicate identifier {name!r}")
        seen.add(name)
    return out


def _check_disjoint(groups: Mapping[str, Sequence[str]]) -> None:
    owner: dict[str, str] = {}
    for what, names in groups.items():
        for name in names:
            if name in owner:
                raise ValidationError(
                    f"identifier {name!r} appears in both {owner[name]} and {what}"
                )
            owner[name] = what


def _check_expr_table(
    table: Mapping[str, ExprLike], keys: tuple[str, ...], allowed: set[str], what: str
) -> dict[str, Expr]:
    for key in table:
        if key not in keys:
            raise ValidationError(f"{what} has an entry for unknown identifier {key!r}")
    out: dict[str, Expr] = {}
    for key in keys:
        if key not in table:
            raise ValidationError(f"{what} is missing an entry for {key!r}")
        e = _as_expr(table[key])
        stray = free_vars(e) - allowed
        if stray:
            raise ValidationError(
                f"{what}[{key!r}] uses identifiers outside its scope: {sorted(stray)}"
            )
        out[key] = e
    return out


class OdeSystem:
    """ds/dt = field(s, params), outputs = readout(s), all coordinatewise."""

    __slots__ = ("state_vars", "output_vars", "param_vars", "readout", "field", "_compiled")

    def __init__(
        self,
        state_vars: Sequence[str],
        output_vars: Sequence[str],
        param_vars: Sequence[str],
        readout: Mapping[str, ExprLike],
        field: Mapping[str, ExprLike],
    ):
        self.state_vars = _check_vars(state_vars, "state variables")
        self.output_vars = _check_vars(output_vars, "output variables")
        self.param_vars = _check_vars(param_vars, "parameter variables")
        _check_disjoint(
            {
                "state variables": self.state_vars,
                "output variables": self.output_vars,
                "parameter variables": self.param_vars,
            }
        )
        states = set(self.state_vars)
        self.readout = _check_expr_table(readout, self.output_vars, states, "readout")
        self.field = _check_expr_table(
            field, self.state_vars, states | set(self.param_vars), "field"
        )
        self._compiled = None

    def compiled(self) -> tuple[Callable[..., tuple[float, ...]], Callable[..., tuple[float, ...]]]:
        """The field, over state then parameter values, and the readout, over
        state values, as compiled functions; built on first use."""
        if self._compiled is None:
            self._compiled = (
                compile_table(
                    self.field, self.state_vars, self.state_vars + self.param_vars, "field"
                ),
                compile_table(self.readout, self.output_vars, self.state_vars, "readout"),
            )
        return self._compiled

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OdeSystem)
            and self.state_vars == other.state_vars
            and self.output_vars == other.output_vars
            and self.param_vars == other.param_vars
            and self.readout == other.readout
            and self.field == other.field
        )

    def __repr__(self) -> str:
        return (
            f"OdeSystem(states={list(self.state_vars)}, outputs={list(self.output_vars)}, "
            f"params={list(self.param_vars)})"
        )


class OdeLens:
    """Interface rewiring by expressions.

    `fwd` defines each new output in terms of old outputs; `bwd` defines each
    old parameter in terms of old outputs and new parameters.
    """

    __slots__ = (
        "source_outputs",
        "source_params",
        "target_outputs",
        "target_params",
        "fwd",
        "bwd",
    )

    def __init__(
        self,
        source_outputs: Sequence[str],
        source_params: Sequence[str],
        target_outputs: Sequence[str],
        target_params: Sequence[str],
        fwd: Mapping[str, ExprLike],
        bwd: Mapping[str, ExprLike],
    ):
        self.source_outputs = _check_vars(source_outputs, "source output variables")
        self.source_params = _check_vars(source_params, "source parameter variables")
        self.target_outputs = _check_vars(target_outputs, "target output variables")
        self.target_params = _check_vars(target_params, "target parameter variables")
        # bwd reads both, and substitution and live wiring read a shared name differently
        _check_disjoint(
            {
                "source output variables": self.source_outputs,
                "target parameter variables": self.target_params,
            }
        )
        self.fwd = _check_expr_table(
            fwd, self.target_outputs, set(self.source_outputs), "fwd"
        )
        self.bwd = _check_expr_table(
            bwd,
            self.source_params,
            set(self.source_outputs) | set(self.target_params),
            "bwd",
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OdeLens)
            and self.source_outputs == other.source_outputs
            and self.source_params == other.source_params
            and self.target_outputs == other.target_outputs
            and self.target_params == other.target_params
            and self.fwd == other.fwd
            and self.bwd == other.bwd
        )

    def __repr__(self) -> str:
        return (
            f"OdeLens(({list(self.source_outputs)}; {list(self.source_params)}) => "
            f"({list(self.target_outputs)}; {list(self.target_params)}))"
        )


def identity_ode_lens(output_vars: Sequence[str], param_vars: Sequence[str]) -> OdeLens:
    return OdeLens(
        output_vars,
        param_vars,
        output_vars,
        param_vars,
        {o: Var(o) for o in output_vars},
        {p: Var(p) for p in param_vars},
    )


def compose_lens_ode(lens: OdeLens, sys: OdeSystem) -> OdeSystem:
    """Wire a system through a lens by substitution.

    Old parameters in the field become their bwd expressions; old outputs
    inside those become their readout expressions; new outputs are the fwd
    expressions with readouts substituted in.
    """
    missing = [o for o in lens.source_outputs if o not in sys.output_vars] + [
        p for p in lens.source_params if p not in sys.param_vars
    ]
    extra = [o for o in sys.output_vars if o not in lens.source_outputs] + [
        p for p in sys.param_vars if p not in lens.source_params
    ]
    if missing or extra:
        raise ValidationError(
            "lens does not match system interface; "
            f"unmatched lens names: {missing}, unmatched system names: {extra}"
        )
    readout_binding = {o: sys.readout[o] for o in sys.output_vars}
    field = {
        v: substitute(
            substitute(sys.field[v], {p: lens.bwd[p] for p in sys.param_vars}),
            readout_binding,
        )
        for v in sys.state_vars
    }
    readout = {
        o: substitute(lens.fwd[o], readout_binding) for o in lens.target_outputs
    }
    return OdeSystem(
        sys.state_vars, lens.target_outputs, lens.target_params, readout, field
    )


def compose_ode_lenses(l1: OdeLens, l2: OdeLens) -> OdeLens:
    """Rewire twice: substitution chains the same way lens composition does."""
    if tuple(l1.target_outputs) != tuple(l2.source_outputs) or tuple(
        l1.target_params
    ) != tuple(l2.source_params):
        raise ValidationError("lens boundaries do not match")
    fwd = {o: substitute(l2.fwd[o], l1.fwd) for o in l2.target_outputs}
    # the second bwd may mention mid outputs; push those back along l1.fwd
    # so the composite is scoped by first-source outputs and last-target params
    mid_bwd = {q: substitute(l2.bwd[q], l1.fwd) for q in l2.source_params}
    bwd = {p: substitute(l1.bwd[p], mid_bwd) for p in l1.source_params}
    return OdeLens(
        l1.source_outputs,
        l1.source_params,
        l2.target_outputs,
        l2.target_params,
        fwd,
        bwd,
    )


def tensor_ode(a: OdeSystem, b: OdeSystem) -> OdeSystem:
    """Set two systems side by side; coordinates are concatenated."""
    _check_disjoint(
        {
            "the first system": (*a.state_vars, *a.output_vars, *a.param_vars),
            "the second system": (*b.state_vars, *b.output_vars, *b.param_vars),
        }
    )
    return OdeSystem(
        a.state_vars + b.state_vars,
        a.output_vars + b.output_vars,
        a.param_vars + b.param_vars,
        {**a.readout, **b.readout},
        {**a.field, **b.field},
    )


def eval_field(
    sys: OdeSystem, state: Sequence[float], params: Sequence[float]
) -> tuple[float, ...]:
    """The field as a plain function: derivative of each state coordinate."""
    if len(state) != len(sys.state_vars):
        raise ValidationError(
            f"expected {len(sys.state_vars)} state values, got {len(state)}"
        )
    if len(params) != len(sys.param_vars):
        raise ValidationError(
            f"expected {len(sys.param_vars)} parameter values, got {len(params)}"
        )
    return sys.compiled()[0](*state, *params)


def eval_readout(sys: OdeSystem, state: Sequence[float]) -> tuple[float, ...]:
    """Output coordinates at a state."""
    if len(state) != len(sys.state_vars):
        raise ValidationError(
            f"expected {len(sys.state_vars)} state values, got {len(state)}"
        )
    return sys.compiled()[1](*state)


class ParamSignal:
    """A time-varying parameter vector, sampled by step interpolation.

    A table signal holds rows at increasing sample times and answers with the
    row at the greatest sample time not after t (the left sample), clamped to
    the first and last rows outside the sampled range. A constant signal is a
    one-row table.
    """

    __slots__ = ("times", "rows", "width")

    def __init__(self, times: Sequence[float], rows: Sequence[Sequence[float]]):
        if len(times) != len(rows) or not times:
            raise ValidationError("signal needs matching, nonempty times and rows")
        times = tuple(float(t) for t in times)
        if not all(map(math.isfinite, times)):
            raise ValidationError("signal sample times must be finite")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValidationError("signal sample times must be strictly increasing")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValidationError("signal rows must all have the same width")
        self.times = times
        self.rows = tuple(tuple(float(x) for x in row) for row in rows)
        self.width = width

    @classmethod
    def constant(cls, values: Sequence[float]) -> "ParamSignal":
        return cls((0.0,), (tuple(values),))

    def __call__(self, t: float) -> tuple[float, ...]:
        pos = bisect_right(self.times, t) - 1
        return self.rows[max(pos, 0)]


@dataclass(frozen=True)
class Trajectory:
    """A sampled solution: times with state rows and output rows."""

    times: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    outputs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.times)
        if len(self.values) != n or len(self.outputs) != n:
            raise ValidationError("trajectory rows must match the time grid")
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValidationError("trajectory times must be strictly increasing")
        if n:
            vw = len(self.values[0])
            ow = len(self.outputs[0])
            if any(len(row) != vw for row in self.values) or any(
                len(row) != ow for row in self.outputs
            ):
                raise ValidationError("trajectory rows must have uniform widths")


FieldFn = Callable[[float, tuple[float, ...]], tuple[float, ...]]


def _grid(t0: float, t1: float, h: float) -> list[float]:
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValidationError(f"time span must be finite, got [{t0}, {t1}]")
    if not (t1 > t0):
        raise ValidationError(f"need t1 > t0, got [{t0}, {t1}]")
    if not (h > 0) or h > t1 - t0:
        raise ValidationError(f"step must satisfy 0 < h <= t1 - t0, got {h}")
    steps = (t1 - t0) / h
    if not steps <= MAX_STEPS:
        raise ValidationError(
            f"time grid [{t0}, {t1}] at step {h} needs about {steps:.6g} steps, "
            f"more than MAX_STEPS = {MAX_STEPS}"
        )
    n = int(math.floor(steps))
    while t0 + (n + 1) * h <= t1:
        n += 1
    times = [t0 + j * h for j in range(n + 1)]
    if times[-1] < t1:
        times.append(t1)
    return times


def _integrate(
    f: FieldFn, names: Sequence[str], y0: Sequence[float], t0: float, t1: float, h: float
):
    """Classical RK4 over the fixed grid; the last step is shortened to land on t1.

    An evaluation error in `f` gains the stage time and the state, coordinates
    named by `names`, that it was evaluated at.
    """
    times = _grid(t0, t1, h)
    y = tuple(float(x) for x in y0)
    values = [y]
    for t, t_next in zip(times, times[1:]):
        step = t_next - t
        half = step / 2.0
        ts, ys = t, y
        try:
            k1 = f(ts, ys)
            ts, ys = t + half, tuple(yi + half * ki for yi, ki in zip(y, k1))
            k2 = f(ts, ys)
            ys = tuple(yi + half * ki for yi, ki in zip(y, k2))
            k3 = f(ts, ys)
            ts, ys = t_next, tuple(yi + step * ki for yi, ki in zip(y, k3))
            k4 = f(ts, ys)
        except ExprEvalError as exc:
            state = ", ".join(f"{name}={v!r}" for name, v in zip(names, ys))
            raise ExprEvalError(f"{exc} at t={ts!r} in state ({state})") from None
        y = tuple(
            yi + step / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        if not all(map(math.isfinite, y)):
            raise IntegrationError("state became non-finite", time=t_next)
        values.append(y)
    return times, values


def rk4_solve(
    sys: OdeSystem,
    s0: Sequence[float],
    param_signal: ParamSignal,
    t0: float,
    t1: float,
    h: float,
) -> Trajectory:
    """Integrate the system, sampling parameters at each integrator stage time."""
    if len(s0) != len(sys.state_vars):
        raise ValidationError(
            f"expected {len(sys.state_vars)} initial values, got {len(s0)}"
        )
    if param_signal.width != len(sys.param_vars):
        raise ValidationError(
            f"signal width {param_signal.width} does not match "
            f"{len(sys.param_vars)} parameters"
        )

    def f(t: float, y: tuple[float, ...]) -> tuple[float, ...]:
        return eval_field(sys, y, param_signal(t))

    times, values = _integrate(f, sys.state_vars, s0, t0, t1, h)
    outputs = [eval_readout(sys, y) for y in values]
    return Trajectory(tuple(times), tuple(values), tuple(outputs))


@dataclass(frozen=True)
class ResidualResult:
    """Largest central-difference defect of a trajectory against a field."""

    passed: bool
    max_residual: float
    index: int
    time: float
    component: str

    def __bool__(self) -> bool:
        return self.passed


def check_residual(
    sys: OdeSystem, traj: Trajectory, param_signal: ParamSignal, tol: float
) -> ResidualResult:
    """Compare the trajectory's central-difference slopes to the field.

    Interior grid points only; the largest componentwise absolute defect and
    its location come back with the verdict.
    """
    n = len(traj.times)
    if n < 3:
        raise ValidationError(f"grid too short for central differences ({n} points)")
    steps = [t2 - t1 for t1, t2 in zip(traj.times, traj.times[1:])]
    if max(steps) - min(steps) > 1e-9 * max(steps):
        raise ValidationError("trajectory grid is not uniform")
    worst = 0.0
    worst_index = -1
    worst_component = ""
    for j in range(1, n - 1):
        t = traj.times[j]
        dt = traj.times[j + 1] - traj.times[j - 1]
        slope = tuple(
            (a - b) / dt for a, b in zip(traj.values[j + 1], traj.values[j - 1])
        )
        field_here = eval_field(sys, traj.values[j], param_signal(t))
        for v, s, fv in zip(sys.state_vars, slope, field_here):
            r = abs(s - fv)
            if r > worst:
                worst, worst_index, worst_component = r, j, v
    time = traj.times[worst_index] if worst_index >= 0 else traj.times[0]
    return ResidualResult(worst <= tol, worst, worst_index, time, worst_component)


@dataclass(frozen=True)
class FunctorialityResult:
    """Sup-norm gap between substitute-then-solve and solve-with-live-wiring."""

    passed: bool
    max_deviation: float
    time: float

    def __bool__(self) -> bool:
        return self.passed


def check_solve_functoriality(
    lens: OdeLens,
    sys: OdeSystem,
    s0: Sequence[float],
    outer_signal: ParamSignal,
    t0: float,
    t1: float,
    h: float,
    tol: float,
) -> FunctorialityResult:
    """Integrate the composed system, then integrate the original system while
    filling its parameters from the lens at every stage; compare the states."""
    composed = compose_lens_ode(lens, sys)
    path_a = rk4_solve(composed, s0, outer_signal, t0, t1, h)

    readout = sys.compiled()[1]
    bwd = compile_table(lens.bwd, sys.param_vars, sys.output_vars + lens.target_params, "bwd")

    def f(t: float, y: tuple[float, ...]) -> tuple[float, ...]:
        return eval_field(sys, y, bwd(*readout(*y), *outer_signal(t)))

    times, values = _integrate(f, sys.state_vars, s0, t0, t1, h)
    worst = 0.0
    worst_time = t0
    for t, row_a, row_b in zip(times, path_a.values, values):
        for a, b in zip(row_a, row_b):
            d = abs(a - b)
            if d > worst:
                worst, worst_time = d, t
    return FunctorialityResult(worst <= tol, worst, worst_time)
