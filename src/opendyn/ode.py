"""Continuous-time systems on Euclidean state spaces, wired by substitution.

Each table of an `OdeSystem` or `OdeLens` is lowered to an `expr.Dag` once,
when its object is built. A system compiles its field and readout once, on
first use, into one function (`OdeSystem.compiled`), which `rk4_solve`,
`eval_field` and `check_residual` all run. README's ODE doctrine describes
the compiled code, the RK4 loop and the order of errors.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from functools import lru_cache, partial
from types import CodeType, FunctionType
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ExprEvalError, ExprSyntaxError, IntegrationError, ValidationError, _shown
from .expr import (
    FAULTS, MAX_NODES, Dag, Expr, Var, compile_tables, evaluate_table, parse, replayed, substitute,
)
from .record import FrozenRecord, Record

#: Most steps a fixed-step time grid may take; `_grid_length` refuses a
#: longer one before any of it is built. `rk4_solve` and `simulate` hold a
#: state and an output row per step, so this keeps their memory in the
#: hundreds of megabytes; `check_solve_functoriality` holds one block of each
#: run and no grid.
MAX_STEPS = 1_000_000

#: Steps in each slice of the grid that `check_solve_functoriality` runs at
#: a time, so its memory does not grow with the grid.
_BLOCK_STEPS = 1024

ExprLike = Union[Expr, str]


def _check_vars(names: Sequence[str], what: str) -> tuple[str, ...]:
    """The names, each an ASCII identifier (`[A-Za-z_][A-Za-z0-9_]*`, which
    for ASCII text is what `str.isidentifier` accepts), and no two equal."""
    out = tuple(names)
    seen = set()
    for name in out:
        if not (isinstance(name, str) and name.isidentifier() and name.isascii()):
            raise ValidationError(f"{what}: bad identifier {_shown(name)}")
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
) -> tuple[dict[str, Expr], Dag]:
    """The table's entries in `keys` order, parsed, and their lowering; a
    text entry is lowered as it is parsed. An entry outside its scope, or of
    more than `MAX_NODES` nodes written out, is refused naming the key, in
    one pass over the entries each key adds; a scope fault is named first."""
    for key in table:
        if key not in keys:
            raise ValidationError(f"{what} has an entry for unknown identifier {_shown(key)}")
    out: dict[str, Expr] = {}
    dag = Dag()
    sizes: list[int] = []  # nodes in the tree each entry of the Dag writes out to
    for key in keys:
        if key not in table:
            raise ValidationError(f"{what} is missing an entry for {key!r}")
        e = table[key]
        start = len(dag.nodes)
        try:
            if isinstance(e, str):
                e = parse(e, dag)
            else:
                dag.add(e)
        except ExprSyntaxError as exc:
            raise ExprSyntaxError(f"{what}[{key!r}]: {exc.message}", exc.position) from None
        except TypeError as exc:
            raise ValidationError(f"{what}[{key!r}]: {exc}") from None
        root = dag.roots[-1]
        # an entry that an earlier key reaches too was checked with that key
        stray = set()
        for node, ops in zip(dag.nodes[start:], dag.operands[start:]):
            if not ops:
                sizes.append(1)
                if isinstance(node, Var) and node.name not in allowed:
                    stray.add(node.name)
            elif len(ops) == 1:
                sizes.append(1 + sizes[ops[0]])
            else:
                sizes.append(1 + sizes[ops[0]] + sizes[ops[1]])
        if stray:
            raise ValidationError(
                f"{what}[{key!r}] uses identifiers outside its scope: {sorted(stray)}"
            )
        if sizes[root] > MAX_NODES:
            raise ValidationError(
                f"{what}[{key!r}] has {sizes[root]} nodes written out, "
                f"more than MAX_NODES = {MAX_NODES}"
            )
        out[key] = e
    return out, dag


class OdeSystem(Record):
    """ds/dt = field(s, params), outputs = readout(s), all coordinatewise."""

    _fields = ("state_vars", "output_vars", "param_vars", "readout", "field")
    __slots__ = (*_fields, "_dags", "_compiled", "_rk4")

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
        self.readout, readout_dag = _check_expr_table(
            readout, self.output_vars, states, "readout"
        )
        self.field, field_dag = _check_expr_table(
            field, self.state_vars, states | set(self.param_vars), "field"
        )
        self._dags = (field_dag, readout_dag)
        self._compiled = self._rk4 = None

    def compiled(self) -> Callable[..., Callable[..., tuple[float, ...]]]:
        """The field and any computed readout as one function of the parameter
        values that returns the field of the states (`expr.compile_tables`
        with a `readout`); built on first use."""
        if self._compiled is None:
            reads, dag = None in self.copied_states(), self._dags[0]
            if reads and len(dag.roots) == len(self.state_vars):  # the readout's, after the field's
                for e in self.readout.values():
                    dag.add(e)
            self._compiled = compile_tables(
                ((self.field, self.state_vars, "field", dag),),
                self.state_vars, self.param_vars, reads,
            )
        return self._compiled

    def integrator(self) -> Callable[..., list[tuple[float, ...]]]:
        """The RK4 loop over `compiled()`, `_rk4(times, y, p, sample, read)`
        of `_rk4_code`; built on first use."""
        if self._rk4 is None:
            reads = None in self.copied_states()
            self._rk4 = _loop(self.compiled(), self.state_vars, self._replayed, reads)
        return self._rk4

    def _replayed(self, values: Sequence[float]) -> ExprEvalError:
        """The field's error at the state then parameter `values`, from
        `evaluate` (`expr.replayed`), where its compiled function raised."""
        stage = (self.field, self.state_vars, "field", self._dags[0])
        return replayed((stage,), self.state_vars + self.param_vars, values)

    def copied_states(self) -> tuple[Optional[int], ...]:
        """For each output, the position of the state its readout entry is, or
        None where the entry is not a bare variable. The readout is scoped to
        the states, so a bare variable there is always one of them."""
        readout_dag = self._dags[1]
        position = {name: j for j, name in enumerate(self.state_vars)}
        return tuple(
            position[node.name] if isinstance(node, Var) else None
            for node in map(readout_dag.nodes.__getitem__, readout_dag.roots)
        )

    def __repr__(self) -> str:
        return (
            f"OdeSystem(states={list(self.state_vars)}, outputs={list(self.output_vars)}, "
            f"params={list(self.param_vars)})"
        )


class OdeLens(Record):
    """Interface rewiring by expressions: `fwd` defines each new output in
    terms of old outputs; `bwd` each old parameter in terms of old outputs
    and new parameters."""

    __slots__ = _fields = (
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
        self.fwd, _ = _check_expr_table(
            fwd, self.target_outputs, set(self.source_outputs), "fwd"
        )
        self.bwd, _ = _check_expr_table(
            bwd,
            self.source_params,
            set(self.source_outputs) | set(self.target_params),
            "bwd",
        )

    def __repr__(self) -> str:
        return (
            f"OdeLens(({list(self.source_outputs)}; {list(self.source_params)}) => "
            f"({list(self.target_outputs)}; {list(self.target_params)}))"
        )


def compose_lens_ode(lens: OdeLens, sys: OdeSystem) -> OdeSystem:
    """Wire a system through a lens by substitution: old parameters in the
    field become their bwd expressions, and old outputs inside those and in
    the fwd expressions become their readout expressions."""
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
    # a field holds no output, so wiring the readouts into each bwd first
    # gives the same trees and substitutes into each field entry once
    bwd = {p: substitute(lens.bwd[p], readout_binding) for p in sys.param_vars}
    field = {v: substitute(sys.field[v], bwd) for v in sys.state_vars}
    readout = {
        o: substitute(lens.fwd[o], readout_binding) for o in lens.target_outputs
    }
    return OdeSystem(
        sys.state_vars, lens.target_outputs, lens.target_params, readout, field
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


def _check_width(count: int, names: Sequence[str], what: str) -> None:
    if count != len(names):
        raise ValidationError(f"expected {len(names)} {what} values, got {count}")


def eval_field(
    sys: OdeSystem, state: Sequence[float], params: Sequence[float]
) -> tuple[float, ...]:
    """The field as a plain function: derivative of each state coordinate."""
    _check_width(len(state), sys.state_vars, "state")
    _check_width(len(params), sys.param_vars, "parameter")
    try:
        return sys.compiled()(*params)(*state)
    except FAULTS:
        raise sys._replayed((*state, *params)) from None


def eval_readout(sys: OdeSystem, state: Sequence[float]) -> tuple[float, ...]:
    """Output coordinates at a state, by `expr.evaluate`'s walk of the
    readout's stored lowering."""
    _check_width(len(state), sys.state_vars, "state")
    env = dict(zip(sys.state_vars, state))
    return evaluate_table(sys.readout, sys.output_vars, env, "readout", sys._dags[1])


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


class Trajectory(FrozenRecord):
    """A sampled solution: times with state rows and output rows."""

    __slots__ = _fields = ("times", "values", "outputs")

    def __init__(
        self, times: tuple[float, ...], values: tuple[tuple, ...], outputs: tuple[tuple, ...]
    ):
        n = len(times)
        if len(values) != n or len(outputs) != n:
            raise ValidationError("trajectory rows must match the time grid")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValidationError("trajectory times must be strictly increasing")
        if n:
            vw = len(values[0])
            ow = len(outputs[0])
            if any(len(row) != vw for row in values) or any(len(row) != ow for row in outputs):
                raise ValidationError("trajectory rows must have uniform widths")
        self._init(times, values, outputs)


def _trajectory(times: tuple, values: tuple, outputs: tuple) -> Trajectory:
    """The trajectory of these rows, set without checks: the times must be
    strictly increasing, and `values` and `outputs` must hold one row of a
    fixed width per time."""
    traj = Trajectory.__new__(Trajectory)
    traj._init(times, values, outputs)
    return traj


def _whole_steps(t0: float, t1: float, h: float) -> int:
    """floor((t1 - t0) / h), raised while t0 + (n + 1)*h is at most t1."""
    n = int(math.floor((t1 - t0) / h))
    while t0 + (n + 1) * h <= t1:
        n += 1
    return n


def _grid_length(t0: float, t1: float, h: float) -> int:
    """The number of times in the grid of [t0, t1] at step h (`_grid_slice`),
    after refusing a span that is not finite, a step that is not in (0, t1 -
    t0], more than `MAX_STEPS` steps, and times that do not increase
    strictly."""
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
    n = _whole_steps(t0, t1, h)
    length = n + 2 if t0 + n * h < t1 else n + 1
    # j * h grows by about h, so two grid times can round to one float only
    # where h is within a few float spacings of the times themselves
    if h <= 4 * math.ulp(max(abs(t0), abs(t1))) and any(
        any(map(operator.ge, times, times[1:])) for times in _grid_blocks(t0, t1, h, length)
    ):
        raise ValidationError(
            f"time grid [{t0}, {t1}] at step {h} is not strictly increasing: "
            f"the step is too small for the float spacing of its times"
        )
    return length


def _grid_slice(t0: float, t1: float, h: float, start: int, stop: int) -> list[float]:
    """Times start to stop - 1 of the grid that `_grid_length` measures:
    t0 + j*h for j up to `_whole_steps`, then t1 where the last of those is
    below it."""
    n = _whole_steps(t0, t1, h)
    times = [t0 + j * h for j in range(start, min(stop, n + 1))]
    if stop > n + 1:  # past the whole steps only where t1 is appended
        times.append(t1)
    return times


def _grid(t0: float, t1: float, h: float) -> list[float]:
    return _grid_slice(t0, t1, h, 0, _grid_length(t0, t1, h))


def _grid_blocks(t0: float, t1: float, h: float, length: int) -> Iterator[list[float]]:
    """The grid of `length` times in slices of `_BLOCK_STEPS` steps, each
    starting at the time the one before ends at."""
    for start in range(0, length - 1, _BLOCK_STEPS):
        yield _grid_slice(t0, t1, h, start, min(start + _BLOCK_STEPS, length - 1) + 1)


def _state_text(names: Sequence[str], values: Sequence[float]) -> str:
    return ", ".join(f"{name}={v!r}" for name, v in zip(names, values))


def _stage_error(
    exc: ExprEvalError, t: float, names: Sequence[str], state: Sequence[float]
) -> ExprEvalError:
    return ExprEvalError(f"{exc} at t={t!r} in state ({_state_text(names, state)})")


def _blow_up(
    t: float, t_next: float, names: Sequence[str], before: Sequence[float], after: Sequence[float]
) -> IntegrationError:
    return IntegrationError(
        f"state became non-finite in the step from t={t!r} to t={t_next!r}: "
        f"({_state_text(names, before)}) -> ({_state_text(names, after)})",
        time=t_next,
    )


_RK4_HELPERS = {
    "_faults": FAULTS,
    "_isfinite": math.isfinite,
    "_stage_error": _stage_error,
    "_blow_up": _blow_up,
}


@lru_cache(maxsize=64)
def _rk4_code(n: int, reads: bool) -> CodeType:
    """The RK4 loop over n state coordinates, compiled.

    `_rk4(times, y, p, sample, read)` steps from the state tuple `y` over
    the grid `times` and returns the list of state tuples, one per grid time.
    Its global `_bind` takes a row of parameter values and returns the field
    of the states; `_names` names the coordinates in errors. Where the field
    raises one of `expr.FAULTS`, the stage's handler raises the error that
    `_replayed` of the stage's state then parameter values returns, with the
    stage time and state (`_stage_error`). With `sample`
    None the parameters are the row `p`, bound once; otherwise each stage
    calls `sample(stage time)` for a row, bound again only when it is
    another row object. With `reads`, stage a passes the field `read` too
    (`expr.compile_tables`' `readout`). The float operations are those of
    the textbook stage formulas, in the same order. The code is cached per
    shape: two states compile in 0.4 ms (Python 3.11, 2 vCPUs).
    """

    def row(name: str) -> str:
        return "".join(f"{name}{j}, " for j in range(n))

    lines = [
        "def _rk4(times, y, p, sample, read):",
        f"    [{row('y')}] = y",
        "    field = _bind(*p) if sample is None else None",
        f"    values = [({row('y')})]",
        "    t = times[0]",
        "    for t_next in times[1:]:",
        "        step = t_next - t",
        "        half = step / 2.0",
        "        t_half = t + half",
    ]
    stages = (("a", "t", "y"), ("b", "t_half", "z"), ("c", "t_half", "z"), ("d", "t_next", "z"))
    for j, (k, ts, at) in enumerate(stages):
        if j:
            scale = "step" if k == "d" else "half"
            lines += [f"        z{i} = y{i} + {scale} * {stages[j - 1][0]}{i}" for i in range(n)]
        lines += [
            "        try:",
            "            if sample is not None:",
            f"                stage_row = sample({ts})",
            "                if stage_row is not p:",
            "                    p = stage_row",
            "                    field = _bind(*p)",
            f"            [{row(k)}] = field({row(at)}{'read' if reads and not j else ''})",
            "        except _faults:",
            f"            e = _replayed(({row(at)}*p,))",
            f"            raise _stage_error(e, {ts}, _names, ({row(at)})) from None",
        ]
    lines.append("        sixth = step / 6.0")
    lines += [
        f"        u{i} = y{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})" for i in range(n)
    ]
    if n:
        finite = " and ".join(f"_isfinite(u{i})" for i in range(n))
        lines += [
            f"        if not ({finite}):",
            f"            raise _blow_up(t, t_next, _names, ({row('y')}), ({row('u')}))",
        ]
    lines += [f"        y{i} = u{i}" for i in range(n)]
    lines += [f"        values.append(({row('y')}))", "        t = t_next", "    return values", ""]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<rk4 loop>", "exec"), namespace)
    return namespace["_rk4"].__code__


def _loop(bind: Callable, names: Sequence[str], replay: Callable, reads: bool = False) -> Callable:
    """The loop of `_rk4_code` over `bind`, which takes a row of parameter
    values and returns the field as a function of the states `names`, and
    over `replay`, which gives its error at the state then parameter values."""
    namespace = {**_RK4_HELPERS, "_bind": bind, "_names": names, "_replayed": replay}
    return FunctionType(_rk4_code(len(names), reads), namespace)


def _run(loop: Callable, times: Sequence[float], y0: tuple, signal: ParamSignal, read) -> list:
    """The states `loop` steps to over `times` from y0: a constant signal (one
    row) gives the same row at every time, so its values are bound once; a
    sampled one is the loop's sampler, called with each stage time, and its
    values bound again where it answers with another row."""
    if len(signal.rows) == 1:
        return loop(times, y0, signal.rows[0], None, read)
    return loop(times, y0, None, signal, read)


def _start(sys: OdeSystem, s0: Sequence[float], signal: ParamSignal) -> tuple[float, ...]:
    """The initial state, after refusing one of the wrong width or not
    finite, and a signal whose width is not the system's parameter count."""
    _check_width(len(s0), sys.state_vars, "initial")
    y = tuple(float(x) for x in s0)
    for name, v in zip(sys.state_vars, y):
        if not math.isfinite(v):
            raise ValidationError(f"initial value of {name!r} must be finite, got {v!r}")
    if signal.width != len(sys.param_vars):
        raise ValidationError(
            f"signal width {signal.width} does not match {len(sys.param_vars)} parameters"
        )
    return y


def _last_readout(sys: OdeSystem, failed: Optional[tuple], last: tuple) -> tuple[float, ...]:
    """The computed readout at `last`, the state no step starts at, from
    `eval_readout`. Where stage a of a step read None (a term only the
    readout holds failed), `failed` is the first such step's state, and
    `evaluate`'s error there is raised first."""
    if failed is not None:
        eval_readout(sys, failed)
    return eval_readout(sys, last)


def rk4_solve(
    sys: OdeSystem,
    s0: Sequence[float],
    param_signal: ParamSignal,
    t0: float,
    t1: float,
    h: float,
) -> Trajectory:
    """Integrate the system, sampling parameters at each integrator stage time
    (`_run`). Stage a of each step reads any computed output at its row; a
    readout that fails raises after a clean integration, for its first row.
    """
    y0 = _start(sys, s0, param_signal)
    times = _grid(t0, t1, h)
    outputs: list = []
    values = tuple(_run(sys.integrator(), times, y0, param_signal, outputs.append))
    copies = sys.copied_states()
    if None in copies:  # the loop read a row per step; no step starts at the last
        failed = values[outputs.index(None)] if None in outputs else None
        outputs = (*outputs, _last_readout(sys, failed, values[-1]))
    elif copies == tuple(range(len(y0))):  # the outputs are the states
        outputs = values
    else:
        outputs = tuple([tuple([y[j] for j in copies]) for y in values])
    # `_grid` increases strictly and the loop and readout give fixed widths
    return _trajectory(tuple(times), values, outputs)


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:  # also refuses NaN, which compares false
        raise ValidationError(f"tolerance must be finite and nonnegative, got {tol!r}")


class ResidualResult(FrozenRecord):
    """Largest central-difference defect of a trajectory against a field."""

    __slots__ = _fields = ("passed", "max_residual", "index", "time", "component")

    def __init__(self, passed: bool, max_residual: float, index: int, time: float, component: str):
        self._init(passed, max_residual, index, time, component)

    def __bool__(self) -> bool:
        return self.passed


def check_residual(
    sys: OdeSystem, traj: Trajectory, param_signal: ParamSignal, tol: float
) -> ResidualResult:
    """Compare the trajectory's central-difference slopes to the field.

    Interior grid points only; the largest componentwise absolute defect and
    its location come back with the verdict. A NaN defect fails the check at
    once, reported where it first occurs. A tolerance that is negative,
    infinite or NaN is refused first.
    """
    _check_tol(tol)
    n = len(traj.times)
    if n < 3:
        raise ValidationError(f"grid too short for central differences ({n} points)")
    steps = [t2 - t1 for t1, t2 in zip(traj.times, traj.times[1:])]
    if max(steps) - min(steps) > 1e-9 * max(steps):
        raise ValidationError("trajectory grid is not uniform")
    worst, worst_index, worst_component = 0.0, -1, ""
    for j in range(1, n - 1):
        t = traj.times[j]
        dt = traj.times[j + 1] - traj.times[j - 1]
        slope = tuple((a - b) / dt for a, b in zip(traj.values[j + 1], traj.values[j - 1]))
        field_here = eval_field(sys, traj.values[j], param_signal(t))
        for v, s, fv in zip(sys.state_vars, slope, field_here):
            r = abs(s - fv)
            if r > worst:
                worst, worst_index, worst_component = r, j, v
            elif r != r:  # NaN, which no comparison with `worst` catches
                return ResidualResult(False, r, j, t, v)
    time = traj.times[worst_index] if worst_index >= 0 else traj.times[0]
    return ResidualResult(worst <= tol, worst, worst_index, time, worst_component)


class FunctorialityResult(FrozenRecord):
    """Sup-norm gap between substitute-then-solve and solve-with-live-wiring."""

    __slots__ = _fields = ("passed", "max_deviation", "time")

    def __init__(self, passed: bool, max_deviation: float, time: float):
        self._init(passed, max_deviation, time)

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
    """Integrate the composed system, and the original system while filling
    its parameters from the lens at every stage; compare the states. The
    live-wired field is one compiled function of the state and the outer
    parameters that computes the readout, then `bwd`, then the field, each
    table lowered apart, with no substitution.

    Both runs step over the grid one slice of `_BLOCK_STEPS` steps at a time
    (`_grid_blocks`), each carrying its last state into the next, and their
    rows are compared as they come, so memory holds one block of each run and
    no grid. Blocks of equal state rows are not scanned: the loop refuses a
    non-finite state, so no NaN reaches the comparison, and all rows equal
    give deviation 0.0 at t0. Errors come as they would from solving the
    composite whole, then the live path: a composed integration error at
    once, then a composed readout error (`_last_readout`), then any error of
    the live path, held from its block. A tolerance that is negative,
    infinite or NaN is refused first."""
    _check_tol(tol)
    composed = compose_lens_ode(lens, sys)
    y_a = y_b = _start(composed, s0, outer_signal)
    length = _grid_length(t0, t1, h)
    stages = (
        (sys.readout, sys.output_vars, "readout", sys._dags[1]),
        (lens.bwd, sys.param_vars, "bwd", None),
        (sys.field, sys.state_vars, "field", sys._dags[0]),
    )
    live = compile_tables(stages, sys.state_vars, lens.target_params)
    replay = partial(replayed, stages, sys.state_vars + lens.target_params)
    solve, wired = composed.integrator(), _loop(live, sys.state_vars, replay)
    worst, worst_time, failed, held = 0.0, t0, None, None
    for times in _grid_blocks(t0, t1, h, length):
        outputs: list = []
        rows_a = _run(solve, times, y_a, outer_signal, outputs.append)
        y_a = rows_a[-1]
        if failed is None and None in outputs:
            failed = rows_a[outputs.index(None)]
        if held is not None:
            continue
        try:
            rows_b = _run(wired, times, y_b, outer_signal, None)
        except (ExprEvalError, IntegrationError, *FAULTS) as exc:
            held = exc  # raised only once the composed run has ended cleanly
            continue
        y_b = rows_b[-1]
        if rows_a != rows_b:
            for t, row_a, row_b in zip(times, rows_a, rows_b):
                for a, b in zip(row_a, row_b):
                    d = abs(a - b)
                    if d > worst:
                        worst, worst_time = d, t
    if None in composed.copied_states():
        _last_readout(composed, failed, y_a)
    if held is not None:
        raise held
    return FunctorialityResult(worst <= tol, worst, worst_time)
