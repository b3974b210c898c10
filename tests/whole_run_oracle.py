"""The whole-run body of `check_solve_functoriality`, kept as an oracle.

`opendyn.ode.check_solve_functoriality` steps the composed and the
live-wired runs over the grid one block at a time and compares their rows
as they come. The function here is the body that replaced: solve the
composite whole with `rk4_solve`, then run the live-wired loop over the
composite's whole grid, then scan the two state lists. It holds both runs
and the grid at once, so it serves the differential tests. `whole_grid` is
the grid as `_grid` built it before it was split, all at once.
"""

from __future__ import annotations

import math
import operator
from functools import partial

from opendyn import ode
from opendyn.expr import compile_tables, replayed
from opendyn.ode import FunctorialityResult, _check_tol, _loop, _run, rk4_solve


def check_solve_functoriality(lens, sys, s0, outer_signal, t0, t1, h, tol) -> FunctorialityResult:
    """Solve then wire against wire then solve, each run held whole. The
    composite comes from `ode.compose_lens_ode` as the module holds it when
    called, so a test that replaces it there replaces it here too."""
    _check_tol(tol)
    composed = ode.compose_lens_ode(lens, sys)
    path_a = rk4_solve(composed, s0, outer_signal, t0, t1, h)
    stages = (
        (sys.readout, sys.output_vars, "readout", sys._dags[1]),
        (lens.bwd, sys.param_vars, "bwd", None),
        (sys.field, sys.state_vars, "field", sys._dags[0]),
    )
    live = compile_tables(stages, sys.state_vars, lens.target_params)
    replay = partial(replayed, stages, sys.state_vars + lens.target_params)
    y0 = tuple(float(x) for x in s0)  # `rk4_solve` checked its width and values
    values = _run(_loop(live, sys.state_vars, replay), path_a.times, y0, outer_signal, None)
    if all(map(operator.eq, path_a.values, values)):
        return FunctorialityResult(True, 0.0, t0)
    worst, worst_time = 0.0, t0
    for t, row_a, row_b in zip(path_a.times, path_a.values, values):
        for a, b in zip(row_a, row_b):
            d = abs(a - b)
            if d > worst:
                worst, worst_time = d, t
    return FunctorialityResult(worst <= tol, worst, worst_time)


def whole_grid(t0: float, t1: float, h: float) -> list[float]:
    """The grid's times as one list, for a span and step that `_grid_length`
    accepts: t0 + j*h up to the last whole step, then t1 where that is below
    it."""
    n = int(math.floor((t1 - t0) / h))
    while t0 + (n + 1) * h <= t1:
        n += 1
    times = [t0 + j * h for j in range(n + 1)]
    if times[-1] < t1:
        times.append(t1)
    return times
