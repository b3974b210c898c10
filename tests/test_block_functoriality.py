"""`check_solve_functoriality` a block at a time, against the whole run.

The check steps the composed and the live-wired runs over the grid one slice
of `ode._BLOCK_STEPS` steps at a time, each run carrying its last state into
the next slice, and compares rows as they come. `whole_run_oracle` keeps the
body it replaced, which solves the composite whole with `rk4_solve`, then
runs the live loop over the whole grid, then scans. Each case here must give
the oracle's result bit for bit (`float.hex`), or its error's class and
text, at block sizes that split the grid in every way: a grid shorter than
a block, one step short of it, exactly one, one step over, and three blocks
and two steps. The check's memory must not grow with the grid.
"""

import random
import tracemalloc

import pytest

from opendyn import (
    ExprEvalError,
    IntegrationError,
    OdeLens,
    OdeSystem,
    ParamSignal,
    ValidationError,
    check_solve_functoriality,
    compose_lens_ode,
    load_project,
    ode,
)
from opendyn.expr import BinOp, Num, Var

import whole_run_oracle
from helpers import fixture_path, ode_chain

H = 1 / 64  # a power of two, so t1 = steps * H has exactly `steps` steps
DEFAULT = ode._BLOCK_STEPS
BLOCKS = [1, 2, 3, 7, DEFAULT]


def tower(depth: int) -> tuple[OdeLens, OdeSystem]:
    """A seeded `ode_chain` of `depth` lenses: its last lens, and the base
    wired through the others."""
    system, lenses = ode_chain(random.Random(depth), depth)
    for lens in lenses[:-1]:
        system = compose_lens_ode(lens, system)
    return lenses[-1], system


def signal(kind: str, t1: float) -> ParamSignal:
    if kind == "constant":
        return ParamSignal.constant((1.0, 0.5))
    return ParamSignal((0.0, 0.3 * t1, 0.7 * t1), ((1.0, 0.5), (0.8, 0.6), (1.2, 0.4)))


def outcome(call):
    """The result's verdict and its floats as `float.hex`, or the error's
    class, text and (for a blow-up) time."""
    try:
        result = call()
    except (ExprEvalError, IntegrationError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "time", None)
    return result.passed, result.max_deviation.hex(), result.time.hex()


def both(*args):
    """The check's outcome and the whole-run oracle's, for one set of arguments."""
    return (
        outcome(lambda: check_solve_functoriality(*args)),
        outcome(lambda: whole_run_oracle.check_solve_functoriality(*args)),
    )


def perturbed(lens, system):
    """The composite with x' = p*cos(y) - c*x's coefficient c grown by 1e-6:
    its rows drift away from the live run's as time goes on."""
    c = compose_lens_ode(lens, system)
    x = c.field["x"]
    x = BinOp("-", x.left, BinOp("*", Num(x.right.left.value + 1e-6), x.right.right))
    return OdeSystem(c.state_vars, c.output_vars, c.param_vars, c.readout, {**c.field, "x": x})


def step_counts(block: int) -> list[int]:
    return sorted({1, max(block - 1, 1), block, block + 1, 3 * block + 2})


CASES = [(block, steps) for block in BLOCKS for steps in step_counts(block)]


@pytest.mark.parametrize("block, steps", CASES)
@pytest.mark.parametrize("kind", ["constant", "sampled"])
@pytest.mark.parametrize("depth", [1, 4, 16])
def test_towers_match_the_whole_run(monkeypatch, depth, kind, block, steps):
    monkeypatch.setattr(ode, "_BLOCK_STEPS", block)
    lens, system = tower(depth)
    t1 = steps * H
    args = (lens, system, (0.5, -0.25), signal(kind, t1), 0.0, t1, H, 1e-9)
    blocked, whole = both(*args)
    assert blocked == whole == (True, "0x0.0p+0", "0x0.0p+0")


@pytest.mark.parametrize("block, steps", CASES)
@pytest.mark.parametrize("kind", ["constant", "sampled"])
def test_a_perturbed_composite_matches_the_whole_run(monkeypatch, kind, block, steps):
    monkeypatch.setattr(ode, "_BLOCK_STEPS", block)
    monkeypatch.setattr(ode, "compose_lens_ode", perturbed)
    lens, system = tower(4)
    t1 = steps * H
    args = (lens, system, (0.5, -0.25), signal(kind, t1), 0.0, t1, H, 1e-12)
    blocked, whole = both(*args)
    assert blocked == whole and blocked[1] != "0x0.0p+0"


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_the_worst_deviation_in_a_later_block(monkeypatch, block):
    """The drift grows with time, so the worst row lies in the last block,
    past the first: the running worst must carry across blocks."""
    monkeypatch.setattr(ode, "_BLOCK_STEPS", block)
    monkeypatch.setattr(ode, "compose_lens_ode", perturbed)
    lens, system = tower(4)
    steps = 3 * block + 2
    args = (lens, system, (0.5, -0.25), signal("sampled", steps * H), 0.0, steps * H, H, 1e-12)
    blocked, whole = both(*args)
    assert blocked == whole
    passed, deviation, time = blocked
    assert not passed and float.fromhex(deviation) > 0.0
    assert float.fromhex(time) > 3 * block * H


def gate() -> tuple[OdeLens, OdeSystem]:
    """x' = 1 and y' = log(p), wired so that p = q - x: with q = 15 and x
    from 0, the live path's field meets log(0.0) at t = 15, in the second
    step, and the first block."""
    system = OdeSystem(["x", "y"], ["o"], ["p"], {"o": "x"}, {"x": "1", "y": "log(p)"})
    lens = OdeLens(["o"], ["p"], ["o2"], ["q"], {"o2": "o"}, {"p": "q - o"})
    return lens, system


def composite(readout: str, field_y: str):
    """A stand-in for `compose_lens_ode` that gives its own composite over
    the gate's interface, so the composed path fails where the live one does
    not."""
    return lambda lens, system: OdeSystem(
        ["x", "y"], ["o2"], ["q"], {"o2": readout}, {"x": "1", "y": field_y}
    )


GATE = ((0.0, 0.0), ParamSignal.constant((15.0,)), 0.0, 120.0, 10.0, 1e-9)  # 12 steps


def run_gate(monkeypatch, readout: str, field_y: str):
    monkeypatch.setattr(ode, "_BLOCK_STEPS", 4)  # blocks end at t = 40, 80 and 120
    monkeypatch.setattr(ode, "compose_lens_ode", composite(readout, field_y))
    blocked, whole = both(*gate(), *GATE)
    assert blocked == whole
    return blocked


def test_a_held_live_error_is_raised_when_the_composite_is_clean(monkeypatch):
    kind, text, _ = run_gate(monkeypatch, "x", "0")
    assert kind is ExprEvalError
    assert text.startswith("field component 'y': log(0.0) is undefined at t=15.0 in state (x=15.0, ")


def test_a_composed_blow_up_in_block_3_wins_over_a_live_error_in_block_1(monkeypatch):
    """y = 1.5e304 t^2 passes the largest float at t = 109.5."""
    kind, text, time = run_gate(monkeypatch, "x", "3e304*x")
    assert kind is IntegrationError and text.startswith("state became non-finite")
    assert time == 110.0


def test_a_composed_readout_error_wins_over_a_live_error(monkeypatch):
    """The readout fails from the row at t = 100, in the third block."""
    kind, text, _ = run_gate(monkeypatch, "log(95 - x)", "0")
    assert (kind, text) == (ExprEvalError, "readout component 'o2': log(-5.0) is undefined")


def test_a_composed_readout_error_at_the_last_row_wins_over_a_live_error(monkeypatch):
    """The readout fails at t = 120 alone, the row no step starts at."""
    kind, text, _ = run_gate(monkeypatch, "log(115 - x)", "0")
    assert (kind, text) == (ExprEvalError, "readout component 'o2': log(-5.0) is undefined")


@pytest.mark.parametrize("block", BLOCKS)
def test_a_grid_that_does_not_increase_is_refused(monkeypatch, block):
    """Past 2^53 floats are 2 apart: t0 + 17 rounds to t0 + 16, so the
    grid's first repeat is at its 17th step, in a later block than the
    first whenever a block is shorter."""
    monkeypatch.setattr(ode, "_BLOCK_STEPS", block)
    t0, t1 = 2.0**53 - 16, 2.0**53 + 16
    times = [t0 + j * 1.0 for j in range(33)]
    assert [j for j in range(32) if times[j] >= times[j + 1]][0] == 16
    lens, system = tower(1)
    args = (lens, system, (0.5, -0.25), signal("constant", t1), t0, t1, 1.0, 1e-9)
    blocked, whole = both(*args)
    assert blocked == whole == (
        ValidationError,
        f"time grid [{t0}, {t1}] at step 1.0 is not strictly increasing: "
        "the step is too small for the float spacing of its times",
        None,
    )


def grids() -> list[tuple[float, float, float]]:
    """Spans and steps, among them grids whose whole steps end past t1 in
    floats ([-2, 5.8] at 0.2 ends at 5.800000000000001), then seeded ones."""
    rng = random.Random(45)
    cases = [(0.0, 1.0, 0.1), (-2.0, 5.8, 0.2), (1.0, 3.76, 0.04), (0.0, 0.3, 0.1)]
    while len(cases) < 200:
        t0, h = rng.choice([0.0, rng.uniform(-10, 10)]), rng.randint(1, 999) / 10 ** rng.randint(1, 3)
        cases.append((t0, t0 + rng.choice([h * rng.randint(1, 40), rng.uniform(h, 40 * h)]), h))
    return cases


@pytest.mark.parametrize("block", BLOCKS)
def test_the_grid_is_the_same_in_slices(monkeypatch, block):
    """`_grid`, and its blocks joined, give the grid built whole; each block
    starts at the time the one before ends at."""
    monkeypatch.setattr(ode, "_BLOCK_STEPS", block)
    for t0, t1, h in grids():
        whole = [t.hex() for t in whole_run_oracle.whole_grid(t0, t1, h)]
        assert [t.hex() for t in ode._grid(t0, t1, h)] == whole
        joined = [t0]
        for times in ode._grid_blocks(t0, t1, h, len(whole)):
            assert times[0] == joined[-1] and len(times) <= block + 1
            joined += times[1:]
        assert [t.hex() for t in joined] == whole


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_grid():
    """lv.json's wiring and rabbit_fox at 4,000 and 40,000 steps: the
    larger grid's tracemalloc peak stays within 1.5 times the smaller's."""
    project = load_project(fixture_path("lv.json"))
    lens, system = project.lens("wiring"), project.system("rabbit_fox")
    prey = ParamSignal.constant((1.0, 0.5, 0.2, 0.4))

    def check(t1: float):
        return lambda: check_solve_functoriality(lens, system, (2.0, 1.0), prey, 0.0, t1, 1e-3, 1e-9)

    check(1.0)()  # the loop's code is compiled once per shape, outside the peaks
    short, long = traced_peak(check(4.0)), traced_peak(check(40.0))
    assert long <= 1.5 * short, (short, long)

