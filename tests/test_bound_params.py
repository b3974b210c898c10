"""Terms computed once per parameter row against the tree walk.

`expr.compile_tables` computes each term built from parameters and finite
float constants by `+`, `-`, `*` and unary minus in an outer function, once
per parameter row, and the RK4 loop binds a row again only when the signal
answers with another row object. Trajectories and deviations must still be
the tree walk's in `tree_walk_oracle`, bit for bit, and every error its
text, time and state, under a constant and a sampled signal.
"""

import dis
import random

import pytest

from opendyn import (
    OdeSystem,
    ParamSignal,
    check_solve_functoriality,
    compose_lens_ode,
    parse,
    rk4_solve,
)
from opendyn.expr import BinOp, Num, Var, compile_table, compile_tables

import tree_walk_oracle as oracle
from helpers import ode_chain, wired
from test_compiled_expr import operations
from test_fused_rk4 import outcome

SIGNALS = {
    "constant": ParamSignal.constant((0.4, 0.9)),
    "sampled": ParamSignal((0.0, 0.25, 0.6), ((0.4, 0.9), (0.7, -0.3), (0.1, 1.2))),
}


def hexed(traj):
    return [tuple(map(float.hex, row)) for row in (traj.times, *traj.values, *traj.outputs)]


def tower(depth: int):
    """A seeded `ode_chain` of `depth` lenses: the base wired through all
    of them, and the last lens with the base wired through the others."""
    system, lenses = ode_chain(random.Random(100 + depth), depth)
    for lens in lenses[:-1]:
        system = compose_lens_ode(lens, system)
    return compose_lens_ode(lenses[-1], system), lenses[-1], system


@pytest.mark.parametrize("signal", SIGNALS, ids=str)
@pytest.mark.parametrize("depth", [1, 4, 16])
def test_seeded_towers_are_the_tree_walk_bit_for_bit(depth, signal):
    wired, lens, inner = tower(depth)
    args = (wired, (0.3, -0.7), SIGNALS[signal], 0.0, 1.0, 1 / 64)
    assert hexed(rk4_solve(*args)) == hexed(oracle.rk4_solve(*args))
    live = (lens, inner, (0.3, -0.7), SIGNALS[signal], 0.0, 1.0, 1 / 64, 1e-9)
    got, want = check_solve_functoriality(*live), oracle.check_solve_functoriality(*live)
    assert got == want and got.max_deviation.hex() == want.max_deviation.hex()


def test_the_deepest_tower_computes_its_parameter_chain_once_per_row():
    wired, _, _ = tower(16)
    flat = compile_table(wired.field, wired.state_vars, wired.state_vars + wired.param_vars, "field")
    bound = wired.compiled()
    # the 16 products of the q chain, and the factor of q0*sin(x) they make;
    # the two calls that hand stage a its readout compute no term
    assert operations(bound(0.4, 0.9)) - 2 <= operations(flat) - 16
    assert bound(0.4, 0.9)(0.3, -0.7) == flat(0.3, -0.7, 0.4, 0.9)


def signal_of(kind: str, rows: tuple) -> ParamSignal:
    """The first row as a constant signal, or all three sampled."""
    if kind == "constant":
        return ParamSignal.constant(rows[0])
    return ParamSignal((0.0, 0.3, 0.6), rows)


@pytest.mark.parametrize("kind", ["constant", "sampled"])
@pytest.mark.parametrize(
    "field_y, rows",
    [
        ("x - (p*1e16 + 1.0 - p*1e16)*y", ((1.0, 1.0), (0.5, -0.5), (2.0, 0.25))),
        # traps beside terms computed once per row: a parameter-only quotient
        # by a parameter that is 0, the log of a negative parameter term
        ("(0.5*q)/p + x", ((0.0, 1.0), (1.0, 0.5), (0.0, 0.25))),
        ("log(q*2.0)*y + p*0.5", ((1.0, -1.0), (2.0, 0.25), (0.5, -0.5))),
    ],
)
def test_errors_and_float_order_are_the_tree_walk_ones(field_y, rows, kind):
    system = OdeSystem(
        ["x", "y"], ["o"], ["p", "q"], {"o": "x + y"},
        {"x": "(p*0.1 + (q*0.2 + 0.3))*x - (p - (q - 0.7))*y - -(q*3.0)", "y": field_y},
    )
    args = (system, (0.5, -0.25), signal_of(kind, rows), 0.0, 1.0, 1 / 16)
    expected = outcome(lambda: oracle.rk4_solve(*args))
    assert outcome(lambda: rk4_solve(*args)) == expected


@pytest.mark.parametrize("kind", ["constant", "sampled"])
def test_a_state_trap_in_an_earlier_component_wins(kind):
    system = OdeSystem(
        ["x", "y"], ["o"], ["p"], {"o": "x"}, {"x": "log(x - 1)", "y": "(2.0*p)/p"}
    )
    args = (system, (0.5, 0.0), signal_of(kind, ((0.0,), (1.0,), (0.0,))), 0.0, 1.0, 0.25)
    expected = outcome(lambda: oracle.rk4_solve(*args))
    assert expected[1].startswith("field component 'x': log(")
    assert outcome(lambda: rk4_solve(*args)) == expected


def binary_operations(f) -> int:
    return sum(i.opname.startswith("BINARY_") for i in dis.get_instructions(f))


@pytest.mark.parametrize(
    "constant, in_state", [(Num(2), True), (Num(2.0), False), (Num(float("inf")), True)]
)
def test_only_finite_float_constants_join_a_parameter_term(constant, in_state):
    table = {"x": BinOp("*", constant, Var("p"))}
    bind = compile_tables(((table, ["x"], "field", None),), ["x"], ["p"])
    state = bind(3.0)
    assert binary_operations(state) == (1 if in_state else 0)
    assert state(1.0) == (constant.value * 3.0,)


def test_a_readout_binds_nothing():
    table = {"o": parse("x*(2.0*3.0) + 1.5")}
    bind = compile_tables(((table, ["o"], "readout", None),), ["x"], [])
    assert bind.__code__.co_argcount == 0
    assert bind()(2.0) == (2.0 * (2.0 * 3.0) + 1.5,)


def test_the_loop_samples_with_the_stage_time_alone():
    sys = wired(4)
    times = [j / 8 for j in range(9)]
    seen = []

    def sample(t):
        seen.append(t)
        return (0.4, 0.9)  # another row object each stage: bound again each time

    sampled_rows, constant_rows = [], []  # the outputs stage a hands over
    sampled = sys.integrator()(times, (0.3, -0.7), None, sample, sampled_rows.append)
    constant = sys.integrator()(times, (0.3, -0.7), (0.4, 0.9), None, constant_rows.append)
    assert [tuple(map(float.hex, y)) for y in sampled] == [tuple(map(float.hex, y)) for y in constant]
    assert sampled_rows == constant_rows and len(sampled_rows) == len(times) - 1
    stages = [[t, t + (u - t) / 2, t + (u - t) / 2, u] for t, u in zip(times, times[1:])]
    assert seen == [s for step in stages for s in step]
