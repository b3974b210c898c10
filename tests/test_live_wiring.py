"""The live-wired path of `check_solve_functoriality` against its oracles.

The live path integrates the unwired system through one compiled function
that computes the readout, then the lens's `bwd`, then the field, and it
reports deviation 0.0 at t0 without a scan when the two paths' state rows
are equal. Each case here must give what `tree_walk_oracle`'s plain loop
gives, over the tree walk and over opendyn's compiled tables: the same
`FunctorialityResult`, bit for bit, or the same error text.
"""

import random

import pytest

from opendyn import (
    ExprEvalError,
    OdeLens,
    OdeSystem,
    ParamSignal,
    check_solve_functoriality,
    compose_lens_ode,
    ode,
)
from opendyn.expr import BinOp, Num, Var

import tree_walk_oracle
from helpers import ode_chain
from test_fused_rk4 import H, ORACLES, STAGES, outcome, stage_records

EVALUATORS = {"tree walk": tree_walk_oracle.TREE_WALK, "compiled": tree_walk_oracle.COMPILED}
SIGNALS = {
    "constant": ParamSignal.constant((1.0, 0.5)),
    "sampled": ParamSignal((0.0, 0.3, 0.7), ((1.0, 0.5), (0.8, 0.6), (1.2, 0.4))),
}


def tower(depth: int) -> tuple[OdeLens, OdeSystem]:
    """A seeded `ode_chain` of `depth` lenses: its last lens, and the base
    wired through the others."""
    system, lenses = ode_chain(random.Random(depth), depth)
    for lens in lenses[:-1]:
        system = compose_lens_ode(lens, system)
    return lenses[-1], system


def same_as_oracle(lens, system, signal, evaluators):
    args = (lens, system, (0.5, -0.25), signal, 0.0, 1.0, 1e-2, 1e-9)
    live = check_solve_functoriality(*args)
    expected = tree_walk_oracle.check_solve_functoriality(*args, evaluators=evaluators)
    assert live == expected
    assert live.max_deviation.hex() == expected.max_deviation.hex()
    assert live.time.hex() == expected.time.hex()
    return live


@pytest.mark.parametrize("evaluators", EVALUATORS)
@pytest.mark.parametrize("signal", SIGNALS)
@pytest.mark.parametrize("depth", [1, 4, 16])
def test_towers_match_the_oracle(depth, signal, evaluators):
    lens, system = tower(depth)
    result = same_as_oracle(lens, system, SIGNALS[signal], EVALUATORS[evaluators])
    assert result.passed and result.max_deviation == 0.0 and result.time == 0.0


@pytest.mark.parametrize("evaluators", EVALUATORS)
@pytest.mark.parametrize("signal", SIGNALS)
def test_a_perturbed_composite_is_scanned(monkeypatch, signal, evaluators):
    """A composite whose x' has one coefficient moved: the rows differ, so
    the scan runs and names the oracle's worst deviation and time."""

    def perturbed(lens, system):
        c = compose_lens_ode(lens, system)
        x = c.field["x"]  # p*cos(y) - c*x, with c grown by 1e-6
        x = BinOp("-", x.left, BinOp("*", Num(x.right.left.value + 1e-6), x.right.right))
        return OdeSystem(
            c.state_vars, c.output_vars, c.param_vars, c.readout, {**c.field, "x": x}
        )

    monkeypatch.setattr(ode, "compose_lens_ode", perturbed)
    monkeypatch.setattr(tree_walk_oracle, "compose_lens_ode", perturbed)
    lens, system = tower(4)
    assert isinstance(system.field["x"].right.right, Var)
    result = same_as_oracle(lens, system, SIGNALS[signal], EVALUATORS[evaluators])
    assert 1e-9 < result.max_deviation < 1e-6 and result.time > 0.0
    assert not result.passed


def trapped(table: str, c: float, switch: float):
    """`x' = x`, `y' = -y` with a parameter p the field does not read, so the
    composite is trap-free, and a lens whose new parameter q feeds p. The
    live path computes the readout and `bwd` at every stage, and one of them
    fails with `log(0.0) is undefined`:
    - the readout, at the first stage whose x is exactly `c`;
    - `bwd`, at the first stage at or after time `switch` whose x is
      exactly `c`. Before `switch` q is 0 and the term reads log(o^2),
      which is finite while x grows from 1."""
    readout = f"x + 0*log((x - {c!r})^2)" if table == "readout" else "x"
    system = OdeSystem(["x", "y"], ["o"], ["p"], {"o": readout}, {"x": "x", "y": "-y"})
    bwd = f"q + 0*log((o - {c!r}*q)^2)" if table == "bwd" else "q"
    lens = OdeLens(["o"], ["p"], ["o2"], ["q"], {"o2": "1"}, {"p": bwd})
    if switch == 0.0 or table == "readout":
        return lens, system, ParamSignal.constant((1.0,))
    return lens, system, ParamSignal((0.0, switch), ((0.0,), (1.0,)))


@pytest.mark.parametrize("table", ["readout", "bwd"])
@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("step", [0, 3])
def test_an_evaluation_error_in_the_wiring_at_each_stage(step, stage, table):
    s0 = (1.0, 0.5)
    records = stage_records(s0)
    _, _, when, c = next(r for r in records if r[:2] == (step, stage))
    lens, system, signal = trapped(table, c, when)
    wired = (lens, system, s0, signal, 0.0, 2.0, H, 1e-9)
    live = outcome(lambda: check_solve_functoriality(*wired))
    component = "readout component 'o'" if table == "readout" else "bwd component 'p'"
    assert live[0] is ExprEvalError
    assert live[1].startswith(
        f"{component}: log(0.0) is undefined at t={when!r} in state (x={c!r}, y="
    )
    for oracle in ORACLES:
        assert outcome(lambda: oracle.check_solve_functoriality(*wired)) == live
