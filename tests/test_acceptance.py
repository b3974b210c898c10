"""The acceptance gate: one test per advertised guarantee, in order.

Each test prints one PASS line with the measured numbers once its criterion
holds; a failed criterion fails the test, so pytest's verdict line is the
FAIL side. The tolerances are contracts fixed by the README, not knobs.
"""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

from opendyn import (
    DetInterface,
    DetLens,
    DetSquare,
    FinMap,
    FinSet,
    OdeSystem,
    ParamSignal,
    check_solve_functoriality,
    check_square,
    compose_lens_ode,
    compose_lens_stoch,
    compose_lens_system,
    compose_lenses,
    embed_det,
    eval_field,
    identity_lens,
    load_project,
    periodic_orbit_span,
    representable_span,
    rk4_solve,
    steady_span,
    step_dist,
    walking_cycle,
)
from opendyn.cli import main
from opendyn.laws import (
    _lv_fixture,
    matrix_suite,
    random_interface,
    random_lens,
    random_system,
    square_suite,
)

from dense_oracle import dense_steady_span
from helpers import (
    chain,
    fixture_path,
    flipflop,
    oscillator,
    random_dist,
    random_stoch_system,
)


def report(line: str) -> None:
    # bypass pytest's capture so the gate lines land in the terminal log
    sys.__stdout__.write(f"\n{line}\n")
    sys.__stdout__.flush()


def test_criterion_1_orbits_compose_by_matrix_arithmetic():
    """200 random system/lens pairs, periods 1..3, exact fiberwise bijections."""
    start = time.perf_counter()
    result = matrix_suite(seed=0, cases=200)
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert result.cases == 200
    assert elapsed < 60.0
    report(
        f"PASS criterion 1: orbit transport matched matrix arithmetic on "
        f"200/200 random cases, k in 1..3, in {elapsed:.1f}s"
    )


def test_criterion_2_predation_wiring_matches_the_closed_form():
    """The wired two-species field equals the hand-written one to 1e-12."""
    lens, pair = _lv_fixture()
    wired = compose_lens_ode(lens, pair)

    def by_hand(r, f, alpha, c, d, delta):
        return (alpha * r - c * f * r, d * r * f - delta * f)

    rng = random.Random(0)
    worst = 0.0
    for _ in range(100):
        r, f = rng.uniform(0.01, 5), rng.uniform(0.01, 5)
        alpha, c, d, delta = (rng.uniform(0.01, 2) for _ in range(4))
        got = eval_field(wired, (r, f), (alpha, c, d, delta))
        want = by_hand(r, f, alpha, c, d, delta)
        for g, w in zip(got, want):
            rel = abs(g - w) / max(1.0, abs(w))
            worst = max(worst, rel)
            assert rel <= 1e-12
    report(
        f"PASS criterion 2: wired fields matched the closed form at 100 random "
        f"points, worst relative error {worst:.2e} (budget 1e-12)"
    )


def test_criterion_3_substitute_then_solve_equals_solve_then_substitute():
    """Both integration paths of the wired system agree to 1e-9 over [0, 5]."""
    lens, pair = _lv_fixture()
    result = check_solve_functoriality(
        lens, pair, (2.0, 1.0), ParamSignal.constant((1.0, 0.5, 0.2, 0.4)),
        0.0, 5.0, 1e-3, 1e-9,
    )
    assert result.passed
    assert result.max_deviation <= 1e-9
    report(
        f"PASS criterion 3: substitute-then-solve vs solve-then-substitute "
        f"deviated by {result.max_deviation:.2e} on [0, 5] at h=1e-3 (budget 1e-9)"
    )


def test_criterion_4_integrator_quality():
    """ds/dt = s reaches e to 1e-8; halving the step divides the error by 12-20."""
    sys_exp = OdeSystem(["s"], ["y"], [], {"y": "s"}, {"s": "s"})
    no_params = ParamSignal.constant(())
    traj = rk4_solve(sys_exp, (1.0,), no_params, 0.0, 1.0, 1e-3)
    err_fine = abs(traj.values[-1][0] - math.e)
    assert err_fine <= 1e-8

    errors = {}
    for h in (1e-2, 5e-3, 2.5e-3):
        traj = rk4_solve(sys_exp, (1.0,), no_params, 0.0, 1.0, h)
        errors[h] = abs(traj.values[-1][0] - math.e)
    factor1 = errors[1e-2] / errors[5e-3]
    factor2 = errors[5e-3] / errors[2.5e-3]
    assert 12.0 <= factor1 <= 20.0
    assert 12.0 <= factor2 <= 20.0
    report(
        f"PASS criterion 4: |s(1) - e| = {err_fine:.2e} at h=1e-3 (budget 1e-8); "
        f"step-halving factors {factor1:.1f}, {factor2:.1f} (budget [12, 20])"
    )


def test_criterion_5_lens_laws_and_square_pasting():
    """Exhaustive unit/associativity, 200 pasting cases, every mutation caught."""
    # every endo-lens on a 2-output, 2-input interface, closed under composition
    outs, ins = FinSet(["o1", "o2"]), FinSet(["i1", "i2"])
    iface = DetInterface(ins, outs)
    lenses = [
        DetLens(
            iface, iface,
            FinMap(outs, outs, {"o1": f1, "o2": f2}),
            {"o1": {"i1": b[0], "i2": b[1]}, "o2": {"i1": b[2], "i2": b[3]}},
        )
        for f1 in outs
        for f2 in outs
        for b in itertools.product(ins.elements, repeat=4)
    ]

    def index_of(lens):
        for j, other in enumerate(lenses):
            if other == lens:
                return j
        raise AssertionError("composition left the enumerated set")

    table = [[index_of(compose_lenses(a, b)) for b in lenses] for a in lenses]
    n = len(lenses)
    e = index_of(identity_lens(iface))
    assert all(table[e][j] == j and table[j][e] == j for j in range(n))
    assert all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )

    # randomized squares: generation, both pastings, and a caught mutation each
    squares = square_suite(seed=0, cases=200)
    assert squares.passed, squares.detail

    # the bundled broken square names its counterexample
    broken = load_project(fixture_path("square_broken.json"))
    verdict = check_square(
        DetSquare(
            broken.chart("top"), broken.chart("bottom"),
            broken.lens("left"), broken.lens("right"),
        )
    )
    assert not verdict
    assert verdict.witness == ("q", "c")
    report(
        f"PASS criterion 5: unit/associativity exact on all {n}^3 endo-lens "
        f"triples; 200/200 pasting cases; mutations caught with witnesses"
    )


def test_criterion_6_representability_degeneracies():
    """Period-1 orbits are steady states; known machines have known counts."""
    rng = random.Random(0)
    for _ in range(100):
        sys = random_system(rng, random_interface(rng, 4))
        assert representable_span(walking_cycle(1), sys) == dense_steady_span(sys)

    ff_fibers = {k: v for k, v in steady_span(flipflop()).fiber_sizes().items() if v}
    assert ff_fibers == {"lo|reset": 1, "lo|hold": 1, "hi|set": 1, "hi|hold": 1}
    assert len(steady_span(oscillator()).total) == 0
    orbit_fibers = periodic_orbit_span(oscillator(), 2).fiber_sizes()
    assert orbit_fibers == {"star|tick|star|tick": 2}
    report(
        "PASS criterion 6: period-1 orbits equal steady states on 100/100 random "
        "systems; latch has 4 steady fibers; oscillator has 0 steady states and "
        "2 period-2 orbits under the constant chart"
    )


def test_criterion_7_stochastic_exactness():
    """Normalization survives stepping and rewiring exactly; the point-mass
    embedding commutes with lens composition as table equality."""
    rng = random.Random(0)
    for _ in range(100):
        sys = random_stoch_system(rng)
        d = random_dist(rng, sys.states)
        inp = rng.choice(sys.interface.inputs.elements)
        stepped = step_dist(sys, d, inp)
        assert sum(stepped.weights.values()) == Fraction(1)
        lens = random_lens(rng, sys.interface, random_interface(rng, 4, tag="t"))
        rewired = compose_lens_stoch(lens, sys)
        for s in rewired.states:
            for i in rewired.interface.inputs:
                assert sum(rewired.update[s][i].weights.values()) == Fraction(1)

    for _ in range(100):
        sys = random_system(rng, random_interface(rng, 4))
        lens = random_lens(rng, sys.interface, random_interface(rng, 4, tag="t"))
        assert compose_lens_stoch(lens, embed_det(sys)) == embed_det(
            compose_lens_system(lens, sys)
        )
    report(
        "PASS criterion 7: normalization exact under stepping and rewiring on "
        "100/100 random rational systems; point-mass embedding commutes with "
        "lens composition as exact table equality"
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    """The seeded check report and every simulate fixture reproduce exactly."""
    first = tmp_path / "report1.txt"
    second = tmp_path / "report2.txt"
    argv = ["check", fixture_path("flipflop.json"), "--seed", "0"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    sims = {
        "det": ["simulate", fixture_path("flipflop.json"), "--system", "flipflop",
                "--start", "s0", "--word", "set,hold,reset,set,reset"],
        "stoch": ["simulate", fixture_path("stoch.json"), "--system", "chain",
                  "--start", "a", "--word", ",".join(["go"] * 200), "--seed", "0"],
        "ode": ["simulate", fixture_path("lv.json"), "--system", "lotka_volterra",
                "--init", "2,1", "--params", "1,0.5,0.2,0.4",
                "--t1", "5", "--h", "0.001"],
    }
    for kind, argv in sims.items():
        a = tmp_path / f"{kind}_a.csv"
        b = tmp_path / f"{kind}_b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{kind} run is not reproducible"
    report(
        "PASS criterion 8: seeded check reports and all three simulate outputs "
        "are byte-identical across consecutive runs"
    )
