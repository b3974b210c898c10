"""Randomized law suites: seeded generators plus pass/fail bundles.

Everything here is driven by an explicit `random.Random`, so a fixed seed
reproduces the exact same systems, lenses, squares, and verdicts. The square
generator is constructive: it draws the left lens and both charts freely
(with the injectivity that makes the constraints solvable) and then fills in
the one right-lens table that makes the square commute, so every generated
square is commuting by construction and any mutation of a reached table cell
must be caught.

Every generator here draws each table cell from the sets it was given and
writes its rows and columns in canonical order, so it builds through the
trusted constructors (`finset._finmap`, `deterministic._machine`,
`deterministic._rewiring`), which skip the public constructors' checks.

`matrix_suite` checks each drawn lens and machine at periods 1 to 3 through
`deterministic._matrix_theorem`, so each pair's composite is formed once and
each period's walking cycle and walk layout once per process; its verdicts
are those of `check_matrix_theorem` at each period.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

from .deterministic import (
    DetChart,
    DetInterface,
    DetLens,
    DetSquare,
    DetSystem,
    _machine,
    _matrix_theorem,
    _rewiring,
    check_square,
    compose_lens_system,
    compose_lenses,
    identity_lens,
    paste_horizontal,
    paste_vertical,
)
from .errors import ValidationError
from .finset import FinMap, FinSet, _finmap
from .ode import OdeLens, OdeSystem, ParamSignal, check_solve_functoriality
from .project import load_project


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k}" for k in range(n)]


def random_finset(rng: random.Random, prefix: str, max_size: int) -> FinSet:
    return FinSet(_labels(prefix, rng.randint(1, max_size)))


def random_interface(rng: random.Random, max_size: int = 4, tag: str = "") -> DetInterface:
    return DetInterface(
        random_finset(rng, f"{tag}i", max_size), random_finset(rng, f"{tag}o", max_size)
    )


def random_map(rng: random.Random, dom: FinSet, cod: FinSet) -> FinMap:
    if len(cod) == 0 and len(dom) > 0:
        raise ValidationError("cannot draw a map into an empty set")
    return _finmap(dom, cod, {x: rng.choice(cod.elements) for x in dom})


def random_system(rng: random.Random, iface: DetInterface, max_states: int = 5) -> DetSystem:
    states = random_finset(rng, "s", max_states)
    readout = random_map(rng, states, iface.outputs)
    update = {
        s: {i: rng.choice(states.elements) for i in iface.inputs} for s in states
    }
    return _machine(DetSystem, states, iface, readout, update)


def random_lens(rng: random.Random, source: DetInterface, target: DetInterface) -> DetLens:
    fwd = random_map(rng, source.outputs, target.outputs)
    bwd = {
        o: {i2: rng.choice(source.inputs.elements) for i2 in target.inputs}
        for o in source.outputs
    }
    return _rewiring(DetLens, source, target, fwd, bwd)


def random_injective_chart(
    rng: random.Random, source: DetInterface, target: DetInterface
) -> DetChart:
    """A chart whose fwd is injective and whose push is injective per output.

    Needs target alphabets at least as large as source alphabets. These charts
    are exactly the ones the constructive square generator can build on, in
    either position.
    """
    if len(target.outputs) < len(source.outputs) or len(target.inputs) < len(source.inputs):
        raise ValidationError("target interface too small for an injective chart")
    images = rng.sample(target.outputs.elements, len(source.outputs))
    fwd = _finmap(source.outputs, target.outputs, dict(zip(source.outputs, images)))
    push = {
        o: dict(zip(source.inputs, rng.sample(target.inputs.elements, len(source.inputs))))
        for o in source.outputs
    }
    return _rewiring(DetChart, source, target, fwd, push)


def _grow(rng: random.Random, iface: DetInterface, min_inputs: int = 1) -> DetInterface:
    """An interface at least as large as `iface` in both alphabets, and up to
    two larger in each."""
    return DetInterface(
        FinSet(_labels("i", max(min_inputs, len(iface.inputs) + rng.randint(0, 2)))),
        FinSet(_labels("o", len(iface.outputs) + rng.randint(0, 2))),
    )


def random_square_from(
    rng: random.Random,
    left: DetLens,
    top: Optional[DetChart] = None,
) -> DetSquare:
    """A commuting square with the given left lens (and optionally top chart).

    The right lens is solved for: its fwd is forced on the image of the top
    chart and its bwd is forced on the cells reached by pushing bottom inputs
    forward; everything unreached is drawn at random. Injectivity of the top
    fwd and of the bottom push (per output) keeps the forced cells conflict-free.
    """
    iface1, iface3 = left.source, left.target
    if top is None:
        top = random_injective_chart(rng, iface1, _grow(rng, iface1, min_inputs=2))
    elif top.source != iface1:
        raise ValidationError("top chart must start at the left lens's source")
    iface2 = top.target
    bottom = random_injective_chart(rng, iface3, _grow(rng, iface3))
    iface4 = bottom.target

    fwd_table = {o2: rng.choice(iface4.outputs.elements) for o2 in iface2.outputs}
    bwd_table = {
        o2: {i4: rng.choice(iface2.inputs.elements) for i4 in iface4.inputs}
        for o2 in iface2.outputs
    }
    for o in iface1.outputs:
        o2 = top.fwd(o)
        fwd_table[o2] = bottom.fwd(left.fwd(o))
        for a3 in iface3.inputs:
            i4 = bottom.push[left.fwd(o)][a3]
            bwd_table[o2][i4] = top.push[o][left.bwd[o][a3]]
    right = _rewiring(
        DetLens, iface2, iface4, _finmap(iface2.outputs, iface4.outputs, fwd_table), bwd_table
    )
    return DetSquare(top, bottom, left, right)


def random_square(rng: random.Random) -> DetSquare:
    iface1 = random_interface(rng)
    iface3 = random_interface(rng)
    return random_square_from(rng, random_lens(rng, iface1, iface3))


def mutate_square(rng: random.Random, sq: DetSquare) -> tuple[DetSquare, tuple[str, Optional[str]]]:
    """Perturb one reached right-lens cell; returns the square and a pair
    (o, a3) at which the check must now fail (a3 is None for a fwd mutation)."""
    o = rng.choice(sq.top.source.outputs.elements)
    o2 = sq.top.fwd(o)
    choices: list[tuple[str, Optional[str]]] = []
    if len(sq.right.target.outputs) > 1:
        choices.append((o, None))
    if len(sq.top.target.inputs) > 1 and len(sq.bottom.source.inputs) > 0:
        choices.extend((o, a3) for a3 in sq.bottom.source.inputs)
    if not choices:
        raise ValidationError("square has no room for a detectable mutation")
    o, a3 = rng.choice(choices)
    fwd_table = {x: sq.right.fwd(x) for x in sq.right.source.outputs}
    bwd_table = {x: dict(row) for x, row in sq.right.bwd.items()}
    if a3 is None:
        old = fwd_table[o2]
        fwd_table[o2] = rng.choice([x for x in sq.right.target.outputs if x != old])
    else:
        i4 = sq.bottom.push[sq.left.fwd(o)][a3]
        old = bwd_table[o2][i4]
        bwd_table[o2][i4] = rng.choice([x for x in sq.top.target.inputs if x != old])
    right = _rewiring(
        DetLens,
        sq.right.source,
        sq.right.target,
        _finmap(sq.right.source.outputs, sq.right.target.outputs, fwd_table),
        bwd_table,
    )
    return DetSquare(sq.top, sq.bottom, sq.left, right), (o, a3)


@dataclass
class SuiteResult:
    """One law suite's verdict."""

    name: str
    passed: bool
    cases: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _suite_rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}|{name}")


def _failed(name: str, case: int, why: str) -> SuiteResult:
    return SuiteResult(name, False, case + 1, f"case {case}: {why}")


def lens_law_suite(seed: int, cases: int) -> SuiteResult:
    """Units, associativity, and action functoriality of lens composition."""
    rng = _suite_rng(seed, "lens-laws")
    for case in range(cases):
        ifaces = [random_interface(rng, tag=str(n)) for n in range(4)]
        l1 = random_lens(rng, ifaces[0], ifaces[1])
        l2 = random_lens(rng, ifaces[1], ifaces[2])
        l3 = random_lens(rng, ifaces[2], ifaces[3])
        sys = random_system(rng, ifaces[0])
        if compose_lenses(identity_lens(ifaces[0]), l1) != l1:
            return _failed("lens-laws", case, "left unit broken")
        if compose_lenses(l1, identity_lens(ifaces[1])) != l1:
            return _failed("lens-laws", case, "right unit broken")
        if compose_lenses(compose_lenses(l1, l2), l3) != compose_lenses(
            l1, compose_lenses(l2, l3)
        ):
            return _failed("lens-laws", case, "associativity broken")
        if compose_lens_system(compose_lenses(l1, l2), sys) != compose_lens_system(
            l2, compose_lens_system(l1, sys)
        ):
            return _failed("lens-laws", case, "action functoriality broken")
    return SuiteResult("lens-laws", True, cases)


def square_suite(seed: int, cases: int) -> SuiteResult:
    """Generated squares commute, pastings commute, mutations are caught."""
    rng = _suite_rng(seed, "squares")
    for case in range(cases):
        sq = random_square(rng)
        if not check_square(sq):
            return _failed("squares", case, "generated square fails")
        beside = random_square_from(rng, sq.right)
        if not check_square(paste_horizontal(sq, beside)):
            return _failed("squares", case, "horizontal pasting fails")
        below = random_square_from(
            rng, random_lens(rng, sq.bottom.source, random_interface(rng)),
            top=sq.bottom,
        )
        if not check_square(paste_vertical(sq, below)):
            return _failed("squares", case, "vertical pasting fails")
        mutated, (o, a3) = mutate_square(rng, sq)
        verdict = check_square(mutated)
        if verdict.holds:
            return _failed("squares", case, "mutation not caught")
        if not _witness_hits_mutation(mutated, verdict.witness, (o, a3)):
            why = f"witness {verdict.witness} does not reach the mutated cell"
            return _failed("squares", case, why)
    return SuiteResult("squares", True, cases)


def _witness_hits_mutation(
    sq: DetSquare, witness: Optional[tuple[str, Optional[str]]], mutated: tuple[str, Optional[str]]
) -> bool:
    """Does the reported counterexample exercise the same right-lens cell
    that was perturbed? Several witnesses may reach one cell, so compare the
    reached cell rather than the raw pair."""
    if witness is None:
        return False
    o_w, a3_w = witness
    o_m, a3_m = mutated
    if a3_m is None:
        return a3_w is None and sq.top.fwd(o_w) == sq.top.fwd(o_m)
    if a3_w is None:
        return False
    cell_w = (sq.top.fwd(o_w), sq.bottom.push[sq.left.fwd(o_w)][a3_w])
    cell_m = (sq.top.fwd(o_m), sq.bottom.push[sq.left.fwd(o_m)][a3_m])
    return cell_w == cell_m


def matrix_suite(seed: int, cases: int) -> SuiteResult:
    """The composition theorem on random systems and lenses, for periods 1 to
    3, each pair rewired once (`_matrix_theorem`)."""
    rng = _suite_rng(seed, "matrix")
    for case in range(cases):
        iface = random_interface(rng, 5)
        target = random_interface(rng, 5)
        sys = random_system(rng, iface)
        lens = random_lens(rng, iface, target)
        at = _matrix_theorem(lens, sys)
        for k in range(1, 4):
            match = at(k)
            if not match:
                return SuiteResult(
                    "matrix-theorem",
                    False,
                    case + 1,
                    f"case {case}, k={k}: {match.mismatch}",
                )
    return SuiteResult("matrix-theorem", True, cases)


#: The packaged fixture `lv.json`.
_LV_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "lv.json")


def _lv_fixture() -> tuple[OdeLens, OdeSystem]:
    """The predator-prey `wiring` lens and the `rabbit_fox` system it wires,
    from the packaged fixture `lv.json`."""
    project = load_project(_LV_PATH)
    return project.lens("wiring"), project.system("rabbit_fox")


def ode_functoriality_suite(seed: int, tol: float) -> SuiteResult:
    """Substitute-then-solve against solve-with-live-wiring on two fixtures."""
    rng = _suite_rng(seed, "ode")
    lens, pair = _lv_fixture()
    result = check_solve_functoriality(
        lens, pair, (2.0, 1.0), ParamSignal.constant((1.0, 0.5, 0.2, 0.4)), 0.0, 5.0, 1e-3, tol
    )
    if not result:
        return SuiteResult(
            "ode-functoriality", False, 1, f"predator-prey deviation {result.max_deviation}"
        )
    a = round(rng.uniform(0.1, 1.0), 3)
    b = round(rng.uniform(0.1, 1.0), 3)
    sys = OdeSystem(
        ["s"], ["y"], ["p", "q"], {"y": "s"}, {"s": f"{a} - p*s^3 - q*s"}
    )
    lin = OdeLens(
        ["y"], ["p", "q"], ["y2"], ["u", "v"],
        {"y2": "y"}, {"p": "u", "q": f"v + {b}*y"},
    )
    result = check_solve_functoriality(
        lin, sys, (0.5,), ParamSignal.constant((0.3, 0.2)), 0.0, 5.0, 1e-3, tol
    )
    if not result:
        return SuiteResult(
            "ode-functoriality", False, 2, f"polynomial deviation {result.max_deviation}"
        )
    return SuiteResult("ode-functoriality", True, 2)
