"""The combinators that read tables directly against their per-cell forms.

`identity_lens`, `identity_chart`, `compose_lenses`, `compose_charts`,
`compose_lens_system` and `check_square` read `FinMap.table`,
`FinSet.elements` and the row dicts of their arguments. `finmap_call_oracle`
keeps the bodies that called `FinMap` and iterated each `FinSet` once per
cell. On the cases the law suites draw, on squares pasted and mutated as
`square_suite` pastes and mutates them, on Markov machines and on the
fixtures, both must build equal objects whose tables run in the same order,
and give the same `SquareResult`: verdict, witness and reason.
"""

from __future__ import annotations

import random

import pytest

from opendyn import laws
from opendyn.deterministic import (
    DetSquare,
    _rewiring,
    check_square,
    compose_charts,
    compose_lens_system,
    compose_lenses,
    identity_chart,
    identity_lens,
    paste_horizontal,
    paste_vertical,
)
from opendyn.project import load_project
from opendyn.stochastic import embed_det

import finmap_call_oracle as oracle
from helpers import fixture_path, random_markov_machine

SEEDS = range(12)
CASES = 25


def layout(x) -> tuple:
    """The type and tables of a lens, chart or machine, each in its order."""
    if hasattr(x, "update"):
        maps, table = [x.readout], x.update
    else:
        maps, table = [x.fwd], getattr(x, x.table)
    rows = [(r, list(row.items())) for r, row in table.items()]
    return type(x), [list(m.table.items()) for m in maps], rows


def same(ours, theirs) -> None:
    assert ours == theirs
    assert layout(ours) == layout(theirs)


def same_verdict(sq: DetSquare):
    ours, theirs = check_square(sq), oracle.check_square(sq)
    assert repr(ours) == repr(theirs)
    assert (ours.holds, ours.witness, ours.reason) == (theirs.holds, theirs.witness, theirs.reason)
    return ours


def lens_law_cases(seed: int):
    """The interfaces, lenses and system of each case `lens_law_suite` draws."""
    rng = laws._suite_rng(seed, "lens-laws")
    for _ in range(CASES):
        ifaces = [laws.random_interface(rng, tag=str(n)) for n in range(4)]
        l1 = laws.random_lens(rng, ifaces[0], ifaces[1])
        l2 = laws.random_lens(rng, ifaces[1], ifaces[2])
        l3 = laws.random_lens(rng, ifaces[2], ifaces[3])
        yield ifaces, (l1, l2, l3), laws.random_system(rng, ifaces[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_the_lens_law_cases(seed):
    for ifaces, (l1, l2, l3), sys in lens_law_cases(seed):
        for iface in ifaces:
            same(identity_lens(iface), oracle.identity_lens(iface))
            same(identity_chart(iface), oracle.identity_chart(iface))
        pairs = [
            (identity_lens(ifaces[0]), l1), (l1, identity_lens(ifaces[1])), (l1, l2), (l2, l3),
            (compose_lenses(l1, l2), l3), (l1, compose_lenses(l2, l3)),
        ]
        for a, b in pairs:
            same(compose_lenses(a, b), oracle.compose_lenses(a, b))
        for lens, machine in [
            (l1, sys), (compose_lenses(l1, l2), sys), (l2, compose_lens_system(l1, sys)),
        ]:
            same(compose_lens_system(lens, machine), oracle.compose_lens_system(lens, machine))


def pasted(sq1: DetSquare, sq2: DetSquare, horizontal: bool) -> DetSquare:
    """`paste_horizontal` or `paste_vertical`, composed through the oracle."""
    if horizontal:
        return DetSquare(
            oracle.compose_charts(sq1.top, sq2.top),
            oracle.compose_charts(sq1.bottom, sq2.bottom),
            sq1.left,
            sq2.right,
        )
    return DetSquare(
        sq1.top, sq2.bottom, oracle.compose_lenses(sq1.left, sq2.left),
        oracle.compose_lenses(sq1.right, sq2.right),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_the_square_suite_cases(seed):
    """Each square `square_suite` draws, pastes and mutates, and three
    further mutations of it: the same verdicts, witnesses and reasons."""
    rng = laws._suite_rng(seed, "squares")
    failed = set()
    for _ in range(CASES):
        sq = laws.random_square(rng)
        beside = laws.random_square_from(rng, sq.right)
        below = laws.random_square_from(
            rng, laws.random_lens(rng, sq.bottom.source, laws.random_interface(rng)),
            top=sq.bottom,
        )
        for other, horizontal in ((beside, True), (below, False)):
            ours = (paste_horizontal if horizontal else paste_vertical)(sq, other)
            theirs = pasted(sq, other, horizontal)
            for part in ("top", "bottom", "left", "right"):
                same(getattr(ours, part), getattr(theirs, part))
            assert same_verdict(ours)
        assert same_verdict(sq)
        for _ in range(4):
            mutated, _cell = laws.mutate_square(rng, sq)
            verdict = same_verdict(mutated)
            assert not verdict
            failed.add(verdict.witness[1] is None)
    assert failed == {True, False}  # output and input witnesses both occur


def test_squares_that_fail_at_a_later_output():
    """A square broken at one output only, for each output in turn: the
    witness is the first cell that disagrees, in table order."""
    rng = random.Random(40)
    for _ in range(60):
        sq = laws.random_square(rng)
        for o in sq.top.source.outputs.elements:
            right = sq.right
            o2 = sq.top.fwd.table[o]
            bwd = {x: dict(row) for x, row in right.bwd.items()}
            inputs = right.source.inputs.elements
            for i4 in bwd[o2]:
                bwd[o2][i4] = inputs[(inputs.index(bwd[o2][i4]) + 1) % len(inputs)]
            broken = _rewiring(type(right), right.source, right.target, right.fwd, bwd)
            same_verdict(DetSquare(sq.top, sq.bottom, sq.left, broken))


@pytest.mark.parametrize("seed", range(4))
def test_compose_lens_system_on_markov_machines(seed):
    rng = random.Random(f"markov|{seed}")
    for _ in range(40):
        iface = laws.random_interface(rng, 3)
        target = laws.random_interface(rng, 3)
        lens = laws.random_lens(rng, iface, target)
        embedded = embed_det(laws.random_system(rng, iface))
        for machine in (random_markov_machine(rng, iface), embedded):
            same(compose_lens_system(lens, machine), oracle.compose_lens_system(lens, machine))


def test_the_fixtures():
    latch = load_project(fixture_path("flipflop.json"))
    lens, machine = latch.lens("feedback"), latch.system("flipflop")
    same(compose_lens_system(lens, machine), oracle.compose_lens_system(lens, machine))
    unit = identity_lens(lens.target)
    same(compose_lenses(lens, unit), oracle.compose_lenses(lens, unit))
    chain = load_project(fixture_path("stoch.json")).system("chain")
    rng = random.Random(3)
    for _ in range(20):
        lens = laws.random_lens(rng, chain.interface, laws.random_interface(rng, 3))
        same(compose_lens_system(lens, chain), oracle.compose_lens_system(lens, chain))
    verdicts = []
    for name in ("square_ok.json", "square_broken.json"):
        project = load_project(fixture_path(name))
        top, bottom = project.chart("top"), project.chart("bottom")
        sq = DetSquare(top, bottom, project.lens("left"), project.lens("right"))
        verdicts.append(same_verdict(sq).holds)
        unit = identity_chart(top.target)
        same(compose_charts(top, unit), oracle.compose_charts(top, unit))
    assert verdicts == [True, False]
