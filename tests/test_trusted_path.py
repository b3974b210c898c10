"""The trusted constructor path against the public constructors.

The combinators and the law generators build from parts that were already
checked, and set their results' slots without the public constructors'
checks (`finset._finmap`, `deterministic._machine`, `deterministic._rewiring`,
and `stochastic._dist` for the cells of a Markov tensor).
Each result here is rebuilt through its public constructor, which checks
every table and normalizes it to canonical order, and must be `==` to the
trusted one with every table in the same order, since saved projects are
written in table order. The inputs are seeded machines of both effects.
"""

import random

from opendyn import (
    DetSystem,
    Dist,
    FinMap,
    StochSystem,
    compose_charts,
    compose_lens_system,
    compose_lenses,
    identity_chart,
    identity_lens,
    random_lens,
    random_system,
    tensor_systems,
)
from opendyn.laws import (
    mutate_square,
    random_interface,
    random_map,
    random_square,
    random_square_from,
)

from helpers import random_markov_machine


def nested_order(table: dict) -> list:
    return [(row, list(cells.items())) for row, cells in table.items()]


def public_map(fmap: FinMap) -> FinMap:
    """`fmap` rebuilt by `FinMap`, asserted equal to it in table order."""
    again = FinMap(fmap.dom, fmap.cod, fmap.table)
    assert again == fmap
    assert list(again.table.items()) == list(fmap.table.items())
    return again


def assert_public_machine(machine) -> None:
    again = type(machine)(
        machine.states, machine.interface, public_map(machine.readout), machine.update
    )
    assert again == machine
    assert nested_order(again.update) == nested_order(machine.update)


def assert_public_rewiring(rewiring) -> None:
    table = getattr(rewiring, rewiring.table)
    again = type(rewiring)(rewiring.source, rewiring.target, public_map(rewiring.fwd), table)
    assert again == rewiring
    assert nested_order(getattr(again, rewiring.table)) == nested_order(table)


def assert_public_cells(machine) -> None:
    """Each update cell of a Markov machine rebuilt by `Dist`."""
    for row in machine.update.values():
        for cell in row.values():
            again = Dist(cell.support, cell.weights)
            assert again == cell
            assert list(again.weights.items()) == list(cell.weights.items())


def random_machine(rng: random.Random, iface, markov: bool):
    return random_markov_machine(rng, iface) if markov else random_system(rng, iface)


class TestTrustedResultsEqualPublicOnes:
    def test_two_hundred_seeded_cases_of_both_effects(self):
        rng = random.Random(21)
        kinds = {DetSystem: 0, StochSystem: 0}
        for case in range(200):
            markov = case % 2 == 1
            ifaces = [random_interface(rng, tag=str(n)) for n in range(3)]
            sys = random_machine(rng, ifaces[0], markov)
            other = random_machine(rng, random_interface(rng, 3, tag="t"), markov)
            l1 = random_lens(rng, ifaces[0], ifaces[1])
            l2 = random_lens(rng, ifaces[1], ifaces[2])
            kinds[type(sys)] += 1

            # generators: maps, machines, lenses, the injective charts and
            # solved right lenses of squares, a mutated right lens
            public_map(random_map(rng, sys.states, ifaces[1].outputs))
            assert_public_machine(random_system(rng, ifaces[1]))
            assert_public_rewiring(l1)
            assert_public_rewiring(l2)
            sq = random_square(rng)
            beside = random_square_from(rng, sq.right)
            mutated, _ = mutate_square(rng, sq)
            for chart in (sq.top, sq.bottom, beside.top, beside.bottom):
                assert_public_rewiring(chart)
            for lens in (sq.right, beside.right, mutated.right):
                assert_public_rewiring(lens)

            # combinators
            public_map(sys.readout.then(l1.fwd))
            public_map(FinMap.identity(sys.states))
            assert_public_rewiring(identity_lens(ifaces[0]))
            assert_public_rewiring(identity_chart(ifaces[0]))
            assert_public_rewiring(compose_lenses(l1, l2))
            assert_public_rewiring(compose_lenses(identity_lens(ifaces[0]), l1))
            assert_public_rewiring(compose_charts(sq.top, beside.top))
            assert_public_rewiring(compose_charts(identity_chart(sq.top.source), sq.top))
            rewired = compose_lens_system(l1, sys)
            assert type(rewired) is type(sys)
            assert_public_machine(rewired)
            assert_public_machine(compose_lens_system(l2, rewired))
            both = tensor_systems(sys, other)
            assert type(both) is type(sys)
            assert_public_machine(both)
            if markov:
                assert_public_cells(both)
                assert_public_cells(tensor_systems(both, sys))
        assert kinds == {DetSystem: 100, StochSystem: 100}
