"""The law suites' generators draw a table at a time, and draw the very cases
that one `random` call per cell drew.

`opendyn.laws._draws` and `_samples` make the `getrandbits` calls that
`Random.choice`, `randint` and `sample` make. These tests hold them to those
calls, on the values drawn and on `getstate()` after each draw; hold every
generator, along the draws each suite makes, to the per-cell generators of
`draw_oracle`; and pin the named refusals that replace a bare `ValueError`,
an `IndexError` or a hang.

The module uses the standard library only, so it also runs without pytest,
under any interpreter that imports opendyn:

    PYTHONPATH=src python tests/test_seeded_draws.py
"""

from __future__ import annotations

import random
import sys

from opendyn import ValidationError
from opendyn.deterministic import DetChart, DetInterface, DetLens, DetSquare, DetSystem
from opendyn.finset import FinMap, FinSet
from opendyn import laws
from opendyn.laws import _draws, _samples, _sizes, _suite_rng

import draw_oracle

#: The population sizes the helpers are held to `random` on: every size a
#: default case draws from, a power of two and one past it, and one past
#: the 21 up to which `sample` takes its pool path.
SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33)
SEEDS_PER_SUITE = 300


def twins(seed) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


# -- the helpers against random's own calls -------------------------------


def test_draws_are_choice():
    for n in SIZES:
        seq = tuple(f"x{k}" for k in range(n))
        for seed in range(20):
            ours, theirs = twins(f"choice|{n}|{seed}")
            for count in (0, 1, 2, 5, 13, 40):
                assert _draws(ours, seq, count) == [theirs.choice(seq) for _ in range(count)], (n, seed)
                assert ours.getstate() == theirs.getstate(), (n, seed, count)


def test_sizes_are_randint():
    for n in SIZES:
        for seed in range(20):
            ours, theirs = twins(f"randint|{n}|{seed}")
            for count in (1, 2, 7):
                assert _sizes(ours, n, count) == [theirs.randint(1, n) for _ in range(count)]
                assert ours.getstate() == theirs.getstate(), (n, seed, count)
            assert _draws(ours, range(3), 2) == [theirs.randint(0, 2) for _ in range(2)]
            assert ours.getstate() == theirs.getstate(), (n, seed)


def test_samples_are_sample():
    """Every sample size at every population size, through the pool path up
    to 21 and through `rng.sample` itself above it."""
    for n in SIZES:
        population = tuple(f"y{k}" for k in range(n))
        for seed in range(5):
            ours, theirs = twins(f"sample|{n}|{seed}")
            for k in range(n + 1):
                for count in (0, 1, 3):
                    want = [theirs.sample(population, k) for _ in range(count)]
                    assert _samples(ours, population, k, count) == want, (n, seed, k, count)
                    assert ours.getstate() == theirs.getstate(), (n, seed, k, count)


# -- the generators against the per-cell oracle ---------------------------


def parts(value):
    """Everything a drawn value holds, dict orders included, as plain data."""
    if isinstance(value, FinSet):
        return ("set", value.elements)
    if isinstance(value, FinMap):
        return ("map", value.dom.elements, value.cod.elements, list(value.table.items()))
    if isinstance(value, DetInterface):
        return ("interface", parts(value.inputs), parts(value.outputs))
    if isinstance(value, DetSystem):
        return ("system", parts(value.states), parts(value.interface), parts(value.readout),
                [(s, list(row.items())) for s, row in value.update.items()])
    if isinstance(value, (DetLens, DetChart)):
        table = getattr(value, value.table)
        return (type(value).__name__, parts(value.source), parts(value.target), parts(value.fwd),
                [(o, list(row.items())) for o, row in table.items()])
    if isinstance(value, DetSquare):
        return ("square", *(parts(getattr(value, side)) for side in DetSquare.__slots__))
    if isinstance(value, tuple):
        return tuple(parts(v) for v in value)
    return value


class Pair:
    """Two generators seeded alike, one drawing through `opendyn.laws` and
    one through the oracle: `draw` draws through each and checks that the
    draws and the generators' states are equal."""

    def __init__(self, seed: int, name: str):
        self.ours, self.theirs = _suite_rng(seed, name), _suite_rng(seed, name)
        self.where = (seed, name)

    def draw(self, generator: str, *args, **kwargs):
        """`generator` of each module, each on its own generator and on its
        own side of each argument that is a pair."""
        mine = getattr(laws, generator)(self.ours, *(a[0] for a in args),
                                        **{k: v[0] for k, v in kwargs.items()})
        other = getattr(draw_oracle, generator)(self.theirs, *(a[1] for a in args),
                                                **{k: v[1] for k, v in kwargs.items()})
        assert parts(mine) == parts(other), (self.where, generator)
        assert self.ours.getstate() == self.theirs.getstate(), (self.where, generator)
        return mine, other


def same(value) -> tuple:
    return value, value


def test_lens_law_cases_are_the_oracles():
    for seed in range(SEEDS_PER_SUITE):
        pair = Pair(seed, "lens-laws")
        ifaces = [pair.draw("random_interface", tag=same(str(n))) for n in range(4)]
        for n in range(3):
            pair.draw("random_lens", ifaces[n], ifaces[n + 1])
        pair.draw("random_system", ifaces[0])


def test_square_cases_and_mutations_are_the_oracles():
    for seed in range(SEEDS_PER_SUITE):
        pair = Pair(seed, "squares")
        sq = pair.draw("random_square")
        pair.draw("random_square_from", tuple(s.right for s in sq))
        iface = pair.draw("random_interface")
        lens = pair.draw("random_lens", tuple(s.bottom.source for s in sq), iface)
        pair.draw("random_square_from", lens, top=tuple(s.bottom for s in sq))
        pair.draw("mutate_square", sq)


def test_matrix_cases_are_the_oracles():
    for seed in range(SEEDS_PER_SUITE):
        pair = Pair(seed, "matrix")
        iface = pair.draw("random_interface", same(5))
        target = pair.draw("random_interface", same(5))
        pair.draw("random_system", iface)
        pair.draw("random_lens", iface, target)


def test_wide_squares_sample_through_random_and_are_the_oracles():
    """Interfaces of up to 30 labels: populations past 21, which `_samples`
    hands to `rng.sample`, and tables of many cells."""
    for seed in range(20):
        pair = Pair(seed, "wide")
        source = pair.draw("random_interface", same(30), tag=same("s"))
        target = pair.draw("random_interface", same(30), tag=same("t"))
        lens = pair.draw("random_lens", source, target)
        sq = pair.draw("random_square_from", lens)
        pair.draw("mutate_square", sq)
        pair.draw("random_system", source, same(30))


# -- refusals --------------------------------------------------------------


def refusal(call, *args) -> str:
    """The text of the `ValidationError` that `call(rng, *args)` raises; the
    generator `rng` must be left as it was."""
    rng = random.Random(7)
    before = rng.getstate()
    try:
        call(rng, *args)
    except ValidationError as err:
        assert rng.getstate() == before, call.__name__
        return str(err)
    raise AssertionError(f"{call.__name__}{args} drew instead of refusing")


def test_random_finset_refuses_an_empty_size_range():
    assert refusal(laws.random_finset, "x", 0) == "cannot draw a nonempty set of at most 0 elements"
    assert refusal(laws.random_finset, "x", -3) == "cannot draw a nonempty set of at most -3 elements"


def test_random_interface_refuses_an_empty_size_range():
    assert refusal(laws.random_interface, 0) == "cannot draw a nonempty set of at most 0 elements"


def test_random_system_refuses_an_empty_size_range():
    iface = DetInterface(FinSet(["a"]), FinSet(["y"]))
    assert refusal(laws.random_system, iface, 0) == "cannot draw a nonempty set of at most 0 elements"


def test_random_lens_refuses_an_empty_input_alphabet():
    source = DetInterface(FinSet([]), FinSet(["y"]))
    target = DetInterface(FinSet(["b"]), FinSet(["z"]))
    assert refusal(laws.random_lens, source, target) == (
        "cannot draw a lens's bwd into an empty set of inputs"
    )
    # no bwd cell to draw: a lens with an empty bwd
    lens = laws.random_lens(random.Random(7), source, DetInterface(FinSet([]), FinSet(["z"])))
    assert lens.bwd == {"y": {}}


def test_random_map_refuses_an_empty_codomain():
    assert refusal(laws.random_map, FinSet(["a"]), FinSet([])) == "cannot draw a map into an empty set"
    assert refusal(laws._draws, (), 1) == "cannot draw a map into an empty set"


def test_suites_refuse_a_negative_case_count():
    for suite in (laws.lens_law_suite, laws.square_suite, laws.matrix_suite):
        try:
            suite(0, -1)
        except ValidationError as err:
            assert str(err) == "cases must be nonnegative, got -1", suite.__name__
        else:
            raise AssertionError(f"{suite.__name__} passed -1 cases")
        assert suite(0, 0).passed and suite(0, 0).cases == 0


def test_label_sets_are_shared():
    rng = random.Random(3)
    drawn = [laws.random_finset(rng, "q", 2) for _ in range(20)]
    assert {len(s) for s in drawn} == {1, 2}
    assert all(s is laws._label_set("q", len(s)) for s in drawn)


if __name__ == "__main__":
    tests = [(name, test) for name, test in sorted(globals().items()) if name.startswith("test_")]
    for name, test in tests:
        test()
        print(f"ok {name}")
    print(f"{len(tests)} passed under Python {sys.version.split()[0]}")
