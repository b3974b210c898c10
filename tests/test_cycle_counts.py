"""The counting walk over walking cycles against the per-period walks.

`deterministic._cycle_counts(sys, top)` counts the orbits of every period 1
to `top` off one walk over start states and input words. Each of its
counters must equal, key for key and in the same order, the fiber counts
that period's own `representable_span` counts (`_chart_counts`): on
deterministic machines, on their `embed_det` copies, and on Markov machines
whose spread cells cut rows. Each case runs at the default block bound and
at small ones, so that blocks split mid-walk.
"""

import random

import pytest

from opendyn import DetInterface, DetSystem, FinMap, FinSet, embed_det, representable_span, walking_cycle
import opendyn.deterministic as det
from opendyn.laws import random_interface, random_system

from helpers import random_markov_machine

TOP = 6
BOUNDS = (det._BLOCK_CELLS, 211)


def per_period_counts(machine) -> list:
    """Each period's fiber counts, counted by that period's own walk."""
    return [representable_span(walking_cycle(k), machine)._counts for k in range(1, TOP + 1)]


def seeded_machines(seed: int, cases: int):
    """`cases` deterministic machines, each with its `embed_det` copy, and
    `cases` Markov machines, all on interfaces of at most 3 inputs."""
    rng = random.Random(seed)
    for _ in range(cases):
        iface = random_interface(rng, 3)
        machine = random_system(rng, iface, 3)
        yield "det", machine
        yield "embedded", embed_det(machine)
        yield "markov", random_markov_machine(rng, random_interface(rng, 3), 3)


def edge_machines() -> list:
    """A machine with no states, one with no inputs, one under a single input."""
    none, states = FinSet([]), FinSet(["a", "b"])
    one_input = DetInterface(FinSet(["i"]), FinSet(["o"]))
    no_input = DetInterface(none, FinSet(["o"]))
    constant = dict.fromkeys(states, "o")
    return [
        DetSystem(none, one_input, FinMap(none, one_input.outputs, {}), {}),
        DetSystem(states, no_input, FinMap(states, no_input.outputs, constant), {"a": {}, "b": {}}),
        DetSystem(states, one_input, FinMap(states, one_input.outputs, constant),
                  {"a": {"i": "b"}, "b": {"i": "a"}}),
    ]


def assert_counts_like_each_period(machine, bound, where) -> int:
    """The counting walk's counters against the per-period walks; the
    orbits found."""
    want = per_period_counts(machine)
    got = det._cycle_counts(machine, TOP)
    assert len(got) == TOP, where
    for k, (counts, expected) in enumerate(zip(got, want), 1):
        assert list(counts.items()) == list(expected.items()), (where, bound, k)
    return sum(sum(counts.values()) for counts in got)


class TestAgainstThePerPeriodWalks:
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_seeded_machines_of_each_effect(self, monkeypatch, bound):
        monkeypatch.setattr(det, "_BLOCK_CELLS", bound)
        found, cut, split = {}, 0, 0
        for case, (kind, machine) in enumerate(seeded_machines(41, 300)):
            found[kind] = found.get(kind, 0) + assert_counts_like_each_period(machine, bound, case)
            cells = machine.update.values()
            cut += kind == "markov" and any(machine.effect.point(c) is None for r in cells for c in r.values())
            widest = len(machine.states) * len(machine.interface.inputs) ** TOP * (2 * TOP + 3)
            split += widest > bound  # the walk's last step, before any row is cut
        assert min(found.values()) > 1000, found
        assert found["det"] == found["embedded"]
        assert cut > 150, cut  # Markov machines whose spread cells cut rows
        assert bound == det._BLOCK_CELLS or split > 600, split

    @pytest.mark.parametrize("bound", (1, 5, det._BLOCK_CELLS))
    def test_machines_with_nothing_to_walk(self, monkeypatch, bound):
        monkeypatch.setattr(det, "_BLOCK_CELLS", bound)
        for n, machine in enumerate(edge_machines()):
            assert_counts_like_each_period(machine, bound, n)
        toggle = edge_machines()[2]
        assert [sum(counts.values()) for counts in det._cycle_counts(toggle, TOP)] == [0, 2, 0, 2, 0, 2]
