"""The column walk against the depth-first oracle, and the bound on its blocks.

Every case is walked with the block bound at 1 cell, at a small odd number
and at its default, so that blocks split at every slot, at some slots and
not at all: rows and their order must equal the oracle's each time.
"""

import random
import sys

from opendyn import DetInterface, DetSystem, FinMap, FinSet, Machine, walking_cycle
import opendyn.deterministic as det
from opendyn.laws import random_interface, random_system

from dfs_walk_oracle import dfs_orbits
from helpers import random_markov_machine

BOUNDS = (1, 7, det._BLOCK_CELLS)


def exposing_rep(rng: random.Random, inputs: int) -> DetSystem:
    """A random machine of 1-3 states that exposes its state."""
    states = FinSet(f"r{n}" for n in range(rng.randint(1, 3)))
    iface = DetInterface(FinSet(f"x{n}" for n in range(inputs)), states)
    update = {s: {i: rng.choice(states.elements) for i in iface.inputs} for s in states}
    return DetSystem(states, iface, FinMap.identity(states), update)


def seeded_machine(rng: random.Random, case: int, max_inputs: int) -> Machine:
    """A deterministic machine in odd cases, a Markov one in even cases."""
    iface = random_interface(rng, max_inputs)
    return random_system(rng, iface, 4) if case % 2 else random_markov_machine(rng, iface, 4)


def tuples_at_most(rep: DetSystem, machine: Machine) -> int:
    """|S| per rep state times |I| per rep input slot: at least what the walk tries."""
    m = len(rep.states)
    return len(machine.states) ** m * len(machine.interface.inputs) ** (m * len(rep.interface.inputs))


def empty_cases() -> list[tuple[DetSystem, Machine]]:
    none = FinSet([])
    one_input = DetInterface(FinSet(["i"]), FinSet(["o"]))
    no_states = DetSystem(none, one_input, FinMap(none, one_input.outputs, {}), {})
    states = FinSet(["a", "b"])
    no_input = DetInterface(none, FinSet(["o"]))
    no_inputs = DetSystem(states, no_input, FinMap(states, no_input.outputs, dict.fromkeys(states, "o")),
                          {"a": {}, "b": {}})
    no_slots = DetSystem(none, DetInterface(FinSet(["x"]), none), FinMap(none, none, {}), {})
    rng = random.Random(3)
    latch_like = random_system(rng, random_interface(rng, 3), 3)
    reps = [walking_cycle(1), walking_cycle(3), no_slots, exposing_rep(rng, 0)]
    return [(rep, machine) for rep in reps for machine in (no_states, no_inputs, latch_like)]


def assert_walks_like_the_oracle(monkeypatch, rep: DetSystem, machine: Machine) -> None:
    expected = list(dfs_orbits(rep, machine))
    for bound in BOUNDS:
        monkeypatch.setattr(det, "_BLOCK_CELLS", bound)
        assert det.representable_span(rep, machine)._rows == expected, bound


class TestAgainstTheDepthFirstOracle:
    def test_walking_cycles_into_seeded_machines_of_both_effects(self, monkeypatch):
        rng = random.Random(17)
        for case in range(120):
            k = 1 + case % 6
            machine = seeded_machine(rng, case, 3 if k <= 4 else 2)
            assert_walks_like_the_oracle(monkeypatch, walking_cycle(k), machine)

    def test_representing_machines_with_one_to_three_inputs(self, monkeypatch):
        rng = random.Random(18)
        walked = 0
        while walked < 90:
            rep = exposing_rep(rng, 1 + walked % 3)
            machine = seeded_machine(rng, walked, 3)
            if tuples_at_most(rep, machine) > 3_000:
                continue
            assert_walks_like_the_oracle(monkeypatch, rep, machine)
            walked += 1

    def test_empty_states_inputs_and_slots(self, monkeypatch):
        for rep, machine in empty_cases():
            assert_walks_like_the_oracle(monkeypatch, rep, machine)


def blocks_held(frame) -> list[list]:
    """The block the walker is filling and the blocks waiting on its stack."""
    local = frame.f_locals
    held = [cols for _, cols in local.get("blocks", ())]
    return held + ([local["cols"]] if "cols" in local else [])


class TestBlocksStayWithinTheCellBound:
    """With the bound small, no block the walker holds passes it in cells
    (live rows times filled slots), except a single prefix extended by one
    domain, which has at most as many rows as the widest domain."""

    def test_every_block_held_is_within_the_bound(self, monkeypatch):
        rng = random.Random(19)
        for bound in (1, 5, 40):
            monkeypatch.setattr(det, "_BLOCK_CELLS", bound)
            for case in range(24):
                machine = seeded_machine(rng, case, 3)
                widest = max(len(machine.states), len(machine.interface.inputs))
                largest, over = 0, []

                def line(frame, event, arg):
                    nonlocal largest
                    for cols in blocks_held(frame):
                        rows = len(cols[0]) if cols else 0
                        largest = max(largest, rows * len(cols))
                        if rows * len(cols) > bound and rows > widest:
                            over.append((rows, len(cols)))
                    return line

                def call(frame, event, arg):
                    return line if frame.f_code is det._maps_into.__code__ else None

                before = sys.gettrace()
                sys.settrace(call)
                try:
                    rows = det.periodic_orbit_span(machine, 1 + case % 4)._rows
                finally:
                    sys.settrace(before)
                assert rows == list(dfs_orbits(walking_cycle(1 + case % 4), machine))
                assert over == [], (bound, case)
                assert largest > 0
