"""The matrix theorem at many periods of one lens and machine.

`deterministic._matrix_theorem(lens, sys, top)` rewires the machine and
forms the lens's one-step span once, counts the orbits of every period up to
`top` with one walk per machine (`_cycle_counts`), and takes each period's
walking cycle and its half of the walk plan from a bounded memo
(`_period_cycle`). Its verdicts are decided on those counts alone: only a
witness, when read, plans its period's row walks (`_walk_plan`). These tests
hold it to the per-period body it replaced (`period_theorem_oracle`), show
that no verdict plans a row walk, that no caller can reach or change the
memo's cycles, and that each period is bounded in turn, before anything of
it walks.
"""

import random
from collections import Counter

import pytest

from opendyn import (
    DetInterface,
    DetLens,
    DetSystem,
    FinMap,
    FinSet,
    Span,
    ValidationError,
    check_matrix_theorem,
    identity_lens,
    random_lens,
    representable_span,
    walking_cycle,
)
import opendyn.deterministic as det
from opendyn.laws import matrix_suite, random_interface

from helpers import each_machine, feedback_lens, flipflop, mutated, oscillator, periodic_orbits
from period_theorem_oracle import period_check_matrix_theorem

PERIODS = range(1, 5)


def assert_same_match(got, want, where):
    """The verdict, the first differing chart and both counts, and the
    witness, read last."""
    assert bool(got) == bool(want), where
    assert (got.mismatch, got.counts) == (want.mismatch, want.counts), where
    assert got.witness == want.witness, where


class TestAgainstThePerPeriodOracle:
    def test_seeded_pairs_of_both_effects_with_mutated_cells(self, monkeypatch):
        """Two lenses on each machine, each checked at k = 1..4; in a third of
        the pairs the machine is rewired by a mutated copy of the lens, and
        in a third the span is the mutated copy's, so mismatches occur."""
        rng, verdicts = random.Random(40), Counter()
        compose, step = det.compose_lens_system, det._lens_step
        for case in range(300):
            iface = random_interface(rng, 3)
            machine = each_machine(rng, iface, case)
            target = random_interface(rng, 3, tag="t")
            for lens in [random_lens(rng, iface, target) for _ in range(2)]:
                other, side = mutated(rng, lens), case % 3
                with monkeypatch.context() as patch:
                    if side == 1:
                        patch.setattr(det, "compose_lens_system", lambda _, sys: compose(other, sys))
                    elif side == 2:
                        patch.setattr(det, "_lens_step", lambda _: step(other))
                    at = det._matrix_theorem(lens, machine, max(PERIODS))
                    got = [at(k) for k in PERIODS]
                for k, match in zip(PERIODS, got):
                    want = period_check_matrix_theorem(
                        lens, machine, k,
                        rewired_by=other if side == 1 else None,
                        pushed_by=other if side == 2 else None,
                    )
                    assert_same_match(match, want, (case, k))
                    verdicts[bool(match)] += 1
        assert verdicts[True] > 1000 and verdicts[False] > 300, verdicts

    def test_check_matrix_theorem_and_the_suite_go_through_the_entry(self, monkeypatch):
        calls = Counter()
        real = det._matrix_theorem

        def counted(lens, sys, top):
            calls["entry"] += 1
            at = real(lens, sys, top)
            return lambda k: calls.update(["period"]) or at(k)

        monkeypatch.setattr(det, "_matrix_theorem", counted)
        assert check_matrix_theorem(feedback_lens(), flipflop(), 2)
        assert calls == {"entry": 1, "period": 1}
        monkeypatch.setattr("opendyn.laws._matrix_theorem", counted)
        calls.clear()
        assert matrix_suite(5, 4)
        assert calls == {"entry": 4, "period": 12}

    def test_each_pair_is_rewired_once(self, monkeypatch):
        composed = []  # the lenses themselves, so no two share an id
        real = det.compose_lens_system

        def counted(lens, sys):
            composed.append(lens)
            return real(lens, sys)

        monkeypatch.setattr(det, "compose_lens_system", counted)
        assert matrix_suite(6, 5)
        assert len(composed) == len(set(map(id, composed))) == 5


class TestVerdictsPlanNoWalk:
    def test_only_a_witness_plans_its_walks(self, monkeypatch):
        """Verdicts at k = 1..3 on seeded machines of both effects, a third
        of them mismatches from a mutated span, are decided with no walk
        planned (`_walk_plan`) or walked (`_maps_into`, `_orbits`); reading a
        match's witness then plans both of its period's walks, and the
        witness is the per-period oracle's."""
        def fail(*args):
            raise AssertionError("a verdict planned or walked a row walk")

        rng, verdicts, planned = random.Random(42), Counter(), []
        step, plan = det._lens_step, det._walk_plan
        monkeypatch.setattr(det, "_walk_plan", lambda *args: planned.append(args) or plan(*args))
        for case in range(150):
            iface = random_interface(rng, 3)
            machine = each_machine(rng, iface, case)
            lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
            other = mutated(rng, lens) if case % 3 == 2 else lens
            with monkeypatch.context() as patch:
                patch.setattr(det, "_lens_step", lambda _: step(other))
                for name in ("_walk_plan", "_maps_into", "_orbits"):
                    patch.setattr(det, name, fail)
                at = det._matrix_theorem(lens, machine, 3)
                got = [at(k) for k in range(1, 4)]
            for k, match in enumerate(got, 1):
                want = period_check_matrix_theorem(lens, machine, k, pushed_by=other)
                planned.clear()
                assert_same_match(match, want, (case, k))  # reads the witnesses
                assert len(planned) == (2 if match else 0), (case, k)
                verdicts[bool(match)] += 1
        assert verdicts[True] > 250 and verdicts[False] > 60, verdicts


class TestTheMemoIsPrivate:
    def test_walking_cycle_builds_a_new_machine_on_every_call(self):
        periodic_orbits(flipflop(), 3)  # the memo holds a 3-cycle now
        memo = det._period_cycle(3)[0]
        a, b = walking_cycle(3), walking_cycle(3)
        assert a == b == memo
        for x, y in ((a, b), (a, memo), (b, memo)):
            assert x is not y and x.update is not y.update
            assert x.readout.table is not y.readout.table
            assert all(x.update[s] is not y.update[s] for s in x.states)

    def test_a_changed_cycle_changes_no_later_result(self):
        latch, lens = flipflop(), feedback_lens()

        def results():
            return [(periodic_orbits(latch, k), det.periodic_orbit_span(latch, k).labels(),
                     check_matrix_theorem(lens, latch, k)) for k in range(1, 4)]

        def spoil():
            for k in range(1, 4):
                cycle = walking_cycle(k)
                cycle.update["c0"]["*"] = "c0"
                cycle.readout.table["c0"] = cycle.states.elements[-1]
                cycle.update[cycle.states.elements[-1]].clear()
                cycle.states = FinSet(["x"])

        det._period_cycle.cache_clear()
        spoil()  # before the memo holds any cycle
        first = results()
        expected = [
            (representable_span(walking_cycle(k), latch).labels(),) * 2
            + (period_check_matrix_theorem(lens, latch, k),)
            for k in range(1, 4)
        ]
        spoil()  # and once it holds them
        for got in (first, results()):
            for (rows, labels, match), (want_rows, want_labels, want_match) in zip(got, expected):
                assert rows == labels == want_rows == want_labels
                assert_same_match(match, want_match, rows[:1])

    def test_the_memo_is_bounded_and_a_period_past_it_is_right(self):
        size = det._period_cycle.cache_info().maxsize
        assert isinstance(size, int) and 1 <= size <= 64
        osc = oscillator()
        lenses = [identity_lens(osc.interface), DetLens(
            osc.interface, DetInterface(FinSet(["go"]), FinSet(["p", "q"])),
            FinMap(osc.interface.outputs, FinSet(["p", "q"]), {"star": "q"}), {"star": {"go": "tick"}},
        )]
        det._period_cycle.cache_clear()
        for k in [*range(1, size + 4), 1, 2]:  # past the bound, then periods it evicted
            rows = representable_span(walking_cycle(k), osc).labels()
            assert periodic_orbits(osc, k) == rows and len(rows) == (0 if k % 2 else 2), k
            for lens in lenses:
                want = period_check_matrix_theorem(lens, osc, k)
                assert_same_match(check_matrix_theorem(lens, osc, k), want, k)
            assert det._period_cycle.cache_info().currsize <= size


def fan_in(new_inputs: int) -> tuple[DetLens, DetSystem]:
    """Two fixed states under one input, and a lens that feeds the input from
    any of `new_inputs` new ones: the rewired walk is 2*new_inputs^k long."""
    states, o = FinSet(["a", "b"]), FinSet(["o"])
    iface, names = DetInterface(FinSet(["x"]), o), FinSet(f"n{j}" for j in range(new_inputs))
    machine = DetSystem(states, iface, FinMap(states, o, dict.fromkeys(states, "o")),
                        {"a": {"x": "a"}, "b": {"x": "b"}})
    lens = DetLens(iface, DetInterface(names, o), FinMap.identity(o), {"o": dict.fromkeys(names, "x")})
    return lens, machine


class TestPeriodsAreBoundedInTurn:
    """Where k = 1 fits and k = 2 does not, the entry gives k = 1's verdict
    and then refuses k = 2 with the per-period text, before k = 2 walks: the
    counting walks stop at k = 1, and no row of k = 2 is formed."""

    def forbid_walks(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a walk, a family or an apex was formed")

        for name in ("_maps_into", "_cycle_counts", "representable_span", "lens_to_span"):
            monkeypatch.setattr(det, name, fail)
        monkeypatch.setattr(Span, "_over", fail)

    def refuses_k2_after_k1(self, monkeypatch, text):
        lens, machine = fan_in(4)
        walks, rows = Counter(), Counter()
        counts, maps_into = det._cycle_counts, det._maps_into
        monkeypatch.setattr(det, "_cycle_counts", lambda m, top: walks.update([top]) or counts(m, top))
        monkeypatch.setattr(det, "_maps_into", lambda plan: rows.update(["walk"]) or maps_into(plan))
        at = det._matrix_theorem(lens, machine, 2)
        first = at(1)
        assert first and walks == {1: 2} and not rows  # both machines counted to k = 1
        assert_same_match(first, period_check_matrix_theorem(lens, machine, 1), 1)
        self.forbid_walks(monkeypatch)
        with pytest.raises(ValidationError) as err:
            at(2)
        assert str(err.value) == text
        with pytest.raises(ValidationError) as err:
            check_matrix_theorem(lens, machine, 2)
        assert str(err.value) == text

    def test_max_walk(self, monkeypatch):
        monkeypatch.setattr(det, "MAX_WALK", 2 * 4**2 - 1)
        self.refuses_k2_after_k1(monkeypatch, (
            "the period-2 orbit walk of the rewired system tries |S|*|I|^k = 2*4^2 = 32 "
            "tuples; more than MAX_WALK = 31"
        ))

    def test_max_slots(self, monkeypatch):
        monkeypatch.setattr(det, "MAX_SLOTS", 2 * 4**2 * 2 - 1)
        self.refuses_k2_after_k1(monkeypatch, (
            "the period-2 orbit walk of the rewired system fills |S|*|I|^k*k = 2*4^2*2 = 64 "
            "slots; more than MAX_SLOTS = 63"
        ))

    def test_max_period_holds_for_a_period_the_memo_holds(self, monkeypatch):
        lens, machine = fan_in(1)
        at = det._matrix_theorem(lens, machine, 4)
        assert at(4) and len(periodic_orbits(machine, 4)) == 2  # the memo holds k = 4
        monkeypatch.setattr(det, "MAX_PERIOD", 3)
        self.forbid_walks(monkeypatch)
        for refused in (lambda: at(4), lambda: periodic_orbits(machine, 4),
                        lambda: det.periodic_orbit_span(machine, 4)):
            with pytest.raises(ValidationError) as err:
                refused()
            assert str(err.value) == "cycle length 4 is more than MAX_PERIOD = 3"
