"""The matrix theorem decided on fiber counts, against the pushed-rows path.

A walk family counts its charts without forming an element, a pushed family
counts by the span's matrix applied to its source's count vector, and
`families_isomorphic` compares counts; rows are formed only when read. The
old path, which formed and counted every pushed row, is kept in
`pushed_rows_oracle` and the dense definitions in `dense_oracle`.
"""

import random
from collections import Counter

import pytest

from opendyn import (
    DetInterface,
    DetSystem,
    Dist,
    FinMap,
    FinSet,
    OdeSystem,
    Span,
    ValidationError,
    apply_span_to_family,
    check_matrix_theorem,
    compose_lens_system,
    families_isomorphic,
    lens_to_span,
    periodic_orbit_span,
    random_lens,
    representable_span,
    walking_cycle,
)
import opendyn.deterministic as det
from opendyn.laws import random_interface

from dense_oracle import (
    dense_apply_span_to_family,
    dense_families_isomorphic,
    dense_lens_to_span,
    dense_periodic_orbit_span,
)
from helpers import (
    each_machine, feedback_lens, flipflop, mutated, random_family, random_span, two_input_rep
)
from pushed_rows_oracle import pushed_rows, row_counts, rows_check_matrix_theorem


class TestCountsAgainstThePushedRows:
    def test_seeded_cases_of_both_effects(self):
        """Pushed counts equal the `Counter` over the old pushed rows, a walk's
        chart-only count equals the count of its rows, the pushed rows come
        out as the old path forms them, and the verdicts agree."""
        rng, pushed_some = random.Random(31), 0
        for case in range(330):
            k = 1 + case % 3
            iface = random_interface(rng, 4)
            machine = each_machine(rng, iface, case)
            lens = random_lens(rng, iface, random_interface(rng, 4, tag="t"))
            span = lens_to_span(lens, walking_cycle(k).interface)
            counts = apply_span_to_family(span, periodic_orbit_span(machine, k))._counts
            old_rows = pushed_rows(span, periodic_orbit_span(machine, k), lens)
            assert counts == row_counts(old_rows), case
            pushed_some += bool(counts)
            walked = periodic_orbit_span(machine, k)._counts
            assert walked == row_counts(periodic_orbit_span(machine, k)._rows), case
            assert apply_span_to_family(span, periodic_orbit_span(machine, k))._rows == old_rows
            match = check_matrix_theorem(lens, machine, k)
            assert match and rows_check_matrix_theorem(lens, machine, k) == (None, None)
        assert pushed_some > 200

    def test_a_generic_span_pushes_through_its_apex(self):
        """A span given by its legs, on a family given by labels: the counts
        go through `Span._over(points)`."""
        rng = random.Random(32)
        for case in range(120):
            source, target = (FinSet(f"{tag}{n}" for n in range(rng.randint(1, 4))) for tag in "pq")
            span, fam = random_span(rng, source, target), random_family(rng, source)
            pushed = apply_span_to_family(span, fam)
            assert pushed._counts == row_counts(pushed_rows(span, fam)), case
            assert pushed._rows == pushed_rows(span, fam), case

    def test_a_dense_span_on_a_walk_family_counts_on_its_own_keys(self):
        """The dense span's source is a `FinSet` where the walk family's base
        is a `ProductSet`: the counts are re-keyed as the rows are."""
        rng = random.Random(33)
        for case in range(40):
            k = 1 + case % 2
            iface = random_interface(rng, 2)
            machine = each_machine(rng, iface, case)
            lens = random_lens(rng, iface, random_interface(rng, 2, tag="t"))
            dense = dense_lens_to_span(lens, walking_cycle(k).interface)
            pushed = apply_span_to_family(dense, periodic_orbit_span(machine, k))
            assert pushed._counts == row_counts(pushed_rows(dense, periodic_orbit_span(machine, k)))


class TestMutatedLenses:
    def test_mismatch_and_counts_equal_the_dense_and_the_rows_verdicts(self):
        """The rewired orbits against the orbits pushed by a mutated lens's
        span: the first differing chart and both counts are the dense
        comparison's and the pushed-rows path's."""
        rng, mismatches = random.Random(34), 0
        for case in range(150):
            k = 1 + case % 3
            iface = random_interface(rng, 2 if k == 3 else 3)
            machine = each_machine(rng, iface, case)
            lens = random_lens(rng, iface, random_interface(rng, 2 if k == 3 else 3, tag="t"))
            other = mutated(rng, lens)
            rep = walking_cycle(k)
            rewired = compose_lens_system(lens, machine)
            match = families_isomorphic(
                representable_span(rep, rewired),
                apply_span_to_family(lens_to_span(other, rep.interface), representable_span(rep, machine)),
            )
            dense = dense_families_isomorphic(
                dense_periodic_orbit_span(rewired, k),
                dense_apply_span_to_family(
                    dense_lens_to_span(other, rep.interface), dense_periodic_orbit_span(machine, k)
                ),
            )
            assert (match.mismatch, match.counts) == (dense.mismatch, dense.counts), case
            assert (match.mismatch, match.counts) == rows_check_matrix_theorem(
                lens, machine, k, pushed_by=other
            ), case
            mismatches += not match
        assert mismatches > 50


def counting(monkeypatch, *names, owner=det, calls=None) -> Counter:
    """Count the calls of these functions of `owner`, `opendyn.deterministic`
    by default, in `calls` where it is given."""
    calls = Counter() if calls is None else calls
    for name in names:
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestRowsAreFormedOnFirstRead:
    def test_an_unread_witness_forms_no_apex_and_no_orbit_row(self, monkeypatch):
        calls = counting(monkeypatch, "_over", owner=Span, calls=counting(monkeypatch, "_orbits"))
        rng = random.Random(35)
        for case in range(30):
            iface = random_interface(rng, 3)
            machine = each_machine(rng, iface, case)
            lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
            match = check_matrix_theorem(lens, machine, 1 + case % 3)
            assert match and calls == Counter(), case
        match = check_matrix_theorem(feedback_lens(), flipflop(), 2)
        assert match and calls == Counter()
        match.witness
        assert calls == Counter({"_over": 1, "_orbits": 2})

    def test_formed_rows_are_counted_without_walking_again(self, monkeypatch):
        fam = periodic_orbit_span(flipflop(), 2)
        rows = fam._rows
        calls = counting(monkeypatch, "_maps_into")
        assert fam._counts == row_counts(rows) and calls == Counter()
        fresh = periodic_orbit_span(flipflop(), 2)
        assert fresh._counts == row_counts(rows) and calls == Counter({"_maps_into": 1})

    def test_counts_then_rows_walk_twice(self, monkeypatch):
        calls = counting(monkeypatch, "_maps_into", "_orbits")
        fam = periodic_orbit_span(flipflop(), 3)
        assert calls == Counter()
        counts = fam._counts
        assert calls == Counter({"_maps_into": 1})
        assert row_counts(fam._rows) == counts
        assert calls == Counter({"_maps_into": 2, "_orbits": 1})


class TestRefusalsComeFromTheCall:
    @pytest.fixture
    def no_walk(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(det, "_maps_into", fail)

    def test_representable_span_past_max_walk_raises_at_call_time(self, monkeypatch, no_walk):
        # from 2 states with 2 inputs into the latch: |S|^1*|I|^4 = 2*3^4 = 162 tuples
        monkeypatch.setattr(det, "MAX_WALK", 161)
        with pytest.raises(ValidationError) as err:
            representable_span(two_input_rep(), flipflop())
        assert str(err.value) == (
            "the walk from a 2-state machine tries |S|^1*|I|^4 = 2^1*3^4 tuples; "
            "more than MAX_WALK = 161"
        )

    def test_representable_span_past_max_slots_raises_at_call_time(self, monkeypatch, no_walk):
        monkeypatch.setattr(det, "MAX_SLOTS", 2 * 162 - 1)
        with pytest.raises(ValidationError, match=r"\|S\|\^1\*\|I\|\^4\*2 = 2\^1\*3\^4\*2 slots"):
            representable_span(two_input_rep(), flipflop())

    def test_within_the_bounds_nothing_walks_until_read(self, monkeypatch):
        monkeypatch.setattr(det, "MAX_WALK", 162)
        calls = counting(monkeypatch, "_maps_into")
        fam = representable_span(two_input_rep(), flipflop())
        assert calls == Counter()
        assert sum(fam._counts.values()) == len(fam._rows)


class TestWalkingCycle:
    def test_equals_the_public_constructors_object(self):
        for k in range(1, 13):
            states = FinSet(f"c{j}" for j in range(k))
            update = {f"c{j}": {"*": f"c{(j + 1) % k}"} for j in range(k)}
            public = DetSystem(states, DetInterface(FinSet(["*"]), states), FinMap.identity(states), update)
            cycle = walking_cycle(k)
            assert type(cycle) is DetSystem and cycle == public
            assert list(cycle.readout.table.items()) == list(public.readout.table.items())
            assert [list(row.items()) for row in cycle.update.values()] == [
                list(row.items()) for row in public.update.values()
            ]
            assert list(cycle.update) == list(public.update)

    @pytest.mark.parametrize("k, text", [
        (0, "cycle length must be at least 1, got 0"),
        (-3, "cycle length must be at least 1, got -3"),
        (det.MAX_PERIOD + 1, f"cycle length {det.MAX_PERIOD + 1} is more than MAX_PERIOD = {det.MAX_PERIOD}"),
    ])
    def test_refusals_keep_their_texts(self, k, text):
        with pytest.raises(ValidationError) as err:
            walking_cycle(k)
        assert str(err.value) == text


HUGE = 10**5000
TOO_LONG = "(an integer of more than 4300 digits)"
HOLDING = "(a value holding an integer of more than 4300 digits)"
ONE = FinSet(["a"])


class TestHugeIntegersAreNamed:
    """An integer past the interpreter's 4,300-digit limit, given to the
    Python API, is refused by name without printing its digits."""

    def test_a_distribution_whose_weights_do_not_sum_to_one(self):
        with pytest.raises(ValidationError) as err:
            Dist(ONE, {"a": HUGE})
        assert str(err.value) == f"weights must sum to 1 exactly, got {HOLDING}"

    def test_an_ode_system_with_an_integer_for_a_state(self):
        with pytest.raises(ValidationError) as err:
            OdeSystem([HUGE], [], [], {}, {})
        assert str(err.value) == f"state variables: bad identifier {TOO_LONG}"

    @pytest.mark.parametrize("build, text", [
        (lambda: Dist(ONE, {"a": -HUGE}), f"negative weight {HOLDING} on 'a'"),
        (lambda: Dist(ONE, {HUGE: 1}), f"distribution weight on unknown label {TOO_LONG}"),
        (lambda: OdeSystem(["x"], [], [], {}, {"x": "x", HUGE: "x"}),
         f"field has an entry for unknown identifier {TOO_LONG}"),
        (lambda: OdeSystem(["x"], [], [], {}, {"x": HUGE}), f"field['x']: {TOO_LONG} is not an expression"),
        (lambda: FinSet([HUGE]), f"finite-set elements must be non-empty strings, got {TOO_LONG}"),
        (lambda: FinMap(ONE, ONE, {HUGE: "a"}), f"table key {TOO_LONG} is not in the domain {{a}}"),
        (lambda: FinMap(ONE, ONE, {"a": HUGE}), f"table value {TOO_LONG} for 'a' is not in the codomain {{a}}"),
        (lambda: DetSystem(ONE, DetInterface(ONE, ONE), FinMap.identity(ONE), {"a": {"a": HUGE}}),
         f"update['a']['a'] = {TOO_LONG} is not in {{a}}"),
    ])
    def test_other_messages_that_show_a_value(self, build, text):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == text
