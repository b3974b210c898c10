"""Moore machines, lenses, charts, squares, and orbit enumeration."""

import random

import pytest

from opendyn import (
    BoundaryError,
    DetInterface,
    DetLens,
    DetSquare,
    DetSystem,
    FinMap,
    FinSet,
    ValidationError,
    check_matrix_theorem,
    check_square,
    compose_lens_system,
    compose_lenses,
    identity_chart,
    identity_lens,
    lens_to_span,
    paste_horizontal,
    paste_vertical,
    periodic_orbit_span,
    representable_span,
    span_to_matrix,
    steady_span,
    tensor_systems,
    walking_cycle,
)
from opendyn.deterministic import chart_hom_set
from opendyn.laws import (
    mutate_square,
    random_interface,
    random_lens,
    random_square,
    random_system,
)

from dense_oracle import dense_steady_span
from helpers import check_system_morphism, feedback_lens, flipflop, oscillator, run_word


class TestComposeLensSystem:
    def test_identity_lens_changes_nothing(self):
        ff = flipflop()
        assert compose_lens_system(identity_lens(ff.interface), ff) == ff

    def test_feedback_turns_the_latch_into_an_oscillator(self):
        osc = oscillator()
        assert osc.update == {"s0": {"tick": "s1"}, "s1": {"tick": "s0"}}
        assert osc.readout("s0") == "star" and osc.readout("s1") == "star"
        assert osc.interface == DetInterface(FinSet(["tick"]), FinSet(["star"]))

    def test_one_state_system_stays_one_state(self):
        states = FinSet(["only"])
        iface = DetInterface(FinSet(["i"]), FinSet(["o"]))
        sys = DetSystem(
            states, iface, FinMap(states, iface.outputs, {"only": "o"}), {"only": {"i": "only"}}
        )
        target = DetInterface(FinSet(["j1", "j2"]), FinSet(["p"]))
        lens = DetLens(
            iface, target, FinMap(iface.outputs, target.outputs, {"o": "p"}),
            {"o": {"j1": "i", "j2": "i"}},
        )
        assert len(compose_lens_system(lens, sys).states) == 1

    def test_boundary_mismatch_is_an_error(self):
        with pytest.raises(BoundaryError, match="does not match"):
            compose_lens_system(feedback_lens(), oscillator())


class TestComposeLenses:
    def test_unit_laws(self):
        lens = feedback_lens()
        assert compose_lenses(identity_lens(lens.source), lens) == lens
        assert compose_lenses(lens, identity_lens(lens.target)) == lens

    def test_associativity_on_random_lenses(self):
        rng = random.Random(11)
        for _ in range(50):
            ifaces = [random_interface(rng, 4, tag=str(n)) for n in range(4)]
            l1 = random_lens(rng, ifaces[0], ifaces[1])
            l2 = random_lens(rng, ifaces[1], ifaces[2])
            l3 = random_lens(rng, ifaces[2], ifaces[3])
            assert compose_lenses(compose_lenses(l1, l2), l3) == compose_lenses(
                l1, compose_lenses(l2, l3)
            )

    def test_action_functoriality(self):
        rng = random.Random(12)
        for _ in range(50):
            ifaces = [random_interface(rng, 4, tag=str(n)) for n in range(3)]
            sys = random_system(rng, ifaces[0])
            l1 = random_lens(rng, ifaces[0], ifaces[1])
            l2 = random_lens(rng, ifaces[1], ifaces[2])
            assert compose_lens_system(compose_lenses(l1, l2), sys) == compose_lens_system(
                l2, compose_lens_system(l1, sys)
            )

    def test_boundary_mismatch_is_an_error(self):
        lens = feedback_lens()
        with pytest.raises(BoundaryError, match="differs"):
            compose_lenses(lens, lens)


class TestTensorSystems:
    def test_state_count_multiplies(self):
        ff = flipflop()
        both = tensor_systems(ff, oscillator())
        assert len(both.states) == len(ff.states) * 2
        assert "s0|s0" in both.states

    def test_tensor_with_trivial_system_is_isomorphic(self):
        triv_states = FinSet(["*"])
        triv = DetSystem(
            triv_states,
            DetInterface(FinSet(["*"]), triv_states),
            FinMap.identity(triv_states),
            {"*": {"*": "*"}},
        )
        ff = flipflop()
        both = tensor_systems(ff, triv)
        relabel = FinMap(ff.states, both.states, {s: f"{s}|*" for s in ff.states})
        # same shape: readout and update agree through the relabeling
        assert all(both.readout(relabel(s)) == f"{ff.readout(s)}|*" for s in ff.states)
        assert all(
            both.update[relabel(s)][f"{i}|*"] == relabel(ff.update[s][i])
            for s in ff.states
            for i in ff.interface.inputs
        )

    def test_steady_fibers_multiply(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_system(rng, random_interface(rng, 3, tag="a"), max_states=3)
            b = random_system(rng, random_interface(rng, 3, tag="b"), max_states=3)
            fa, fb = steady_span(a).fiber_sizes(), steady_span(b).fiber_sizes()
            fab = steady_span(tensor_systems(a, b)).fiber_sizes()
            for (oa, ia) in [k.split("|") for k in fa]:
                for (ob, ib) in [k.split("|") for k in fb]:
                    key = f"{oa}|{ob}|{ia}|{ib}"
                    assert fab[key] == fa[f"{oa}|{ia}"] * fb[f"{ob}|{ib}"]


class TestSquares:
    def test_identity_square_commutes(self):
        iface = random_interface(random.Random(14), 4)
        sq = DetSquare(
            identity_chart(iface), identity_chart(iface),
            identity_lens(iface), identity_lens(iface),
        )
        assert check_square(sq)

    def test_generated_squares_commute(self):
        rng = random.Random(15)
        for _ in range(50):
            assert check_square(random_square(rng))

    def test_mutations_are_caught_with_a_witness(self):
        rng = random.Random(16)
        for _ in range(50):
            sq = random_square(rng)
            broken, cell = mutate_square(rng, sq)
            result = check_square(broken)
            assert not result
            assert result.witness is not None
            assert result.reason

    def test_horizontal_pasting_preserves_commuting(self):
        from opendyn.laws import random_square_from

        rng = random.Random(17)
        for _ in range(25):
            sq1 = random_square(rng)
            sq2 = random_square_from(rng, sq1.right)
            pasted = paste_horizontal(sq1, sq2)
            assert check_square(pasted)

    def test_vertical_pasting_preserves_commuting(self):
        from opendyn.laws import random_square_from

        rng = random.Random(18)
        for _ in range(25):
            sq1 = random_square(rng)
            lower_left = random_lens(rng, sq1.bottom.source, random_interface(rng, 4, tag="v"))
            sq2 = random_square_from(rng, lower_left, top=sq1.bottom)
            pasted = paste_vertical(sq1, sq2)
            assert check_square(pasted)

    def test_pasting_requires_a_shared_edge(self):
        i1 = DetInterface(FinSet(["i"]), FinSet(["o"]))
        i2 = DetInterface(FinSet(["j"]), FinSet(["p"]))
        sq1 = DetSquare(
            identity_chart(i1), identity_chart(i1), identity_lens(i1), identity_lens(i1)
        )
        sq2 = DetSquare(
            identity_chart(i2), identity_chart(i2), identity_lens(i2), identity_lens(i2)
        )
        with pytest.raises(BoundaryError):
            paste_horizontal(sq1, sq2)
        with pytest.raises(BoundaryError):
            paste_vertical(sq1, sq2)


class TestSystemMorphism:
    def test_identity_is_a_morphism(self):
        ff = flipflop()
        assert check_system_morphism(FinMap.identity(ff.states), ff, ff)

    def test_relabeling_is_a_morphism(self):
        ff = flipflop()
        renamed_states = FinSet(["zero", "one"])
        rename = {"s0": "zero", "s1": "one"}
        ff2 = DetSystem(
            renamed_states,
            ff.interface,
            FinMap(renamed_states, ff.interface.outputs, {"zero": "lo", "one": "hi"}),
            {
                rename[s]: {i: rename[ff.update[s][i]] for i in ff.interface.inputs}
                for s in ff.states
            },
        )
        phi = FinMap(ff.states, renamed_states, rename)
        assert check_system_morphism(phi, ff, ff2)

    def test_collapse_with_wrong_readout_is_not_a_morphism(self):
        ff = flipflop()
        one = FinSet(["only"])
        collapsed = DetSystem(
            one,
            ff.interface,
            FinMap(one, ff.interface.outputs, {"only": "lo"}),
            {"only": {i: "only" for i in ff.interface.inputs}},
        )
        phi = FinMap(ff.states, one, {"s0": "only", "s1": "only"})
        assert not check_system_morphism(phi, ff, collapsed)

    def test_interface_mismatch_is_an_error(self):
        ff, osc = flipflop(), oscillator()
        phi = FinMap.identity(ff.states)
        with pytest.raises(BoundaryError):
            check_system_morphism(phi, ff, osc)


class TestWalkingCycle:
    def test_one_state_cycle(self):
        w = walking_cycle(1)
        assert w.states == FinSet(["c0"])
        assert w.update == {"c0": {"*": "c0"}}
        assert w.readout == FinMap.identity(w.states)

    def test_three_cycle(self):
        w = walking_cycle(3)
        assert w.update == {
            "c0": {"*": "c1"},
            "c1": {"*": "c2"},
            "c2": {"*": "c0"},
        }

    def test_length_must_be_positive(self):
        with pytest.raises(ValidationError):
            walking_cycle(0)


class TestRepresentableSpan:
    def test_latch_steady_fibers(self):
        fam = representable_span(walking_cycle(1), flipflop())
        nonzero = {k: v for k, v in fam.fiber_sizes().items() if v}
        assert nonzero == {
            "lo|reset": 1,
            "lo|hold": 1,
            "hi|set": 1,
            "hi|hold": 1,
        }
        assert fam.fibers()["lo|reset"] == ["s0|reset"]
        assert fam.fibers()["lo|set"] == []

    def test_oscillator_two_cycles_under_the_constant_chart(self):
        fam = representable_span(walking_cycle(2), oscillator())
        assert fam.fibers()["star|tick|star|tick"] == ["s0|tick|s1|tick", "s1|tick|s0|tick"]
        assert sum(fam.fiber_sizes().values()) == 2

    def test_empty_state_set_gives_empty_fibers(self):
        iface = DetInterface(FinSet(["i"]), FinSet(["o"]))
        empty = DetSystem(FinSet([]), iface, FinMap(FinSet([]), iface.outputs, {}), {})
        fam = representable_span(walking_cycle(1), empty)
        assert len(fam.total) == 0
        assert len(fam.base) == 1

    def test_representing_system_must_expose_its_state(self):
        with pytest.raises(ValidationError, match="expose its entire state"):
            representable_span(flipflop(), flipflop())

    def test_chart_hom_set_size(self):
        rep = walking_cycle(2).interface
        iface = flipflop().interface
        # one output and one input slot per cycle position
        assert len(chart_hom_set(rep, iface)) == (2 * 3) ** 2


class TestSteadySpan:
    def test_latch_matches_the_enumerated_fibers(self):
        sizes = steady_span(flipflop()).fiber_sizes()
        assert {k: v for k, v in sizes.items() if v} == {
            "lo|reset": 1,
            "lo|hold": 1,
            "hi|set": 1,
            "hi|hold": 1,
        }
        # the base still lists every (output, input) pair, held steady or not
        assert sizes["lo|set"] == 0 and sizes["hi|reset"] == 0

    def test_oscillator_has_no_steady_states(self):
        assert len(steady_span(oscillator()).total) == 0

    def test_all_states_steady_when_update_is_identity(self):
        states = FinSet(["u", "v"])
        iface = DetInterface(FinSet(["i1", "i2"]), FinSet(["o"]))
        sys = DetSystem(
            states,
            iface,
            FinMap(states, iface.outputs, {"u": "o", "v": "o"}),
            {s: {i: s for i in iface.inputs} for s in states},
        )
        assert len(steady_span(sys).total) == len(states) * len(iface.inputs)

    def test_equals_the_one_cycle_representable_span_exactly(self):
        rng = random.Random(20)
        for _ in range(50):
            sys = random_system(rng, random_interface(rng, 4))
            assert representable_span(walking_cycle(1), sys) == dense_steady_span(sys)


class TestPeriodicOrbitSpan:
    def test_period_one_is_the_steady_span(self):
        ff = flipflop()
        assert periodic_orbit_span(ff, 1) == dense_steady_span(ff)

    def test_oscillator_period_two_fiber(self):
        fam = periodic_orbit_span(oscillator(), 2)
        assert fam.fiber_sizes() == {"star|tick|star|tick": 2}

    def test_latch_period_two_swap_orbit(self):
        fam = periodic_orbit_span(flipflop(), 2)
        # the swap orbit is driven by reset from s1 and set from s0
        assert fam.fibers()["hi|reset|lo|set"] == ["s1|reset|s0|set"]
        assert fam.fibers()["lo|set|hi|reset"] == ["s0|set|s1|reset"]

    def test_period_must_be_positive(self):
        with pytest.raises(ValidationError):
            periodic_orbit_span(flipflop(), 0)


class TestLensToSpan:
    def test_identity_lens_gives_an_identity_matrix(self):
        iface = flipflop().interface
        span = lens_to_span(identity_lens(iface), walking_cycle(1).interface)
        n = len(iface.outputs) * len(iface.inputs)
        assert span_to_matrix(span) == [
            [1 if r == c else 0 for c in range(n)] for r in range(n)
        ]

    def test_feedback_lens_legs(self):
        span = lens_to_span(feedback_lens(), walking_cycle(1).interface)
        assert span.apex == FinSet(["lo|tick", "hi|tick"])
        assert span.left("lo|tick") == "lo|set"
        assert span.left("hi|tick") == "hi|reset"
        assert span.right("lo|tick") == span.right("hi|tick") == "star|tick"

    def test_one_entry_per_apex_element(self):
        rng = random.Random(21)
        for k in (1, 2):
            lens = random_lens(rng, random_interface(rng, 3, tag="s"), random_interface(rng, 3, tag="t"))
            span = lens_to_span(lens, walking_cycle(k).interface)
            assert sum(map(sum, span_to_matrix(span))) == len(span.apex)

    def test_representing_interface_needs_a_single_input(self):
        with pytest.raises(ValidationError, match="single input"):
            lens_to_span(feedback_lens(), flipflop().interface)


class TestMatrixTheorem:
    def test_latch_with_feedback_has_empty_sides_at_period_one(self):
        match = check_matrix_theorem(feedback_lens(), flipflop(), 1)
        assert match
        assert match.counts is None or match.counts == (0, 0)
        # directly: the oscillator has no steady states, and no pulled-back
        # steady candidate of the latch survives
        assert len(steady_span(oscillator()).total) == 0

    def test_identity_lens_is_trivially_isomorphic(self):
        ff = flipflop()
        for k in (1, 2, 3):
            assert check_matrix_theorem(identity_lens(ff.interface), ff, k)

    def test_random_cases(self):
        rng = random.Random(22)
        for _ in range(25):
            iface = random_interface(rng, 4)
            sys = random_system(rng, iface)
            lens = random_lens(rng, iface, random_interface(rng, 4, tag="t"))
            for k in (1, 2, 3):
                assert check_matrix_theorem(lens, sys, k)

    def test_boundary_mismatch_is_an_error(self):
        with pytest.raises(BoundaryError):
            check_matrix_theorem(feedback_lens(), oscillator(), 1)


class TestRunWord:
    def test_empty_word_returns_the_start(self):
        ff = flipflop()
        assert run_word(ff, "s0", []) == [("s0", "lo")]

    def test_latch_word(self):
        states = [s for s, _ in run_word(flipflop(), "s0", ["set", "hold", "reset"])]
        assert states == ["s0", "s1", "s1", "s0"]

    def test_composed_run_equals_translated_run(self):
        rng = random.Random(23)
        for _ in range(25):
            iface = random_interface(rng, 4)
            sys = random_system(rng, iface)
            lens = random_lens(rng, iface, random_interface(rng, 4, tag="t"))
            composed = compose_lens_system(lens, sys)
            s0 = rng.choice(sys.states.elements)
            word = [rng.choice(lens.target.inputs.elements) for _ in range(6)]
            outer = run_word(composed, s0, word)
            # translate each letter through the lens at the state reached so far
            state, translated = s0, []
            for w in word:
                translated.append(lens.bwd[sys.readout(state)][w])
                state = sys.update[state][translated[-1]]
            inner = run_word(sys, s0, translated)
            assert [s for s, _ in outer] == [s for s, _ in inner]

    def test_unknown_labels_are_errors(self):
        ff = flipflop()
        with pytest.raises(ValidationError, match="unknown start state"):
            run_word(ff, "nope", [])
        with pytest.raises(ValidationError, match="unknown input"):
            run_word(ff, "s0", ["bad"])


class TestDegenerateSystems:
    def test_empty_systems_are_legal_end_to_end(self):
        iface = DetInterface(FinSet(["i"]), FinSet(["o"]))
        empty = DetSystem(FinSet([]), iface, FinMap(FinSet([]), iface.outputs, {}), {})
        target = DetInterface(FinSet(["j"]), FinSet(["p"]))
        lens = DetLens(
            iface, target, FinMap(iface.outputs, target.outputs, {"o": "p"}), {"o": {"j": "i"}}
        )
        composed = compose_lens_system(lens, empty)
        assert len(composed.states) == 0
        for k in (1, 2):
            assert check_matrix_theorem(lens, empty, k)
