"""Markov machines with exact rational weights and seeded simulation."""

import random
from fractions import Fraction

import pytest

from opendyn import (
    DetInterface,
    DetSystem,
    Dist,
    FinMap,
    FinSet,
    StochSystem,
    ValidationError,
    check_matrix_theorem,
    compose_lens_stoch,
    compose_lens_system,
    embed_det,
    representable_span,
    simulate_stoch,
    steady_span,
    step_dist,
    tensor_stoch,
    tensor_systems,
    walking_cycle,
)
from opendyn.laws import random_interface, random_lens, random_system
from opendyn.stochastic import DistEffect

from helpers import (
    chain,
    feedback_lens,
    flipflop,
    oscillator,
    periodic_orbits,
    random_dist,
    random_stoch_system,
    run_word,
)


class TestDist:
    def test_accepts_ints_strings_and_fractions(self):
        s = FinSet(["a", "b"])
        d = Dist(s, {"a": "1/3", "b": Fraction(2, 3)})
        assert d("a") == Fraction(1, 3)
        assert Dist(s, {"a": 1})("a") == 1

    def test_floats_are_rejected(self):
        with pytest.raises(ValidationError):
            Dist(FinSet(["a", "b"]), {"a": 0.5, "b": 0.5})

    def test_weights_must_sum_to_one(self):
        s = FinSet(["a", "b"])
        with pytest.raises(ValidationError, match="sum to 1"):
            Dist(s, {"a": "1/2", "b": "1/3"})

    def test_negative_weights_are_rejected(self):
        s = FinSet(["a", "b"])
        with pytest.raises(ValidationError, match="negative"):
            Dist(s, {"a": "3/2", "b": "-1/2"})

    def test_unknown_label_is_rejected(self):
        with pytest.raises(ValidationError, match="unknown label"):
            Dist(FinSet(["a"]), {"b": 1})

    def test_zero_weights_are_dropped(self):
        s = FinSet(["a", "b"])
        d = Dist(s, {"a": 1, "b": 0})
        assert d.weights == {"a": Fraction(1)}
        assert d == Dist.dirac(s, "a")
        assert DistEffect.point(d) == "a"

    def test_serialized_weights_are_fraction_strings(self):
        d = Dist(FinSet(["a", "b"]), {"a": "1/3", "b": "2/3"})
        assert {label: str(w) for label, w in d.weights.items()} == {"a": "1/3", "b": "2/3"}


class TestStochSystem:
    def test_missing_update_row_is_an_error(self):
        s = FinSet(["a", "b"])
        iface = DetInterface(FinSet(["i"]), FinSet(["o"]))
        readout = FinMap(s, iface.outputs, {"a": "o", "b": "o"})
        with pytest.raises(ValidationError, match="missing"):
            StochSystem(s, iface, readout, {"a": {"i": Dist.dirac(s, "a")}})

    def test_distribution_must_live_on_the_states(self):
        s = FinSet(["a", "b"])
        other = FinSet(["x"])
        iface = DetInterface(FinSet(["i"]), FinSet(["o"]))
        readout = FinMap(s, iface.outputs, {"a": "o", "b": "o"})
        bad = Dist.dirac(other, "x")
        with pytest.raises(ValidationError, match="distribution"):
            StochSystem(s, iface, readout, {"a": {"i": bad}, "b": {"i": bad}})

    def test_shares_the_finite_machine_code(self):
        assert compose_lens_stoch is compose_lens_system
        assert tensor_stoch is tensor_systems

    def test_never_equals_a_deterministic_machine_with_the_same_fields(self):
        ff = flipflop()
        assert StochSystem.__init__ is DetSystem.__init__
        assert embed_det(ff) != ff and ff != embed_det(ff)
        assert repr(embed_det(ff)).startswith("StochSystem(")


class TestComposeLensStoch:
    def test_identity_lens_changes_nothing(self):
        from opendyn import identity_lens

        sys = chain()
        assert compose_lens_stoch(identity_lens(sys.interface), sys) == sys

    def test_embedded_latch_with_feedback_is_the_embedded_oscillator(self):
        composed = compose_lens_stoch(feedback_lens(), embed_det(flipflop()))
        assert composed == embed_det(oscillator())

    def test_boundary_mismatch_is_an_error(self):
        from opendyn import BoundaryError

        with pytest.raises(BoundaryError):
            compose_lens_stoch(feedback_lens(), chain())


class TestStepDist:
    def test_dirac_steps_to_the_update_row(self):
        sys = chain()
        out = step_dist(sys, Dist.dirac(sys.states, "a"), "go")
        assert out == sys.update["a"]["go"]

    def test_uniform_swap_is_uniform_again(self):
        s = FinSet(["u", "v"])
        iface = DetInterface(FinSet(["i"]), FinSet(["o"]))
        readout = FinMap(s, iface.outputs, {"u": "o", "v": "o"})
        swap = StochSystem(
            s, iface, readout,
            {"u": {"i": Dist.dirac(s, "v")}, "v": {"i": Dist.dirac(s, "u")}},
        )
        uniform = Dist(s, {"u": "1/2", "v": "1/2"})
        assert step_dist(swap, uniform, "i") == uniform

    def test_mixed_step_is_exact(self):
        sys = chain()
        uniform = Dist(sys.states, {"a": "1/2", "b": "1/2"})
        out = step_dist(sys, uniform, "go")
        assert out("a") == Fraction(5, 12)
        assert out("b") == Fraction(7, 12)

    def test_normalization_is_forced(self):
        rng = random.Random(24)
        for _ in range(25):
            sys = random_stoch_system(rng)
            d = random_dist(rng, sys.states)
            i = rng.choice(sys.interface.inputs.elements)
            assert sum(step_dist(sys, d, i).weights.values()) == 1

    def test_unknown_input_is_an_error(self):
        sys = chain()
        with pytest.raises(ValidationError, match="unknown input"):
            step_dist(sys, Dist.dirac(sys.states, "a"), "jump")


class TestSimulate:
    def test_same_seed_same_path(self):
        sys = chain()
        word = ["go"] * 50
        assert simulate_stoch(sys, "a", word, seed=7) == simulate_stoch(sys, "a", word, seed=7)

    def test_dirac_system_follows_the_deterministic_run(self):
        ff = flipflop()
        word = ["set", "hold", "reset", "set"]
        for seed in range(5):
            path = simulate_stoch(embed_det(ff), "s0", word, seed)
            assert path == [s for s, _ in run_word(ff, "s0", word)]

    def test_empirical_frequencies_match_the_table(self):
        sys = chain()
        steps = 100_000
        path = simulate_stoch(sys, "a", ["go"] * steps, seed=0)
        visits = {"a": 0, "b": 0}
        stayed = {"a": 0, "b": 0}
        for here, there in zip(path, path[1:]):
            visits[here] += 1
            if there == here:
                stayed[here] += 1
        # exact conditionals from the table: P(a->a) = 1/2, P(b->b) = 2/3
        assert abs(stayed["a"] / visits["a"] - 0.5) <= 0.01
        assert abs(stayed["b"] / visits["b"] - 2 / 3) <= 0.01

    def test_unknown_labels_are_errors(self):
        sys = chain()
        with pytest.raises(ValidationError):
            simulate_stoch(sys, "zzz", ["go"], 0)
        with pytest.raises(ValidationError):
            simulate_stoch(sys, "a", ["zzz"], 0)


class TestEmbedDet:
    def test_update_rows_become_dirac(self):
        ff = flipflop()
        emb = embed_det(ff)
        assert all(
            DistEffect.point(emb.update[s][i]) == ff.update[s][i]
            for s in ff.states
            for i in ff.interface.inputs
        )

    def test_commutes_with_lens_composition(self):
        rng = random.Random(25)
        for _ in range(25):
            iface = random_interface(rng, 4)
            sys = random_system(rng, iface)
            lens = random_lens(rng, iface, random_interface(rng, 4, tag="t"))
            assert compose_lens_stoch(lens, embed_det(sys)) == embed_det(
                compose_lens_system(lens, sys)
            )

    def test_commutes_with_tensor(self):
        rng = random.Random(26)
        for _ in range(10):
            a = random_system(rng, random_interface(rng, 3, tag="a"), max_states=3)
            b = random_system(rng, random_interface(rng, 3, tag="b"), max_states=3)
            assert tensor_stoch(embed_det(a), embed_det(b)) == embed_det(tensor_systems(a, b))


class TestTensorStoch:
    def test_mixed_effects_are_a_boundary_error(self):
        from opendyn import BoundaryError

        with pytest.raises(BoundaryError, match="DetSystem with a StochSystem"):
            tensor_stoch(flipflop(), chain())

    def test_weights_multiply(self):
        sys = chain()
        both = tensor_stoch(sys, sys)
        d = both.update["a|a"]["go|go"]
        assert d("a|a") == Fraction(1, 4)
        assert d("a|b") == Fraction(1, 4)
        assert sum(d.weights.values()) == 1


class TestDiracSteadySpan:
    def test_embedding_preserves_steady_states(self):
        ff = flipflop()
        assert steady_span(embed_det(ff)) == steady_span(ff)

    def test_split_transitions_are_never_steady(self):
        sys = chain()
        fam = steady_span(sys)
        # `go` splits mass, so only the two `stay` loops remain
        sizes = fam.fiber_sizes()
        assert {k: v for k, v in sizes.items() if v} == {"lo|stay": 1, "hi|stay": 1}

    def test_orbits_of_a_chain_are_those_of_its_point_transitions(self):
        # the orbit walk used to compare a Dist cell with a state label: it
        # found nothing at k = 1 and hashed a Dist at k = 2
        assert list(periodic_orbits(chain(), 1)) == [("lo|stay", "a|stay"), ("hi|stay", "b|stay")]
        assert list(periodic_orbits(chain(), 2)) == [
            ("lo|stay|lo|stay", "a|stay|a|stay"),
            ("hi|stay|hi|stay", "b|stay|b|stay"),
        ]

    def test_a_markov_representing_system_is_refused(self):
        with pytest.raises(
            ValidationError, match="^representing system must be deterministic, got StochSystem$"
        ):
            representable_span(embed_det(walking_cycle(1)), flipflop())

    def test_matrix_theorem_through_the_embedding(self):
        rng = random.Random(27)
        for _ in range(10):
            iface = random_interface(rng, 3)
            sys = random_system(rng, iface, max_states=3)
            lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
            emb_composed = compose_lens_stoch(lens, embed_det(sys))
            assert emb_composed == embed_det(compose_lens_system(lens, sys))
            assert check_matrix_theorem(lens, embed_det(sys), 2)
