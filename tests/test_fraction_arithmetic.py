"""Integer weight arithmetic against the `Fraction`-operator oracle.

`tests/fraction_oracle.py` keeps the stochastic doctrine's earlier arithmetic.
Every test here requires the same weights, in the same order and of the same
type, or the same error class and message, and the same sampled labels.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from opendyn import DetInterface, Dist, FinMap, FinSet, StochSystem, ValidationError
from opendyn import simulate_stoch, step_dist, tensor_stoch
from opendyn.finset import join_labels, product_finset
from opendyn.project import project_from_obj
from opendyn.stochastic import DistEffect, _parse_weight

DERANDOMIZED = dict(derandomize=True, deadline=None)


def outcome(build):
    """The weights `build()` returns, as (label, value, type) in order, or the
    class and text of the `ValidationError` it raises."""
    try:
        weights = build()
    except ValidationError as exc:
        return type(exc), str(exc)
    return [(label, w, type(w)) for label, w in weights.items()]


def support_of(n: int, tag: str = "s") -> FinSet:
    return FinSet(f"{tag}{k}" for k in range(n))


# -- weight maps, valid and not ---------------------------------------------

small_fractions = st.builds(Fraction, st.integers(-3, 9), st.integers(1, 12))

weight_values = st.one_of(
    st.integers(-2, 3),
    st.booleans(),
    small_fractions,
    small_fractions.map(lambda f: f"{f.numerator}/{f.denominator}"),
    small_fractions.map(str),
    st.sampled_from(
        ["0.25", "1e-2", " 1/3 ", "-1/2", "0", "0/7", "2/4", "1/0", "abc", "", "1/-2",
         "+1/2", " 1 ", "1.5e0", "3/6 ", "1_0/2_0"]
    ),
    st.floats(allow_nan=False, width=32),
    st.none(),
)


@st.composite
def any_weight_maps(draw):
    """A support and weights on some of its labels and some unknown ones, in
    any order, of every accepted and refused form; most do not sum to 1."""
    support = support_of(draw(st.integers(1, 6)))
    pool = [*support.elements, "zz", "s9", 3]
    keys = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return support, {key: draw(weight_values) for key in keys}


def spelled(w: Fraction):
    """One weight in one of the forms `Dist` accepts for it."""
    forms = [w, str(w), f"{w.numerator}/{w.denominator}", f" {w} ", f"{2 * w.numerator}/{2 * w.denominator}"]
    if w.denominator == 1:
        forms.append(int(w))
    return st.sampled_from(forms)


@st.composite
def summing_weight_maps(draw):
    """A support and weights that sum to 1, zeros included, spelled in mixed
    forms and given in any order."""
    support = support_of(draw(st.integers(1, 6)))
    labels = draw(st.permutations(support.elements))[: draw(st.integers(1, len(support)))]
    raw = draw(st.lists(st.integers(0, 9), min_size=len(labels), max_size=len(labels)))
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    return support, {label: draw(spelled(Fraction(r, total))) for label, r in zip(labels, raw)}


class TestDist:
    @settings(max_examples=250, **DERANDOMIZED)
    @given(st.one_of(any_weight_maps(), summing_weight_maps()))
    def test_weights_or_error_match_the_oracle(self, case):
        support, weights = case
        got = outcome(lambda: Dist(support, weights).weights)
        assert got == outcome(lambda: oracle.dist_weights(support, weights))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({}, "weights must sum to 1 exactly, got 0"),
            ({"s0": 0}, "weights must sum to 1 exactly, got 0"),
            ({"s1": "1/3", "s0": "1/3"}, "weights must sum to 1 exactly, got 2/3"),
            ({"s2": "-1", "s1": "abc", "s0": "-1/2"}, "negative weight -1/2 on 's0'"),
            ({"s1": "1/0", "zz": 1}, "distribution weight on unknown label 'zz'"),
            ({"s1": "1/0"}, "weight of 's1': bad rational '1/0' (Fraction(1, 0))"),
            ({"s0": 0.5, "s1": 0.5}, "weight of 's0': weights must be exact rationals"),
        ],
    )
    def test_errors_keep_their_text(self, weights, message):
        support = support_of(3)
        with pytest.raises(ValidationError) as got:
            Dist(support, weights)
        with pytest.raises(ValidationError) as want:
            oracle.dist_weights(support, weights)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(message)

    def test_a_fraction_subclass_is_kept_as_given(self):
        class Weight(Fraction):
            pass

        half = Weight(1, 2)
        d = Dist(support_of(2), {"s1": half, "s0": Fraction(1, 2)})
        assert list(d.weights) == ["s0", "s1"] and d.weights["s1"] is half


# -- exact distributions with large denominators ----------------------------


@st.composite
def dists(draw, support: FinSet, max_den: int = 2**60):
    """A distribution on some labels of `support`: the gaps between sorted
    cut points, each over its own denominator of up to `max_den`."""
    labels = draw(st.permutations(support.elements))[: draw(st.integers(1, len(support)))]
    cuts = sorted(
        Fraction(draw(st.integers(0, den)), den)
        for den in draw(
            st.lists(st.integers(1, max_den), min_size=len(labels) - 1, max_size=len(labels) - 1)
        )
    )
    gaps = [b - a for a, b in zip([Fraction(0), *cuts], [*cuts, Fraction(1)])]
    return Dist(support, dict(zip(labels, gaps)))


@st.composite
def stoch_systems(draw, max_den: int = 2**60):
    states = support_of(draw(st.integers(1, 4)))
    inputs = support_of(draw(st.integers(1, 2)), "i")
    iface = DetInterface(inputs, FinSet(["o"]))
    readout = FinMap(states, iface.outputs, dict.fromkeys(states, "o"))
    update = {s: {i: draw(dists(states, max_den)) for i in inputs} for s in states}
    return StochSystem(states, iface, readout, update)


class TestProduct:
    @settings(max_examples=100, **DERANDOMIZED)
    @given(st.data())
    def test_product_weights_match_the_oracle(self, data):
        a = support_of(data.draw(st.integers(1, 4)), "a")
        b = support_of(data.draw(st.integers(1, 4)), "b")
        da, db = data.draw(dists(a)), data.draw(dists(b))
        states = product_finset(a, b)
        got = outcome(lambda: DistEffect.product(a, b, states)(da, db).weights)
        assert got == outcome(lambda: oracle.product_weights(da.weights, db.weights, states))


class Weight(Fraction):
    """A `Fraction` subclass a caller may hold weights in."""


@st.composite
def held_weights(draw, w: Fraction):
    """`w` as a fresh `Fraction`, as a `Weight`, or as the one object the
    loader's weight memo holds for its text."""
    form = draw(st.sampled_from(["fresh", "subclass", "memo"]))
    if form == "fresh":
        return Fraction(w.numerator, w.denominator)
    if form == "subclass":
        return Weight(w)
    return _parse_weight(str(w))[0]


@st.composite
def markov_machines(draw, tag: str):
    """A Markov machine on `tag`-prefixed states, its weights over small
    denominators so that equal weights recur, each held as `held_weights`."""
    states = support_of(draw(st.integers(1, 4)), tag)
    inputs = support_of(draw(st.integers(1, 3)), tag + "i")
    iface = DetInterface(inputs, FinSet([tag + "o"]))
    readout = FinMap(states, iface.outputs, dict.fromkeys(states, tag + "o"))
    update = {}
    for s in states:
        update[s] = {}
        for i in inputs:
            d = draw(dists(states, max_den=4))
            update[s][i] = Dist(states, {t: draw(held_weights(w)) for t, w in d.weights.items()})
    return StochSystem(states, iface, readout, update)


def loaded_machine(rng: random.Random, tag: str, n: int) -> StochSystem:
    """A Markov machine read from a project document, so equal weight strings
    share one `Fraction` from the loader's memo."""
    states = [f"{tag}{k}" for k in range(n)]
    update = {}
    for s in states:
        update[s] = {}
        for i in ("x", "y"):
            raw = {t: rng.randint(1, 3) for t in rng.sample(states, rng.randint(1, n))}
            total = sum(raw.values())
            update[s][i] = {t: str(Fraction(r, total)) for t, r in sorted(raw.items())}
    doc = {"version": 1, "systems": {"m": {
        "kind": "stochastic", "states": states, "inputs": ["x", "y"], "outputs": ["o"],
        "readout": dict.fromkeys(states, "o"), "update": update,
    }}}
    return project_from_obj(doc).system("m")


def assert_cells_match_the_oracle(a: StochSystem, b: StochSystem) -> None:
    """Every update cell of a ⊗ b has the oracle's weights, in its order, on
    its labels, of its types."""
    ab = tensor_stoch(a, b)
    states = product_finset(a.states, b.states)
    assert ab.states == states
    assert list(ab.update) == list(states)
    for sa in a.states:
        for sb in b.states:
            row = ab.update[join_labels(sa, sb)]
            assert list(row) == list(product_finset(a.interface.inputs, b.interface.inputs))
            for ia in a.interface.inputs:
                for ib in b.interface.inputs:
                    da, db = a.update[sa][ia], b.update[sb][ib]
                    cell = row[join_labels(ia, ib)]
                    assert cell.support is ab.states
                    assert outcome(lambda: cell.weights) == outcome(
                        lambda: oracle.product_weights(da.weights, db.weights, states)
                    )


class TestTensorProduct:
    @settings(max_examples=100, **DERANDOMIZED)
    @given(markov_machines("a"), markov_machines("b"))
    def test_every_cell_matches_the_oracle(self, a, b):
        assert_cells_match_the_oracle(a, b)

    @settings(max_examples=30, **DERANDOMIZED)
    @given(markov_machines("a"))
    def test_a_machine_with_itself_matches_the_oracle(self, a):
        assert_cells_match_the_oracle(a, a)

    @pytest.mark.parametrize("seed", range(10))
    def test_loaded_machines_match_the_oracle(self, seed):
        rng = random.Random(seed)
        a, b = loaded_machine(rng, "p", 4), loaded_machine(rng, "q", 5)
        weights = [w for m in (a, b) for row in m.update.values() for d in row.values()
                   for w in d.weights.values()]
        assert len({id(w) for w in weights}) < len(weights)  # the memo shares objects
        assert_cells_match_the_oracle(a, b)

    @pytest.mark.parametrize("kept", ["a", "b"])
    def test_one_product_serves_short_lived_distributions(self, kept):
        # the distributions on one side are dropped once multiplied, so a
        # memo that did not hold its weights would see their ids taken again
        # while it still holds keys from the other side
        rng = random.Random(7)
        a, b = support_of(3, "a"), support_of(2, "b")
        states = product_finset(a, b)
        product = DistEffect.product(a, b, states)

        def fresh(support: FinSet) -> Dist:
            raw = [rng.randint(0, 3) for _ in support]
            raw[rng.randrange(len(raw))] += 1
            return Dist(support, {s: Fraction(r, sum(raw)) for s, r in zip(support, raw)})

        pool = [fresh(a if kept == "a" else b) for _ in range(3)]
        for _ in range(300):
            da = rng.choice(pool) if kept == "a" else fresh(a)
            db = rng.choice(pool) if kept == "b" else fresh(b)
            want = outcome(lambda: oracle.product_weights(da.weights, db.weights, states))
            assert outcome(lambda: product(da, db).weights) == want


class TestStepDist:
    @settings(max_examples=100, **DERANDOMIZED)
    @given(st.data())
    def test_step_chains_match_the_oracle(self, data):
        sys = data.draw(stoch_systems())
        word = data.draw(st.lists(st.sampled_from(sys.interface.inputs.elements), min_size=1, max_size=4))
        d = data.draw(dists(sys.states))
        want = d.weights
        for inp in word:
            d = step_dist(sys, d, inp)
            want = oracle.step_weights(sys, want, inp)
            assert outcome(lambda: d.weights) == outcome(lambda: want)


# -- sampling ----------------------------------------------------------------


class Stub:
    """An rng whose `random()` returns a fixed value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSample:
    @settings(max_examples=50, **DERANDOMIZED)
    @given(st.data())
    def test_draws_match_the_oracle(self, data):
        d = data.draw(dists(support_of(data.draw(st.integers(1, 6)))))
        seed = data.draw(st.integers(0, 2**32))
        assert DistEffect.sample(d, random.Random(seed)) == oracle.sample(
            d.weights, random.Random(seed)
        )

    def test_paths_over_200_seeds_match_the_oracle(self):
        # Weights over denominators up to 2^60, so cumulative sums and the
        # draw's 2^53 grid rarely share a denominator.
        rng = random.Random(60)
        states = support_of(4)
        iface = DetInterface(FinSet(["go", "stay"]), FinSet(["o"]))
        readout = FinMap(states, iface.outputs, dict.fromkeys(states, "o"))

        def big_dist() -> Dist:
            raw = [rng.randrange(1, 2**58) for _ in states]
            total = sum(raw)
            return Dist(states, {s: Fraction(r, total) for s, r in zip(states, raw)})

        sys = StochSystem(
            states, iface, readout, {s: {i: big_dist() for i in iface.inputs} for s in states}
        )
        assert max(w.denominator for w in sys.update["s0"]["go"].weights.values()) > 2**53
        word = [rng.choice(["go", "stay"]) for _ in range(30)]
        for seed in range(200):
            draws = random.Random(seed)
            want = ["s0"]
            for inp in word:
                want.append(oracle.sample(sys.update[want[-1]][inp].weights, draws))
            assert simulate_stoch(sys, "s0", word, seed) == want

    @pytest.mark.parametrize(
        "weights, u, label",
        [
            ({"s0": "1/2", "s1": "1/2"}, 0.5, "s1"),
            ({"s0": "1/4", "s1": "1/2", "s2": "1/4"}, 0.75, "s2"),
            ({"s0": "1/4", "s1": "3/4"}, 0.25, "s1"),
            ({"s0": "1/3", "s1": "2/3"}, 1 - 2**-53, "s1"),
            ({"s0": "1/2", "s1": "1/2"}, 1 - 2**-53, "s1"),
            ({"s0": "1/2", "s1": "1/2"}, 0.0, "s0"),
            ({"s0": "1/3", "s1": "2/3"}, 1.0, "s1"),
            ({"s1": "1"}, 0.0, "s1"),
        ],
    )
    def test_cumulative_boundaries_break_ties_upward(self, weights, u, label):
        d = Dist(support_of(3), weights)
        assert DistEffect.sample(d, Stub(u)) == oracle.sample(d.weights, Stub(u)) == label

    @settings(max_examples=50, **DERANDOMIZED)
    @given(st.data())
    def test_every_dyadic_boundary_matches_the_oracle(self, data):
        d = data.draw(dists(support_of(data.draw(st.integers(1, 5))), max_den=2**20))
        # Round the weights to a dyadic grid, so each cumulative sum is a float.
        grid = 2 ** data.draw(st.integers(1, 52))
        labels = list(d.weights)
        floors = [w.numerator * grid // w.denominator for w in d.weights.values()]
        floors[-1] = grid - sum(floors[:-1])
        dyadic = Dist(d.support, {s: Fraction(f, grid) for s, f in zip(labels, floors)})
        cum = Fraction(0)
        for w in [Fraction(0), *dyadic.weights.values()]:
            cum += w
            u = float(cum)
            assert Fraction(u) == cum
            assert DistEffect.sample(dyadic, Stub(u)) == oracle.sample(dyadic.weights, Stub(u))
