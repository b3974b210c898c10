"""The orbit walk, the lens span and the matrix-theorem check against the dense oracle."""

import csv
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn import (
    BoundaryError,
    DetInterface,
    DetLens,
    DetSystem,
    Family,
    FinMap,
    FinSet,
    ProductSet,
    ValidationError,
    apply_span_to_family,
    check_matrix_theorem,
    compose_lens_system,
    embed_det,
    families_isomorphic,
    lens_to_span,
    periodic_orbit_span,
    product_finset,
    random_lens,
    random_system,
    representable_span,
    save_project,
    span_to_matrix,
    steady_span,
    tensor_systems,
    walking_cycle,
)
import opendyn.deterministic as det
import opendyn.finset as finset
from opendyn.cli import main
from opendyn.laws import random_interface
from opendyn.project import ProjectFile, load_project

from dense_oracle import (
    dense_apply_span_to_family,
    dense_check_matrix_theorem,
    dense_families_isomorphic,
    dense_fibers,
    dense_lens_to_span,
    dense_periodic_orbit_span,
    dense_representable_span,
    dense_span_matrix,
    dense_steady_rows,
    dense_steady_span,
)
from helpers import (
    compose_spans,
    each_machine,
    feedback_lens,
    fixture_path,
    flipflop,
    matmul,
    oscillator,
    periodic_orbits,
    random_markov_machine,
    two_input_rep,
)


def assert_same_family(sparse: Family, dense: Family) -> None:
    assert sparse.base.elements == dense.base.elements
    assert sparse.total.elements == dense.total.elements
    assert list(sparse.proj.table.items()) == list(dense.proj.table.items())


def assert_same_match(sparse, dense) -> None:
    assert (sparse.mismatch, sparse.counts) == (dense.mismatch, dense.counts)
    if dense.witness is None:
        assert sparse.witness is None
        return
    assert sparse.witness.dom.elements == dense.witness.dom.elements
    assert sparse.witness.cod.elements == dense.witness.cod.elements
    assert list(sparse.witness.table.items()) == list(dense.witness.table.items())


def random_rep(rng: random.Random) -> DetSystem:
    """A random machine that exposes its state: up to two states and inputs."""
    states = FinSet(f"r{n}" for n in range(rng.randint(1, 2)))
    iface = DetInterface(FinSet(f"x{n}" for n in range(rng.randint(1, 2))), states)
    update = {s: {i: rng.choice(states.elements) for i in iface.inputs} for s in states}
    return DetSystem(states, iface, FinMap.identity(states), update)


class TestAgainstTheDenseOracle:
    def test_orbit_families_and_matches_are_identical(self):
        rng = random.Random(4)
        for case in range(300):
            k = 1 + case % 3
            iface = random_interface(rng, 4)
            sys = random_system(rng, iface, 4)
            lens = random_lens(rng, iface, random_interface(rng, 4, tag="t"))
            assert_same_family(periodic_orbit_span(sys, k), dense_representable_span(
                walking_cycle(k), sys))
            assert_same_match(
                check_matrix_theorem(lens, sys, k), dense_check_matrix_theorem(lens, sys, k)
            )

    def test_general_representing_machines(self):
        rng = random.Random(5)
        reps = [two_input_rep()] + [random_rep(rng) for _ in range(40)]
        for rep in reps:
            sys = random_system(rng, random_interface(rng, 3), 4)
            assert_same_family(representable_span(rep, sys), dense_representable_span(rep, sys))

    def test_the_two_input_rep_finds_orbits(self):
        fam = representable_span(two_input_rep(), flipflop())
        assert len(fam.total) > 0
        assert_same_family(fam, dense_representable_span(two_input_rep(), flipflop()))

    def test_empty_system(self):
        iface = DetInterface(FinSet(["i"]), FinSet(["o"]))
        empty = DetSystem(FinSet([]), iface, FinMap(FinSet([]), iface.outputs, {}), {})
        target = DetInterface(FinSet(["j"]), FinSet(["p"]))
        lens = DetLens(
            iface, target, FinMap(iface.outputs, target.outputs, {"o": "p"}), {"o": {"j": "i"}}
        )
        for k in (1, 2, 3):
            assert_same_family(
                periodic_orbit_span(empty, k), dense_representable_span(walking_cycle(k), empty)
            )
            assert_same_match(
                check_matrix_theorem(lens, empty, k), dense_check_matrix_theorem(lens, empty, k)
            )

    def test_steady_spans_of_a_hundred_machines_of_each_effect(self):
        rng = random.Random(12)
        steady = 0
        for case in range(200):
            iface = random_interface(rng, 4)
            sys = random_system(rng, iface, 4) if case % 2 else random_markov_machine(rng, iface)
            fam = steady_span(sys)
            steady += len(fam.total) > 0
            assert_same_family(fam, dense_steady_span(sys))
        assert 50 < steady < 200

    def test_known_witness_on_the_latch(self):
        for k in (1, 2, 3):
            assert_same_match(
                check_matrix_theorem(feedback_lens(), flipflop(), k),
                dense_check_matrix_theorem(feedback_lens(), flipflop(), k),
            )


class TestErrors:
    def test_zero_period_names_the_period(self):
        with pytest.raises(ValidationError, match=r"^orbit period must be at least 1, got 0$"):
            check_matrix_theorem(feedback_lens(), flipflop(), 0)
        with pytest.raises(ValidationError, match=r"^orbit period must be at least 1, got 0$"):
            list(periodic_orbits(flipflop(), 0))

    def test_boundary_is_checked_before_the_period(self):
        with pytest.raises(BoundaryError):
            check_matrix_theorem(feedback_lens(), oscillator(), 0)

    @pytest.mark.parametrize(
        "states, readout",
        [
            # elements (a|b, c) and (a, b|c) would print alike
            (["a|b", "a"], {"a|b": "o", "a": "o"}),
            # charts (a|b, c) and (a, b|c) would print alike
            (["p", "q"], {"p": "a|b", "q": "a"}),
        ],
    )
    def test_labels_that_join_alike_are_refused(self, states, readout):
        """The set whose labels have different numbers of parts, the states
        or the outputs, is refused when it is built, and so are the inputs,
        so no machine can have orbits or charts that print alike."""
        outputs = sorted(set(readout.values()))
        mixed = states if outputs == ["o"] else outputs
        parts = " have different numbers of '|'-separated parts"
        with pytest.raises(ValidationError) as err:
            FinSet(states)
            FinSet(outputs)
        assert str(err.value) == f"labels {mixed[0]!r} and {mixed[1]!r}{parts}"
        with pytest.raises(ValidationError) as err:
            FinSet(["c", "b|c"])
        assert str(err.value) == f"labels 'c' and 'b|c'{parts}"


class TestFiberComparison:
    """`families_isomorphic` on hand-built families, against the dense comparison."""

    outputs = FinSet(["p", "q"])
    inputs = FinSet(["u", "v"])

    def as_family(self, total, fibers):
        base = product_finset(self.outputs, self.inputs)
        over = {z: "|".join(chart) for chart, zs in fibers.items() for z in zs}
        total_set = FinSet(total)
        return Family(base, total_set, FinMap(total_set, base, over))

    def both(self, total1, fibers1, total2, fibers2):
        f1, f2 = self.as_family(total1, fibers1), self.as_family(total2, fibers2)
        return families_isomorphic(f1, f2), dense_families_isomorphic(f1, f2)

    def test_first_differing_chart_in_canonical_order(self):
        # dict order puts ("q", "u") first; canonical order puts ("p", "v") first
        fibers1 = {("q", "u"): ["a"], ("p", "v"): ["b", "c"]}
        fibers2 = {("q", "u"): ["x", "y"], ("p", "v"): ["z"]}
        sparse, dense = self.both(["a", "b", "c"], fibers1, ["x", "y", "z"], fibers2)
        assert (sparse.mismatch, sparse.counts, sparse.witness) == ("p|v", (2, 1), None)
        assert_same_match(sparse, dense)

    def test_chart_missing_from_one_side_counts_zero(self):
        fibers1 = {("q", "v"): ["a"]}
        fibers2 = {("p", "u"): ["x"], ("q", "v"): ["y"]}
        sparse, dense = self.both(["a"], fibers1, ["x", "y"], fibers2)
        assert (sparse.mismatch, sparse.counts) == ("p|u", (0, 1))
        assert_same_match(sparse, dense)

    def test_equal_counts_pair_fibers_in_order(self):
        fibers1 = {("q", "u"): ["a", "b"], ("p", "u"): ["c"]}
        fibers2 = {("p", "u"): ["x"], ("q", "u"): ["y", "z"]}
        sparse, dense = self.both(["a", "b", "c"], fibers1, ["x", "y", "z"], fibers2)
        assert sparse and sparse.witness.table == {"a": "y", "b": "z", "c": "x"}
        assert_same_match(sparse, dense)


    def test_families_isomorphic_equals_the_dense_comparison(self):
        """Random families over one base, most with some differing fiber."""
        rng = random.Random(8)
        mismatches = 0
        for _case in range(300):
            base = FinSet(f"b{n}" for n in range(rng.randint(1, 6)))
            f1, f2 = (random_family(rng, base, tag) for tag in "xy")
            match = families_isomorphic(f1, f2)
            mismatches += not match
            assert_same_match(match, dense_families_isomorphic(f1, f2))
        assert 50 < mismatches < 300


def random_family(rng: random.Random, base: FinSet, tag: str) -> Family:
    total = FinSet(f"{tag}{n}" for n in range(rng.randint(0, 2 * len(base))))
    proj = FinMap(total, base, {z: rng.choice(base.elements) for z in total})
    return Family(base, total, proj)


class TestLazyWitness:
    """A match forms its witness when `.witness` is first read, and only once."""

    @pytest.fixture
    def formed(self, monkeypatch) -> list:
        """The row pairs each witness was formed from, in order."""
        formed, pair = [], finset._pair_fibers
        monkeypatch.setattr(finset, "_pair_fibers", lambda *rows: formed.append(rows) or pair(*rows))
        return formed

    def test_formed_once_on_first_read_as_the_dense_witness(self, formed):
        rng = random.Random(21)
        for case in range(60):
            iface, target = random_interface(rng, 3), random_interface(rng, 3)
            sys = random_system(rng, iface, 4) if case % 2 else random_markov_machine(rng, iface)
            lens, k = random_lens(rng, iface, target), 1 + case % 3
            match = check_matrix_theorem(lens, sys, k)
            assert match and formed == []
            witness = match.witness
            assert len(formed) == 1
            assert match.witness is witness and len(formed) == 1
            assert_same_match(match, dense_check_matrix_theorem(lens, sys, k))
            formed.clear()

    def test_a_mismatch_forms_no_witness(self, formed):
        """The orbits of two machines on one interface, which mostly differ:
        a mismatch names the first differing chart and both counts, as the
        dense comparison does, and its witness is None."""
        rng = random.Random(22)
        mismatches = 0
        for case in range(60):
            iface = random_interface(rng, 3)
            f1, f2 = (periodic_orbit_span(each_machine(rng, iface, case), 1 + case % 2)
                      for _ in range(2))
            match = families_isomorphic(f1, f2)
            mismatches += not match
            assert_same_match(match, dense_families_isomorphic(f1, f2))
            assert (match.witness is None) == (not match)
        assert mismatches > 30
        assert len(formed) == 60 - mismatches


def preimages_out_of_order(lens: DetLens) -> bool:
    """Does some bwd row list its new inputs, grouped by the old input they
    fill (in canonical order), out of canonical order?"""
    for row in lens.bwd.values():
        grouped = [i2 for i in lens.source.inputs for i2, filled in row.items() if filled == i]
        if grouped != list(lens.target.inputs):
            return True
    return False


def assert_same_span(span, dense) -> None:
    assert span.source.elements == dense.source.elements
    assert span.target.elements == dense.target.elements
    assert span.apex.elements == dense.apex.elements
    assert list(span.left.table.items()) == list(dense.left.table.items())
    assert list(span.right.table.items()) == list(dense.right.table.items())


def crossed_lens() -> DetLens:
    """bwd fills old input a from new input y and b from x: the preimages of
    (a, b) come in the order (y, x), against the new inputs' order (x, y)."""
    source = DetInterface(FinSet(["a", "b"]), FinSet(["o", "p"]))
    target = DetInterface(FinSet(["x", "y", "z"]), FinSet(["q"]))
    bwd = {"o": {"x": "b", "y": "a", "z": "b"}, "p": {"x": "a", "y": "a", "z": "a"}}
    fwd = FinMap(source.outputs, target.outputs, {"o": "q", "p": "q"})
    return DetLens(source, target, fwd, bwd)


class TestLensSpan:
    def test_crossed_preimages_come_out_in_product_order(self):
        lens = crossed_lens()
        assert preimages_out_of_order(lens)
        for k in (1, 2, 3):
            rep = walking_cycle(k).interface
            assert_same_span(lens_to_span(lens, rep), dense_lens_to_span(lens, rep))
        span = lens_to_span(lens, walking_cycle(1).interface)
        assert span.apex.elements == ("o|x", "o|y", "o|z", "p|x", "p|y", "p|z")

    def test_equals_the_dense_span_on_seeded_lenses(self):
        """The span, its matrix and its rows of ascending columns, and its
        action on the orbits of a random machine."""
        rng, machines = random.Random(9), random.Random(11)
        crossed = 0
        for case in range(300):
            k = 1 + case % 3
            iface = random_interface(rng, 3)
            lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
            crossed += preimages_out_of_order(lens)
            rep = walking_cycle(k).interface
            span, dense = lens_to_span(lens, rep), dense_lens_to_span(lens, rep)
            assert_same_span(span, dense)
            matrix, ones = dense_span_matrix(dense), list(span._ones())
            assert span_to_matrix(span) == matrix, case
            assert [[int(c in row) for c in range(len(dense.target))] for row in ones] == matrix
            assert all(row == sorted(set(row)) for row in ones), case
            orbits = periodic_orbit_span(random_system(machines, iface, 3), k)
            assert_same_family(
                apply_span_to_family(span, orbits), dense_apply_span_to_family(span, orbits)
            )
        assert 50 < crossed < 300


def matrix_bytes(lens: DetLens, name: str, k: int) -> bytes:
    """What `opendyn matrix` writes, computed from the dense span."""
    span = dense_lens_to_span(lens, walking_cycle(k).interface)
    obj = {
        "version": 1,
        "lens": name,
        "k": k,
        "source": list(span.source),
        "target": list(span.target),
        "matrix": span_to_matrix(span),
    }
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


class TestMatrixBytes:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_latch_fixture_bytes(self, tmp_path, k):
        out = tmp_path / "matrix.json"
        code = main(["matrix", fixture_path("flipflop.json"), "--lens", "feedback",
                     "--k", str(k), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == matrix_bytes(feedback_lens(), "feedback", k)

    def test_random_lens_bytes(self, tmp_path):
        rng = random.Random(10)
        lenses = {
            f"l{n}": random_lens(rng, random_interface(rng, 2), random_interface(rng, 2, tag="t"))
            for n in range(6)
        }
        lenses["crossed"] = crossed_lens()
        project = tmp_path / "lenses.json"
        save_project(ProjectFile(lenses=lenses), str(project))
        out = tmp_path / "matrix.json"
        for name, lens in lenses.items():
            for k in (1, 2, 3):
                code = main(["matrix", str(project), "--lens", name, "--k", str(k),
                             "--out", str(out)])
                assert code == 0
                assert out.read_bytes() == matrix_bytes(lens, name, k), (name, k)


def write_rows(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("chart", "element"))
        writer.writerows(rows)


class TestSteadyRows:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_latch_fixture_bytes(self, tmp_path, k):
        out, expected = tmp_path / "steady.csv", tmp_path / "dense.csv"
        code = main(["steady", fixture_path("flipflop.json"), "--system", "flipflop",
                     "--k", str(k), "--out", str(out)])
        assert code == 0
        write_rows(expected, dense_steady_rows(flipflop(), k))
        assert out.read_bytes() == expected.read_bytes()

    def test_random_machine_bytes(self, tmp_path):
        rng = random.Random(6)
        systems = {f"m{n}": random_system(rng, random_interface(rng, 3), 4) for n in range(8)}
        periods = dict.fromkeys(systems, (1, 2, 3))
        for n in range(12):  # every other one a Markov machine
            systems[f"e{n}"] = each_machine(rng, random_interface(rng, 3), n)
            periods[f"e{n}"] = (1, 2, 3, 4)
        project = tmp_path / "machines.json"
        save_project(ProjectFile(systems=systems), str(project))
        for name, sys in systems.items():
            for k in periods[name]:
                out, expected = tmp_path / "steady.csv", tmp_path / "dense.csv"
                code = main(["steady", str(project), "--system", name, "--k", str(k),
                             "--out", str(out)])
                assert code == 0
                write_rows(expected, dense_steady_rows(sys, k))
                assert out.read_bytes() == expected.read_bytes(), (name, k)


class TestScale:
    def test_theorem_at_five_states_five_letters_period_five(self):
        """(|S|·|I|)^k is about 9.8e6 combinations here; the walk tries |S|·|I|^k."""
        rng = random.Random(7)
        five = lambda tag: FinSet(f"{tag}{n}" for n in range(5))
        iface = DetInterface(five("i"), five("o"))
        target = DetInterface(five("j"), five("p"))
        sys = DetSystem(
            five("s"),
            iface,
            FinMap(five("s"), iface.outputs, {s: rng.choice(iface.outputs.elements)
                                              for s in five("s")}),
            {s: {i: rng.choice(five("s").elements) for i in iface.inputs} for s in five("s")},
        )
        lens = random_lens(rng, iface, target)
        match = check_matrix_theorem(lens, sys, 5)
        assert match, match.mismatch
        orbits = sum(1 for _ in periodic_orbits(sys, 5))
        assert len(match.witness.dom) > 0 and orbits > 0


class TestSparseFamiliesAnswerAsTheDenseOnes:
    """Families that hold only their rows, over chart sets that are never
    listed, and the one-step lens span, against the dense objects: total
    order, fibers and `==`, fiber matches with their mismatch, the theorem,
    a dense span acting on a sparse family, and the matrix."""

    def test_families_fibers_and_equality(self):
        rng = random.Random(14)
        for case in range(120):
            k = 1 + case % 3
            sys = each_machine(rng, random_interface(rng, 3), case)
            sparse, dense = periodic_orbit_span(sys, k), dense_periodic_orbit_span(sys, k)
            assert sparse == dense and dense == sparse
            assert sparse.total.elements == dense.total.elements
            assert sparse.fibers() == dense.fibers()
        for sys in (flipflop(), embed_det(flipflop()), oscillator()):
            sparse = representable_span(two_input_rep(), sys)
            dense = dense_representable_span(two_input_rep(), sys)
            assert sparse == dense and sparse.fibers() == dense.fibers()

    def test_matches_and_the_theorem(self):
        rng = random.Random(15)
        mismatches = 0
        for case in range(120):
            k = 1 + case % 3
            iface = random_interface(rng, 3)
            sys, other = each_machine(rng, iface, case), each_machine(rng, iface, case)
            lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
            assert_same_match(
                check_matrix_theorem(lens, sys, k), dense_check_matrix_theorem(lens, sys, k)
            )
            match = families_isomorphic(periodic_orbit_span(sys, k), periodic_orbit_span(other, k))
            mismatches += not match
            assert_same_match(match, dense_families_isomorphic(
                dense_periodic_orbit_span(sys, k), dense_periodic_orbit_span(other, k)))
        assert 20 < mismatches < 120

    def test_the_matrix_composition_and_a_dense_span_acting_on_a_sparse_family(self):
        rng = random.Random(16)
        for case in range(60):
            k = 1 + case % 3
            iface, middle = random_interface(rng, 3), random_interface(rng, 2, tag="m")
            lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
            rep = walking_cycle(k).interface
            dense = dense_lens_to_span(lens, rep)
            assert span_to_matrix(lens_to_span(lens, rep)) == span_to_matrix(dense)
            first, second = random_lens(rng, iface, middle), random_lens(rng, middle, iface)
            assert_same_span(
                compose_spans(lens_to_span(first, rep), lens_to_span(second, rep)),
                compose_spans(dense_lens_to_span(first, rep), dense_lens_to_span(second, rep)),
            )
            orbits = periodic_orbit_span(each_machine(rng, iface, case), k)
            assert_same_family(
                apply_span_to_family(dense, orbits), dense_apply_span_to_family(dense, orbits)
            )


class TestFamilyLabels:
    """`Family.labels()` is the one place where rows become labels: on seeded
    orbit and pushed families, each reader of labels answers as the listed
    (dense) family does, and the comparison and the push take a listed
    family where the other side's base is a `ProductSet`, either way round."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_sparse_families_read_and_compare_as_the_dense_ones(self, seed, k):
        rng = random.Random(seed)
        iface = random_interface(rng, 3)
        sys, other = each_machine(rng, iface, seed), each_machine(rng, iface, seed + 1)
        lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
        rep = walking_cycle(k).interface
        span, dense_span = lens_to_span(lens, rep), dense_lens_to_span(lens, rep)
        orbits, dense_orbits = periodic_orbit_span(sys, k), dense_periodic_orbit_span(sys, k)
        others, dense_others = periodic_orbit_span(other, k), dense_periodic_orbit_span(other, k)
        pushed = apply_span_to_family(span, orbits)
        dense_pushed = dense_apply_span_to_family(dense_span, dense_orbits)
        rewired = compose_lens_system(lens, sys)
        rewired_orbits, dense_rewired = periodic_orbit_span(rewired, k), dense_periodic_orbit_span(rewired, k)

        for sparse, dense in [(orbits, dense_orbits), (others, dense_others), (pushed, dense_pushed)]:
            assert sparse.labels() == [(dense.proj(z), z) for z in dense.total]
            assert sparse.total.elements == dense.total.elements
            assert list(sparse.proj.table.items()) == list(dense.proj.table.items())
            fibers = dense_fibers(dense)
            assert sparse.fibers() == fibers
            for b in {*dense.proj.table.values(), dense.base.elements[0], rng.choice(dense.base.elements)}:
                assert sparse.fibers()[b] == fibers[b]
            assert sparse == dense and dense == sparse
        same = dense_orbits.total == dense_others.total and dense_orbits.proj == dense_others.proj
        assert (orbits == dense_others) == (dense_orbits == others) == same

        # a listed family against a ProductSet-based one, each on either side
        for (f1, f2), dense_pair in [
            ((rewired_orbits, dense_pushed), (dense_rewired, dense_pushed)),
            ((dense_rewired, pushed), (dense_rewired, dense_pushed)),
            ((orbits, dense_others), (dense_orbits, dense_others)),
            ((dense_orbits, others), (dense_orbits, dense_others)),
        ]:
            assert_same_match(families_isomorphic(f1, f2), dense_families_isomorphic(*dense_pair))
        assert_same_family(apply_span_to_family(span, dense_orbits), dense_pushed)
        assert_same_family(apply_span_to_family(dense_span, orbits), dense_pushed)


class TestDegenerateRepresentingSystems:
    """A representing interface with no outputs, or a representing system
    with no states, has a chart or map with no slots, whose label would be
    empty: each is refused by name, and the dense oracle refuses it too."""

    def test_a_lens_span_out_of_no_outputs_is_refused(self):
        no_outputs = DetInterface(FinSet(["*"]), FinSet([]))
        text = r"^representing interface must have at least one output \(a walking cycle\)$"
        with pytest.raises(ValidationError, match=text):
            lens_to_span(feedback_lens(), no_outputs)
        with pytest.raises(ValidationError):
            dense_lens_to_span(feedback_lens(), no_outputs)

    def test_a_representing_system_with_no_states_is_refused(self):
        none = FinSet([])
        for inputs in ([], ["*"], ["x", "y"]):
            rep = DetSystem(none, DetInterface(FinSet(inputs), none), FinMap(none, none, {}), {})
            for sys in (flipflop(), embed_det(flipflop()), oscillator()):
                with pytest.raises(ValidationError, match="^representing system must have at least one state$"):
                    representable_span(rep, sys)
                with pytest.raises(ValidationError):
                    dense_representable_span(rep, sys)


def tensor_of_tensors(rng: random.Random, k: int, case: int):
    """Three random machines of one effect tensored as (a x b) x c or
    a x (b x c), so that every label has three `|`-separated parts; the
    third is smaller at k = 3, to keep the dense search quick."""
    make = random_system if case % 2 else random_markov_machine
    a, b, c = (
        make(rng, random_interface(rng, size, tag=tag), size)
        for tag, size in zip("abc", (2, 2, 2 if k < 3 else 1))
    )
    if case % 4 < 2:
        return tensor_systems(tensor_systems(a, b), c)
    return tensor_systems(a, tensor_systems(b, c))


def tensor_interface(rng: random.Random, tag: str, k: int) -> DetInterface:
    """The tensor of two random interfaces, small enough at k = 2 and 3 for
    the dense period-k matrices to multiply quickly."""
    a = random_interface(rng, 2, tag=tag)
    b = random_interface(rng, 2 if k == 1 else 1, tag=tag + "x")
    return DetInterface(product_finset(a.inputs, b.inputs), product_finset(a.outputs, b.outputs))


class TestOneWidthPerSet:
    """Labels whose parts contain `|`: tensors of tensors, whose every set
    has one width, so each composite label splits back one way."""

    def test_orbit_labels_split_back_to_their_rows(self):
        rng = random.Random(151)
        rows = 0
        for case in range(60):
            k = 1 + case % 3
            sys = tensor_of_tensors(rng, k, case)
            assert sys.states.width == sys.interface.inputs.width == 3
            family = periodic_orbit_span(sys, k)
            elements = ProductSet([sys.states, sys.interface.inputs] * k)
            for z, (chart, element) in zip(family.total, family._rows):
                assert family.base.key(family.proj(z)) == chart
                assert elements.key(z) == element
            rows += len(family._rows)
            assert_same_family(family, dense_periodic_orbit_span(sys, k))
        assert rows > 100

    def test_composed_lens_spans_multiply_their_matrices(self):
        rng = random.Random(152)
        for case in range(45):
            k = 1 + case % 3
            first, middle, last = (tensor_interface(rng, tag, k) for tag in "abc")
            a, b = random_lens(rng, first, middle), random_lens(rng, middle, last)
            rep = walking_cycle(k).interface
            composed = compose_spans(lens_to_span(a, rep), lens_to_span(b, rep))
            assert span_to_matrix(composed) == matmul(
                span_to_matrix(dense_lens_to_span(a, rep)),
                span_to_matrix(dense_lens_to_span(b, rep)),
            )


def walked_rows(sys: DetSystem, k: int) -> list[tuple[str, str]]:
    """Period-k orbits by running every start state on every input word."""
    rows = []
    for s0 in sys.states:
        for word in itertools.product(sys.interface.inputs.elements, repeat=k):
            path = [s0]
            for i in word:
                path.append(sys.update[path[-1]][i])
            if path[-1] == s0:
                chart = [part for s, i in zip(path, word) for part in (sys.readout(s), i)]
                element = [part for s, i in zip(path, word) for part in (s, i)]
                rows.append(("|".join(chart), "|".join(element)))
    return rows


class TestNoChartSetIsEnumerated:
    def test_period_eight_on_the_latch(self, monkeypatch):
        """Its chart base has 6^8 = 1,679,616 charts."""
        def no_chart_sets(*args):
            raise AssertionError("a chart set was built")

        monkeypatch.setattr(det, "chart_hom_set", no_chart_sets)
        family = periodic_orbit_span(flipflop(), 8)
        assert len(family.base) == 6**8
        rows = [(family.proj(z), z) for z in family.total]
        assert rows == periodic_orbits(flipflop(), 8) == walked_rows(flipflop(), 8)
        assert len(rows) > 0
        for k in (1, 8):
            assert check_matrix_theorem(feedback_lens(), flipflop(), k)


class TestMarkovMachines:
    """A Markov machine's orbits are its point transitions' orbits: the walk
    against the dense search, which tests each cell for a point mass."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_orbits_and_the_matrix_theorem_match_the_dense_search(self, seed, k):
        rng = random.Random(seed)
        iface = random_interface(rng, 3)
        sys = random_markov_machine(rng, iface, 3)
        lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
        dense = dense_periodic_orbit_span(sys, k)
        assert_same_family(periodic_orbit_span(sys, k), dense)
        assert list(periodic_orbits(sys, k)) == [(dense.proj(e), e) for e in dense.total]
        match = check_matrix_theorem(lens, sys, k)
        assert match, match.mismatch
        assert_same_match(match, dense_check_matrix_theorem(lens, sys, k))
        det = random_system(rng, iface, 3)
        assert list(periodic_orbits(embed_det(det), k)) == list(periodic_orbits(det, k))

    @pytest.mark.parametrize("k", [1, 2])
    def test_steady_on_the_chain_fixture_writes_the_dense_rows(self, tmp_path, k):
        out, expected = tmp_path / "steady.csv", tmp_path / "dense.csv"
        code = main(["steady", fixture_path("stoch.json"), "--system", "chain",
                     "--k", str(k), "--out", str(out)])
        assert code == 0
        chain = load_project(fixture_path("stoch.json")).system("chain")
        write_rows(expected, dense_steady_rows(chain, k))
        assert out.read_bytes() == expected.read_bytes()
        assert len(dense_steady_rows(chain, k)) == 2


def sized_lens(rng: random.Random) -> DetLens:
    """A random lens between interfaces of 0 to 3 inputs and 0 to 3 outputs,
    drawn so that fwd and bwd exist: a source with outputs needs a target
    with outputs, and, where the target has inputs, inputs of its own."""
    n_out, new_in = rng.randint(0, 3), rng.randint(0, 3)
    new_out, n_in = rng.randint(1 if n_out else 0, 3), rng.randint(1 if n_out and new_in else 0, 3)

    def iface(tag: str, inputs: int, outputs: int) -> DetInterface:
        return DetInterface(FinSet(f"{tag}i{j}" for j in range(inputs)),
                            FinSet(f"{tag}o{j}" for j in range(outputs)))

    return random_lens(rng, iface("", n_in, n_out), iface("t", new_in, new_out))


def lens_matrix(lens: DetLens, k: int) -> tuple[FinSet, FinSet, list[list[int]]]:
    """The lens's span at period k as lists: both chart label lists and the
    counting matrix that `span_to_matrix` fills from the span's rows."""
    span = lens_to_span(lens, walking_cycle(k).interface)
    return FinSet(span.source), FinSet(span.target), span_to_matrix(span)


class TestLensMatrixPower:
    """`lens_matrix`, the k-th Kronecker power of the one-step matrix, against
    the dense span's matrix, counted over its apex element by element."""

    def test_seeded_lenses_at_periods_one_to_three(self):
        rng = random.Random(20)
        empty = set()
        for _ in range(300):
            lens = sized_lens(rng)
            for k in (1, 2, 3):
                dense = dense_lens_to_span(lens, walking_cycle(k).interface)
                assert lens_matrix(lens, k) == (dense.source, dense.target, span_to_matrix(dense))
            for side in ("source", "target"):
                iface = getattr(lens, side)
                empty |= {(side, part) for part in ("inputs", "outputs") if not getattr(iface, part)}
        assert len(empty) == 4  # each side has been drawn with no inputs and with no outputs
