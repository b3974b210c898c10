"""The orbit walk against the dense oracle, and the sparse matrix-theorem check."""

import csv
import random

import pytest

from opendyn import (
    BoundaryError,
    DetInterface,
    DetLens,
    DetSystem,
    Family,
    FinMap,
    FinSet,
    ValidationError,
    check_matrix_theorem,
    families_isomorphic,
    periodic_orbit_span,
    periodic_orbits,
    product_finset,
    random_lens,
    random_system,
    representable_span,
    save_project,
    walking_cycle,
)
from opendyn.cli import main
from opendyn.deterministic import _match_fibers
from opendyn.laws import random_interface
from opendyn.project import ProjectFile

from dense_oracle import (
    dense_check_matrix_theorem,
    dense_representable_span,
    dense_steady_rows,
)
from helpers import feedback_lens, fixture_path, flipflop, oscillator


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


def two_input_rep() -> DetSystem:
    """A representing machine that is not a cycle: identity readout, two inputs."""
    states = FinSet(["a", "b"])
    iface = DetInterface(FinSet(["x", "y"]), states)
    update = {"a": {"x": "b", "y": "a"}, "b": {"x": "a", "y": "b"}}
    return DetSystem(states, iface, FinMap.identity(states), update)


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
            # elements (a|b, c) and (a, b|c) print alike
            (["a|b", "a"], {"a|b": "o", "a": "o"}),
            # elements differ, but charts (a|b, c) and (a, b|c) print alike
            (["p", "q"], {"p": "a|b", "q": "a"}),
        ],
    )
    def test_labels_that_join_alike_are_refused(self, states, readout):
        states = FinSet(states)
        iface = DetInterface(FinSet(["c", "b|c"]), FinSet(sorted(set(readout.values()))))
        update = {s: {i: s for i in iface.inputs} for s in states}
        sys = DetSystem(states, iface, FinMap(states, iface.outputs, readout), update)
        with pytest.raises(ValidationError, match=r"^duplicate element label 'a\|b\|c'$"):
            list(periodic_orbits(sys, 1))
        with pytest.raises(ValidationError, match="^duplicate element label"):
            periodic_orbit_span(sys, 1)


class TestFiberComparison:
    """The count comparison on hand-built fibers, against families_isomorphic."""

    outputs = FinSet(["p", "q"])
    inputs = FinSet(["u", "v"])

    def chart_key(self, chart):
        return (self.outputs.position(chart[0]), self.inputs.position(chart[1]))

    def as_family(self, total, fibers):
        base = product_finset(self.outputs, self.inputs)
        over = {z: "|".join(chart) for chart, zs in fibers.items() for z in zs}
        total_set = FinSet(total)
        return Family(base, total_set, FinMap(total_set, base, over))

    def both(self, total1, fibers1, total2, fibers2):
        sparse = _match_fibers(total1, fibers1, total2, fibers2, self.chart_key)
        dense = families_isomorphic(
            self.as_family(total1, fibers1), self.as_family(total2, fibers2)
        )
        return sparse, dense

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


def write_rows(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("chart", "element"))
        writer.writerows(rows)


class TestSteadyRows:
    @pytest.mark.parametrize("k", [1, 2, 3])
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
        project = tmp_path / "machines.json"
        save_project(ProjectFile(systems=systems), str(project))
        for name, sys in systems.items():
            for k in (1, 2, 3):
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
