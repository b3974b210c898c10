"""Finite sets, maps, spans, families, and the span-composition kernel."""

import random
import sys
import time
from itertools import product

import pytest

from opendyn import (
    BoundaryError,
    Family,
    FinMap,
    FinSet,
    ProductSet,
    Span,
    ValidationError,
    apply_span_to_family,
    families_isomorphic,
    span_to_matrix,
    tensor_spans,
)
from opendyn.finset import join_labels, product_finset

from dense_oracle import dense_span_matrix, dense_tensor_spans
from helpers import (
    compose_spans,
    identity_span,
    kron,
    matmul,
    random_family,
    random_finset,
    random_span,
)


class TestFinSet:
    def test_insertion_order_is_preserved(self):
        s = FinSet(["b", "a", "c"])
        assert s.elements == ("b", "a", "c")
        assert list(s) == ["b", "a", "c"]
        assert s.position("a") == 1

    def test_duplicate_label_rejected_naming_it(self):
        with pytest.raises(ValidationError, match="dup"):
            FinSet(["dup", "other", "dup"])

    def test_labels_with_different_numbers_of_parts_are_refused(self):
        with pytest.raises(ValidationError) as err:
            FinSet(["a|b", "c|d", "a"])
        assert str(err.value) == (
            "labels 'a|b' and 'a' have different numbers of '|'-separated parts"
        )
        with pytest.raises(ValidationError, match="^labels 'a' and 'a\\|a' have different"):
            FinSet(["a", "a|a"])
        assert FinSet(["a|b", "c|d"]).width == 2
        assert FinSet(["a"]).width == FinSet([]).width == 1

    def test_empty_label_rejected(self):
        with pytest.raises(ValidationError):
            FinSet([""])

    def test_empty_set_is_legal(self):
        s = FinSet([])
        assert len(s) == 0
        assert "x" not in s

    def test_product_order_is_lexicographic_in_the_factors(self):
        p = product_finset(FinSet(["a", "b"]), FinSet(["1", "2"]))
        assert p.elements == ("a|1", "a|2", "b|1", "b|2")


class TestProductSet:
    def test_agrees_with_the_enumerated_labels(self):
        """Membership, position and keys against the listed labels, with slot
        values that contain the separator: each alphabet has one width, so
        no label is shared."""
        rng = random.Random(9)
        by_width = [["a", "b", "c"], ["a|b", "b|a", "c|c", "a|a"], ["a|b|c", "c|a|a", "b|b|b"]]
        parts = [part for values in by_width for part in values]
        for _ in range(300):
            alphabets = [
                FinSet(rng.sample(rng.choice(by_width), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            ]
            ps = ProductSet(alphabets)
            tuples = list(product(*alphabets))
            keys = {join_labels(*key): key for key in tuples}
            labels = list(keys)
            assert len(labels) == len(tuples)
            assert len(ps) == len(labels) and list(ps) == labels
            assert ps == FinSet(labels) and FinSet(labels) == ps
            others = {join_labels(*rng.choices(parts, k=rng.randint(1, 4))) for _ in range(6)}
            for label in set(labels) | others:
                assert (label in ps) == (label in keys)
                if label in keys:
                    assert ps.position(label) == labels.index(label)
                    assert ps.key(label) == keys[label]

    def test_each_label_is_the_join_of_its_tuple(self):
        """Iteration joins each tuple once, in product order: the labels are
        `join_labels` over `product` on seeded alphabets, with multi-part
        slot values and one-element alphabets, and they are formed lazily."""
        rng = random.Random(10)
        by_width = [[f"v{n}" for n in range(5)], [f"v{n}|w{n}" for n in range(5)],
                    [f"v{n}|w|x{n}" for n in range(5)]]
        one_element = 0
        for _ in range(300):
            alphabets = [
                FinSet(rng.sample(rng.choice(by_width), rng.choice([1, 1, 2, 3, 5])))
                for _ in range(rng.randint(1, 5))
            ]
            one_element += any(len(alphabet) == 1 for alphabet in alphabets)
            want = [join_labels(*key) for key in product(*alphabets)]
            assert list(ProductSet(alphabets)) == want
            assert ProductSet(alphabets).elements == tuple(want)
        assert one_element > 100
        assert list(ProductSet([])) == [join_labels()] == [""]
        assert list(ProductSet([FinSet(["a"]), FinSet([])])) == []
        assert list(ProductSet([FinSet(["a|b"])] * 3)) == ["a|b|a|b|a|b"]
        assert next(iter(ProductSet([FinSet(f"x{n}" for n in range(10))] * 18))) == "|".join(["x0"] * 18)

    def test_a_long_label_is_read_in_one_pass(self):
        """Ten thousand slots of width 2: a split and a lookup per slot."""
        ps = ProductSet([FinSet(["a|a", "b|a"])] * 10_000)
        label = join_labels(*["b|a"] * 10_000)
        start = time.perf_counter()
        assert label in ps and label + "|a" not in ps and "a|" + label not in ps
        assert ps.key(label) == ("b|a",) * 10_000
        assert time.perf_counter() - start < 1.0

    def test_a_size_past_sys_maxsize_is_stated_as_powers(self):
        ps = ProductSet([FinSet(["p", "q"]), FinSet(["u"]), FinSet(["x", "y", "z"])] * 40)
        with pytest.raises(ValidationError) as err:
            len(ps)
        assert str(err.value) == (
            f"a product of 120 sets has 2^40*3^40 elements; more than sys.maxsize = "
            f"{sys.maxsize}, the most len() can return"
        )
        assert len(ProductSet([FinSet(["p", "q"])] * 62)) == 2**62

    def test_equal_alphabets_make_equal_sets_without_listing_them(self):
        big = FinSet(f"x{n}" for n in range(10))
        a, b = ProductSet([big] * 18), ProductSet([FinSet(big)] * 18)
        assert a == b and len(a) == 10**18
        assert a != ProductSet([big] * 17)
        assert a.position("|".join(["x9"] * 18)) == 10**18 - 1
        assert str(ProductSet([FinSet(["p", "q"]), FinSet(["u"])])) == "{p, q} x {u}"


class TestFinMap:
    def test_total_and_valued_in_codomain(self):
        dom, cod = FinSet(["x", "y"]), FinSet(["u"])
        with pytest.raises(ValidationError):
            FinMap(dom, cod, {"x": "u"})  # not total
        with pytest.raises(ValidationError):
            FinMap(dom, cod, {"x": "u", "y": "v"})  # value outside cod

    def test_composition_and_identity(self):
        a, b, c = FinSet(["a"]), FinSet(["b1", "b2"]), FinSet(["c"])
        f = FinMap(a, b, {"a": "b2"})
        g = FinMap(b, c, {"b1": "c", "b2": "c"})
        assert f.then(g) == FinMap(a, c, {"a": "c"})
        assert FinMap.identity(a).then(f) == f
        assert f.then(FinMap.identity(b)) == f

    def test_composition_boundary_error(self):
        a, b = FinSet(["a"]), FinSet(["b"])
        f = FinMap(a, b, {"a": "b"})
        with pytest.raises(BoundaryError):
            f.then(f)


def reference_spans():
    """Two hand-built spans with known matrices [[1],[1]] and [[2,1]]."""
    a, b, c = FinSet(["a1", "a2"]), FinSet(["b1"]), FinSet(["c1", "c2"])
    x = FinSet(["x1", "x2"])
    s1 = Span(
        a, b, x,
        FinMap(x, a, {"x1": "a1", "x2": "a2"}),
        FinMap(x, b, {"x1": "b1", "x2": "b1"}),
    )
    y = FinSet(["y1", "y2", "y3"])
    s2 = Span(
        b, c, y,
        FinMap(y, b, {"y1": "b1", "y2": "b1", "y3": "b1"}),
        FinMap(y, c, {"y1": "c1", "y2": "c1", "y3": "c2"}),
    )
    return s1, s2


class TestSpanComposition:
    def test_identity_span_shape(self):
        a = FinSet(["b1"])
        s = identity_span(a)
        assert s.apex == a and s.left == FinMap.identity(a) and s.right == FinMap.identity(a)
        assert identity_span(FinSet([])).apex == FinSet([])

    def test_reference_composite_has_six_pairs(self):
        s1, s2 = reference_spans()
        comp = compose_spans(s1, s2)
        assert len(comp.apex) == 6
        fiber_a1_c1 = [
            x for x in comp.apex if comp.left(x) == "a1" and comp.right(x) == "c1"
        ]
        assert len(fiber_a1_c1) == 2

    def test_reference_matrices_multiply(self):
        s1, s2 = reference_spans()
        assert span_to_matrix(s1) == [[1], [1]]
        assert span_to_matrix(s2) == [[2, 1]]
        comp = compose_spans(s1, s2)
        assert span_to_matrix(comp) == [[2, 1], [2, 1]]
        assert span_to_matrix(comp) == matmul(span_to_matrix(s1), span_to_matrix(s2))

    def test_unit_laws_fiberwise(self):
        s1, _ = reference_spans()
        left_unit = compose_spans(identity_span(s1.source), s1)
        right_unit = compose_spans(s1, identity_span(s1.target))
        assert span_to_matrix(left_unit) == span_to_matrix(s1)
        assert span_to_matrix(right_unit) == span_to_matrix(s1)

    def test_boundary_mismatch_names_both_sets(self):
        s1, s2 = reference_spans()
        with pytest.raises(BoundaryError) as err:
            compose_spans(s2, s1)
        assert "c1" in str(err.value) and "a1" in str(err.value)

    def test_identity_matrix_and_empty_apex(self):
        ab = FinSet(["a", "b"])
        assert span_to_matrix(identity_span(ab)) == [[1, 0], [0, 1]]
        empty = Span(ab, ab, FinSet([]), FinMap(FinSet([]), ab, {}), FinMap(FinSet([]), ab, {}))
        assert span_to_matrix(empty) == [[0, 0], [0, 0]]

    def test_composite_labels_are_pairs(self):
        s1, s2 = reference_spans()
        comp = compose_spans(s1, s2)
        assert join_labels("x1", "y1") in comp.apex


class TestApplySpanToFamily:
    def test_identity_span_acts_trivially(self):
        rng = random.Random(1)
        base = FinSet(["a1", "a2"])
        fam = random_family(rng, base)
        out = apply_span_to_family(identity_span(base), fam)
        assert families_isomorphic(out, fam)

    def test_empty_family_stays_empty(self):
        s1, _ = reference_spans()
        fam = Family(s1.source, FinSet([]), FinMap(FinSet([]), s1.source, {}))
        assert len(apply_span_to_family(s1, fam).total) == 0

    def test_reference_fiber_count(self):
        s1, _ = reference_spans()
        total = FinSet(["e1", "e2", "e3"])
        fam = Family(
            s1.source, total, FinMap(total, s1.source, {"e1": "a1", "e2": "a2", "e3": "a2"})
        )
        out = apply_span_to_family(s1, fam)
        assert out.fiber_sizes() == {"b1": 3}

    def test_base_mismatch_is_an_error(self):
        _, s2 = reference_spans()
        total = FinSet(["e1"])
        fam = Family(FinSet(["a1", "a2"]), total, FinMap(total, FinSet(["a1", "a2"]), {"e1": "a1"}))
        with pytest.raises(BoundaryError):
            apply_span_to_family(s2, fam)


class TestFamiliesIsomorphic:
    def test_identical_families_get_identity_witness(self):
        fam = random_family(random.Random(2), FinSet(["p", "q"]))
        match = families_isomorphic(fam, fam)
        assert match
        assert match.witness.table == {e: e for e in fam.total}

    def test_cardinality_mismatch_reports_first_base_point(self):
        base = FinSet(["p", "q"])
        t1 = FinSet(["e1", "e2"])
        f1 = Family(base, t1, FinMap(t1, base, {"e1": "p", "e2": "p"}))
        f2 = Family(base, t1, FinMap(t1, base, {"e1": "q", "e2": "q"}))
        match = families_isomorphic(f1, f2)
        assert not match
        assert match.mismatch == "p"
        assert match.counts == (2, 0)

    def test_relabeled_family_matches_with_fiber_preserving_witness(self):
        rng = random.Random(3)
        base = FinSet(["p", "q", "r"])
        for _ in range(25):
            f1 = random_family(rng, base)
            shuffled = list(f1.total.elements)
            rng.shuffle(shuffled)
            renames = {e: f"n{n}" for n, e in enumerate(shuffled)}
            t2 = FinSet(renames[e] for e in shuffled)
            f2 = Family(base, t2, FinMap(t2, base, {renames[e]: f1.proj(e) for e in f1.total}))
            match = families_isomorphic(f1, f2)
            assert match
            assert all(f2.proj(match.witness(e)) == f1.proj(e) for e in f1.total)

    def test_base_mismatch_is_an_error(self):
        f1 = random_family(random.Random(4), FinSet(["p"]))
        f2 = random_family(random.Random(4), FinSet(["q"]))
        with pytest.raises(BoundaryError):
            families_isomorphic(f1, f2)


class TestSpanAlgebraProperties:
    def test_matrix_of_composite_is_matrix_product(self):
        rng = random.Random(5)
        for _ in range(50):
            a = random_finset(rng, "a", 4)
            b = random_finset(rng, "b", 4)
            c = random_finset(rng, "c", 4)
            s1, s2 = random_span(rng, a, b), random_span(rng, b, c)
            assert span_to_matrix(compose_spans(s1, s2)) == matmul(
                span_to_matrix(s1), span_to_matrix(s2)
            )

    def test_composition_is_associative_up_to_fiberwise_bijection(self):
        rng = random.Random(6)
        for _ in range(50):
            a, b = random_finset(rng, "a", 3), random_finset(rng, "b", 3)
            c, d = random_finset(rng, "c", 3), random_finset(rng, "d", 3)
            s1, s2, s3 = (
                random_span(rng, a, b),
                random_span(rng, b, c),
                random_span(rng, c, d),
            )
            left = compose_spans(compose_spans(s1, s2), s3)
            right = compose_spans(s1, compose_spans(s2, s3))
            assert span_to_matrix(left) == span_to_matrix(right)

    def test_applying_a_composite_equals_applying_in_stages(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b, c = (
                random_finset(rng, "a", 3),
                random_finset(rng, "b", 3),
                random_finset(rng, "c", 3),
            )
            s1, s2 = random_span(rng, a, b), random_span(rng, b, c)
            fam = random_family(rng, a)
            at_once = apply_span_to_family(compose_spans(s1, s2), fam)
            staged = apply_span_to_family(s2, apply_span_to_family(s1, fam))
            assert families_isomorphic(at_once, staged)


def labelled(rows) -> list[tuple[str, str, str]]:
    """(apex, left, right) key rows as their labels."""
    return [tuple(join_labels(*key) for key in row) for row in rows]


def assert_equals_the_dense_tensor(tensor, dense, rng: random.Random) -> None:
    """Matrix, rows, pushed counts, apex elements over some points, and legs."""
    matrix = dense_span_matrix(dense)
    assert span_to_matrix(tensor) == matrix
    assert [[ones.count(c) for c in range(len(dense.target))] for ones in tensor._ones()] == matrix
    counts = {v: rng.randint(1, 4) for v in dense.source if rng.random() < 0.6}
    pushed = [sum(n * matrix[dense.source.position(v)][w] for v, n in counts.items())
              for w in range(len(dense.target))]
    expected = {tensor.target.key(w): n for w, n in zip(dense.target, pushed) if n}
    assert tensor._push({tensor.source.key(v): n for v, n in counts.items()}) == expected
    over = [(x, dense.left(x), dense.right(x)) for x in dense.apex if dense.left(x) in counts]
    assert labelled(tensor._over({tensor.source.key(v): n for v, n in counts.items()})) == over
    assert labelled(tensor._over()) == [(x, dense.left(x), dense.right(x)) for x in dense.apex]
    assert tensor.apex.elements == dense.apex.elements
    assert list(tensor.left.table.items()) == list(dense.left.table.items())
    assert list(tensor.right.table.items()) == list(dense.right.table.items())


class TestTensorSpans:
    def test_two_factors_equal_the_dense_tensor(self):
        """The matrix is the Kronecker product, and the rows, pushed counts,
        apex order and legs are the dense tensor's."""
        rng, repeated = random.Random(40), 0
        for case in range(240):
            a, b, c, d = (random_finset(rng, tag, 3) for tag in "abcd")
            s1, s2 = random_span(rng, a, b), random_span(rng, c, d)
            tensor = tensor_spans(s1, s2)
            assert span_to_matrix(tensor) == kron(span_to_matrix(s1), span_to_matrix(s2)), case
            assert_equals_the_dense_tensor(tensor, dense_tensor_spans(s1, s2), rng)
            repeated += any(n > 1 for row in span_to_matrix(tensor) for n in row)
        assert repeated > 50

    def test_three_factors_associate(self):
        """Either bracketing of three factors has the dense tensor's rows,
        apex order and legs."""
        rng = random.Random(41)
        for case in range(40):
            sides = [random_finset(rng, tag, 3) for tag in "abcdef"]
            s1, s2, s3 = (random_span(rng, *sides[j:j + 2], max_apex=4) for j in (0, 2, 4))
            dense = dense_tensor_spans(s1, s2, s3)
            for tensor in (tensor_spans(s1, s2, s3), tensor_spans(tensor_spans(s1, s2), s3),
                           tensor_spans(s1, tensor_spans(s2, s3))):
                assert tensor.source == dense.source and tensor.target == dense.target, case
                assert_equals_the_dense_tensor(tensor, dense, rng)

    def test_a_factor_with_an_empty_apex_empties_the_tensor(self):
        one, two = FinSet(["p"]), FinSet(["q", "r"])
        empty = Span(one, two, FinSet([]), FinMap(FinSet([]), one, {}), FinMap(FinSet([]), two, {}))
        tensor = tensor_spans(identity_span(two), empty)
        assert span_to_matrix(tensor) == [[0, 0, 0, 0], [0, 0, 0, 0]]
        assert tensor._over() == [] and tensor._push({("q", "p"): 3}) == {}
