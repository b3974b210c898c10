"""Finite sets, total maps, spans, and families over a base.

A span between finite sets behaves like a matrix of sets: the fiber over a
(source, target) pair is one entry, and composing spans multiplies these
matrices, with disjoint union playing the role of addition. A family is a
set fibered over a base; applying a span to a family pulls the family back
along the left leg and pushes it forward along the right leg. Everything
here is immutable after construction and all operations are pure.

Composite elements are labelled by joining constituent labels with "|". The
labels of a `FinSet` all have one number of "|"-separated parts, its `width`,
so a join splits back one way only and no two composites print alike.
Composites run in product order, each coordinate in its set's canonical
(insertion) order, so repeated runs produce byte-identical output.

A set of composites can be a `ProductSet`, given by the alphabets of its
slots and never enumerated unless its labels are asked for. A family is
stored as its rows, a (base key, element key) pair per element in total
order, so only its nonempty fibers take room; a key is the tuple of parts
whose join is the label (a `FinSet` element's key is its label alone).
Spans act and families compare on keys. Rows become labels in one place,
`_labelled`, which `Family.labels()` lists for the family's total,
projection, fibers and equality, and which `opendyn steady` streams;
`families_isomorphic` counts fibers on keys and joins only the label of a
mismatch, and the labels of its witness when the witness is first read; a
span's legs are labelled in one pass (`_legs`).

`FinMap(dom, cod, table)` checks its table; `_finmap` sets the same slots
without checks, for callers whose table has every domain element once, in
domain order, and only codomain values, because they build it from checked
maps and sets.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cached_property
from itertools import accumulate, product
from math import prod
from typing import Iterable, Iterator, Mapping, Optional

from .errors import BoundaryError, ValidationError

#: Reserved separator for composite element labels.
SEPARATOR = "|"


def join_labels(*parts: str) -> str:
    return SEPARATOR.join(parts)


class FinSet:
    """An ordered finite set of distinct string labels, all with the same
    number of "|"-separated parts, its `width` (1 when it is empty).

    The order is part of the data: it fixes enumeration order for products,
    hom-sets, and serialized output, and is preserved by round-trips.
    """

    __slots__ = ("elements", "_index", "width")

    def __init__(self, elements: Iterable[str]):
        elements = tuple(elements)
        index: dict[str, int] = {}
        seps = elements[0].count(SEPARATOR) if elements and isinstance(elements[0], str) else 0
        for pos, label in enumerate(elements):
            if not isinstance(label, str) or label == "":
                raise ValidationError(
                    f"finite-set elements must be non-empty strings, got {label!r}"
                )
            if label in index:
                raise ValidationError(f"duplicate element label {label!r}")
            if label.count(SEPARATOR) != seps:
                raise ValidationError(
                    f"labels {elements[0]!r} and {label!r} have different numbers of "
                    f"{SEPARATOR!r}-separated parts"
                )
            index[label] = pos
        self.elements = elements
        self._index = index
        self.width = seps + 1

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"FinSet({list(self.elements)!r})"

    def __str__(self) -> str:
        return "{" + ", ".join(self.elements) + "}"

    def position(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"{label!r} is not an element of {self}") from None

    def key(self, label: str) -> tuple[str]:
        """The key of an element: its label alone."""
        self.position(label)
        return (label,)

    def position_of(self, key: tuple[str, ...]) -> int:
        return self.position(join_labels(*key))


class ProductSet:
    """The tuples over a sequence of slot alphabets, in product order, each
    labelled by joining its slots with "|" and keyed by the tuple itself.

    Size, membership and position are computed slot by slot, so the set is
    never enumerated unless its labels are asked for. Two ProductSets are
    equal when their alphabets are; one equals a FinSet that lists its labels.
    It is not hashable, since its hash would have to list them.
    """

    __slots__ = ("alphabets",)

    def __init__(self, alphabets: Iterable[FinSet]):
        self.alphabets = tuple(alphabets)

    def __len__(self) -> int:
        size = prod(map(len, self.alphabets))
        if size > sys.maxsize:  # which len() cannot return: state it as powers
            powers = Counter(n for n in map(len, self.alphabets) if n > 1)
            raise ValidationError(
                f"a product of {len(self.alphabets)} sets has "
                f"{'*'.join(f'{n}^{count}' for n, count in powers.items())} elements; "
                f"more than sys.maxsize = {sys.maxsize}, the most len() can return"
            )
        return size

    def __iter__(self) -> Iterator[str]:
        return (join_labels(*key) for key in product(*self.alphabets))

    @property
    def elements(self) -> tuple[str, ...]:
        return FinSet(self).elements

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and self._parse(label) is not None

    def _parse(self, label: str) -> Optional[tuple[str, ...]]:
        """The tuple labelled `label`, or None: each slot takes as many of its
        "|"-separated parts as its alphabet's width."""
        parts = label.split(SEPARATOR)
        if len(parts) != len(self.alphabets):  # a slot is wider, or no tuple fits
            ends = list(accumulate(alphabet.width for alphabet in self.alphabets))
            if not ends or ends[-1] != len(parts):
                return None
            parts = [SEPARATOR.join(parts[start:end]) for start, end in zip([0, *ends], ends)]
        key = tuple(parts)
        return key if all(map(FinSet.__contains__, self.alphabets, key)) else None

    def key(self, label: str) -> tuple[str, ...]:
        key = self._parse(label)
        if key is None:
            raise ValidationError(f"{label!r} is not an element of {self}")
        return key

    def position_of(self, key: tuple[str, ...]) -> int:
        pos = 0
        for alphabet, part in zip(self.alphabets, key):
            pos = pos * len(alphabet) + alphabet.position(part)
        return pos

    def position(self, label: str) -> int:
        return self.position_of(self.key(label))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ProductSet):
            return self.alphabets == other.alphabets
        if isinstance(other, FinSet):  # prod, not len, which fails past 2^63
            return prod(map(len, self.alphabets)) == len(other) and tuple(self) == other.elements
        return NotImplemented

    def __repr__(self) -> str:
        return f"ProductSet({list(self.alphabets)!r})"

    def __str__(self) -> str:
        return " x ".join(map(str, self.alphabets))


def product_finset(a: FinSet, b: FinSet) -> FinSet:
    """Cartesian product with "x|y" labels, a-major order."""
    return FinSet(join_labels(x, y) for x in a for y in b)


class FinMap:
    """A total function between finite sets, given by an explicit table."""

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: FinSet, cod: FinSet, table: Mapping[str, str]):
        for key in table:
            if key not in dom:
                raise ValidationError(f"table key {key!r} is not in the domain {dom}")
        normalized: dict[str, str] = {}
        for x in dom:
            if x not in table:
                raise ValidationError(f"map table is missing domain element {x!r}")
            y = table[x]
            if y not in cod:
                raise ValidationError(f"table value {y!r} for {x!r} is not in the codomain {cod}")
            normalized[x] = y
        self.dom = dom
        self.cod = cod
        self.table = normalized

    def __call__(self, label: str) -> str:
        try:
            return self.table[label]
        except KeyError:
            raise ValidationError(f"{label!r} is not in the domain {self.dom}") from None

    def then(self, other: "FinMap") -> "FinMap":
        """Composition self;other (apply self first)."""
        if self.cod != other.dom:
            raise BoundaryError(
                f"cannot compose maps: codomain {self.cod} differs from domain {other.dom}"
            )
        return _finmap(self.dom, other.cod, {x: other.table[y] for x, y in self.table.items()})

    @staticmethod
    def identity(a: FinSet) -> "FinMap":
        return _finmap(a, a, {x: x for x in a})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FinMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, tuple(self.table.items())))

    def __repr__(self) -> str:
        return f"FinMap({self.dom!r}, {self.cod!r}, {self.table!r})"


def _finmap(dom, cod, table: dict[str, str]) -> FinMap:
    """The map with this table, set without checks: the table must send each
    element of `dom`, in `dom`'s order, to an element of `cod`."""
    fmap = FinMap.__new__(FinMap)
    fmap.dom, fmap.cod, fmap.table = dom, cod, table
    return fmap


class Span:
    """Two legs out of a common apex: source <- apex -> target."""

    def __init__(self, source: FinSet, target: FinSet, apex: FinSet, left: FinMap, right: FinMap):
        if left.dom != apex or right.dom != apex:
            raise ValidationError("span legs must share the apex as their domain")
        if left.cod != source:
            raise ValidationError(f"left leg codomain {left.cod} is not the source {source}")
        if right.cod != target:
            raise ValidationError(f"right leg codomain {right.cod} is not the target {target}")
        self.source = source
        self.target = target
        self.apex = apex
        self.left = left
        self.right = right

    def _over(self, points: Optional[Mapping] = None) -> Iterator[tuple]:
        """The apex elements as (apex, left, right) keys, in apex order; only
        those whose left leg is one of `points` when they are given."""
        for x in self.apex:
            left = self.source.key(self.left(x))
            if points is None or left in points:
                yield self.apex.key(x), left, self.target.key(self.right(x))

    def _matrix(self) -> list[list[int]]:
        """Fiber cardinalities, counted over the apex element by element."""
        matrix = [[0] * len(self.target) for _ in range(len(self.source))]
        for _, left, right in self._over():
            matrix[self.source.position_of(left)][self.target.position_of(right)] += 1
        return matrix

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Span)
            and self.source == other.source
            and self.target == other.target
            and self.apex == other.apex
            and self.left == other.left
            and self.right == other.right
        )

    def __repr__(self) -> str:
        return f"Span(source={self.source!r}, target={self.target!r}, apex={self.apex!r})"


class Family:
    """A finite set fibered over a base: proj sends each element to its base point.

    Every family is stored as its rows, (base key, element key) in total
    order, so only nonempty fibers take room. `Family(base, total, proj)`
    builds any family from labels; orbit and pushed families are built from
    rows and form `total` and `proj` when first asked for.
    """

    def __init__(self, base: FinSet, total: FinSet, proj: FinMap):
        if proj.dom != total:
            raise ValidationError("family projection must have the total set as its domain")
        if proj.cod != base:
            raise ValidationError("family projection must have the base as its codomain")
        self.base = base
        self.total = total
        self.proj = proj
        self._rows = [(base.key(proj(z)), (z,)) for z in total]

    def labels(self) -> list[tuple[str, str]]:
        """The (base label, element label) pairs, in total order, as
        `_labelled` forms them from the family's rows."""
        return list(_labelled(self._rows))

    @cached_property
    def total(self) -> FinSet:
        return FinSet(z for _, z in self.labels())

    @cached_property
    def proj(self) -> FinMap:
        return FinMap(self.total, self.base, {z: b for b, z in self.labels()})

    def _rows_over(self, base) -> list[tuple]:
        """The rows, with base points keyed as `base` keys them: `base` equals
        this family's base but may be a FinSet where it is a ProductSet, or
        the other way round."""
        if type(base) is type(self.base):
            return self._rows
        return [(base.key(b), (z,)) for b, z in self.labels()]

    def fiber(self, base_label: str) -> list[str]:
        self.base.key(base_label)  # refuses a label not in the base
        return [z for b, z in self.labels() if b == base_label]

    def fibers(self) -> dict[str, list[str]]:
        """Every base point's fiber, each in canonical element order."""
        over: dict[str, list[str]] = {b: [] for b in self.base}
        for b, z in self.labels():
            over[b].append(z)
        return over

    def fiber_sizes(self) -> dict[str, int]:
        return {b: len(zs) for b, zs in self.fibers().items()}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Family) and self.base == other.base and self.labels() == other.labels()

    def __repr__(self) -> str:
        return f"Family(base={self.base!r}, total={self.total!r})"


#: A row of a family: the keys of a base point and of an element over it.
_Row = tuple[tuple[str, ...], tuple[str, ...]]


def _labelled(rows: Iterable[_Row]) -> Iterator[tuple[str, str]]:
    """Each row as its (base label, element label) pair, in row order: the
    one place where rows become labels, for a family's `labels()` and for
    rows streamed to a file as a walk finds them."""
    join = SEPARATOR.join
    return ((join(point), join(element)) for point, element in rows)


def _family(base, rows: Iterable[_Row]) -> Family:
    """The family over `base` with these rows, in total order."""
    family = Family.__new__(Family)
    family.base, family._rows = base, list(rows)
    return family


def identity_span(a: FinSet) -> Span:
    ident = FinMap.identity(a)
    return Span(a, a, a, ident, ident)


def compose_spans(s1: Span, s2: Span) -> Span:
    """Pullback composition: apex elements are matching pairs "x|y".

    The fiber of the composite over (v, w) is the disjoint union, over middle
    points m, of (fiber of s1 over (v, m)) x (fiber of s2 over (m, w)) --
    entrywise the same sum-of-products as a matrix multiplication.
    """
    if s1.target != s2.source:
        raise BoundaryError(
            f"cannot compose spans: first target {s1.target} differs from second source {s2.source}"
        )
    by_middle: dict[str, list[tuple]] = {}
    for y, middle, w in s2._over():
        by_middle.setdefault(join_labels(*middle), []).append((y, w))
    rows = [(x + y, v, w) for x, v, m in s1._over() for y, w in by_middle.get(join_labels(*m), ())]
    apex = FinSet(join_labels(*xy) for xy, _, _ in rows)
    return Span(s1.source, s2.target, apex, *_legs(apex, s1.source, s2.target, rows))


def _legs(apex, source, target, rows: Iterable[tuple]) -> tuple[FinMap, FinMap]:
    """The left and right legs of a span whose apex elements are these
    (apex, left, right) key rows, labelled in one pass over them."""
    left: dict[str, str] = {}
    right: dict[str, str] = {}
    for x, v, w in rows:
        z = join_labels(*x)
        left[z], right[z] = join_labels(*v), join_labels(*w)
    return FinMap(apex, source, left), FinMap(apex, target, right)


def span_to_matrix(s: Span) -> list[list[int]]:
    """Fiber cardinalities as a |source| x |target| matrix of non-negative
    integers, as the span computes them: a lens span takes a Kronecker power
    of its one-step matrix, any other span counts its apex element by element."""
    return s._matrix()


def apply_span_to_family(s: Span, fam: Family) -> Family:
    """Pull the family back along the left leg, push it forward along the right.

    The result lives over the span's target; its elements are the matching
    pairs "x|z" with x in the apex and z lying over left(x), by apex element
    and then in the family's order. Only the apex over the family's nonempty
    fibers is visited.
    """
    if fam.base != s.source:
        raise BoundaryError(
            f"family base {fam.base} differs from span source {s.source}"
        )
    over: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for point, element in fam._rows_over(s.source):
        over.setdefault(point, []).append(element)
    return _family(s.target, (
        (right, apex + z) for apex, left, right in s._over(over) for z in over[left]
    ))


class FamilyMatch:
    """Result of comparing two families over the same base.

    When every fiber cardinality agrees the families are isomorphic (these
    are plain sets, so cardinality is a complete invariant) and `witness` is
    a fiber-preserving bijection pairing elements in canonical order. A match
    that `families_isomorphic` returns forms its witness the first time it is
    read, once. Otherwise `witness` is None and `mismatch` names the first
    base point where the counts differ, and `counts` gives both counts.
    """

    __slots__ = ("_witness", "_rows", "mismatch", "counts")

    def __init__(
        self,
        witness: Optional[FinMap],
        mismatch: Optional[str] = None,
        counts: Optional[tuple[int, int]] = None,
    ):
        self._witness, self._rows = witness, None
        self.mismatch, self.counts = mismatch, counts

    @property
    def witness(self) -> Optional[FinMap]:
        if self._rows is not None:
            self._witness, self._rows = _pair_fibers(*self._rows), None
        return self._witness

    def __bool__(self) -> bool:
        return self.mismatch is None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FamilyMatch) and (self.witness, self.mismatch, self.counts) == (
            other.witness, other.mismatch, other.counts
        )

    def __repr__(self) -> str:
        return (
            f"FamilyMatch(witness={self.witness!r}, mismatch={self.mismatch!r}, "
            f"counts={self.counts!r})"
        )


def families_isomorphic(f1: Family, f2: Family) -> FamilyMatch:
    """Compare fiber sizes where either family has elements, counted on base
    keys. A mismatch is the first base point in base order whose counts
    differ. Otherwise the match holds both families' rows, and its witness
    pairs each fiber's elements in row order when it is first read."""
    if f1.base != f2.base:
        raise BoundaryError(f"family bases differ: {f1.base} vs {f2.base}")
    rows1, rows2 = f1._rows, f2._rows_over(f1.base)
    counts1, counts2 = Counter(p for p, _ in rows1), Counter(p for p, _ in rows2)
    differ = {b for b, _ in counts1.items() ^ counts2.items()}  # counted differently, or on one side
    if differ:
        b = min(differ, key=f1.base.position_of)
        return FamilyMatch(None, mismatch=join_labels(*b), counts=(counts1[b], counts2[b]))
    match = FamilyMatch(None)
    match._rows = rows1, rows2
    return match


def _pair_fibers(rows1: list[_Row], rows2: list[_Row]) -> FinMap:
    """The bijection from the elements of rows1 to those of rows2 that pairs
    each fiber's elements in row order; every fiber has one count on both."""
    total2 = FinSet(join_labels(*element) for _, element in rows2)
    over: dict[tuple[str, ...], list[str]] = {}
    for (point, _), z in zip(rows2, total2):
        over.setdefault(point, []).append(z)
    fibers2 = {point: iter(zs) for point, zs in over.items()}
    table = {join_labels(*element): next(fibers2[point]) for point, element in rows1}
    return _finmap(FinSet(table), total2, table)
