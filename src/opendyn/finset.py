"""Finite sets, total maps, spans, and families over a base.

A span between finite sets behaves like a matrix of sets: the fiber over a
(source, target) pair is one entry, composing spans multiplies these
matrices, with disjoint union playing the role of addition, and their tensor
product is the Kronecker product. A family is a
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
whose join is the label (a `FinSet` element's key is its label alone). A
family also answers its fiber counts, a `Counter` over base keys; a family
built from a walk or pushed through a span counts without forming its rows,
and forms them only when they are first read. Spans act and families
compare on keys: a span applied to a family pushes the family's count
vector through the span's matrix, and `families_isomorphic` decides on the
two count vectors, joining only the label of a mismatch, and forms the rows
and the labels of its witness when the witness is first read. Rows become
labels in one place, `_labelled`, which `Family.labels()` lists for the
family's total, projection, fibers and equality, and which `opendyn steady`
streams.

`Span` is the one span implementation: a tensor product of factors, each
holding its apex elements over each source key, so that listing apex
elements (`_over`), pushing a count vector (`_push`) and forming matrix rows
(`_ones`) are each written once, and the legs are labelled in one pass when
first read. A span built from its legs is one factor, and `tensor_spans`
joins the factors of its arguments over the `ProductSet`s of their sides.

`FinMap(dom, cod, table)` checks its table; `_finmap` sets the same slots
without checks, for callers whose table has every domain element once, in
domain order, and only codomain values, because they build it from checked
maps and sets.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, product
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .errors import BoundaryError, ValidationError, _shown

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
                    f"finite-set elements must be non-empty strings, got {_shown(label)}"
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
        return map(SEPARATOR.join, product(*self.alphabets))

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
                raise ValidationError(f"table key {_shown(key)} is not in the domain {dom}")
        normalized: dict[str, str] = {}
        for x in dom:
            if x not in table:
                raise ValidationError(f"map table is missing domain element {x!r}")
            y = table[x]
            if y not in cod:
                raise ValidationError(f"table value {_shown(y)} for {x!r} is not in the codomain {cod}")
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
    """Two legs out of a common apex: source <- apex -> target.

    It is held as a tensor product of factors (`_factors`), each its source
    key width, its target, and its apex elements over each source key as
    (apex position, apex key, right key), in apex order.
    """

    def __init__(self, source: FinSet, target: FinSet, apex: FinSet, left: FinMap, right: FinMap):
        if left.dom != apex or right.dom != apex:
            raise ValidationError("span legs must share the apex as their domain")
        if left.cod != source:
            raise ValidationError(f"left leg codomain {left.cod} is not the source {source}")
        if right.cod != target:
            raise ValidationError(f"right leg codomain {right.cod} is not the target {target}")
        rows = ((apex.key(x), source.key(left(x)), target.key(right(x))) for x in apex)
        # the span `_span` builds from the legs' rows, holding the legs themselves
        vars(self).update(vars(_span(source, target, apex, rows)), _both_legs=(left, right))

    @property
    def _cuts(self) -> list[tuple[int, int]]:
        """Each factor's (start, end) slots in a source key."""
        ends = list(accumulate(width for width, _, _ in self._factors))
        return list(zip([0, *ends], ends))

    def _over(self, points: Optional[Iterable] = None) -> list[tuple]:
        """The apex elements as (apex, left, right) keys, in apex order; only
        those whose left leg is one of `points` when they are given. A point
        is cut into its factors' keys, and the elements over it are the
        product of the factors' elements over those, sorted by their tuples
        of apex positions."""
        flat, factors = chain.from_iterable, self._factors
        if points is None:  # every source key some apex element lies over
            points = (tuple(flat(keys)) for keys in product(*[over for _, _, over in factors]))
        cut, elements = [(a, b, over) for (a, b), (_, _, over) in zip(self._cuts, factors)], []
        for point in points:
            for combo in product(*[over.get(point[a:b], ()) for a, b, over in cut]):
                pos, apex, right = zip(*combo)
                elements.append((pos, tuple(flat(apex)), point, tuple(flat(right))))
        elements.sort()
        return [(apex, point, right) for _, apex, point, right in elements]

    def _push(self, counts: Mapping) -> Counter:
        """The span's matrix applied to a count vector over the source, keyed
        by source keys, factor by factor: each factor takes its key off the
        front of a counted key and appends, for each apex element over it,
        that element's right key, adding the count there. After the last
        factor a key is a target key; no apex element is formed."""
        for width, _, over in self._factors:
            pushed: dict = {}
            get = pushed.get
            for key, n in counts.items():
                rest = key[width:]
                for _, _, right in over.get(key[:width], ()):
                    key2 = rest + right
                    pushed[key2] = get(key2, 0) + n
            counts = pushed
        return Counter(counts)

    def _ones(self) -> Iterator[list[int]]:
        """Each row of the span's matrix, in source order, as the columns of
        its apex elements, a column repeated as often as elements lie over
        it: the Kronecker product of the factors' rows. The row whose factor
        keys are r_1..r_m has an element at c_1*p_1 + ... + c_m for each
        choice of columns c_j over r_j, p_j the product of the later
        factors' column counts. Taken in product order these ascend where no
        factor has two elements over one (row, column) pair, as in a lens's
        span, whose rows `opendyn matrix` writes as they are formed."""
        alphabets, places, scale = _alphabets(self.source), [], 1
        for (a, b), (_, target, over) in reversed(list(zip(self._cuts, self._factors))):
            places.append([sorted(target.position_of(right) * scale for _, _, right in over.get(key, ()))
                           for key in product(*alphabets[a:b])])
            scale *= len(target)
        for digits in product(*reversed(places)):
            yield list(map(sum, product(*digits)))

    @cached_property
    def _both_legs(self) -> tuple[FinMap, FinMap]:
        """The left and right legs, labelled in one pass over `_over()`."""
        left, right = {}, {}
        for x, v, w in self._over():
            z = join_labels(*x)
            left[z], right[z] = join_labels(*v), join_labels(*w)
        return FinMap(self.apex, self.source, left), FinMap(self.apex, self.target, right)

    left = property(lambda self: self._both_legs[0])
    right = property(lambda self: self._both_legs[1])

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


def _alphabets(side) -> tuple:
    """The slot alphabets of a set: a `ProductSet`'s own, or a `FinSet` alone."""
    return side.alphabets if isinstance(side, ProductSet) else (side,)


def _span(source, target, apex, rows: Iterable[tuple]) -> Span:
    """The one-factor span whose apex elements are these (apex, left, right)
    key rows, in apex order, set without checks; its legs are labelled when
    first read."""
    over: dict[tuple, list[tuple]] = {}
    for pos, (x, v, w) in enumerate(rows):
        over.setdefault(v, []).append((pos, x, w))
    span = Span.__new__(Span)
    span.source, span.target, span.apex = source, target, apex
    span._factors = ((len(_alphabets(source)), target, over),)
    return span


class Family:
    """A finite set fibered over a base: proj sends each element to its base point.

    Every family is stored as its rows, (base key, element key) in total
    order, so only nonempty fibers take room. `Family(base, total, proj)`
    builds any family from labels; orbit and pushed families are built from
    a way to form their rows and a way to count their fibers; the rows, the
    counts, `total` and `proj` are each formed when first asked for.
    """

    #: counts the fibers without forming the rows, where a family knows how
    _count = None

    def __init__(self, base: FinSet, total: FinSet, proj: FinMap):
        if proj.dom != total:
            raise ValidationError("family projection must have the total set as its domain")
        if proj.cod != base:
            raise ValidationError("family projection must have the base as its codomain")
        self.base = base
        self.total = total
        self.proj = proj
        self._rows = [(base.key(proj(z)), (z,)) for z in total]

    @cached_property
    def _rows(self) -> list[_Row]:
        return list(self._form())

    @cached_property
    def _counts(self) -> Counter:
        """Each nonempty fiber's size, keyed by its base key: counted off the
        rows where they are formed, and otherwise by the family's `_count`."""
        if "_rows" in self.__dict__ or self._count is None:
            return Counter(map(itemgetter(0), self._rows))
        return self._count()

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

    def _counts_over(self, base) -> Counter:
        """The fiber counts, keyed as `_rows_over(base)` keys the rows."""
        if type(base) is type(self.base):
            return self._counts
        return Counter({base.key(join_labels(*b)): n for b, n in self._counts.items()})

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


def _family(
    base, form: Callable[[], Iterable[_Row]], count: Optional[Callable[[], Counter]] = None
) -> Family:
    """The family over `base` whose rows, in total order, `form()` yields
    when they are first read, and whose fiber counts `count()` returns when
    they are first read before the rows; both must describe one family."""
    family = Family.__new__(Family)
    family.base, family._form, family._count = base, form, count
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
    return _span(s1.source, s2.target, apex, [((z,), v, w) for z, (_, v, w) in zip(apex, rows)])


def tensor_spans(first: Span, *rest: Span) -> Span:
    """The tensor (Kronecker) product of spans: its source, target and apex
    are the `ProductSet`s of theirs, and its factors are theirs in turn. Its
    apex elements are the tuples of theirs, in product order, and its matrix
    is the Kronecker product of their matrices."""
    spans = (first, *rest)
    span = Span.__new__(Span)
    span.source, span.target, span.apex = (
        ProductSet(chain.from_iterable(map(_alphabets, sides)))
        for sides in zip(*[(s.source, s.target, s.apex) for s in spans])
    )
    span._factors = tuple(chain.from_iterable(s._factors for s in spans))
    return span


def span_to_matrix(s: Span) -> list[list[int]]:
    """Fiber cardinalities as a |source| x |target| matrix of non-negative
    integers, filled from the span's rows (`Span._ones`): the Kronecker
    product of its factors' rows, each column counted once per apex element."""
    matrix, width = [], len(s.target)
    for ones in s._ones():
        row = [0] * width
        for c in ones:
            row[c] += 1
        matrix.append(row)
    return matrix


def apply_span_to_family(s: Span, fam: Family) -> Family:
    """Pull the family back along the left leg, push it forward along the right.

    The result lives over the span's target. Its fiber counts are the span's
    matrix applied to the family's count vector (`Span._push`), formed when
    first read, with no element formed. Its elements, formed when its rows
    are first read, are the matching pairs "x|z" with x in the apex and z
    lying over left(x), by apex element and then in the family's order; only
    the apex over the family's nonempty fibers is visited.
    """
    if fam.base != s.source:
        raise BoundaryError(
            f"family base {fam.base} differs from span source {s.source}"
        )

    def form() -> Iterator[_Row]:
        over: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for point, element in fam._rows_over(s.source):
            over.setdefault(point, []).append(element)
        return ((right, apex + z) for apex, left, right in s._over(over) for z in over[left])

    return _family(s.target, form, lambda: s._push(fam._counts_over(s.source)))


class FamilyMatch:
    """Result of comparing two families over the same base.

    When every fiber cardinality agrees the families are isomorphic (these
    are plain sets, so cardinality is a complete invariant) and `witness` is
    a fiber-preserving bijection pairing elements in canonical order. A match
    that `families_isomorphic` returns holds the two families and forms its
    witness from their rows the first time it is read, once. Otherwise
    `witness` is None and `mismatch` names the first base point where the
    counts differ, and `counts` gives both counts.
    """

    __slots__ = ("_witness", "_families", "mismatch", "counts")

    def __init__(
        self,
        witness: Optional[FinMap],
        mismatch: Optional[str] = None,
        counts: Optional[tuple[int, int]] = None,
    ):
        self._witness, self._families = witness, None
        self.mismatch, self.counts = mismatch, counts

    @property
    def witness(self) -> Optional[FinMap]:
        if self._families is not None:
            f1, f2 = self._families
            self._witness, self._families = _pair_fibers(f1._rows, f2._rows_over(f1.base)), None
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
    """Compare the families' fiber counts, keyed by base key (`_counts`), so
    no row is formed where a family can count without. A mismatch is the
    first base point in base order whose counts differ. Otherwise the match
    holds both families, and its witness pairs each fiber's elements in row
    order when it is first read."""
    if f1.base != f2.base:
        raise BoundaryError(f"family bases differ: {f1.base} vs {f2.base}")
    counts1, counts2 = f1._counts, f2._counts_over(f1.base)
    differ = {b for b, _ in counts1.items() ^ counts2.items()}  # counted differently, or on one side
    if differ:
        b = min(differ, key=f1.base.position_of)
        return FamilyMatch(None, mismatch=join_labels(*b), counts=(counts1[b], counts2[b]))
    match = FamilyMatch(None)
    match._families = f1, f2
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
