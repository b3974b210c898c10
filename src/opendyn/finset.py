"""Finite sets, total maps, spans, and families over a base.

A span between finite sets behaves like a matrix of sets: the fiber over a
(source, target) pair is one entry, and composing spans multiplies these
matrices, with disjoint union playing the role of addition. A family is a
set fibered over a base; applying a span to a family pulls the family back
along the left leg and pushes it forward along the right leg. Everything
here is immutable after construction and all operations are pure.

Composite elements are labelled by joining constituent labels with "|".
Enumeration order of every composite is the product order, each coordinate
running in its set's canonical (insertion) order, so repeated runs produce
byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import BoundaryError, ValidationError

#: Reserved separator for composite element labels.
SEPARATOR = "|"


def join_labels(*parts: str) -> str:
    return SEPARATOR.join(parts)


class FinSet:
    """An ordered finite set of distinct string labels.

    The order is part of the data: it fixes enumeration order for products,
    hom-sets, and serialized output, and is preserved by round-trips.
    """

    __slots__ = ("elements", "_index")

    def __init__(self, elements: Iterable[str]):
        elements = tuple(elements)
        index: dict[str, int] = {}
        for pos, label in enumerate(elements):
            if not isinstance(label, str) or label == "":
                raise ValidationError(
                    f"finite-set elements must be non-empty strings, got {label!r}"
                )
            if label in index:
                raise ValidationError(f"duplicate element label {label!r}")
            index[label] = pos
        self.elements = elements
        self._index = index

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinSet) and self.elements == other.elements

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
        return FinMap(self.dom, other.cod, {x: other(self(x)) for x in self.dom})

    @staticmethod
    def identity(a: FinSet) -> "FinMap":
        return FinMap(a, a, {x: x for x in a})

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


class Span:
    """Two legs out of a common apex: source <- apex -> target."""

    __slots__ = ("source", "target", "apex", "left", "right")

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
    """A finite set fibered over a base: proj sends each element to its base point."""

    __slots__ = ("base", "total", "proj")

    def __init__(self, base: FinSet, total: FinSet, proj: FinMap):
        if proj.dom != total:
            raise ValidationError("family projection must have the total set as its domain")
        if proj.cod != base:
            raise ValidationError("family projection must have the base as its codomain")
        self.base = base
        self.total = total
        self.proj = proj

    def fiber(self, base_label: str) -> list[str]:
        if base_label not in self.base:
            raise ValidationError(f"{base_label!r} is not in the base {self.base}")
        return [z for z in self.total if self.proj(z) == base_label]

    def fibers(self) -> dict[str, list[str]]:
        """Every base point's fiber, each in canonical element order."""
        over: dict[str, list[str]] = {b: [] for b in self.base}
        for z in self.total:
            over[self.proj(z)].append(z)
        return over

    def fiber_sizes(self) -> dict[str, int]:
        return {b: len(zs) for b, zs in self.fibers().items()}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Family)
            and self.base == other.base
            and self.total == other.total
            and self.proj == other.proj
        )

    def __repr__(self) -> str:
        return f"Family(base={self.base!r}, total={self.total!r})"


#: A row of a family: the parts of a base point and of an element over it.
_Row = tuple[tuple[str, ...], Sequence[str]]


def _fibers(rows: Iterable[_Row]) -> tuple[list[str], dict[tuple[str, ...], list[str]]]:
    """Element labels in row order, and the same labels grouped by base point."""
    total: list[str] = []
    fibers: dict[tuple[str, ...], list[str]] = {}
    for point, element in rows:
        label = join_labels(*element)
        total.append(label)
        fibers.setdefault(point, []).append(label)
    return total, fibers


def _family(base: FinSet, rows: Iterable[_Row]) -> Family:
    """The family over `base` whose elements are the rows' element labels,
    in row order, each over its base point's label."""
    labels, fibers = _fibers(rows)
    total = FinSet(labels)
    proj = {z: join_labels(*point) for point, zs in fibers.items() for z in zs}
    return Family(base, total, FinMap(total, base, proj))


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
    by_middle: dict[str, list[str]] = {m: [] for m in s2.source}
    for y in s2.apex:
        by_middle[s2.left(y)].append(y)
    labels: list[str] = []
    left: dict[str, str] = {}
    right: dict[str, str] = {}
    for x in s1.apex:
        for y in by_middle[s1.right(x)]:
            xy = join_labels(x, y)
            labels.append(xy)
            left[xy] = s1.left(x)
            right[xy] = s2.right(y)
    apex = FinSet(labels)
    return Span(s1.source, s2.target, apex, FinMap(apex, s1.source, left), FinMap(apex, s2.target, right))


def span_to_matrix(s: Span) -> list[list[int]]:
    """Fiber cardinalities as a |source| x |target| matrix of non-negative integers."""
    matrix = [[0] * len(s.target) for _ in s.source]
    for x in s.apex:
        matrix[s.source.position(s.left(x))][s.target.position(s.right(x))] += 1
    return matrix


def apply_span_to_family(s: Span, fam: Family) -> Family:
    """Pull the family back along the left leg, push it forward along the right.

    The result lives over the span's target; its elements are the matching
    pairs "x|z" with x in the apex and z lying over left(x).
    """
    if fam.base != s.source:
        raise BoundaryError(
            f"family base {fam.base} differs from span source {s.source}"
        )
    over = fam.fibers()
    return _family(s.target, (((s.right(x),), (x, z)) for x in s.apex for z in over[s.left(x)]))


@dataclass
class FamilyMatch:
    """Result of comparing two families over the same base.

    When every fiber cardinality agrees the families are isomorphic (these
    are plain sets, so cardinality is a complete invariant) and `witness` is
    a fiber-preserving bijection pairing elements in canonical order.
    Otherwise `mismatch` names the first base point where the counts differ.
    """

    witness: Optional[FinMap]
    mismatch: Optional[str] = None
    counts: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.mismatch is None


def families_isomorphic(f1: Family, f2: Family) -> FamilyMatch:
    if f1.base != f2.base:
        raise BoundaryError(f"family bases differ: {f1.base} vs {f2.base}")
    return _match_fibers((f1.total, f1.fibers()), (f2.total, f2.fibers()), f1.base.position, str)


def _match_fibers(side1: tuple, side2: tuple, order: Callable, name: Callable) -> FamilyMatch:
    """Compare two families, each given as its total in canonical order and
    its fibers keyed by base point. A base point missing from the fibers has
    an empty fiber, so only the nonempty ones need be given. A mismatch is
    the base point first in `order` whose counts differ, labelled by `name`."""
    (total1, fibers1), (total2, fibers2) = side1, side2
    differ = [
        b for b in fibers1.keys() | fibers2.keys()
        if len(fibers1.get(b, ())) != len(fibers2.get(b, ()))
    ]
    if differ:
        b = min(differ, key=order)
        counts = (len(fibers1.get(b, ())), len(fibers2.get(b, ())))
        return FamilyMatch(None, mismatch=name(b), counts=counts)
    table: dict[str, str] = {}
    for b, zs in fibers1.items():
        table.update(zip(zs, fibers2.get(b, ())))
    return FamilyMatch(FinMap(FinSet(total1), FinSet(total2), table))


# JSON shape checks for decoding project documents; `what` names the place.


def expect_obj(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object")
    return value


def expect_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string")
    return value


def str_table(value, what: str) -> dict[str, str]:
    table = expect_obj(value, what)
    return {k: expect_str(v, f"{what}[{k!r}]") for k, v in table.items()}
