"""The pushed-rows path of the matrix theorem, kept as an oracle.

`opendyn.finset.apply_span_to_family` answers a pushed family's fiber counts
by applying the span's matrix to the source family's count vector, and a
lens span does that position by position through its one-step preimage
table; `families_isomorphic` compares the two sides' counts. The functions
here are the path they replaced: list every apex element over the family's
nonempty charts, with its apex key, sorted into the whole apex's product
order; pair it with each element over its left leg; and count the pushed
rows per chart. They cost an element per pushed row, so they serve the
differential tests.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, product
from typing import Mapping, Optional

from opendyn import DetLens, Family, Machine, Span, compose_lens_system, walking_cycle
from opendyn.deterministic import _LensSpan, lens_to_span, representable_span
from opendyn.finset import join_labels


def lens_apex(steps: Mapping, charts) -> list[tuple]:
    """The apex elements of a lens span over the given source charts, as
    (apex, left, right) slot tuples in the whole apex's product order."""
    elements, flat = [], chain.from_iterable
    for chart in charts:
        for combo in product(*[steps[pair] for pair in zip(chart[::2], chart[1::2])]):
            key, apex, right = zip(*combo)
            elements.append((key, tuple(flat(apex)), chart, tuple(flat(right))))
    elements.sort()
    return [(apex, chart, right) for _key, apex, chart, right in elements]


def pushed_rows(span: Span, fam: Family) -> list[tuple]:
    """The rows of the span applied to the family: each apex element over a
    nonempty fiber, by apex element, paired with each element of that fiber."""
    over: dict[tuple, list[tuple]] = {}
    for point, element in fam._rows_over(span.source):
        over.setdefault(point, []).append(element)
    apex = lens_apex(span.steps, over) if isinstance(span, _LensSpan) else list(span._over(over))
    return [(right, x + z) for x, left, right in apex for z in over[left]]


def row_counts(rows) -> Counter:
    """How many rows lie over each base key."""
    return Counter(point for point, _ in rows)


def rows_verdict(base, rows1, rows2) -> tuple[Optional[str], Optional[tuple[int, int]]]:
    """The first base point, in base order, over which the two row lists
    count differently, with both counts; (None, None) where none does."""
    counts1, counts2 = row_counts(rows1), row_counts(rows2)
    differ = [b for b in counts1.keys() | counts2.keys() if counts1[b] != counts2[b]]
    if not differ:
        return None, None
    b = min(differ, key=base.position_of)
    return join_labels(*b), (counts1[b], counts2[b])


def rows_check_matrix_theorem(lens: DetLens, sys: Machine, k: int, pushed_by: DetLens = None):
    """The theorem's verdict on pushed rows: the rewired machine's orbit rows
    against the rows of `pushed_by`'s span (the lens itself by default)
    applied to the machine's orbits, counted per chart."""
    cycle = walking_cycle(k)
    rewired = representable_span(cycle, compose_lens_system(lens, sys))
    span = lens_to_span(pushed_by or lens, cycle.interface)
    return rows_verdict(rewired.base, rewired._rows, pushed_rows(span, representable_span(cycle, sys)))
