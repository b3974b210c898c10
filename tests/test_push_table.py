"""`Span._push` against the push it replaced.

Each span factor holds, next to its apex elements over each source key, a
table from each source key to the right keys alone, and `Span._push` reads
that table. The push it replaced read the right key off each (position,
apex, right) element and returned a `Counter`; it is kept here as the
oracle, and the two are compared count for count, a missing key read as 0.
"""

import random
from collections import Counter

from opendyn import (
    FinSet,
    lens_to_span,
    random_lens,
    tensor_spans,
    walking_cycle,
)
from opendyn.finset import _alphabets
from opendyn.laws import random_interface

from helpers import compose_spans, random_finset, random_span


def triple_push(span, counts) -> Counter:
    """The span's matrix applied to `counts`, factor by factor, through the
    apex elements over each source key."""
    for width, _, over, *_ in span._factors:
        pushed: dict = {}
        for key, n in counts.items():
            rest = key[width:]
            for _, _, right in over.get(key[:width], ()):
                key2 = rest + right
                pushed[key2] = pushed.get(key2, 0) + n
        counts = pushed
    return Counter(counts)


def random_counts(rng: random.Random, span, size: int) -> dict:
    """Counts on up to `size` source keys drawn slot by slot, so some lie
    under no apex element, and on one key of each factor's table."""
    alphabets = [alphabet.elements for alphabet in _alphabets(span.source)]
    keys = {tuple(map(rng.choice, alphabets)) for _ in range(size)}
    keys.add(tuple(part for _, _, over, _ in span._factors for part in next(iter(over), ())))
    return {key: rng.randint(1, 5) for key in keys if len(key) == len(alphabets)}


def assert_pushes_alike(span, counts, where) -> bool:
    """The two pushes agree on every key either holds; true where some key
    of `counts` lies under no apex element of the first factor."""
    got, want = span._push(counts), triple_push(span, counts)
    assert all(got.get(key, 0) == want[key] for key in {*got, *want}), where
    assert 0 not in got.values(), where
    width, _, over, _ = span._factors[0]
    return any(key[:width] not in over for key in counts)


def test_lens_spans_and_their_tensor_powers():
    rng, unhit, repeated = random.Random(42), 0, 0
    for case in range(120):
        iface = random_interface(rng, 3)
        lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
        for k in range(1, 5):
            span = lens_to_span(lens, walking_cycle(k).interface)
            assert len({id(rights) for *_, rights in span._factors}) == 1, case  # one table
            unhit += assert_pushes_alike(span, random_counts(rng, span, 30), (case, k))
        repeated += any(len(rights) > 1 for rights in span._factors[0][3].values())
    assert unhit > 100 and repeated > 50, (unhit, repeated)


def test_tensor_of_two_different_lenses():
    rng = random.Random(43)
    for case in range(120):
        spans = []
        for tag in "ab":
            iface = random_interface(rng, 3, tag=tag)
            lens = random_lens(rng, iface, random_interface(rng, 3, tag=tag + "t"))
            spans.append(lens_to_span(lens, walking_cycle(1 + case % 2).interface))
        span = tensor_spans(*spans)
        assert_pushes_alike(span, random_counts(rng, span, 40), case)


def test_spans_with_many_apex_elements_over_one_pair():
    """Spans given by their legs, their composites and tensors, where several
    apex elements lie over one (row, column) pair."""
    rng, repeated = random.Random(44), 0
    for case in range(200):
        a, b, c = (random_finset(rng, tag, 3) for tag in "abc")
        s1, s2 = random_span(rng, a, b, max_apex=8), random_span(rng, b, c, max_apex=8)
        for span in (s1, compose_spans(s1, s2), tensor_spans(s1, s2)):
            assert_pushes_alike(span, random_counts(rng, span, 8), case)
            rights = [keys for *_, table in span._factors for keys in table.values()]
            repeated += any(len(keys) > len(set(keys)) for keys in rights)
    assert repeated > 100, repeated


def test_counts_no_apex_element_lies_over():
    one, two = FinSet(["p"]), FinSet(["q", "r"])
    span = random_span(random.Random(45), one, two, max_apex=0)  # an empty apex
    assert span._push({("p",): 3}) == {} and triple_push(span, {("p",): 3}) == Counter()
    tensor = tensor_spans(span, span)
    assert tensor._push({("p", "p"): 2}) == {}
