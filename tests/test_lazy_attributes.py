"""The attributes `Family` and `Span` form when first read (`finset._lazy`).

Each is computed once per instance and stored in the instance's `__dict__`,
where an assignment also goes and wins; read off the class it is the
descriptor itself. Deciding the matrix theorem through them gives what
`functools.cached_property` gave.
"""

import random
from functools import cached_property, wraps

import pytest

from opendyn import (
    FinSet,
    Span,
    apply_span_to_family,
    check_matrix_theorem,
    families_isomorphic,
    random_lens,
)
from opendyn.finset import Family, _lazy
from opendyn.laws import random_interface

from helpers import compose_spans, each_machine, random_family, random_span

LAZY = [(Family, "_rows"), (Family, "_counts"), (Family, "total"), (Family, "proj"),
        (Span, "_both_legs")]


@pytest.fixture
def computed(monkeypatch) -> dict:
    """How often each lazy attribute's method ran, by name."""
    calls = dict.fromkeys((name for _, name in LAZY), 0)
    for owner, name in LAZY:
        func = owner.__dict__[name].func

        @wraps(func)
        def counted(self, func=func, name=name):
            calls[name] += 1
            return func(self)

        monkeypatch.setattr(owner.__dict__[name], "func", counted)
    return calls


def pushed_family(rng: random.Random) -> tuple[Span, Family]:
    """A composite span, whose legs are labelled when first read, and a
    family pushed by it."""
    source, middle, target = FinSet(["a0", "a1", "a2"]), FinSet(["m0", "m1"]), FinSet(["b0", "b1"])
    span = compose_spans(random_span(rng, source, middle), random_span(rng, middle, target))
    return span, apply_span_to_family(span, random_family(rng, source))


def test_each_attribute_is_computed_once_per_instance(computed):
    rng = random.Random(50)
    for case in range(20):
        span, fam = pushed_family(rng)
        for obj, name in [(fam, "_rows"), (fam, "_counts"), (fam, "total"), (fam, "proj"),
                          (span, "_both_legs")]:
            before = computed[name]
            first = getattr(obj, name)
            assert getattr(obj, name) is first and obj.__dict__[name] is first, (case, name)
            assert computed[name] == before + 1, (case, name)
        before = computed["_counts"]
        fresh = apply_span_to_family(span, random_family(rng, span.source))
        assert fresh._counts is fresh._counts
        assert computed["_counts"] == before + 2, case  # its own, and its source family's once


def test_an_assignment_wins(computed):
    rng = random.Random(51)
    fam = random_family(rng, FinSet(["p", "q"]))
    assert fam._rows == [(fam.base.key(fam.proj(z)), (z,)) for z in fam.total]
    assert computed["_rows"] == 0  # `Family.__init__` assigned them
    given = random_span(rng, fam.base, fam.base)
    assert given.left.dom == given.apex and computed["_both_legs"] == 0  # as did `Span.__init__`
    span, pushed = pushed_family(rng)
    pushed._counts = counts = {("b0",): 7}
    assert pushed._counts is counts and computed["_counts"] == 0
    span.left  # computes both legs, then a new pair replaces them
    span._both_legs = legs = (span.right, span.left)
    assert span.left is legs[0] and computed["_both_legs"] == 1


def test_read_off_the_class_is_the_descriptor():
    for owner, name in LAZY:
        lazy = owner.__dict__[name]
        assert isinstance(lazy, _lazy) and getattr(owner, name) is lazy, name
        assert lazy.__doc__ == lazy.func.__doc__, name
    assert Family.__dict__["_counts"].__doc__.startswith("Each nonempty fiber's size")


def test_the_theorem_decides_as_cached_property_did(monkeypatch):
    """Seeded pairs of both effects at k = 1..4: the verdicts, the counts
    and the witnesses through `_lazy` equal those through `cached_property`."""
    def decide(seed: int) -> list:
        rng, results = random.Random(seed), []
        for case in range(60):
            iface = random_interface(rng, 3)
            machine = each_machine(rng, iface, case)
            lens = random_lens(rng, iface, random_interface(rng, 3, tag="t"))
            for k in range(1, 5):
                match = check_matrix_theorem(lens, machine, k)
                results.append((bool(match), match.mismatch, match.counts, match.witness))
        return results

    def fibers(seed: int) -> list:
        rng = random.Random(seed)
        return [families_isomorphic(*(pushed_family(rng)[1] for _ in range(2)))
                for _ in range(60)]

    lazy = decide(40), fibers(41)
    for owner, name in LAZY:
        cached = cached_property(owner.__dict__[name].func)
        cached.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, cached)
    assert (decide(40), fibers(41)) == lazy
    assert sum(verdict for verdict, *_ in lazy[0]) > 100
