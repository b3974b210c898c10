"""The value classes' equality against the hand-written forms it replaced.

`Machine`, `DetLens`, `DetChart`, `FinMap`, `Span`, `FamilyMatch`, `Dist`,
`OdeSystem` and `OdeLens` compare through `Record.__eq__`, as the other
records do. `value_eq_oracle` keeps the methods they had. Seeded values of
every class, equal and unequal ones, are read twice: with the library's
methods, and with the oracle's put in their place. Every pair's `==` and
`!=`, and every value's `repr` and hash, must read the same both times.
"""

from __future__ import annotations

import copy
import math
import random
from contextlib import contextmanager

import value_eq_oracle as oracle
from helpers import (
    compose_ode_lenses,
    fixture_path,
    identity_ode_lens,
    mutated,
    ode_chain,
    random_dist,
    random_span,
    random_stoch_system,
    wired,
)
from opendyn import (
    DetChart,
    DetInterface,
    DetLens,
    DetSystem,
    Dist,
    FamilyMatch,
    FinMap,
    FinSet,
    FunctorialityResult,
    ResidualResult,
    Span,
    check_matrix_theorem,
    compose_charts,
    compose_lens_ode,
    compose_lens_system,
    compose_lenses,
    embed_det,
    families_isomorphic,
    identity_chart,
    identity_lens,
    lens_to_span,
    load_project,
    periodic_orbit_span,
    random_interface,
    random_lens,
    random_map,
    random_square,
    random_system,
    walking_cycle,
)

_MISSING = object()


@contextmanager
def old_methods():
    """The oracle's `__eq__`, `__hash__` and `__repr__` in place of the
    library's, on each class `oracle.REPLACED` names, restored after."""
    saved = []
    try:
        for cls, old in oracle.REPLACED.items():
            for name in ("__eq__", "__hash__", "__repr__"):
                if name in vars(old):
                    saved.append((cls, name, vars(cls).get(name, _MISSING)))
                    setattr(cls, name, vars(old)[name])
        yield
    finally:
        for cls, name, value in reversed(saved):
            if value is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value)


def outcome(call):
    """What `call()` gives: its value, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def readings(values: list) -> tuple[list, list, list]:
    """Each pair's `==` and `!=`, and each value's `repr` and hash."""
    pairs = [(a == b, a != b) for a in values for b in values]
    return pairs, [repr(v) for v in values], [outcome(lambda: hash(v)) for v in values]


def machines(rng: random.Random) -> list:
    out = []
    for _ in range(6):
        iface = random_interface(rng, 3)
        sys = random_system(rng, iface, 3)
        out += [
            sys, DetSystem(sys.states, sys.interface, sys.readout, sys.update),
            compose_lens_system(identity_lens(iface), sys), random_system(rng, iface, 3),
            embed_det(sys), embed_det(sys),
        ]
    return out + [random_stoch_system(rng, 3) for _ in range(3)]


def lenses_and_charts(rng: random.Random) -> list:
    out = []
    for _ in range(6):
        ifaces = [random_interface(rng, 3) for _ in range(2)]
        lens = random_lens(rng, *ifaces)
        out += [
            lens, DetLens(lens.source, lens.target, lens.fwd, lens.bwd),
            compose_lenses(identity_lens(ifaces[0]), lens), mutated(rng, lens),
        ]
        square = random_square(rng)
        out += [
            square.left, square.right, square.top, square.bottom,
            compose_charts(identity_chart(square.top.source), square.top),
        ]
    # a lens and a chart with the same fields: two classes, never equal
    iface = DetInterface(FinSet(["a", "b"]), FinSet(["x", "y"]))
    table = {"x": {"a": "b", "b": "a"}, "y": {"a": "a", "b": "b"}}
    fwd = FinMap.identity(iface.outputs)
    return out + [DetLens(iface, iface, fwd, table), DetChart(iface, iface, fwd, table)]


def maps_and_spans(rng: random.Random) -> list:
    out = []
    for _ in range(4):
        dom, cod = FinSet(["a", "b", "c"][: rng.randint(1, 3)]), FinSet(["x", "y"])
        fmap = random_map(rng, dom, cod)
        out += [fmap, FinMap(dom, cod, dict(reversed(fmap.table.items()))), FinMap.identity(dom)]
        span = random_span(rng, dom, cod)
        out += [span, Span(span.source, span.target, span.apex, span.left, span.right)]
    for _ in range(4):
        lens = random_lens(rng, random_interface(rng, 2), random_interface(rng, 2))
        for k in (1, 2):
            span = lens_to_span(lens, walking_cycle(k).interface)
            out += [span, Span(span.source, span.target, span.apex, span.left, span.right),
                    span.left, FinMap(span.apex, span.source, span.left.table),
                    lens_to_span(mutated(rng, lens), walking_cycle(k).interface)]
    return out


def matches(rng: random.Random) -> list:
    out = [FamilyMatch(None, "x", (1, 2)), FamilyMatch(None, "x", (1, 2)),
           FamilyMatch(None, "y", (1, 2)), FamilyMatch(None, "x", (2, 1))]
    for _ in range(4):
        ifaces = [random_interface(rng, 2) for _ in range(2)]
        lens, sys = random_lens(rng, *ifaces), random_system(rng, ifaces[0], 3)
        out += [check_matrix_theorem(lens, sys, k) for k in (1, 2, 2)]
        other = random_system(rng, ifaces[0], 3)
        out.append(families_isomorphic(periodic_orbit_span(sys, 2), periodic_orbit_span(other, 2)))
    return out


def dists(rng: random.Random) -> list:
    out = []
    for n in (1, 2, 3):
        support = FinSet(f"s{j}" for j in range(n))
        dist = random_dist(rng, support)
        out += [dist, Dist(support, dict(reversed(dist.weights.items()))),
                Dist.dirac(support, "s0"), random_dist(rng, support)]
    return out


def ode_values(rng: random.Random) -> list:
    lv = load_project(fixture_path("lv.json"))
    compiled = wired(1)
    compiled.compiled()
    base, chain = ode_chain(rng, 2)
    ident = identity_ode_lens(chain[0].source_outputs, chain[0].source_params)
    return [
        *lv.systems.values(), *lv.lenses.values(), wired(1), wired(1), compiled, wired(2),
        base, compose_lens_ode(chain[0], base), compose_lens_ode(ident, base), *chain, ident,
        compose_ode_lenses(ident, chain[0]), compose_ode_lenses(chain[0], chain[1]),
    ]


def nan_records() -> list:
    residual = ResidualResult(False, math.nan, 2, 0.5, "y")
    gap = FunctorialityResult(False, math.nan, 0.0)
    return [residual, residual, copy.copy(residual), ResidualResult(False, float("nan"), 2, 0.5, "y"),
            gap, copy.copy(gap), FunctorialityResult(False, float("nan"), 0.0)]


def values() -> list:
    rng = random.Random(44)
    return [
        *machines(rng), *lenses_and_charts(rng), *maps_and_spans(rng), *matches(rng),
        *dists(rng), *ode_values(rng), *nan_records(), None, 0, "x",
    ]


def test_equality_repr_and_hash_read_as_the_hand_written_methods():
    vals = values()
    new = readings(vals)
    with old_methods():
        old = readings(vals)
    assert new[1] == old[1]
    assert new[2] == old[2]
    assert new[0] == old[0]


def test_the_values_hold_equal_and_unequal_pairs_of_each_class():
    vals = values()
    for cls in (DetSystem, DetLens, DetChart, FinMap, Span, FamilyMatch, Dist):
        of = [v for v in vals if type(v) is cls]
        equal = sum(a == b for a in of for b in of if a is not b)
        assert 0 < equal < len(of) * (len(of) - 1), cls
    ode = [v for v in vals if type(v).__name__ in ("OdeSystem", "OdeLens")]
    assert sum(a == b for a in ode for b in ode if a is not b) > 0


def test_records_holding_nan_equal_themselves_and_not_another_nan():
    residual = ResidualResult(False, math.nan, 2, 0.5, "y")
    assert residual == residual and not residual != residual
    assert residual == copy.copy(residual)
    assert residual != ResidualResult(False, float("nan"), 2, 0.5, "y")
    gap = FunctorialityResult(False, math.nan, 0.0)
    assert gap == gap and gap == copy.deepcopy(gap) is not gap


def test_the_library_methods_come_back():
    def methods() -> dict:
        return {(cls, name): vars(cls).get(name, _MISSING)
                for cls in oracle.REPLACED for name in ("__eq__", "__hash__", "__repr__")}

    before = methods()
    with old_methods():
        assert DetLens.__eq__ is oracle._Rewiring.__eq__
    assert methods() == before
