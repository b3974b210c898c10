"""The dense orbit enumeration, lens span and matrix-theorem check, kept as an oracle.

`opendyn.deterministic` finds orbits by a column walk, builds a lens's
span as the tensor power of its one-step span, and compares the
matrix theorem's two sides fiber by fiber on the charts that carry orbits;
steady states are the orbits of period 1, and a Markov machine's orbits are
read from its cells through `DistEffect.point`. The functions here are the
direct definitions it replaced: test every state/input combination, enumerate
every chart and every apex element in product order (of a lens span, or of
a tensor of listed spans), count a span's matrix over its apex, pull a
family back and push it forward element by element, and compare every fiber
of the base, reading each family's fibers off its total set and projection
table. A cell of either effect is tested against a state by `_reaches`,
which does not use the effects' code. They cost (|S|·|I|)^k and (|O|·|I'|)^k, so they serve
only small differential tests.
"""

from __future__ import annotations

from itertools import product

from opendyn import (
    DetInterface,
    DetLens,
    DetSystem,
    Dist,
    Family,
    FamilyMatch,
    FinMap,
    FinSet,
    Machine,
    Span,
    compose_lens_system,
    product_finset,
    walking_cycle,
)
from opendyn.errors import BoundaryError, ValidationError
from opendyn.finset import join_labels


def _reaches(cell, state: str) -> bool:
    """Does the update cell reach `state` for sure: is it the state itself,
    or a distribution with all its weight on it?"""
    if isinstance(cell, Dist):
        return cell.weights == {state: 1}
    return cell == state


def dense_steady_span(sys: Machine) -> Family:
    """Every (state, input) pair whose update stays at the state for sure,
    over its (output, input) pair, by enumeration of S x I."""
    base = product_finset(sys.interface.outputs, sys.interface.inputs)
    labels: list[str] = []
    proj: dict[str, str] = {}
    for s in sys.states:
        for i in sys.interface.inputs:
            if _reaches(sys.update[s][i], s):
                label = join_labels(s, i)
                labels.append(label)
                proj[label] = join_labels(sys.readout(s), i)
    total = FinSet(labels)
    return Family(base, total, FinMap(total, base, proj))


def dense_chart_hom_set(rep: DetInterface, iface: DetInterface) -> FinSet:
    """All charts rep -> iface as labels, in the product order over their slots."""
    domains: list[tuple[str, ...]] = []
    for _o in rep.outputs:
        domains.append(iface.outputs.elements)
        for _i in rep.inputs:
            domains.append(iface.inputs.elements)
    return FinSet(join_labels(*combo) for combo in product(*domains))


def dense_lens_to_span(lens: DetLens, rep_interface: DetInterface) -> Span:
    """Every apex element (o_j, i'_j)_j in product order, with both legs."""
    if len(rep_interface.inputs) != 1:
        raise ValidationError(
            "representing interface must have a single input (a walking cycle)"
        )
    source = dense_chart_hom_set(rep_interface, lens.source)
    target = dense_chart_hom_set(rep_interface, lens.target)
    domains: list[tuple[str, ...]] = []
    for _o in rep_interface.outputs:
        domains.append(lens.source.outputs.elements)
        domains.append(lens.target.inputs.elements)
    labels: list[str] = []
    left: dict[str, str] = {}
    right: dict[str, str] = {}
    for combo in product(*domains):
        label = join_labels(*combo)
        left_parts: list[str] = []
        right_parts: list[str] = []
        for pos in range(len(rep_interface.outputs)):
            o, i2 = combo[2 * pos], combo[2 * pos + 1]
            left_parts.extend((o, lens.bwd[o][i2]))
            right_parts.extend((lens.fwd(o), i2))
        labels.append(label)
        left[label] = join_labels(*left_parts)
        right[label] = join_labels(*right_parts)
    apex = FinSet(labels)
    return Span(source, target, apex, FinMap(apex, source, left), FinMap(apex, target, right))


def dense_span_matrix(s: Span) -> list[list[int]]:
    """Fiber cardinalities, counted over the apex element by element from
    the labels of its legs."""
    matrix = [[0] * len(s.target) for _ in s.source]
    for x in s.apex:
        matrix[s.source.position(s.left(x))][s.target.position(s.right(x))] += 1
    return matrix


def dense_tensor_spans(*spans: Span) -> Span:
    """Every tuple of apex elements in product order, each leg the tuple of
    the factors' legs, all by labels."""
    source, target, apex = (
        FinSet(join_labels(*combo) for combo in product(*sides))
        for sides in zip(*[(s.source, s.target, s.apex) for s in spans])
    )
    left: dict[str, str] = {}
    right: dict[str, str] = {}
    for combo in product(*[s.apex for s in spans]):
        label = join_labels(*combo)
        left[label] = join_labels(*[s.left(x) for s, x in zip(spans, combo)])
        right[label] = join_labels(*[s.right(x) for s, x in zip(spans, combo)])
    return Span(source, target, apex, FinMap(apex, source, left), FinMap(apex, target, right))


def dense_fibers(fam: Family) -> dict[str, list[str]]:
    """Every base point's fiber, read off the family's total set and
    projection table element by element, not through its `fibers()`."""
    over: dict[str, list[str]] = {b: [] for b in fam.base}
    for z in fam.total:
        over[fam.proj(z)].append(z)
    return over


def dense_apply_span_to_family(s: Span, fam: Family) -> Family:
    """Every apex element paired with every element over its left leg."""
    if fam.base != s.source:
        raise BoundaryError(f"family base {fam.base} differs from span source {s.source}")
    over = dense_fibers(fam)
    labels: list[str] = []
    proj: dict[str, str] = {}
    for x in s.apex:
        for z in over[s.left(x)]:
            xz = join_labels(x, z)
            labels.append(xz)
            proj[xz] = s.right(x)
    total = FinSet(labels)
    return Family(s.target, total, FinMap(total, s.target, proj))


def dense_families_isomorphic(f1: Family, f2: Family) -> FamilyMatch:
    """Every fiber of the base compared in canonical order."""
    if f1.base != f2.base:
        raise BoundaryError(f"family bases differ: {f1.base} vs {f2.base}")
    fibers1, fibers2 = dense_fibers(f1), dense_fibers(f2)
    table: dict[str, str] = {}
    for b in f1.base:
        if len(fibers1[b]) != len(fibers2[b]):
            return FamilyMatch(None, mismatch=b, counts=(len(fibers1[b]), len(fibers2[b])))
        table.update(zip(fibers1[b], fibers2[b]))
    return FamilyMatch(FinMap(f1.total, f2.total, table))


def dense_representable_span(rep: DetSystem, sys: Machine) -> Family:
    """Every (phi, isharp) combination tested against every constraint."""
    if not (
        rep.interface.outputs == rep.states and all(rep.readout(s) == s for s in rep.states)
    ):
        raise ValidationError("representing system must expose its entire state")
    base = dense_chart_hom_set(rep.interface, sys.interface)
    rep_states = rep.states.elements
    rep_inputs = rep.interface.inputs.elements
    domains: list[tuple[str, ...]] = []
    for _s in rep_states:
        domains.append(sys.states.elements)
        for _i in rep_inputs:
            domains.append(sys.interface.inputs.elements)
    width = 1 + len(rep_inputs)
    labels: list[str] = []
    proj: dict[str, str] = {}
    for combo in product(*domains):
        phi = {s: combo[pos * width] for pos, s in enumerate(rep_states)}
        isharp = {
            (s, i): combo[pos * width + 1 + ipos]
            for pos, s in enumerate(rep_states)
            for ipos, i in enumerate(rep_inputs)
        }
        if all(
            _reaches(sys.update[phi[s]][isharp[(s, i)]], phi[rep.update[s][i]])
            for s in rep_states
            for i in rep_inputs
        ):
            label = join_labels(*combo)
            base_parts: list[str] = []
            for pos, s in enumerate(rep_states):
                base_parts.append(sys.readout(phi[s]))
                base_parts.extend(combo[pos * width + 1 : (pos + 1) * width])
            labels.append(label)
            proj[label] = join_labels(*base_parts)
    total = FinSet(labels)
    return Family(base, total, FinMap(total, base, proj))


def dense_periodic_orbit_span(sys: Machine, k: int) -> Family:
    if k < 1:
        raise ValidationError(f"orbit period must be at least 1, got {k}")
    return dense_representable_span(walking_cycle(k), sys)


def dense_steady_rows(sys: Machine, k: int) -> list[tuple[str, str]]:
    """The rows `opendyn steady` writes: (chart, element) in total order."""
    family = dense_periodic_orbit_span(sys, k)
    return [(family.proj(e), e) for e in family.total]


def dense_check_matrix_theorem(lens: DetLens, sys: Machine, k: int) -> FamilyMatch:
    """Rewired orbits against the lens span applied to the original orbits."""
    if lens.source != sys.interface:
        raise BoundaryError(
            f"lens source {lens.source!r} does not match system interface {sys.interface!r}"
        )
    rewired_orbits = dense_periodic_orbit_span(compose_lens_system(lens, sys), k)
    pushed_orbits = dense_apply_span_to_family(
        dense_lens_to_span(lens, walking_cycle(k).interface), dense_periodic_orbit_span(sys, k)
    )
    return dense_families_isomorphic(rewired_orbits, pushed_orbits)
