"""The dense orbit enumeration and matrix-theorem check, kept as an oracle.

`opendyn.deterministic` finds orbits by a depth-first walk and compares the
matrix theorem's two sides fiber by fiber without building chart sets or
lens spans. The functions here are the direct definitions it replaced: test
every state/input combination, and compose `lens_to_span`,
`apply_span_to_family` and `families_isomorphic`. They cost (|S|·|I|)^k and
(|O|·|I'|)^k, so they serve only small differential tests.
"""

from __future__ import annotations

from itertools import product

from opendyn import (
    DetLens,
    DetSystem,
    Family,
    FamilyMatch,
    FinMap,
    FinSet,
    apply_span_to_family,
    chart_hom_set,
    compose_lens_system,
    families_isomorphic,
    lens_to_span,
    walking_cycle,
)
from opendyn.errors import BoundaryError, ValidationError
from opendyn.finset import join_labels


def dense_representable_span(rep: DetSystem, sys: DetSystem) -> Family:
    """Every (phi, isharp) combination tested against every constraint."""
    if not (
        rep.interface.outputs == rep.states and all(rep.readout(s) == s for s in rep.states)
    ):
        raise ValidationError("representing system must expose its entire state")
    base = chart_hom_set(rep.interface, sys.interface)
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
            phi[rep.update[s][i]] == sys.update[phi[s]][isharp[(s, i)]]
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


def dense_periodic_orbit_span(sys: DetSystem, k: int) -> Family:
    if k < 1:
        raise ValidationError(f"orbit period must be at least 1, got {k}")
    return dense_representable_span(walking_cycle(k), sys)


def dense_steady_rows(sys: DetSystem, k: int) -> list[tuple[str, str]]:
    """The rows `opendyn steady` writes: (chart, element) in total order."""
    family = dense_periodic_orbit_span(sys, k)
    return [(family.proj(e), e) for e in family.total]


def dense_check_matrix_theorem(lens: DetLens, sys: DetSystem, k: int) -> FamilyMatch:
    """Rewired orbits against the lens span applied to the original orbits."""
    if lens.source != sys.interface:
        raise BoundaryError(
            f"lens source {lens.source!r} does not match system interface {sys.interface!r}"
        )
    rewired_orbits = dense_periodic_orbit_span(compose_lens_system(lens, sys), k)
    pushed_orbits = apply_span_to_family(
        lens_to_span(lens, walking_cycle(k).interface), dense_periodic_orbit_span(sys, k)
    )
    return families_isomorphic(rewired_orbits, pushed_orbits)
