"""The matrix theorem checked one period at a time, kept as an oracle.

`opendyn.deterministic._matrix_theorem(lens, sys)` rewires the machine and
forms the lens's one-step span once for every period it is asked for, and
takes each period's walking cycle and its half of the walk plan from a memo.
The function here is the per-period body it replaced: every call composes
the lens with the machine, builds a new walking cycle, plans both walks from
it and spans the lens from nothing. It leaves out the period bounds, which
the tests of `MAX_WALK`, `MAX_SLOTS` and `MAX_PERIOD` pin on the library.
"""

from __future__ import annotations

from typing import Optional

from opendyn import (
    DetLens,
    FamilyMatch,
    Machine,
    apply_span_to_family,
    compose_lens_system,
    families_isomorphic,
    walking_cycle,
)
from opendyn.deterministic import lens_to_span, representable_span


def period_check_matrix_theorem(
    lens: DetLens, sys: Machine, k: int,
    rewired_by: Optional[DetLens] = None, pushed_by: Optional[DetLens] = None,
) -> FamilyMatch:
    """`check_matrix_theorem(lens, sys, k)` as one period's call formed it:
    the orbits of the machine rewired by `rewired_by` against those of the
    machine pushed by `pushed_by`'s span, both the lens itself by default."""
    cycle = walking_cycle(k)
    rewired = compose_lens_system(rewired_by or lens, sys)
    span = lens_to_span(pushed_by or lens, cycle.interface)
    return families_isomorphic(
        representable_span(cycle, rewired),
        apply_span_to_family(span, representable_span(cycle, sys)),
    )
