"""The lens, chart and square combinators as they read one cell at a time,
kept as an oracle.

`opendyn.deterministic` builds `identity_lens`, `identity_chart`,
`compose_lenses`, `compose_charts` and `compose_lens_system`, and decides
`check_square`, by reading `FinMap.table`, `FinSet.elements` and the row
dicts directly, which the trusted constructors hold in canonical order. The
bodies here are the ones they replaced: a `FinMap` call per cell and an
iteration over the `FinSet` for every row and column. Given equal inputs,
both must build equal objects with their tables in the same order, and
return the same verdict, witness and reason.
"""

from __future__ import annotations

from opendyn.deterministic import (
    DetChart, DetInterface, DetLens, DetSquare, Machine, SquareResult, _machine, _rewiring
)
from opendyn.errors import BoundaryError
from opendyn.finset import FinMap


def identity_lens(iface: DetInterface) -> DetLens:
    bwd = {o: {i: i for i in iface.inputs} for o in iface.outputs}
    return _rewiring(DetLens, iface, iface, FinMap.identity(iface.outputs), bwd)


def identity_chart(iface: DetInterface) -> DetChart:
    push = {o: {i: i for i in iface.inputs} for o in iface.outputs}
    return _rewiring(DetChart, iface, iface, FinMap.identity(iface.outputs), push)


def compose_lenses(l1: DetLens, l2: DetLens) -> DetLens:
    if l1.target != l2.source:
        raise BoundaryError(
            f"cannot compose lenses: first target {l1.target!r} differs from second source {l2.source!r}"
        )
    bwd = {
        o: {i2: l1.bwd[o][l2.bwd[l1.fwd(o)][i2]] for i2 in l2.target.inputs}
        for o in l1.source.outputs
    }
    return _rewiring(DetLens, l1.source, l2.target, l1.fwd.then(l2.fwd), bwd)


def compose_charts(c1: DetChart, c2: DetChart) -> DetChart:
    if c1.target != c2.source:
        raise BoundaryError(
            f"cannot compose charts: first target {c1.target!r} differs from second source {c2.source!r}"
        )
    push = {
        o: {i: c2.push[c1.fwd(o)][c1.push[o][i]] for i in c1.source.inputs}
        for o in c1.source.outputs
    }
    return _rewiring(DetChart, c1.source, c2.target, c1.fwd.then(c2.fwd), push)


def compose_lens_system(lens: DetLens, sys: Machine) -> Machine:
    if lens.source != sys.interface:
        raise BoundaryError(
            f"lens source {lens.source!r} does not match system interface {sys.interface!r}"
        )
    update = {
        s: {i2: sys.update[s][lens.bwd[sys.readout(s)][i2]] for i2 in lens.target.inputs}
        for s in sys.states
    }
    return _machine(type(sys), sys.states, lens.target, sys.readout.then(lens.fwd), update)


def check_square(sq: DetSquare) -> SquareResult:
    for o in sq.top.source.outputs:
        if sq.right.fwd(sq.top.fwd(o)) != sq.bottom.fwd(sq.left.fwd(o)):
            return SquareResult(
                False,
                witness=(o, None),
                reason=(
                    f"outputs disagree at {o!r}: "
                    f"{sq.right.fwd(sq.top.fwd(o))!r} != {sq.bottom.fwd(sq.left.fwd(o))!r}"
                ),
            )
    for o in sq.top.source.outputs:
        for a3 in sq.bottom.source.inputs:
            via_top = sq.top.push[o][sq.left.bwd[o][a3]]
            via_bottom = sq.right.bwd[sq.top.fwd(o)][sq.bottom.push[sq.left.fwd(o)][a3]]
            if via_top != via_bottom:
                return SquareResult(
                    False,
                    witness=(o, a3),
                    reason=f"inputs disagree at ({o!r}, {a3!r}): {via_top!r} != {via_bottom!r}",
                )
    return SquareResult(True)
