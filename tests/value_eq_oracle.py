"""The hand-written equalities the value classes had, kept as an oracle.

`Machine`, `DetLens` and `DetChart` (through `_Rewiring`), `FinMap`,
`Span`, `FamilyMatch`, `Dist`, `OdeSystem` and `OdeLens` compare through
`opendyn.record.Record.__eq__`, a loop over their `_fields`. The classes
here hold the methods they replaced, as each was written: the eight
`__eq__`s, `FinMap`'s `__hash__`, which it keeps, and `FamilyMatch`'s
`__repr__`. `Record` holds the tuple comparison that `Record.__eq__` was
before it became a loop, which the other records compared by. A class
that defines `__eq__` and no `__hash__` is unhashable, as each of these
was. `REPLACED` maps each library class to the class here whose methods it
had; the differential tests put them in place and read every comparison
both ways.
"""

from __future__ import annotations

from opendyn import deterministic, finset, ode, record, stochastic


class Record:
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]


class Machine:
    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.states == other.states
            and self.interface == other.interface
            and self.readout == other.readout
            and self.update == other.update
        )


class _Rewiring:
    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.source == other.source
            and self.target == other.target
            and self.fwd == other.fwd
            and getattr(self, self.table) == getattr(other, self.table)
        )


class FinMap:
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, finset.FinMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, tuple(self.table.items())))


class Span:
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, finset.Span)
            and self.source == other.source
            and self.target == other.target
            and self.apex == other.apex
            and self.left == other.left
            and self.right == other.right
        )


class FamilyMatch:
    def __eq__(self, other: object) -> bool:
        return isinstance(other, finset.FamilyMatch) and (
            self.witness, self.mismatch, self.counts
        ) == (other.witness, other.mismatch, other.counts)

    def __repr__(self) -> str:
        return (
            f"FamilyMatch(witness={self.witness!r}, mismatch={self.mismatch!r}, "
            f"counts={self.counts!r})"
        )


class Dist:
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, stochastic.Dist)
            and self.support == other.support
            and self.weights == other.weights
        )


class OdeSystem:
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ode.OdeSystem)
            and self.state_vars == other.state_vars
            and self.output_vars == other.output_vars
            and self.param_vars == other.param_vars
            and self.readout == other.readout
            and self.field == other.field
        )


class OdeLens:
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ode.OdeLens)
            and self.source_outputs == other.source_outputs
            and self.source_params == other.source_params
            and self.target_outputs == other.target_outputs
            and self.target_params == other.target_params
            and self.fwd == other.fwd
            and self.bwd == other.bwd
        )


REPLACED = {
    record.Record: Record,
    deterministic.Machine: Machine,
    deterministic._Rewiring: _Rewiring,
    finset.FinMap: FinMap,
    finset.Span: Span,
    finset.FamilyMatch: FamilyMatch,
    stochastic.Dist: Dist,
    ode.OdeSystem: OdeSystem,
    ode.OdeLens: OdeLens,
}
