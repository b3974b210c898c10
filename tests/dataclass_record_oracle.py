"""The seven `@dataclass` record classes, kept as an oracle.

`opendyn` builds `DetInterface`, `SquareResult`, `Trajectory`,
`ResidualResult`, `FunctorialityResult`, `ProjectFile` and `SuiteResult` as
plain `__slots__` classes over `opendyn.record`. The classes here are the
dataclasses they replaced, field for field, with the `__repr__`,
`__post_init__` and `__bool__` they had. The differential tests build each
record both ways and require the same construction, `==`, `hash`, `repr`,
`bool`, frozen refusal, copies and validation texts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from opendyn.errors import ValidationError
from opendyn.finset import FinSet


@dataclass(frozen=True)
class DetInterface:
    """An interface: the input and output alphabets a machine exposes."""

    inputs: FinSet
    outputs: FinSet

    def __repr__(self) -> str:
        return f"DetInterface(inputs={self.inputs}, outputs={self.outputs})"


@dataclass
class SquareResult:
    """Outcome of a square check; `witness` is a failing (output, input) pair."""

    holds: bool
    witness: Optional[tuple[str, Optional[str]]] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class Trajectory:
    """A sampled solution: times with state rows and output rows."""

    times: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    outputs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.times)
        if len(self.values) != n or len(self.outputs) != n:
            raise ValidationError("trajectory rows must match the time grid")
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValidationError("trajectory times must be strictly increasing")
        if n:
            vw = len(self.values[0])
            ow = len(self.outputs[0])
            if any(len(row) != vw for row in self.values) or any(
                len(row) != ow for row in self.outputs
            ):
                raise ValidationError("trajectory rows must have uniform widths")


@dataclass(frozen=True)
class ResidualResult:
    """Largest central-difference defect of a trajectory against a field."""

    passed: bool
    max_residual: float
    index: int
    time: float
    component: str

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class FunctorialityResult:
    """Sup-norm gap between substitute-then-solve and solve-with-live-wiring."""

    passed: bool
    max_deviation: float
    time: float

    def __bool__(self) -> bool:
        return self.passed


@dataclass
class ProjectFile:
    """A validated project: named entries, insertion-ordered."""

    systems: dict = field(default_factory=dict)
    lenses: dict = field(default_factory=dict)
    charts: dict = field(default_factory=dict)


@dataclass
class SuiteResult:
    """One law suite's verdict."""

    name: str
    passed: bool
    cases: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed
