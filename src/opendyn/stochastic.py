"""Finite Markov machines with exact rational transition weights.

A `StochSystem` is the shared finite `Machine` with the distribution effect:
readouts are still functions, but the update lands in probability
distributions. Rewiring, tensor and steady states are the shared machine
functions, bound here under their stochastic names. Weights are
`fractions.Fraction` throughout, so normalization and the embedding laws are
exact equalities rather than tolerance checks. The deterministic doctrine
embeds by sending each transition to the point distribution on its result.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .deterministic import DetSystem, Machine, compose_lens_system, steady_span, tensor_systems
from .errors import ValidationError
from .finset import FinSet, join_labels, str_table

WeightLike = Union[Fraction, int, str]


def _as_fraction(value: WeightLike, where: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{where}: bad rational {value!r} ({exc})") from None
    raise ValidationError(
        f"{where}: weights must be exact rationals (int, Fraction, or 'p/q' string), got {type(value).__name__}"
    )


class Dist:
    """A probability distribution on a finite set, with exact weights.

    Zero-weight labels may be omitted; they are dropped on construction, so
    two distributions are equal iff they have the same support set and the
    same nonzero weights.
    """

    __slots__ = ("support", "weights")

    def __init__(self, support: FinSet, weights: Mapping[str, WeightLike]):
        for label in weights:
            if label not in support:
                raise ValidationError(f"distribution weight on unknown label {label!r}")
        cleaned: dict[str, Fraction] = {}
        total = Fraction(0)
        for label in support:
            if label not in weights:
                continue
            w = _as_fraction(weights[label], f"weight of {label!r}")
            if w < 0:
                raise ValidationError(f"negative weight {w} on {label!r}")
            total += w
            if w != 0:
                cleaned[label] = w
        if total != 1:
            raise ValidationError(f"weights must sum to 1 exactly, got {total}")
        self.support = support
        self.weights = cleaned

    @classmethod
    def dirac(cls, support: FinSet, label: str) -> "Dist":
        return cls(support, {label: Fraction(1)})

    def __call__(self, label: str) -> Fraction:
        if label not in self.support:
            raise ValidationError(f"unknown label {label!r}")
        return self.weights.get(label, Fraction(0))

    def is_dirac_at(self, label: str) -> bool:
        return self.weights == {label: Fraction(1)}

    def to_obj(self) -> dict[str, str]:
        return {label: str(w) for label, w in self.weights.items()}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Dist)
            and self.support == other.support
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}: {w}" for label, w in self.weights.items())
        return f"Dist({{{inner}}})"


class DistEffect:
    """The distribution effect: a Markov update cell is a Dist on the states.

    Cells of two machines run side by side multiply as independent
    distributions; a cell stays at s for sure when it is the point
    distribution on s. See `deterministic.Identity` for the protocol.
    """

    @staticmethod
    def cell_problem(cell, states: FinSet) -> Optional[str]:
        if isinstance(cell, Dist) and cell.support == states:
            return None
        return f"must be a distribution on {states}"

    @staticmethod
    def product(da: Dist, db: Dist, states: FinSet) -> Dist:
        return Dist(
            states,
            {
                join_labels(ta, tb): wa * wb
                for ta, wa in da.weights.items()
                for tb, wb in db.weights.items()
            },
        )

    is_unit_at = staticmethod(Dist.is_dirac_at)
    cell_to_obj = staticmethod(Dist.to_obj)

    @staticmethod
    def cell_from_obj(value, states: FinSet, what: str) -> Dist:
        return Dist(states, str_table(value, what))


class StochSystem(Machine):
    """A Markov machine: readout S -> O, update S x I -> Dist(S)."""

    __slots__ = ()
    effect = DistEffect


# Rewiring leaves transition weights untouched; the product of two Markov
# machines multiplies weights; a steady state's update is the point
# distribution on itself. One definition each serves every effect.
compose_lens_stoch = compose_lens_system
tensor_stoch = tensor_systems
dirac_steady_span = steady_span


def step_dist(sys: StochSystem, d: Dist, inp: str) -> Dist:
    """One-step pushforward of a state distribution, exactly."""
    if d.support != sys.states:
        raise ValidationError(f"distribution must live on the state set {sys.states}")
    if inp not in sys.interface.inputs:
        raise ValidationError(f"unknown input {inp!r}")
    acc: dict[str, Fraction] = {}
    for s, w in d.weights.items():
        for t, wt in sys.update[s][inp].weights.items():
            acc[t] = acc.get(t, Fraction(0)) + w * wt
    return Dist(sys.states, acc)


def _sample(dist: Dist, rng: random.Random) -> str:
    """Inverse-CDF sampling over the canonical element order, compared exactly."""
    u = Fraction(rng.random())
    cum = Fraction(0)
    last = None
    for label, w in dist.weights.items():
        cum += w
        last = label
        if cum > u:
            return label
    assert last is not None
    return last


def simulate_stoch(sys: StochSystem, s0: str, word: Iterable[str], seed: int) -> list[str]:
    """Sample a state path; the same (system, s0, word, seed) gives the same path."""
    word = list(word)
    sys.check_run(s0, word)
    rng = random.Random(seed)
    state = s0
    path = [state]
    for w in word:
        state = _sample(sys.update[state][w], rng)
        path.append(state)
    return path


def embed_det(sys: DetSystem) -> StochSystem:
    """View a deterministic machine as a Markov machine with point transitions."""
    update = {
        s: {i: Dist.dirac(sys.states, sys.update[s][i]) for i in sys.interface.inputs}
        for s in sys.states
    }
    return StochSystem(sys.states, sys.interface, sys.readout, update)
