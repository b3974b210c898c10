"""Finite Markov machines with exact rational transition weights.

A `StochSystem` is the shared finite `Machine` with the distribution effect:
readouts are still functions, but the update lands in probability
distributions. Rewiring, tensor, steady states, orbits and simulation are
the shared machine functions, some bound here under their stochastic names:
`DistEffect.point` reads a one-label distribution as the state it reaches
for sure, so steady states and periodic orbits are those of the point
transitions, and `DistEffect.sample` draws a step of a run. Weights are
`fractions.Fraction` throughout, so normalization and the embedding laws are
exact equalities rather than tolerance checks. The arithmetic runs on their
integer numerators over a common denominator rather than through `Fraction`
operators: the sum check in `Dist`, the products of `DistEffect.product` and
`step_dist`, and the comparisons of the sampler. Weight strings are parsed
through one bounded memo, so a string that repeats across a document is
parsed once. `DistEffect.product` builds through `_dist`, which sets a
`Dist`'s slots without its checks, since the product of two distributions
is already normalized. The deterministic doctrine embeds by sending each
transition to the point distribution on its result.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Union

from .deterministic import (
    DetSystem, Machine, compose_lens_system, simulate_system, steady_span, tensor_systems
)
from .errors import ValidationError
from .finset import FinSet, join_labels

WeightLike = Union[Fraction, int, str]


# A document repeats a few weight strings many times, so parsing goes through
# one bounded memo of the constructor: the same forms, values and errors.
_parse_weight = lru_cache(maxsize=4096)(Fraction)


def _as_fraction(value: WeightLike, label: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return _parse_weight(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(
                f"weight of {label!r}: bad rational {value!r} ({exc})"
            ) from None
    raise ValidationError(
        f"weight of {label!r}: weights must be exact rationals (int, Fraction, or 'p/q' string), got {type(value).__name__}"
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
        # In support order, whatever order the weights were given in.
        for label in sorted(weights, key=support.position):
            w = _as_fraction(weights[label], label)
            if w.numerator < 0:
                raise ValidationError(f"negative weight {w} on {label!r}")
            if w.numerator:
                cleaned[label] = w
        # The sum, over the least common denominator of the nonzero weights.
        den = math.lcm(*(w.denominator for w in cleaned.values()))
        num = sum(w.numerator * (den // w.denominator) for w in cleaned.values())
        if num != den:
            raise ValidationError(f"weights must sum to 1 exactly, got {Fraction(num, den)}")
        self.support = support
        self.weights = cleaned

    @classmethod
    def dirac(cls, support: FinSet, label: str) -> "Dist":
        return cls(support, {label: Fraction(1)})

    def __call__(self, label: str) -> Fraction:
        if label not in self.support:
            raise ValidationError(f"unknown label {label!r}")
        return self.weights.get(label, Fraction(0))

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


def _dist(support: FinSet, weights: dict[str, Fraction]) -> Dist:
    """The distribution with these weights, set without checks: the weights
    must be nonzero `Fraction`s on labels of `support`, in support order,
    that sum to 1."""
    dist = Dist.__new__(Dist)
    dist.support, dist.weights = support, weights
    return dist


class DistEffect:
    """The distribution effect: a Markov update cell is a Dist on the states.

    Cells of two machines run side by side multiply as independent
    distributions; a cell reaches a state for sure when it is the point
    distribution on it. See `deterministic.Identity` for the protocol.
    """

    @staticmethod
    def cell_problem(cell, states: FinSet) -> Optional[str]:
        if isinstance(cell, Dist) and cell.support == states:
            return None
        return f"must be a distribution on {states}"

    @staticmethod
    def product(da: Dist, db: Dist, states: FinSet) -> Dist:
        """The independent product on the states "ta|tb" of `tensor_systems`,
        built without checks: taken in the order of both supports, the pairs
        run in the product's support order, and the weights of two
        distributions multiply to nonzero weights that sum to 1."""
        return _dist(
            states,
            {
                join_labels(ta, tb): Fraction(
                    wa.numerator * wb.numerator, wa.denominator * wb.denominator
                )
                for ta, wa in da.weights.items()
                for tb, wb in db.weights.items()
            },
        )

    @staticmethod
    def point(dist: Dist) -> Optional[str]:
        """The label of a one-label distribution; it has weight 1."""
        return next(iter(dist.weights)) if len(dist.weights) == 1 else None

    @staticmethod
    def sample(dist: Dist, rng: random.Random) -> str:
        """Inverse-CDF sampling over the canonical element order, compared
        exactly: with u = a/b and the weights over their common denominator
        `den`, the cumulative weight c/den exceeds u exactly when c*b > a*den."""
        a, b = rng.random().as_integer_ratio()
        weights = dist.weights
        den = math.lcm(*(w.denominator for w in weights.values()))
        bound = a * den
        cum = 0
        last = None
        for label, w in weights.items():
            cum += w.numerator * (den // w.denominator)
            last = label
            if cum * b > bound:
                return label
        assert last is not None
        return last


class StochSystem(Machine):
    """A Markov machine: readout S -> O, update S x I -> Dist(S)."""

    __slots__ = ()
    effect = DistEffect


# Rewiring leaves transition weights untouched; the product of two Markov
# machines multiplies weights; a steady state's update is the point
# distribution on itself; a run samples each step. One definition each
# serves every effect.
compose_lens_stoch = compose_lens_system
tensor_stoch = tensor_systems
dirac_steady_span = steady_span
simulate_stoch = simulate_system


def step_dist(sys: StochSystem, d: Dist, inp: str) -> Dist:
    """One-step pushforward of a state distribution, exactly."""
    if d.support != sys.states:
        raise ValidationError(f"distribution must live on the state set {sys.states}")
    if inp not in sys.interface.inputs:
        raise ValidationError(f"unknown input {inp!r}")
    terms = [
        (t, w.numerator * wt.numerator, w.denominator * wt.denominator)
        for s, w in d.weights.items()
        for t, wt in sys.update[s][inp].weights.items()
    ]
    den = math.lcm(*(q for _, _, q in terms))
    acc: dict[str, int] = {}
    for t, p, q in terms:
        acc[t] = acc.get(t, 0) + p * (den // q)
    return Dist(sys.states, {t: Fraction(n, den) for t, n in acc.items()})


def embed_det(sys: DetSystem) -> StochSystem:
    """View a deterministic machine as a Markov machine with point transitions."""
    update = {
        s: {i: Dist.dirac(sys.states, sys.update[s][i]) for i in sys.interface.inputs}
        for s in sys.states
    }
    return StochSystem(sys.states, sys.interface, sys.readout, update)
