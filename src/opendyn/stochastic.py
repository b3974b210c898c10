"""Finite Markov machines with exact rational transition weights.

A `StochSystem` is the shared finite `Machine` with the distribution effect:
readouts are still functions, but the update lands in distributions. Weights
are `fractions.Fraction`, so normalization and the embedding laws are exact
equalities, not tolerance checks. The arithmetic runs on their integer
numerators over a common denominator, not through `Fraction` operators.
`_dist` sets a `Dist`'s slots without its checks, for a caller whose weights
are already normalized.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Optional, Union

from .deterministic import DetSystem, Machine, compose_lens_system, simulate_system, tensor_systems
from .errors import ValidationError, _shown
from .finset import FinSet
from .record import Record

WeightLike = Union[Fraction, int, str]


#: Largest decimal exponent, of either sign, that a weight string may carry
#: (Python's default limit on the digits of an int read from text).
#: `Fraction` builds the power of ten itself, in time that grows with the
#: exponent's value, so `"1e-99999999"` would hold a load for minutes.
MAX_WEIGHT_EXPONENT = 4300


@lru_cache(maxsize=4096)
def _parse_weight(value: Union[int, str]) -> tuple[Fraction, int, int]:
    """`Fraction(value)` with its numerator and denominator, raising what it
    raises, and ValueError for a string whose exponent lies beyond
    `MAX_WEIGHT_EXPONENT`. A document repeats a few weight strings many
    times, so parsing goes through this one bounded memo."""
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        if e:
            try:
                too_far = abs(int(exponent)) > MAX_WEIGHT_EXPONENT
            except ValueError:  # not an exponent: `Fraction` names the fault
                too_far = False
            if too_far:
                raise ValueError(f"exponent beyond {MAX_WEIGHT_EXPONENT} in either direction")
    w = Fraction(value)
    return w, w.numerator, w.denominator


def _as_fraction(value: WeightLike, label: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return _parse_weight(value)[0]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(
                f"weight of {label!r}: bad rational {value!r} ({exc})"
            ) from None
    raise ValidationError(
        f"weight of {label!r}: weights must be exact rationals (int, Fraction, or 'p/q' string), got {type(value).__name__}"
    )


class Dist(Record):
    """A probability distribution on a finite set, with exact weights.

    Zero-weight labels may be omitted; they are dropped on construction, so
    two distributions are equal iff they have the same support set and the
    same nonzero weights.
    """

    __slots__ = _fields = ("support", "weights")

    def __init__(self, support: FinSet, weights: Mapping[str, WeightLike]):
        for label in weights:
            if label not in support:
                raise ValidationError(f"distribution weight on unknown label {_shown(label)}")
        cleaned: dict[str, Fraction] = {}
        # In support order, whatever order the weights were given in.
        for label in sorted(weights, key=support.position):
            w = _as_fraction(weights[label], label)
            if w.numerator < 0:
                raise ValidationError(f"negative weight {_shown(w, str)} on {label!r}")
            if w.numerator:
                cleaned[label] = w
        # The sum, over the least common denominator of the nonzero weights.
        den = math.lcm(*(w.denominator for w in cleaned.values()))
        num = sum(w.numerator * (den // w.denominator) for w in cleaned.values())
        if num != den:
            raise ValidationError(f"weights must sum to 1 exactly, got {_shown(Fraction(num, den), str)}")
        self.support = support
        self.weights = cleaned

    @classmethod
    def dirac(cls, support: FinSet, label: str) -> "Dist":
        return cls(support, {label: Fraction(1)})

    def __call__(self, label: str) -> Fraction:
        if label not in self.support:
            raise ValidationError(f"unknown label {label!r}")
        return self.weights.get(label, Fraction(0))

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}: {w}" for label, w in self.weights.items())
        return f"Dist({{{inner}}})"


def _accepted_dist(support: FinSet, cell) -> Optional[Dist]:
    """The distribution of a project file's update cell, a JSON object of
    weight strings on labels of `support`; None where `Dist` or the shape
    check would refuse it: a weight that is not a string, does not parse or
    is negative, a label off the support, or a sum other than 1. Never raises."""
    if type(cell) is not dict:
        return None
    index = support._index
    weights = {}
    # The sum so far is num/den, den the lcm of the denominators so far.
    num, den, last, ordered = 0, 1, -1, True
    for label, text in cell.items():
        pos = index.get(label)
        if pos is None or type(text) is not str:
            return None
        try:
            w, n, q = _parse_weight(text)
        except (ValueError, ZeroDivisionError):
            return None
        if n < 0:
            return None
        if n:
            weights[label] = w
            ordered = ordered and pos > last
            last = pos
            if q == den:
                num += n
            else:
                lcm = math.lcm(den, q)
                num, den = num * (lcm // den) + n * (lcm // q), lcm
    if num != den:
        return None
    if not ordered:
        weights = {label: weights[label] for label in sorted(weights, key=index.__getitem__)}
    return _dist(support, weights)


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
    def product(a: FinSet, b: FinSet, states: FinSet) -> Callable[[Dist, Dist], Dist]:
        """The independent product of a distribution on `a` with one on `b`,
        on their product states "ta|tb" (`states`, in a-major order), built
        without checks: taken in the order of both supports, the pairs run
        in the product's support order, and the weights of two distributions
        multiply to nonzero weights that sum to 1.

        A pair's label is read by position off `states`. Each distinct pair
        of weight objects is multiplied once, and each distinct cell on `b`
        has its labels' positions read once, by memos that live as long as
        the returned function: they key by the ids of the weights and cells
        and hold those objects, so no key can come to name another object."""
        elements, width, index_a, index_b = states.elements, len(b), a._index, b._index
        products: dict[int, dict[int, Fraction]] = {}
        columns: dict[int, list[tuple[int, int, Fraction]]] = {}
        held: list = []

        def product(da: Dist, db: Dist) -> Dist:
            right = columns.get(id(db))
            if right is None:
                right = columns[id(db)] = [(index_b[tb], id(wb), wb) for tb, wb in db.weights.items()]
                held.append(db)
            weights = {}
            for ta, wa in da.weights.items():
                row = products.get(id(wa))
                if row is None:
                    row = products[id(wa)] = {}
                    held.append(wa)
                base = index_a[ta] * width
                for pos, key, wb in right:
                    w = row.get(key)
                    if w is None:
                        w = row[key] = Fraction(
                            wa.numerator * wb.numerator, wa.denominator * wb.denominator
                        )
                    weights[elements[base + pos]] = w
            return _dist(states, weights)

        return product

    @staticmethod
    def weights(update: Mapping[str, Mapping[str, Dist]]) -> int:
        """The weights the cells of an update table hold: |supp| per cell."""
        return sum(len(cell.weights) for row in update.values() for cell in row.values())

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
# machines multiplies weights; a run samples each step. One definition each
# serves every effect.
compose_lens_stoch = compose_lens_system
tensor_stoch = tensor_systems
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
