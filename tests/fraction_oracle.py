"""The stochastic doctrine's weight arithmetic on `Fraction` operators.

`opendyn.stochastic` validates, multiplies and samples distributions on the
weights' integer numerators and denominators over a common denominator. This
module keeps the arithmetic it replaced, written with `Fraction` operators
throughout, as the reference for the differential tests in
`tests/test_fraction_arithmetic.py`: the same weights in the same order, the
same error class and message, the same sampled label for every draw.

Each function returns what the library builds from it (a weight map, a
label), so the tests compare plain values and `Dist.__init__` stays the only
place a `Dist` is made.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from opendyn import ValidationError
from opendyn.finset import FinSet, join_labels


def as_fraction(value, where: str) -> Fraction:
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


def dist_weights(support: FinSet, weights: Mapping) -> dict[str, Fraction]:
    """The cleaned weight map `Dist(support, weights)` stores, or its error."""
    for label in weights:
        if label not in support:
            raise ValidationError(f"distribution weight on unknown label {label!r}")
    cleaned: dict[str, Fraction] = {}
    total = Fraction(0)
    for label in support:
        if label not in weights:
            continue
        w = as_fraction(weights[label], f"weight of {label!r}")
        if w < 0:
            raise ValidationError(f"negative weight {w} on {label!r}")
        total += w
        if w != 0:
            cleaned[label] = w
    if total != 1:
        raise ValidationError(f"weights must sum to 1 exactly, got {total}")
    return cleaned


def product_weights(
    wa: Mapping[str, Fraction], wb: Mapping[str, Fraction], states: FinSet
) -> dict[str, Fraction]:
    """The weights of `DistEffect.product` on two cells with these weights."""
    return dist_weights(
        states,
        {join_labels(ta, tb): a * b for ta, a in wa.items() for tb, b in wb.items()},
    )


def step_weights(sys, d: Mapping[str, Fraction], inp: str) -> dict[str, Fraction]:
    """The weights of `step_dist(sys, d, inp)` for a distribution with weights `d`."""
    acc: dict[str, Fraction] = {}
    for s, w in d.items():
        for t, wt in sys.update[s][inp].weights.items():
            acc[t] = acc.get(t, Fraction(0)) + w * wt
    return dist_weights(sys.states, acc)


def sample(weights: Mapping[str, Fraction], rng) -> str:
    """Inverse-CDF sampling over the weights' order, compared exactly."""
    u = Fraction(rng.random())
    cum = Fraction(0)
    last = None
    for label, w in weights.items():
        cum += w
        last = label
        if cum > u:
            return label
    assert last is not None
    return last
