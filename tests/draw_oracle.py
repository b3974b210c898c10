"""The law suites' case generators as they drew one cell at a time, kept as
an oracle.

`opendyn.laws` draws each table of a case in one helper call that makes the
very `getrandbits` calls `Random.choice`, `randint` and `sample` make, and
shares one label set per (prefix, size). The generators here are the ones it
replaced: one `rng.choice` per cell, one `rng.randint` per size, one
`rng.sample` per row, a new `FinSet` per label set and one `FinMap` call per
forced cell. Seeded alike, both must draw equal cases and leave the
generator in equal states.
"""

from __future__ import annotations

import random
from typing import Optional

from opendyn.deterministic import DetChart, DetInterface, DetLens, DetSquare, DetSystem, _machine, _rewiring
from opendyn.errors import ValidationError
from opendyn.finset import FinMap, FinSet, _finmap


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k}" for k in range(n)]


def random_finset(rng: random.Random, prefix: str, max_size: int) -> FinSet:
    return FinSet(_labels(prefix, rng.randint(1, max_size)))


def random_interface(rng: random.Random, max_size: int = 4, tag: str = "") -> DetInterface:
    return DetInterface(
        random_finset(rng, f"{tag}i", max_size), random_finset(rng, f"{tag}o", max_size)
    )


def random_map(rng: random.Random, dom: FinSet, cod: FinSet) -> FinMap:
    if len(cod) == 0 and len(dom) > 0:
        raise ValidationError("cannot draw a map into an empty set")
    return _finmap(dom, cod, {x: rng.choice(cod.elements) for x in dom})


def random_system(rng: random.Random, iface: DetInterface, max_states: int = 5) -> DetSystem:
    states = random_finset(rng, "s", max_states)
    readout = random_map(rng, states, iface.outputs)
    update = {
        s: {i: rng.choice(states.elements) for i in iface.inputs} for s in states
    }
    return _machine(DetSystem, states, iface, readout, update)


def random_lens(rng: random.Random, source: DetInterface, target: DetInterface) -> DetLens:
    fwd = random_map(rng, source.outputs, target.outputs)
    bwd = {
        o: {i2: rng.choice(source.inputs.elements) for i2 in target.inputs}
        for o in source.outputs
    }
    return _rewiring(DetLens, source, target, fwd, bwd)


def random_injective_chart(
    rng: random.Random, source: DetInterface, target: DetInterface
) -> DetChart:
    if len(target.outputs) < len(source.outputs) or len(target.inputs) < len(source.inputs):
        raise ValidationError("target interface too small for an injective chart")
    images = rng.sample(target.outputs.elements, len(source.outputs))
    fwd = _finmap(source.outputs, target.outputs, dict(zip(source.outputs, images)))
    push = {
        o: dict(zip(source.inputs, rng.sample(target.inputs.elements, len(source.inputs))))
        for o in source.outputs
    }
    return _rewiring(DetChart, source, target, fwd, push)


def _grow(rng: random.Random, iface: DetInterface, min_inputs: int = 1) -> DetInterface:
    return DetInterface(
        FinSet(_labels("i", max(min_inputs, len(iface.inputs) + rng.randint(0, 2)))),
        FinSet(_labels("o", len(iface.outputs) + rng.randint(0, 2))),
    )


def random_square_from(
    rng: random.Random,
    left: DetLens,
    top: Optional[DetChart] = None,
) -> DetSquare:
    iface1, iface3 = left.source, left.target
    if top is None:
        top = random_injective_chart(rng, iface1, _grow(rng, iface1, min_inputs=2))
    elif top.source != iface1:
        raise ValidationError("top chart must start at the left lens's source")
    iface2 = top.target
    bottom = random_injective_chart(rng, iface3, _grow(rng, iface3))
    iface4 = bottom.target

    fwd_table = {o2: rng.choice(iface4.outputs.elements) for o2 in iface2.outputs}
    bwd_table = {
        o2: {i4: rng.choice(iface2.inputs.elements) for i4 in iface4.inputs}
        for o2 in iface2.outputs
    }
    for o in iface1.outputs:
        o2 = top.fwd(o)
        fwd_table[o2] = bottom.fwd(left.fwd(o))
        for a3 in iface3.inputs:
            i4 = bottom.push[left.fwd(o)][a3]
            bwd_table[o2][i4] = top.push[o][left.bwd[o][a3]]
    right = _rewiring(
        DetLens, iface2, iface4, _finmap(iface2.outputs, iface4.outputs, fwd_table), bwd_table
    )
    return DetSquare(top, bottom, left, right)


def random_square(rng: random.Random) -> DetSquare:
    iface1 = random_interface(rng)
    iface3 = random_interface(rng)
    return random_square_from(rng, random_lens(rng, iface1, iface3))


def mutate_square(rng: random.Random, sq: DetSquare) -> tuple[DetSquare, tuple[str, Optional[str]]]:
    o = rng.choice(sq.top.source.outputs.elements)
    o2 = sq.top.fwd(o)
    choices: list[tuple[str, Optional[str]]] = []
    if len(sq.right.target.outputs) > 1:
        choices.append((o, None))
    if len(sq.top.target.inputs) > 1 and len(sq.bottom.source.inputs) > 0:
        choices.extend((o, a3) for a3 in sq.bottom.source.inputs)
    if not choices:
        raise ValidationError("square has no room for a detectable mutation")
    o, a3 = rng.choice(choices)
    fwd_table = {x: sq.right.fwd(x) for x in sq.right.source.outputs}
    bwd_table = {x: dict(row) for x, row in sq.right.bwd.items()}
    if a3 is None:
        old = fwd_table[o2]
        fwd_table[o2] = rng.choice([x for x in sq.right.target.outputs if x != old])
    else:
        i4 = sq.bottom.push[sq.left.fwd(o)][a3]
        old = bwd_table[o2][i4]
        bwd_table[o2][i4] = rng.choice([x for x in sq.top.target.inputs if x != old])
    right = _rewiring(
        DetLens,
        sq.right.source,
        sq.right.target,
        _finmap(sq.right.source.outputs, sq.right.target.outputs, fwd_table),
        bwd_table,
    )
    return DetSquare(sq.top, sq.bottom, sq.left, right), (o, a3)
