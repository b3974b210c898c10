"""Shared builders for the test suite: reference machines and random data."""

from __future__ import annotations

import random
from fractions import Fraction
from importlib.resources import files
from typing import Sequence

from opendyn import (
    DetInterface,
    DetLens,
    DetSystem,
    Dist,
    Family,
    FinMap,
    FinSet,
    OdeLens,
    OdeSystem,
    Span,
    StochSystem,
    ValidationError,
    Var,
    compose_lens_ode,
    compose_lens_system,
    simulate_system,
    substitute,
)
from opendyn.deterministic import periodic_orbit_rows
from opendyn.laws import random_interface, random_lens, random_system


def periodic_orbits(sys, k: int) -> list[tuple[str, str]]:
    """The rows of `periodic_orbit_rows(sys, k)`, as a list."""
    return list(periodic_orbit_rows(sys, k))


def run_word(sys, s0: str, word: list[str]) -> list[tuple[str, str]]:
    """Drive the machine from s0 along a word; every (state, output) visited."""
    return [(state, sys.readout(state)) for state in simulate_system(sys, s0, word)]


def fixture_path(name: str) -> str:
    return str(files("opendyn") / "fixtures" / name)


def flipflop() -> DetSystem:
    """Set/reset latch: set forces s1, reset forces s0, hold keeps the state."""
    states = FinSet(["s0", "s1"])
    iface = DetInterface(FinSet(["set", "reset", "hold"]), FinSet(["lo", "hi"]))
    readout = FinMap(states, iface.outputs, {"s0": "lo", "s1": "hi"})
    update = {
        "s0": {"set": "s1", "reset": "s0", "hold": "s0"},
        "s1": {"set": "s1", "reset": "s0", "hold": "s1"},
    }
    return DetSystem(states, iface, readout, update)


def feedback_lens() -> DetLens:
    """Close the latch's loop: every tick requests the opposite of the output."""
    ff = flipflop().interface
    target = DetInterface(FinSet(["tick"]), FinSet(["star"]))
    fwd = FinMap(ff.outputs, target.outputs, {"lo": "star", "hi": "star"})
    bwd = {"lo": {"tick": "set"}, "hi": {"tick": "reset"}}
    return DetLens(ff, target, fwd, bwd)


def oscillator() -> DetSystem:
    return compose_lens_system(feedback_lens(), flipflop())


def chain() -> StochSystem:
    """Two-state chain: `go` mixes the states, `stay` keeps them put."""
    states = FinSet(["a", "b"])
    iface = DetInterface(FinSet(["go", "stay"]), FinSet(["lo", "hi"]))
    readout = FinMap(states, iface.outputs, {"a": "lo", "b": "hi"})
    update = {
        "a": {"go": Dist(states, {"a": "1/2", "b": "1/2"}), "stay": Dist.dirac(states, "a")},
        "b": {"go": Dist(states, {"a": "1/3", "b": "2/3"}), "stay": Dist.dirac(states, "b")},
    }
    return StochSystem(states, iface, readout, update)


def wide_lens(seed: int) -> DetLens:
    """A random lens from 3 outputs x 3 inputs to 4 outputs x 5 inputs, the
    shape of the `wire` benchmark's lenses: 81 x 400 charts at k = 2."""
    source = DetInterface(FinSet(["a0", "a1", "a2"]), FinSet(["b0", "b1", "b2"]))
    target = DetInterface(FinSet(["c0", "c1", "c2", "c3"]), FinSet(["e0", "e1", "e2", "e3", "e4"]))
    return random_lens(random.Random(seed), source, target)


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Plain integer matrix product, the independent oracle for span composition."""
    if not a:
        return []
    inner = len(b)
    return [
        [sum(row[m] * b[m][w] for m in range(inner)) for w in range(len(b[0]) if b else 0)]
        for row in a
    ]


def kron(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Plain Kronecker product, the independent oracle for the span tensor."""
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]


def random_finset(rng: random.Random, prefix: str, max_size: int, min_size: int = 1) -> FinSet:
    return FinSet(f"{prefix}{n}" for n in range(rng.randint(min_size, max_size)))


def random_span(rng: random.Random, source: FinSet, target: FinSet, max_apex: int = 5) -> Span:
    apex = random_finset(rng, "x", max_apex, min_size=0)
    left = FinMap(apex, source, {x: rng.choice(source.elements) for x in apex})
    right = FinMap(apex, target, {x: rng.choice(target.elements) for x in apex})
    return Span(source, target, apex, left, right)


def random_family(rng: random.Random, base: FinSet, max_total: int = 6) -> Family:
    total = random_finset(rng, "e", max_total, min_size=0)
    proj = FinMap(total, base, {e: rng.choice(base.elements) for e in total})
    return Family(base, total, proj)


def random_dist(rng: random.Random, support: FinSet) -> Dist:
    """Random exact rational distribution: integer weights over their sum."""
    raw = [rng.randint(0, 6) for _ in support]
    if sum(raw) == 0:
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return Dist(support, {s: Fraction(w, total) for s, w in zip(support, raw) if w})


def random_markov_machine(
    rng: random.Random, iface: DetInterface, max_states: int = 4
) -> StochSystem:
    """A Markov machine on `iface` whose update cells are point distributions
    about half the time, so that it has orbits to find."""
    states = random_finset(rng, "s", max_states)
    readout = FinMap(
        states, iface.outputs, {s: rng.choice(iface.outputs.elements) for s in states}
    )
    update = {
        s: {
            i: Dist.dirac(states, rng.choice(states.elements))
            if rng.random() < 0.5
            else random_dist(rng, states)
            for i in iface.inputs
        }
        for s in states
    }
    return StochSystem(states, iface, readout, update)


def each_machine(rng: random.Random, iface: DetInterface, case: int):
    """A deterministic machine on odd cases and a Markov machine on even ones."""
    return random_system(rng, iface, 3) if case % 2 else random_markov_machine(rng, iface, 3)


def two_input_rep() -> DetSystem:
    """A representing machine that is not a cycle: identity readout, two inputs."""
    states = FinSet(["a", "b"])
    iface = DetInterface(FinSet(["x", "y"]), states)
    update = {"a": {"x": "b", "y": "a"}, "b": {"x": "a", "y": "b"}}
    return DetSystem(states, iface, FinMap.identity(states), update)


def random_stoch_system(rng: random.Random, max_size: int = 4) -> StochSystem:
    states = FinSet(f"s{n}" for n in range(rng.randint(1, max_size)))
    iface = random_interface(rng, max_size)
    readout = FinMap(
        states, iface.outputs, {s: rng.choice(iface.outputs.elements) for s in states}
    )
    update = {s: {i: random_dist(rng, states) for i in iface.inputs} for s in states}
    return StochSystem(states, iface, readout, update)


def ode_chain(rng: random.Random, depth: int) -> tuple[OdeSystem, list[OdeLens]]:
    """A base system and `depth` lenses feeding the readout back into p: the
    chain the benchmark's wired simulate ops compose."""

    def coef(lo=0.2, hi=1.0):
        return round(rng.uniform(lo, hi), 3)

    a, c, e = coef(), coef(), coef()
    base = OdeSystem(
        ["x", "y"], ["u0"], ["p0", "q0"],
        {"u0": f"sin(x*y) + {a}*x"},
        {"x": f"p0*cos(y) - {c}*x", "y": f"q0*sin(x) - {e}*y"},
    )
    lenses = []
    for j in range(1, depth + 1):
        k, m = coef(0.05, 0.2), coef(0.9, 1.1)
        lenses.append(
            OdeLens(
                [f"u{j - 1}"], [f"p{j - 1}", f"q{j - 1}"], [f"u{j}"], [f"p{j}", f"q{j}"],
                {f"u{j}": f"u{j - 1}"},
                {f"p{j - 1}": f"p{j} + {k}*u{j - 1}", f"q{j - 1}": f"{m}*q{j}"},
            )
        )
    return base, lenses


def wired(depth: int) -> OdeSystem:
    system, lenses = ode_chain(random.Random(0), depth)
    for lens in lenses:
        system = compose_lens_ode(lens, system)
    return system


def mutated(rng: random.Random, lens: DetLens) -> DetLens:
    """The lens with one `bwd` cell, or one `fwd` value, changed."""
    bwd = {o: dict(row) for o, row in lens.bwd.items()}
    fwd = dict(lens.fwd.table)
    o = rng.choice(lens.source.outputs.elements)
    inputs, outputs = lens.source.inputs.elements, lens.target.outputs.elements
    if len(inputs) > 1 and (len(outputs) == 1 or rng.random() < 0.5):
        i2 = rng.choice(lens.target.inputs.elements)
        bwd[o][i2] = rng.choice([i for i in inputs if i != bwd[o][i2]])
    elif len(outputs) > 1:
        fwd[o] = rng.choice([p for p in outputs if p != fwd[o]])
    return DetLens(lens.source, lens.target, FinMap(lens.fwd.dom, lens.fwd.cod, fwd), bwd)


def identity_ode_lens(output_vars: Sequence[str], param_vars: Sequence[str]) -> OdeLens:
    """The ODE lens that passes each output and parameter through."""
    return OdeLens(
        output_vars,
        param_vars,
        output_vars,
        param_vars,
        {o: Var(o) for o in output_vars},
        {p: Var(p) for p in param_vars},
    )


def compose_ode_lenses(l1: OdeLens, l2: OdeLens) -> OdeLens:
    """Rewire twice: substitution chains the same way lens composition does."""
    if tuple(l1.target_outputs) != tuple(l2.source_outputs) or tuple(
        l1.target_params
    ) != tuple(l2.source_params):
        raise ValidationError("lens boundaries do not match")
    fwd = {o: substitute(l2.fwd[o], l1.fwd) for o in l2.target_outputs}
    # the second bwd may mention mid outputs; push those back along l1.fwd
    # so the composite is scoped by first-source outputs and last-target params
    mid_bwd = {q: substitute(l2.bwd[q], l1.fwd) for q in l2.source_params}
    bwd = {p: substitute(l1.bwd[p], mid_bwd) for p in l1.source_params}
    return OdeLens(
        l1.source_outputs,
        l1.source_params,
        l2.target_outputs,
        l2.target_params,
        fwd,
        bwd,
    )
