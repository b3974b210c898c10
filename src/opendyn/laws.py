"""Randomized law suites: seeded generators plus pass/fail bundles.

Everything here is driven by an explicit `random.Random`, so a fixed seed
reproduces the exact same systems, lenses, squares, and verdicts. The square
generator draws the left lens and both charts freely (with the injectivity
that makes the constraints solvable) and then fills in the one right-lens
table that makes the square commute, so any mutation of a reached table cell
must be caught.

Every generator draws each table cell from the sets it was given and writes
its rows and columns in canonical order, so it builds through the trusted
constructors (`finset._finmap`, `deterministic._machine`,
`deterministic._rewiring`). A table is drawn in one call of `_draws` or
`_samples`, which make the very `getrandbits` calls that one `Random` call
per cell would make, so a seed draws the same cases either way.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache
from typing import Optional

from .deterministic import (
    DetChart,
    DetInterface,
    DetLens,
    DetSquare,
    DetSystem,
    _machine,
    _matrix_theorem,
    _rewiring,
    check_square,
    compose_lens_system,
    compose_lenses,
    identity_lens,
    paste_horizontal,
    paste_vertical,
)
from .errors import ValidationError
from .finset import FinMap, FinSet, _finmap
from .ode import OdeLens, OdeSystem, ParamSignal, check_solve_functoriality
from .project import load_project
from .record import Record


def _draws(rng: random.Random, seq, count: int) -> list:
    """`[rng.choice(seq) for _ in range(count)]`, through the very calls
    those `choice`s make: `choice(seq)` is `seq[_randbelow(len(seq))]`, and
    `_randbelow(n)` draws `getrandbits(n.bit_length())` until the value is
    below n. An empty `seq` is refused first, since `getrandbits(0)` is 0
    and no value would ever be below n = 0.
    """
    n = len(seq)
    if count and not n:
        raise ValidationError("cannot draw a map into an empty set")
    bits, width = rng.getrandbits, n.bit_length()
    picks = []
    for _ in range(count):
        r = bits(width)
        while r >= n:
            r = bits(width)
        picks.append(seq[r])
    return picks


def _samples(rng: random.Random, population, k: int, count: int) -> list[list]:
    """`[rng.sample(population, k) for _ in range(count)]`, through the very
    calls those `sample`s make; k must be at most the population's size.

    A population of at most 21 takes `sample`'s pool path: the i-th pick is
    `pool[_randbelow(n - i)]`, whose slot then takes the pool's last
    unpicked element. A larger population may take its set path, so it goes
    through `rng.sample` itself.
    """
    n = len(population)
    if n > 21:
        return [rng.sample(population, k) for _ in range(count)]
    bits, drawn = rng.getrandbits, []
    for _ in range(count):
        pool, picks = list(population), []
        for m in range(n, n - k, -1):
            width = m.bit_length()
            j = bits(width)
            while j >= m:
                j = bits(width)
            picks.append(pool[j])
            pool[j] = pool[m - 1]
        drawn.append(picks)
    return drawn


def _sizes(rng: random.Random, max_size: int, count: int) -> list[int]:
    """`count` draws of `rng.randint(1, max_size)`, which is
    `1 + _randbelow(max_size)`."""
    if max_size < 1:
        raise ValidationError(f"cannot draw a nonempty set of at most {max_size} elements")
    return _draws(rng, range(1, max_size + 1), count)


def _draw_table(rng: random.Random, rows: FinSet, cols: FinSet, values: FinSet) -> dict:
    """A row per element of `rows`, a cell per element of `cols`, each cell
    drawn from `values`, row by row, as one `rng.choice` per cell draws it."""
    cells = iter(_draws(rng, values.elements, len(rows) * len(cols)))
    # zip ends at the row's last column before it takes a further cell
    return {r: dict(zip(cols.elements, cells)) for r in rows.elements}


@lru_cache(maxsize=256)
def _label_set(prefix: str, size: int) -> FinSet:
    """The labels prefix0, ..., prefix{size - 1}, formed once per (prefix,
    size) per process: a `FinSet` is never changed, so draws share it."""
    return FinSet([f"{prefix}{k}" for k in range(size)])


def random_finset(rng: random.Random, prefix: str, max_size: int) -> FinSet:
    """The labels prefix0, prefix1, ... of a size drawn from 1 to `max_size`;
    the set is shared by every draw of that prefix and size."""
    return _label_set(prefix, *_sizes(rng, max_size, 1))


def random_interface(rng: random.Random, max_size: int = 4, tag: str = "") -> DetInterface:
    n_inputs, n_outputs = _sizes(rng, max_size, 2)
    return DetInterface(_label_set(f"{tag}i", n_inputs), _label_set(f"{tag}o", n_outputs))


def random_map(rng: random.Random, dom: FinSet, cod: FinSet) -> FinMap:
    return _finmap(dom, cod, dict(zip(dom.elements, _draws(rng, cod.elements, len(dom)))))


def random_system(rng: random.Random, iface: DetInterface, max_states: int = 5) -> DetSystem:
    states = random_finset(rng, "s", max_states)
    readout = random_map(rng, states, iface.outputs)
    update = _draw_table(rng, states, iface.inputs, states)
    return _machine(DetSystem, states, iface, readout, update)


def random_lens(rng: random.Random, source: DetInterface, target: DetInterface) -> DetLens:
    if not source.inputs and source.outputs and target.inputs:
        raise ValidationError("cannot draw a lens's bwd into an empty set of inputs")
    fwd = random_map(rng, source.outputs, target.outputs)
    bwd = _draw_table(rng, source.outputs, target.inputs, source.inputs)
    return _rewiring(DetLens, source, target, fwd, bwd)


def random_injective_chart(
    rng: random.Random, source: DetInterface, target: DetInterface
) -> DetChart:
    """A chart whose fwd is injective and whose push is injective per output.

    Needs target alphabets at least as large as source alphabets. These charts
    are exactly the ones the constructive square generator can build on, in
    either position.
    """
    if len(target.outputs) < len(source.outputs) or len(target.inputs) < len(source.inputs):
        raise ValidationError("target interface too small for an injective chart")
    outputs, inputs = source.outputs.elements, source.inputs.elements
    [images] = _samples(rng, target.outputs.elements, len(outputs), 1)
    fwd = _finmap(source.outputs, target.outputs, dict(zip(outputs, images)))
    rows = _samples(rng, target.inputs.elements, len(inputs), len(outputs))
    push = {o: dict(zip(inputs, row)) for o, row in zip(outputs, rows)}
    return _rewiring(DetChart, source, target, fwd, push)


def _grow(rng: random.Random, iface: DetInterface, min_inputs: int = 1) -> DetInterface:
    """An interface at least as large as `iface` in both alphabets, and up to
    two larger in each."""
    more_inputs, more_outputs = _draws(rng, range(3), 2)
    return DetInterface(
        _label_set("i", max(min_inputs, len(iface.inputs) + more_inputs)),
        _label_set("o", len(iface.outputs) + more_outputs),
    )


def random_square_from(
    rng: random.Random,
    left: DetLens,
    top: Optional[DetChart] = None,
) -> DetSquare:
    """A commuting square with the given left lens (and optionally top chart).

    The right lens is solved for: its fwd is forced on the image of the top
    chart and its bwd is forced on the cells reached by pushing bottom inputs
    forward; everything unreached is drawn at random. Injectivity of the top
    fwd and of the bottom push (per output) keeps the forced cells conflict-free.
    """
    iface1, iface3 = left.source, left.target
    if top is None:
        top = random_injective_chart(rng, iface1, _grow(rng, iface1, min_inputs=2))
    elif top.source != iface1:
        raise ValidationError("top chart must start at the left lens's source")
    iface2 = top.target
    bottom = random_injective_chart(rng, iface3, _grow(rng, iface3))
    iface4 = bottom.target

    fwd_table = random_map(rng, iface2.outputs, iface4.outputs).table
    bwd_table = _draw_table(rng, iface2.outputs, iface4.inputs, iface2.inputs)
    left_fwd, bottom_fwd = left.fwd.table, bottom.fwd.table
    for o, o2 in top.fwd.table.items():
        o3 = left_fwd[o]
        fwd_table[o2] = bottom_fwd[o3]
        row, pushed, back = bwd_table[o2], top.push[o], left.bwd[o]
        for a3, i4 in bottom.push[o3].items():
            row[i4] = pushed[back[a3]]
    right = _rewiring(
        DetLens, iface2, iface4, _finmap(iface2.outputs, iface4.outputs, fwd_table), bwd_table
    )
    return DetSquare(top, bottom, left, right)


def random_square(rng: random.Random) -> DetSquare:
    iface1 = random_interface(rng)
    iface3 = random_interface(rng)
    return random_square_from(rng, random_lens(rng, iface1, iface3))


def mutate_square(rng: random.Random, sq: DetSquare) -> tuple[DetSquare, tuple[str, Optional[str]]]:
    """Perturb one reached right-lens cell; returns the square and a pair
    (o, a3) at which the check must now fail (a3 is None for a fwd mutation)."""
    o = rng.choice(sq.top.source.outputs.elements)
    o2 = sq.top.fwd.table[o]
    choices: list[tuple[str, Optional[str]]] = []
    if len(sq.right.target.outputs) > 1:
        choices.append((o, None))
    if len(sq.top.target.inputs) > 1 and len(sq.bottom.source.inputs) > 0:
        choices.extend((o, a3) for a3 in sq.bottom.source.inputs.elements)
    if not choices:
        raise ValidationError("square has no room for a detectable mutation")
    o, a3 = rng.choice(choices)
    fwd_table = dict(sq.right.fwd.table)
    bwd_table = {x: dict(row) for x, row in sq.right.bwd.items()}
    if a3 is None:
        old = fwd_table[o2]
        fwd_table[o2] = rng.choice([x for x in sq.right.target.outputs.elements if x != old])
    else:
        i4 = sq.bottom.push[sq.left.fwd.table[o]][a3]
        old = bwd_table[o2][i4]
        bwd_table[o2][i4] = rng.choice([x for x in sq.top.target.inputs.elements if x != old])
    right = _rewiring(
        DetLens,
        sq.right.source,
        sq.right.target,
        _finmap(sq.right.source.outputs, sq.right.target.outputs, fwd_table),
        bwd_table,
    )
    return DetSquare(sq.top, sq.bottom, sq.left, right), (o, a3)


class SuiteResult(Record):
    """One law suite's verdict."""

    __slots__ = _fields = ("name", "passed", "cases", "detail")

    def __init__(self, name: str, passed: bool, cases: int, detail: str = ""):
        self.name = name
        self.passed = passed
        self.cases = cases
        self.detail = detail

    def __bool__(self) -> bool:
        return self.passed


def _suite_rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}|{name}")


def _cases(cases: int) -> range:
    if cases < 0:
        raise ValidationError(f"cases must be nonnegative, got {cases}")
    return range(cases)


def _failed(name: str, case: int, why: str) -> SuiteResult:
    return SuiteResult(name, False, case + 1, f"case {case}: {why}")


def lens_law_suite(seed: int, cases: int) -> SuiteResult:
    """Units, associativity, and action functoriality of lens composition."""
    rng = _suite_rng(seed, "lens-laws")
    for case in _cases(cases):
        ifaces = [random_interface(rng, tag=str(n)) for n in range(4)]
        l1 = random_lens(rng, ifaces[0], ifaces[1])
        l2 = random_lens(rng, ifaces[1], ifaces[2])
        l3 = random_lens(rng, ifaces[2], ifaces[3])
        sys = random_system(rng, ifaces[0])
        if compose_lenses(identity_lens(ifaces[0]), l1) != l1:
            return _failed("lens-laws", case, "left unit broken")
        if compose_lenses(l1, identity_lens(ifaces[1])) != l1:
            return _failed("lens-laws", case, "right unit broken")
        if compose_lenses(compose_lenses(l1, l2), l3) != compose_lenses(
            l1, compose_lenses(l2, l3)
        ):
            return _failed("lens-laws", case, "associativity broken")
        if compose_lens_system(compose_lenses(l1, l2), sys) != compose_lens_system(
            l2, compose_lens_system(l1, sys)
        ):
            return _failed("lens-laws", case, "action functoriality broken")
    return SuiteResult("lens-laws", True, cases)


def square_suite(seed: int, cases: int) -> SuiteResult:
    """Generated squares commute, pastings commute, mutations are caught."""
    rng = _suite_rng(seed, "squares")
    for case in _cases(cases):
        sq = random_square(rng)
        if not check_square(sq):
            return _failed("squares", case, "generated square fails")
        beside = random_square_from(rng, sq.right)
        if not check_square(paste_horizontal(sq, beside)):
            return _failed("squares", case, "horizontal pasting fails")
        below = random_square_from(
            rng, random_lens(rng, sq.bottom.source, random_interface(rng)),
            top=sq.bottom,
        )
        if not check_square(paste_vertical(sq, below)):
            return _failed("squares", case, "vertical pasting fails")
        mutated, (o, a3) = mutate_square(rng, sq)
        verdict = check_square(mutated)
        if verdict.holds:
            return _failed("squares", case, "mutation not caught")
        if not _witness_hits_mutation(mutated, verdict.witness, (o, a3)):
            why = f"witness {verdict.witness} does not reach the mutated cell"
            return _failed("squares", case, why)
    return SuiteResult("squares", True, cases)


def _witness_hits_mutation(
    sq: DetSquare, witness: Optional[tuple[str, Optional[str]]], mutated: tuple[str, Optional[str]]
) -> bool:
    """Does the reported counterexample exercise the same right-lens cell
    that was perturbed? Several witnesses may reach one cell, so compare the
    reached cell rather than the raw pair."""
    if witness is None:
        return False
    o_w, a3_w = witness
    o_m, a3_m = mutated
    top_fwd, left_fwd = sq.top.fwd.table, sq.left.fwd.table
    if a3_m is None:
        return a3_w is None and top_fwd[o_w] == top_fwd[o_m]
    if a3_w is None:
        return False
    cell_w = (top_fwd[o_w], sq.bottom.push[left_fwd[o_w]][a3_w])
    cell_m = (top_fwd[o_m], sq.bottom.push[left_fwd[o_m]][a3_m])
    return cell_w == cell_m


def matrix_suite(seed: int, cases: int) -> SuiteResult:
    """The composition theorem on random systems and lenses, for periods 1 to
    3, each pair rewired once (`_matrix_theorem`)."""
    rng = _suite_rng(seed, "matrix")
    for case in _cases(cases):
        iface = random_interface(rng, 5)
        target = random_interface(rng, 5)
        sys = random_system(rng, iface)
        lens = random_lens(rng, iface, target)
        at = _matrix_theorem(lens, sys)
        for k in range(1, 4):
            match = at(k)
            if not match:
                return SuiteResult(
                    "matrix-theorem",
                    False,
                    case + 1,
                    f"case {case}, k={k}: {match.mismatch}",
                )
    return SuiteResult("matrix-theorem", True, cases)


#: The packaged fixture `lv.json`.
_LV_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "lv.json")


def _lv_fixture() -> tuple[OdeLens, OdeSystem]:
    """The predator-prey `wiring` lens and the `rabbit_fox` system it wires,
    from the packaged fixture `lv.json`."""
    project = load_project(_LV_PATH)
    return project.lens("wiring"), project.system("rabbit_fox")


def ode_functoriality_suite(seed: int, tol: float) -> SuiteResult:
    """Substitute-then-solve against solve-with-live-wiring on two fixtures."""
    rng = _suite_rng(seed, "ode")
    lens, pair = _lv_fixture()
    result = check_solve_functoriality(
        lens, pair, (2.0, 1.0), ParamSignal.constant((1.0, 0.5, 0.2, 0.4)), 0.0, 5.0, 1e-3, tol
    )
    if not result:
        return SuiteResult(
            "ode-functoriality", False, 1, f"predator-prey deviation {result.max_deviation}"
        )
    a = round(rng.uniform(0.1, 1.0), 3)
    b = round(rng.uniform(0.1, 1.0), 3)
    sys = OdeSystem(
        ["s"], ["y"], ["p", "q"], {"y": "s"}, {"s": f"{a} - p*s^3 - q*s"}
    )
    lin = OdeLens(
        ["y"], ["p", "q"], ["y2"], ["u", "v"],
        {"y2": "y"}, {"p": "u", "q": f"v + {b}*y"},
    )
    result = check_solve_functoriality(
        lin, sys, (0.5,), ParamSignal.constant((0.3, 0.2)), 0.0, 5.0, 1e-3, tol
    )
    if not result:
        return SuiteResult(
            "ode-functoriality", False, 2, f"polynomial deviation {result.max_deviation}"
        )
    return SuiteResult("ode-functoriality", True, 2)
