"""Finite deterministic machines composed by lenses.

A system here is a Moore machine: states S, interface (inputs I, outputs O), a
readout S -> O and an update S x I -> effect(S). `Machine` is the shape shared
by `DetSystem` (identity effect: the update is S x I -> S) and the stochastic
module's `StochSystem` (distribution effect). Lenses rewire interfaces (a
forward map on outputs plus a backward map that fills inputs from outputs),
charts push interfaces forward covariantly, and squares witness that a lens
pair and a chart pair are compatible.

Steady states and period-k orbits of a machine are organized into a Family
over the set of charts out of a walking k-cycle; `lens_to_span` turns a lens
into a span between these chart sets, and `check_matrix_theorem` verifies
that rewiring a machine and then collecting its orbits agrees, up to a
fiberwise bijection, with applying that span to the orbits of the original
machine. That is span (= matrix-of-sets) arithmetic acting on behaviors.
The theorem reads these public objects, and its verdict is decided by the
span's matrix applied to a count vector. A chart set is a `ProductSet` and
is never enumerated; an orbit family is bounded when it is made and walks
when it is read, counting its charts in a pass that forms no element, and
forming its rows, which read update cells through the effect's `point`,
only when they are first read; a lens span is the k-th tensor power
(`finset.tensor_spans`) of the one-step span of `bwd`, so it pushes a count
vector factor by factor, pushes a family's rows through the charts that
carry orbits only, and forms its matrix one row at a time. `steady` and
`matrix` write the same walk's rows and the same span's matrix rows as they
are formed (`periodic_orbit_rows`, `lens_matrix_rows`). One lens and
machine checked at many periods go through `_matrix_theorem`, which forms
the rewired machine and the lens's one-step span once per pair; a walking
cycle and the half of a walk plan that it fixes (`_rep_layout`) are formed
once per period per process (`_period_cycle`), for the theorem and for
`steady` alike, and each period's bounds are still checked before it walks.
Labels are joined with `|` where a Family, Span or FamilyMatch hands them
out, or a row is streamed, and print uniquely since a `FinSet`'s labels all
have one number of parts. One run loop, `simulate_system`, draws each step
through the effect's `sample`.

The public constructors (`FinMap`, `DetSystem`, `StochSystem`, `DetLens`,
`DetChart`) and the project loader check every table they are given and
normalize it to canonical row and column order. The combinators that build
their results from parts that were already checked, `FinMap.then` and
`FinMap.identity`, `identity_lens`, `identity_chart`, `compose_lenses`,
`compose_charts`, `compose_lens_system` and `tensor_systems`,
`walking_cycle`, and the generators of `opendyn.laws`, build through a
trusted path instead
(`finset._finmap`, `_machine`, `_rewiring`) that sets the same slots without
checks: each writes its tables in canonical order, so the objects are the
ones the public constructors would build. The project loader's accept pass
builds a well-formed finite entry through the same path, once it has
checked every table itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Optional

from .errors import BoundaryError, ValidationError, _shown
from .finset import (
    Family,
    FamilyMatch,
    FinMap,
    FinSet,
    ProductSet,
    Span,
    _family,
    _finmap,
    _labelled,
    _span,
    apply_span_to_family,
    families_isomorphic,
    join_labels,
    product_finset,
    span_to_matrix,
    tensor_spans,
)

#: Most entries a lens span's matrix may have, and most charts either side of
#: it may have; `lens_matrix` and `lens_matrix_rows` refuse a larger matrix
#: before they build anything of size k. At k = 3 a lens from 3 outputs x 3
#: inputs to 4 outputs x 5 inputs has 729 x 8,000 = 5,832,000 entries, and
#: `opendyn matrix` writes them as 53 MB of JSON.
MAX_MATRIX_ENTRIES = 10_000_000

#: Most update entries a product machine may have (`tensor_systems`): its
#: cells, |S_a|·|I_a|·|S_b|·|I_b|, and for a Markov machine its weights,
#: (Σ|supp| over a's cells)·(Σ|supp| over b's cells). Both are counted before
#: anything is built. On a 2-CPU VM the 400-state, 2-input deterministic
#: machine's square (640,000 cells) took 1.8 s and 225 MB, and `opendyn
#: tensor` wrote it as 32 MB of JSON.
MAX_TENSOR_ENTRIES = 1_000_000

#: Most tuples a walk may try, |S|^phis·|I|^inputs (`_walk_size`): |S|·|I|^k for a
#: period-k orbit walk, which tries them all however few orbits it finds. Unbounded,
#: the latch's span at k = 12 (2·3^12 tuples) took 2.3-2.6 s and 302 MB on a 2-CPU VM.
MAX_WALK = 1_000_000

#: Most states a walking cycle may have, so the longest period an orbit walk
#: or a lens span may have. Where |I| = 1, or |S| = 0, |S|·|I|^k does not grow
#: with k, but each orbit still fills 2k slots and each chart label has 2k parts.
MAX_PERIOD = 10_000

#: Most slots, tuples times representing states, a walk may fill (|S|·|I|^k·k at period
#: k): on a 2-CPU VM, 300 states under one input at k = 10,000 took 2.5-2.8 s and 151 MB.
MAX_SLOTS = 10_000_000

#: Most cells, live rows times filled slots, one block of the orbit walk holds
#: (`_maps_into`); it bounds the walk's columns, not the rows it hands out.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class DetInterface:
    """An interface: the input and output alphabets a machine exposes."""

    inputs: FinSet
    outputs: FinSet

    def __repr__(self) -> str:
        return f"DetInterface(inputs={self.inputs}, outputs={self.outputs})"


def _label_problem(value, values: FinSet) -> Optional[str]:
    return None if value in values else f"= {_shown(value)} is not in {values}"


def _check_nested_table(
    table: Mapping, rows: FinSet, cols: FinSet, values: FinSet, what: str, cell_problem=_label_problem
) -> dict:
    """Validate a (rows x cols) table given as nested dicts; `cell_problem(cell,
    values)` says what is wrong with one entry, or None."""
    for key in table:
        if key not in rows:
            raise ValidationError(f"{what} has a row for unknown element {_shown(key)}")
    normalized: dict[str, dict] = {}
    for r in rows:
        if r not in table:
            raise ValidationError(f"{what} is missing a row for {r!r}")
        row = table[r]
        for key in row:
            if key not in cols:
                raise ValidationError(f"{what}[{r!r}] has an entry for unknown element {_shown(key)}")
        normalized_row = {}
        for c in cols:
            if c not in row:
                raise ValidationError(f"{what}[{r!r}] is missing an entry for {c!r}")
            v = row[c]
            problem = cell_problem(v, values)
            if problem:
                raise ValidationError(f"{what}[{r!r}][{c!r}] {problem}")
            normalized_row[c] = v
        normalized[r] = normalized_row
    return normalized


class Identity:
    """The identity effect: a deterministic update cell is the next state itself.

    An effect says what a machine's update lands in. The shared machine code
    calls its static methods: `cell_problem(cell, states)` says what is wrong
    with one update cell, or None; `product(a, b, states)`, for machines on
    the states `a` and `b`, is the function that takes a cell of each to
    their cell on the product states `states`, run side by side;
    `weights(update)` counts the weights an update table's cells hold, so a
    product's before it is built; `point(cell)`
    is the state the cell reaches for sure, or None; `sample(cell, rng)` draws
    one. `opendyn.project` writes and reads the cells of each effect.
    """

    cell_problem = staticmethod(_label_problem)

    @staticmethod
    def product(a: FinSet, b: FinSet, states: FinSet) -> Callable[[str, str], str]:
        """The label of the pair of next states."""
        return join_labels

    @staticmethod
    def weights(update: Mapping[str, Mapping[str, str]]) -> int:
        """The weights the cells of an update table hold: one per cell."""
        return sum(map(len, update.values()))

    @staticmethod
    def point(cell: str) -> str:
        return cell

    @staticmethod
    def sample(cell: str, rng: random.Random) -> str:
        return cell


class Machine:
    """A Moore machine whose update lands in an effect: readout S -> O,
    update S x I -> effect(S). Subclasses differ only in their `effect`."""

    __slots__ = ("states", "interface", "readout", "update")
    effect: ClassVar[type]

    def __init__(
        self,
        states: FinSet,
        interface: DetInterface,
        readout: FinMap,
        update: Mapping[str, Mapping[str, object]],
    ):
        if readout.dom != states or readout.cod != interface.outputs:
            raise ValidationError(
                f"readout must map states {states} to outputs {interface.outputs}"
            )
        self.states = states
        self.interface = interface
        self.readout = readout
        self.update = _check_nested_table(
            update, states, interface.inputs, states, "update", self.effect.cell_problem
        )

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.states == other.states
            and self.interface == other.interface
            and self.readout == other.readout
            and self.update == other.update
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(states={self.states}, interface={self.interface!r})"


def _machine(
    cls: type, states: FinSet, interface: DetInterface, readout: FinMap, update: dict
) -> Machine:
    """The `cls` machine with these parts, set without checks: the readout must
    map the states to the outputs, and the update have a row per state and a
    cell per input, both in canonical order, each cell valid in `cls`'s effect."""
    machine = cls.__new__(cls)
    machine.states, machine.interface = states, interface
    machine.readout, machine.update = readout, update
    return machine


class DetSystem(Machine):
    """A deterministic Moore machine: update S x I -> S."""

    __slots__ = ()
    effect = Identity


class _Rewiring:
    """What a lens and a chart share: an interface map given by `fwd` on
    outputs plus one input table, whose attribute name is `table` and whose
    rows, columns and values `axes(source, target)` gives."""

    __slots__ = ("source", "target", "fwd")
    table: ClassVar[str]

    def __init__(self, source: DetInterface, target: DetInterface, fwd: FinMap, word: str):
        if fwd.dom != source.outputs or fwd.cod != target.outputs:
            raise ValidationError(f"{word} fwd must map {source.outputs} to {target.outputs}")
        self.source = source
        self.target = target
        self.fwd = fwd

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.source == other.source
            and self.target == other.target
            and self.fwd == other.fwd
            and getattr(self, self.table) == getattr(other, self.table)
        )


def _rewiring(
    cls: type, source: DetInterface, target: DetInterface, fwd: FinMap, table: dict
) -> _Rewiring:
    """The `cls` lens or chart with these parts, set without checks: `fwd` must
    map the source outputs to the target outputs, and `table` be what `cls`'s
    constructor would normalize its table to."""
    rewiring = cls.__new__(cls)
    rewiring.source, rewiring.target, rewiring.fwd = source, target, fwd
    setattr(rewiring, cls.table, table)
    return rewiring


class DetLens(_Rewiring):
    """Interface rewiring: fwd on outputs, bwd filling old inputs from (output, new input)."""

    __slots__ = ("bwd",)
    table = "bwd"

    def __init__(
        self,
        source: DetInterface,
        target: DetInterface,
        fwd: FinMap,
        bwd: Mapping[str, Mapping[str, str]],
    ):
        super().__init__(source, target, fwd, "lens")
        self.bwd = _check_nested_table(bwd, *self.axes(source, target), "bwd")

    @staticmethod
    def axes(source: DetInterface, target: DetInterface) -> tuple[FinSet, FinSet, FinSet]:
        """The rows, columns and values of `bwd`."""
        return source.outputs, target.inputs, source.inputs

    def __repr__(self) -> str:
        return f"DetLens({self.source!r} => {self.target!r})"


class DetChart(_Rewiring):
    """Covariant interface map: fwd on outputs, push sending old inputs forward."""

    __slots__ = ("push",)
    table = "push"

    def __init__(
        self,
        source: DetInterface,
        target: DetInterface,
        fwd: FinMap,
        push: Mapping[str, Mapping[str, str]],
    ):
        super().__init__(source, target, fwd, "chart")
        self.push = _check_nested_table(push, *self.axes(source, target), "push")

    @staticmethod
    def axes(source: DetInterface, target: DetInterface) -> tuple[FinSet, FinSet, FinSet]:
        """The rows, columns and values of `push`."""
        return source.outputs, source.inputs, target.inputs

    def __repr__(self) -> str:
        return f"DetChart({self.source!r} -> {self.target!r})"


class DetSquare:
    """A candidate compatibility square.

    Charts run horizontally (top: iface1 -> iface2, bottom: iface3 -> iface4)
    and lenses vertically (left: iface1 => iface3, right: iface2 => iface4).
    Construction checks only that the four corners agree; whether the square
    actually commutes is `check_square`'s job.
    """

    __slots__ = ("top", "bottom", "left", "right")

    def __init__(self, top: DetChart, bottom: DetChart, left: DetLens, right: DetLens):
        if left.source != top.source:
            raise BoundaryError("left lens and top chart disagree on the first corner")
        if right.source != top.target:
            raise BoundaryError("right lens and top chart disagree on the second corner")
        if left.target != bottom.source:
            raise BoundaryError("left lens and bottom chart disagree on the third corner")
        if right.target != bottom.target:
            raise BoundaryError("right lens and bottom chart disagree on the fourth corner")
        self.top = top
        self.bottom = bottom
        self.left = left
        self.right = right


def identity_lens(iface: DetInterface) -> DetLens:
    bwd = {o: {i: i for i in iface.inputs} for o in iface.outputs}
    return _rewiring(DetLens, iface, iface, FinMap.identity(iface.outputs), bwd)


def identity_chart(iface: DetInterface) -> DetChart:
    push = {o: {i: i for i in iface.inputs} for o in iface.outputs}
    return _rewiring(DetChart, iface, iface, FinMap.identity(iface.outputs), push)


def compose_lenses(l1: DetLens, l2: DetLens) -> DetLens:
    """First rewire by l1, then by l2; the backward pass threads right to left."""
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
    """Run the machine behind the lens: same states and update cells, rewired interface."""
    if lens.source != sys.interface:
        raise BoundaryError(
            f"lens source {lens.source!r} does not match system interface {sys.interface!r}"
        )
    update = {
        s: {i2: sys.update[s][lens.bwd[sys.readout(s)][i2]] for i2 in lens.target.inputs}
        for s in sys.states
    }
    return _machine(type(sys), sys.states, lens.target, sys.readout.then(lens.fwd), update)


def simulate_system(sys: Machine, s0: str, word: Iterable[str], seed: int = 0) -> list[str]:
    """The states of a run from s0 along a word, each step drawn through the
    effect from `random.Random(seed)`: the same arguments give the same path."""
    if s0 not in sys.states:
        raise ValidationError(f"unknown start state {s0!r}")
    rng = random.Random(seed)
    path = [s0]
    for w in word:
        if w not in sys.interface.inputs:
            raise ValidationError(f"unknown input {w!r}")
        path.append(sys.effect.sample(sys.update[path[-1]][w], rng))
    return path


def tensor_systems(a: Machine, b: Machine) -> Machine:
    """Run two machines side by side; everything is the componentwise product,
    and update cells multiply in the machines' shared effect. The product
    sets list their pairs a-major, so their labels are read off in order. A
    product of more than `MAX_TENSOR_ENTRIES` cells or weights is a
    `ValidationError` stating its counts, raised before anything is built."""
    if type(a) is not type(b):
        raise BoundaryError(f"cannot tensor a {type(a).__name__} with a {type(b).__name__}")
    cells = len(a.states) * len(a.interface.inputs) * len(b.states) * len(b.interface.inputs)
    weights = a.effect.weights(a.update) * b.effect.weights(b.update)
    if max(cells, weights) > MAX_TENSOR_ENTRIES:
        held = "" if weights == cells else f" holding {weights} weights"
        raise ValidationError(
            f"the tensor of a {len(a.states)}-state and a {len(b.states)}-state machine has "
            f"{cells} update cells{held}; more than MAX_TENSOR_ENTRIES = {MAX_TENSOR_ENTRIES}"
        )
    states = product_finset(a.states, b.states)
    iface = DetInterface(
        product_finset(a.interface.inputs, b.interface.inputs),
        product_finset(a.interface.outputs, b.interface.outputs),
    )
    pairs = list(zip(states, product(a.states, b.states)))
    inputs = list(zip(iface.inputs, product(a.interface.inputs, b.interface.inputs)))
    readout_a, readout_b = a.readout.table, b.readout.table
    readout = _finmap(
        states,
        iface.outputs,
        {s: join_labels(readout_a[sa], readout_b[sb]) for s, (sa, sb) in pairs},
    )
    cell_product = a.effect.product(a.states, b.states, states)
    update = {
        s: {i: cell_product(a.update[sa][ia], b.update[sb][ib]) for i, (ia, ib) in inputs}
        for s, (sa, sb) in pairs
    }
    return _machine(type(a), states, iface, readout, update)


@dataclass
class SquareResult:
    """Outcome of a square check; `witness` is a failing (output, input) pair."""

    holds: bool
    witness: Optional[tuple[str, Optional[str]]] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.holds


def check_square(sq: DetSquare) -> SquareResult:
    """Decide whether the square commutes.

    Two conditions, both quantified over the first corner's data:
    outputs must agree around the square, and pushing an input forward after
    pulling it back must equal pulling back after pushing forward.
    """
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


def paste_horizontal(sq1: DetSquare, sq2: DetSquare) -> DetSquare:
    """Glue two squares along a shared vertical edge (sq1's right lens)."""
    if sq1.right != sq2.left:
        raise BoundaryError("squares do not share a vertical edge")
    return DetSquare(
        compose_charts(sq1.top, sq2.top),
        compose_charts(sq1.bottom, sq2.bottom),
        sq1.left,
        sq2.right,
    )


def paste_vertical(sq1: DetSquare, sq2: DetSquare) -> DetSquare:
    """Stack two squares along a shared horizontal edge (sq1's bottom chart)."""
    if sq1.bottom != sq2.top:
        raise BoundaryError("squares do not share a horizontal edge")
    return DetSquare(
        sq1.top,
        sq2.bottom,
        compose_lenses(sq1.left, sq2.left),
        compose_lenses(sq1.right, sq2.right),
    )


def check_system_morphism(phi: FinMap, sys: DetSystem, sys2: DetSystem) -> bool:
    """Is phi a machine morphism over the shared interface?"""
    if sys.interface != sys2.interface:
        raise BoundaryError("systems do not share an interface")
    if phi.dom != sys.states or phi.cod != sys2.states:
        raise BoundaryError(
            f"morphism must map states {sys.states} to states {sys2.states}"
        )
    for s in sys.states:
        if sys2.readout(phi(s)) != sys.readout(s):
            return False
        for i in sys.interface.inputs:
            if phi(sys.update[s][i]) != sys2.update[phi(s)][i]:
                return False
    return True


def walking_cycle(k: int) -> DetSystem:
    """The k-state cycle that exposes its entire state.

    Charts out of it pick out period-k orbits; k = 1 is the one-state machine
    whose charts pick out steady states. A cycle of more than `MAX_PERIOD`
    states is refused before it is built.
    """
    if k < 1:
        raise ValidationError(f"cycle length must be at least 1, got {k}")
    _period_bound(k)
    states = FinSet(f"c{j}" for j in range(k))
    update = {s: {"*": nxt} for s, nxt in zip(states, states.elements[1:] + states.elements[:1])}
    iface = DetInterface(FinSet(["*"]), states)
    return _machine(DetSystem, states, iface, FinMap.identity(states), update)


def _period_bound(k: int) -> None:
    """Refuse a period past `MAX_PERIOD`, as a cycle of that length."""
    if k > MAX_PERIOD:
        raise ValidationError(f"cycle length {k} is more than MAX_PERIOD = {MAX_PERIOD}")


@lru_cache(maxsize=16)
def _period_cycle(k: int) -> tuple[DetSystem, tuple]:
    """A walking k-cycle that only this module holds, and its `_rep_layout`,
    formed once per period per process. The cycle is never handed out, so no
    caller can change it; `walking_cycle` builds a new one on every call."""
    cycle = walking_cycle(k)
    return cycle, _rep_layout(cycle)


def _charts(rep: DetInterface, iface: DetInterface) -> ProductSet:
    """All charts rep -> iface, slot by slot: for every rep output o
    (canonical order) its image g(o), followed by the pushed input g#(o, i)
    for every rep input i."""
    return ProductSet((iface.outputs, *[iface.inputs] * len(rep.inputs)) * len(rep.outputs))


def chart_hom_set(rep: DetInterface, iface: DetInterface) -> FinSet:
    """All charts rep -> iface as labels, in the product order over their
    slots: the label lists `opendyn matrix` writes."""
    return FinSet(_charts(rep, iface))


def _rep_layout(rep: DetSystem) -> tuple:
    """The half of a walk plan that `rep` alone fixes: the slot count, the
    forced slots and the constraint checks, the slots per rep state, and the
    counts `_walk_size` takes (phi slots searched, input slots, rep states).

    The slots are phi(s) followed by isharp(s, i) for every rep input i, for
    every rep state s in canonical order. A slot phi(s') whose constraint
    phi(update_rep(s, i)) = update(phi(s), isharp(s, i)) has its other two
    slots earlier is computed rather than searched; every other constraint
    cuts the rows whose three slots disagree once its last slot is filled.
    On a walking k-cycle this walks a start state and an input word: |S| *
    |I|^k tuples tried, not (|S| * |I|)^k.
    """
    rep_states = rep.states.elements
    rep_inputs = rep.interface.inputs.elements
    width = 1 + len(rep_inputs)
    phi_slot = {s: pos * width for pos, s in enumerate(rep_states)}
    n = len(rep_states) * width
    # forced[slot]: the (phi(s), isharp(s, i)) slots that fix phi(s') there;
    # checks[slot]: the constraints whose last slot is this one
    forced: list[Optional[tuple[int, int]]] = [None] * n
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for s in rep_states:
        for ipos, i in enumerate(rep_inputs):
            src, inp, dst = phi_slot[s], phi_slot[s] + 1 + ipos, phi_slot[rep.update[s][i]]
            if dst > inp and forced[dst] is None:
                forced[dst] = (src, inp)
            else:
                checks[max(inp, dst)].append((src, inp, dst))
    phis = sum(forced[slot] is None for slot in phi_slot.values())
    return n, tuple(forced), tuple(map(tuple, checks)), width, phis, n - len(rep_states), len(rep_states)


def _walk_plan(layout: tuple, sys: Machine) -> tuple:
    """The walk of every (phi, isharp) from a representing system into `sys`,
    planned for `_maps_into` from that system's `_rep_layout` and bounded: a
    walk past `MAX_WALK` tuples or `MAX_SLOTS` slots (`_walk_size`) is
    refused here, before any update cell is read. The plan also holds `sys`
    and the slots per rep state, from which `_chart_columns` reads a block's
    charts."""
    n, forced, checks, width, phis, inputs, m = layout
    tuples, slots = _walk_size(sys, phis, inputs, m)
    if tuples is None or tuples > MAX_WALK:  # printed as formulas: the counts may be huge
        raise ValidationError(f"the walk from a {m}-state machine tries |S|^{phis}*|I|^{inputs} = "
                              f"{len(sys.states)}^{phis}*{len(sys.interface.inputs)}^{inputs} "
                              f"tuples; more than MAX_WALK = {MAX_WALK}")
    if slots > MAX_SLOTS:
        raise ValidationError(f"the walk from a {m}-state machine fills |S|^{phis}*|I|^{inputs}*"
                              f"{m} = {len(sys.states)}^{phis}*{len(sys.interface.inputs)}^{inputs}*"
                              f"{m} slots; more than MAX_SLOTS = {MAX_SLOTS}")
    domains = [sys.states.elements, *[sys.interface.inputs.elements] * (width - 1)] * m
    return n, domains, forced, checks, sys, width


def _maps_into(plan: tuple) -> Iterator[list]:
    """Every (phi, isharp) of a `_walk_plan`, as blocks of slot columns.

    A block holds one column per filled slot over all of its live rows, and
    the walk fills one slot at a time across the whole block: a searched slot
    repeats each row once per value of its domain in canonical order, so the
    rows stay in the product order over the slots. It reads each update cell
    through the effect's `point`, so a cell that reaches no state for sure
    cuts its rows; the identity effect's cells are read as they are. A block whose next slot would take it past `_BLOCK_CELLS`
    cells (rows times slots) is split in half first, and the second half
    waits on a stack, so blocks come out in row order.
    """
    n, domains, forced, checks, sys, _ = plan
    point = sys.effect.point
    update = sys.update if point is Identity.point else {
        s: {i: point(cell) for i, cell in row.items()} for s, row in sys.update.items()
    }

    blocks: list[tuple[int, list]] = [(1, [])]  # (rows, columns), the next block last
    while blocks:
        rows, cols = blocks.pop()
        for slot in range(len(cols), n):
            source = forced[slot]
            grow = 1 if source else len(domains[slot])
            while rows > 1 and rows * grow * (slot + 1) > _BLOCK_CELLS:
                half = rows // 2
                blocks.append((rows - half, [col[half:] for col in cols]))
                rows, cols = half, [col[:half] for col in cols]
            if source is None:
                if grow > 1:
                    cols = [_repeat(col, grow) for col in cols]
                cols.append(domains[slot] * rows)
            else:
                cols.append([update[a][b] for a, b in zip(cols[source[0]], cols[source[1]])])
                if None in cols[-1]:
                    cols = _keep(cols, [cell is not None for cell in cols[-1]])
            for s, i, d in checks[slot]:
                keep = [c == update[a][b] for a, b, c in zip(cols[s], cols[i], cols[d])]
                if False in keep:
                    cols = _keep(cols, keep)
            rows = len(cols[-1])
            if not rows:
                break
        else:
            yield cols


def _repeat(col: list, times: int) -> list:
    """Each value of `col` `times` times over, in place: [a, b] -> [a, a, b, b]."""
    out = [None] * (len(col) * times)
    for j in range(times):
        out[j::times] = col
    return out


def _keep(cols: list, keep: list[bool]) -> list:
    """The rows of a block of columns where `keep` is true."""
    return [list(compress(col, keep)) for col in cols]


def _chart_columns(plan: tuple, cols: list) -> list:
    """A block's chart columns: its phi columns with the readout mapped over
    them, its isharp columns as they are."""
    *_, sys, width = plan
    readout = sys.readout.table.__getitem__
    return [col if pos % width else map(readout, col) for pos, col in enumerate(cols)]


def _orbits(plan: tuple) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Every map of a `_walk_plan` as a (chart, element) row of slot tuples,
    in `_maps_into`'s order: the element is the map's slot tuple, and its
    chart is that tuple with each phi(s) replaced by its output."""
    for cols in _maps_into(plan):
        charts = list(zip(*_chart_columns(plan, cols)))
        elements = list(zip(*cols))
        # free the columns before the rows are paired: small pairs allocated
        # among them would keep their memory from being returned
        cols.clear()
        yield from zip(charts, elements)


def _chart_counts(plan: tuple) -> Counter:
    """How many maps of a `_walk_plan` lie over each chart, keyed by the
    chart's slot tuple: one pass over `_maps_into`'s blocks that forms the
    charts only, never an element."""
    counts: Counter = Counter()
    for cols in _maps_into(plan):
        counts.update(zip(*_chart_columns(plan, cols)))
    return counts


def representable_span(rep: DetSystem, sys: Machine, *, layout: Optional[tuple] = None) -> Family:
    """All ways of mapping `rep` into `sys`, fibered over the chart used.

    The base is every chart rep.interface -> sys.interface, a `ProductSet`
    that is never enumerated; the family holds the walk's rows, so only the
    charts that carry a map take room. An element is a state map phi
    together with an input assignment isharp such that update(phi(s),
    isharp(s, i)) reaches phi(update_rep(s, i)) for sure, for all (s, i); the
    output half of its chart is then forced to be readout . phi. The element
    label interleaves phi(s) with the isharp values slot by slot, mirroring
    the base encoding. `sys` may have any effect; `rep` must be a DetSystem
    with at least one state, since a map from no states has no slots and so
    no label.

    The walk is checked and bounded in this call (`_walk_plan`), but it runs
    only when the family is read: its rows (`_orbits`) when they are first
    read, and its fiber counts, where those are read first, by a walk that
    forms charts only (`_chart_counts`). A caller that holds `rep`'s
    `_rep_layout` already, a memoized walking cycle's (`_period_cycle`),
    passes it as `layout`, and `rep` is then taken as checked.
    """
    if layout is None:
        if not isinstance(rep, DetSystem):
            raise ValidationError(f"representing system must be deterministic, got {type(rep).__name__}")
        if rep.interface.outputs != rep.states or any(rep.readout(s) != s for s in rep.states):
            raise ValidationError("representing system must expose its entire state")
        if not rep.states:
            raise ValidationError("representing system must have at least one state")
        layout = _rep_layout(rep)
    plan = _walk_plan(layout, sys)
    return _family(_charts(rep.interface, sys.interface),
                   lambda: _orbits(plan), lambda: _chart_counts(plan))


def _power(base: int, k: int) -> Optional[int]:
    """base^k, or None where k times base's bit length passes 256: the count
    then passes 2^128 and is left uncomputed, since at a large k computing or
    printing it could fail or hang."""
    return None if base > 1 and k * base.bit_length() > 256 else base**k


def _walk_size(sys: Machine, phis: int, inputs: int, rep_states: int) -> tuple:
    """The tuples a walk into `sys` tries, |S|^phis·|I|^inputs, and the slots they
    fill, tuples·rep_states; both None where `_power` leaves a factor uncomputed."""
    powers = _power(len(sys.states), phis), _power(len(sys.interface.inputs), inputs)
    tuples = 0 if 0 in powers else None if None in powers else powers[0] * powers[1]
    return tuples, None if tuples is None else tuples * rep_states


def _period_walk(k: int, *machines: Machine) -> tuple[DetSystem, tuple]:
    """The walking k-cycle and its layout (`_period_cycle`) once each walk into
    `machines` (a machine, then it rewired by a lens) is within `MAX_WALK`, k
    within `MAX_PERIOD` and each walk within `MAX_SLOTS`, in that order, on
    `_walk_size`'s counts for the cycle."""
    if k < 1:
        raise ValidationError(f"orbit period must be at least 1, got {k}")
    named = [(whose, m, *_walk_size(m, 1, k, k))
             for whose, m in zip(("", " of the rewired system"), machines)]
    for whose, m, tuples, _ in named:
        if tuples is None or tuples > MAX_WALK:
            count = "" if tuples is None else f" = {tuples}"
            raise ValidationError(f"the period-{k} orbit walk{whose} tries |S|*|I|^k = "
                                  f"{len(m.states)}*{len(m.interface.inputs)}^{k}{count} tuples; "
                                  f"more than MAX_WALK = {MAX_WALK}")
    _period_bound(k)  # here too: a period the memo holds builds no new cycle
    for whose, m, _, slots in named:
        if slots > MAX_SLOTS:
            raise ValidationError(f"the period-{k} orbit walk{whose} fills |S|*|I|^k*k = "
                                  f"{len(m.states)}*{len(m.interface.inputs)}^{k}*{k} = {slots} "
                                  f"slots; more than MAX_SLOTS = {MAX_SLOTS}")
    return _period_cycle(k)


def periodic_orbit_span(sys: Machine, k: int) -> Family:
    """Orbits of period dividing k, fibered over k-tuples of (output, input)
    pairs; a walk past `_period_walk`'s bounds is a `ValidationError`."""
    cycle, layout = _period_walk(k, sys)
    return representable_span(cycle, sys, layout=layout)


def steady_span(sys: Machine) -> Family:
    """States whose update stays put for sure, fibered over (output, input)
    pairs: the maps into `sys` from the one-state walking cycle."""
    return periodic_orbit_span(sys, 1)


def periodic_orbit_rows(sys: Machine, k: int) -> Iterator[tuple[str, str]]:
    """The (chart, element) labels of `periodic_orbit_span(sys, k)`, element
    by element in its total order, each formed as the walk finds it: the rows
    `opendyn steady` streams. The walk's bounds (`_period_walk`) are checked
    in this call, before any row is formed."""
    return _labelled(_orbits(_walk_plan(_period_walk(k, sys)[1], sys)))


def periodic_orbits(sys: Machine, k: int) -> list[tuple[str, str]]:
    """The rows of `periodic_orbit_rows(sys, k)`, as a list."""
    return list(periodic_orbit_rows(sys, k))


def lens_to_span(lens: DetLens, rep_interface: DetInterface, *, step: Optional[Span] = None) -> Span:
    """The span a lens induces between chart sets out of a walking-cycle interface.

    An apex element assigns, to each cycle position, an old output o and a
    new input i'. The left leg fills the old input as bwd(o, i'); the right
    leg pushes the output forward as fwd(o). Both legs are functions of the
    apex, so the matrix of this span has exactly one 1 per apex element.
    The span is the k-th tensor power of the one-step span of `bwd`, with
    apex (o, i'), left leg (o, bwd(o, i')) and right leg (fwd(o), i'), for
    k the interface's outputs; nothing of the apex's size is built here. The
    interface must have one input and at least one output, as a walking
    cycle's has. A caller that spans one lens at many periods forms the
    one-step span once (`_lens_step`) and passes it as `step`.
    """
    if len(rep_interface.inputs) != 1:
        raise ValidationError(
            "representing interface must have a single input (a walking cycle)"
        )
    if not rep_interface.outputs:
        raise ValidationError("representing interface must have at least one output (a walking cycle)")
    return tensor_spans(*[_lens_step(lens) if step is None else step] * len(rep_interface.outputs))


def _lens_step(lens: DetLens) -> Span:
    """The lens's one-step span: apex (o, i'), left leg (o, bwd(o, i')), right
    leg (fwd(o), i'), its rows read off `bwd` in canonical order."""
    s, t, fwd = lens.source, lens.target, lens.fwd.table
    rows = [((o, i2), (o, i), (fwd[o], i2)) for o, row in lens.bwd.items() for i2, i in row.items()]
    return _span(ProductSet((s.outputs, s.inputs)), ProductSet((t.outputs, t.inputs)),
                 ProductSet((s.outputs, t.inputs)), rows)


def _period_lens_span(lens: DetLens, k: int) -> Span:
    """The lens's span at period k. A matrix of more than
    `MAX_MATRIX_ENTRIES` entries, or with more charts than that on either
    side, is a `ValidationError` that states its size, raised before
    anything of size k is built; a count too large to print is stated as its
    formula."""
    sides = [len(iface.outputs) * len(iface.inputs) for iface in (lens.source, lens.target)]
    bases = [*sides, sides[0] * sides[1]]
    counts = [_power(base, max(k, 0)) for base in bases]  # walking_cycle refuses k < 1
    if any(count is None or count > MAX_MATRIX_ENTRIES for count in counts):
        n_source, n_target, entries = (
            f"{base}^{k}" if count is None else count for base, count in zip(bases, counts)
        )
        raise ValidationError(
            f"the lens span at period {k} is {n_source} x {n_target} charts, a matrix of "
            f"{entries} entries; more than MAX_MATRIX_ENTRIES = {MAX_MATRIX_ENTRIES}"
        )
    return lens_to_span(lens, walking_cycle(k).interface)


def lens_matrix(lens: DetLens, k: int) -> tuple[FinSet, FinSet, list[list[int]]]:
    """The lens's span at period k as lists: the source and target chart
    labels and the counting matrix between them that `opendyn matrix` writes,
    the k-th Kronecker power of the lens's one-step matrix, with its rows
    filled from `lens_matrix_rows`'s; no apex element is listed. A matrix
    past `MAX_MATRIX_ENTRIES` is refused first (`_period_lens_span`)."""
    span = _period_lens_span(lens, k)
    return FinSet(span.source), FinSet(span.target), span_to_matrix(span)


def lens_matrix_rows(lens: DetLens, k: int) -> tuple[ProductSet, ProductSet, Iterator[list[int]]]:
    """The source and target chart sets of `lens_matrix(lens, k)`, and its
    rows in order, each formed when it is asked for as the ascending columns
    of its 1s: the rows `opendyn matrix` streams. A matrix past
    `MAX_MATRIX_ENTRIES` is refused in this call, before any row is formed."""
    span = _period_lens_span(lens, k)
    return span.source, span.target, span._ones()


def check_matrix_theorem(lens: DetLens, sys: Machine, k: int) -> FamilyMatch:
    """Orbits of the rewired machine vs the lens span applied to the original orbits.

    The two families must always be fiberwise bijective; a mismatch on any
    valid input is a defect, not a data problem. The result is
    `families_isomorphic(periodic_orbit_span(compose_lens_system(lens, sys), k),
    apply_span_to_family(lens_to_span(lens, walking_cycle(k).interface),
    periodic_orbit_span(sys, k)))`. The verdict is decided by the span's
    matrix applied to a count vector: the rewired machine's fiber counts,
    found by a walk that forms charts only, against the span's one-step
    table applied position by position to the original machine's counts.
    No orbit element, apex element or element label is formed here: a match
    forms both families' rows, and its witness with its element labels,
    when the witness is first read, and a mismatch joins its one chart
    label. Both machines' walks are bounded before either starts. It is
    `_matrix_theorem(lens, sys)(k)`.
    """
    return _matrix_theorem(lens, sys)(k)


def _matrix_theorem(lens: DetLens, sys: Machine) -> Callable[[int], FamilyMatch]:
    """`check_matrix_theorem(lens, sys, k)` as a function of k, for one lens
    and machine at many periods.

    The rewired machine and the lens's one-step span are formed here, once,
    and each period's walking cycle and its half of the walk plan
    (`_rep_layout`) come from a memo of one per period per process
    (`_period_cycle`). Each call bounds its own period's walks
    (`_period_walk`) before it forms anything of them, so a caller gets each
    period's verdict or refusal in turn, and forms that period's families
    through `representable_span` and `lens_to_span`. The representing
    system is where a family other than the walking cycles would plug in.
    """
    rewired = compose_lens_system(lens, sys)  # refuses a lens whose source is not sys's
    step = _lens_step(lens)

    def at(k: int) -> FamilyMatch:
        cycle, layout = _period_walk(k, sys, rewired)
        return families_isomorphic(
            representable_span(cycle, rewired, layout=layout),
            apply_span_to_family(lens_to_span(lens, cycle.interface, step=step),
                                 representable_span(cycle, sys, layout=layout)),
        )

    return at


def run_word(sys: DetSystem, s0: str, word: list[str]) -> list[tuple[str, str]]:
    """Drive the machine from s0 along a word; returns every (state, output) visited."""
    return [(state, sys.readout(state)) for state in simulate_system(sys, s0, word)]
