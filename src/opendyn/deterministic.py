"""Finite machines composed by lenses, and the matrix theorem on their orbits.

A `Machine` is a Moore machine whose update lands in an effect: `DetSystem`
has the identity effect, the stochastic module's `StochSystem` the
distribution effect. Lenses rewire interfaces, charts push them forward, and
squares witness that a lens pair and a chart pair are compatible. README's
deterministic doctrine describes the orbit walk, the spans and the theorem.

The public constructors and the project loader check every table they are
given and normalize it to canonical order. The combinators that build from
parts already checked (`FinMap.then` and `.identity`, `identity_lens`,
`identity_chart`, `compose_lenses`, `compose_charts`,
`compose_lens_system`, `tensor_systems`, `walking_cycle`, the generators of
`opendyn.laws` and the loader's accept pass) build through a trusted path
(`finset._finmap`, `_machine`, `_rewiring`) that sets the same slots
without checks: each writes its tables in canonical order, so the objects
are the ones the public constructors would build.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import suppress
from functools import lru_cache
from itertools import chain, compress, product
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
    tensor_spans,
)
from .record import FrozenRecord, Record, _set

#: Most entries a lens span's matrix may have, and most charts either side of
#: it may have; `lens_matrix_rows` refuses a larger matrix before it builds
#: anything of size k. At k = 3 a lens from 3 outputs x 3 inputs to 4
#: outputs x 5 inputs has 729 x 8,000 = 5,832,000 entries, and `opendyn
#: matrix` writes them as 53 MB of JSON.
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


class DetInterface(FrozenRecord):
    """An interface: the input and output alphabets a machine exposes."""

    __slots__ = _fields = ("inputs", "outputs")

    def __init__(self, inputs: FinSet, outputs: FinSet):
        _set(self, "inputs", inputs)
        _set(self, "outputs", outputs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.inputs is other.inputs or self.inputs == other.inputs) and (
            self.outputs is other.outputs or self.outputs == other.outputs
        )

    __hash__ = FrozenRecord.__hash__

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

    An effect says what a machine's update lands in, through the static
    methods README lists, and `weights(update)`, which counts the weights an
    update table's cells hold, so a product's before it is built.
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


class Machine(Record):
    """A Moore machine whose update lands in an effect: readout S -> O,
    update S x I -> effect(S). Subclasses differ only in their `effect`."""

    __slots__ = _fields = ("states", "interface", "readout", "update")
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


class _Rewiring(Record):
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
    _fields = ("source", "target", "fwd", "bwd")
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
    _fields = ("source", "target", "fwd", "push")
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
    """A candidate compatibility square: charts run horizontally (top:
    iface1 -> iface2, bottom: iface3 -> iface4) and lenses vertically (left:
    iface1 => iface3, right: iface2 => iface4). Construction checks only that
    the four corners agree; whether it commutes is `check_square`'s job."""

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


# The combinators below read the tables of their arguments directly: every
# table the constructors and the trusted path hold is total and in canonical
# order, so a row's items run over its columns in order, and a map's table
# over its domain.


def identity_lens(iface: DetInterface) -> DetLens:
    inputs = iface.inputs.elements
    bwd = {o: dict(zip(inputs, inputs)) for o in iface.outputs.elements}
    return _rewiring(DetLens, iface, iface, FinMap.identity(iface.outputs), bwd)


def identity_chart(iface: DetInterface) -> DetChart:
    inputs = iface.inputs.elements
    push = {o: dict(zip(inputs, inputs)) for o in iface.outputs.elements}
    return _rewiring(DetChart, iface, iface, FinMap.identity(iface.outputs), push)


def compose_lenses(l1: DetLens, l2: DetLens) -> DetLens:
    """First rewire by l1, then by l2; the backward pass threads right to left."""
    if l1.target != l2.source:
        raise BoundaryError(
            f"cannot compose lenses: first target {l1.target!r} differs from second source {l2.source!r}"
        )
    fwd, bwd2 = l1.fwd.table, l2.bwd
    bwd = {o: {i2: row[a] for i2, a in bwd2[fwd[o]].items()} for o, row in l1.bwd.items()}
    return _rewiring(DetLens, l1.source, l2.target, l1.fwd.then(l2.fwd), bwd)


def compose_charts(c1: DetChart, c2: DetChart) -> DetChart:
    if c1.target != c2.source:
        raise BoundaryError(
            f"cannot compose charts: first target {c1.target!r} differs from second source {c2.source!r}"
        )
    fwd, push2 = c1.fwd.table, c2.push
    push = {o: {i: push2[fwd[o]][a] for i, a in row.items()} for o, row in c1.push.items()}
    return _rewiring(DetChart, c1.source, c2.target, c1.fwd.then(c2.fwd), push)


def compose_lens_system(lens: DetLens, sys: Machine) -> Machine:
    """Run the machine behind the lens: same states and update cells, rewired interface."""
    if lens.source != sys.interface:
        raise BoundaryError(
            f"lens source {lens.source!r} does not match system interface {sys.interface!r}"
        )
    readout, bwd = sys.readout.table, lens.bwd
    update = {s: {i2: row[a] for i2, a in bwd[readout[s]].items()} for s, row in sys.update.items()}
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


class SquareResult(Record):
    """Outcome of a square check; `witness` is a failing (output, input) pair."""

    __slots__ = _fields = ("holds", "witness", "reason")

    def __init__(
        self, holds: bool, witness: Optional[tuple[str, Optional[str]]] = None, reason: str = ""
    ):
        self.holds = holds
        self.witness = witness
        self.reason = reason

    def __bool__(self) -> bool:
        return self.holds


def check_square(sq: DetSquare) -> SquareResult:
    """Decide whether the square commutes: over the first corner's data,
    outputs must agree around the square, and pushing an input forward after
    pulling it back must equal pulling back after pushing forward."""
    top_fwd, left_fwd = sq.top.fwd.table, sq.left.fwd.table
    right_fwd, bottom_fwd = sq.right.fwd.table, sq.bottom.fwd.table
    for o, o2 in top_fwd.items():
        via_right, via_bottom = right_fwd[o2], bottom_fwd[left_fwd[o]]
        if via_right != via_bottom:
            return SquareResult(
                False,
                witness=(o, None),
                reason=f"outputs disagree at {o!r}: {via_right!r} != {via_bottom!r}",
            )
    for o, o2 in top_fwd.items():
        pushed, back = sq.top.push[o], sq.left.bwd[o]
        pulled, forward = sq.right.bwd[o2], sq.bottom.push[left_fwd[o]]
        for a3, i4 in forward.items():
            via_top, via_bottom = pushed[back[a3]], pulled[i4]
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


def walking_cycle(k: int) -> DetSystem:
    """The k-state cycle that exposes its entire state: charts out of it pick
    out period-k orbits, and at k = 1 steady states. A cycle of more than
    `MAX_PERIOD` states is refused before it is built."""
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
    rows stay in the product order over the slots. Each update cell is read
    through the effect's `point`, so a cell that reaches no state for sure
    cuts its rows. A block whose next slot would take it past `_BLOCK_CELLS`
    cells (rows times slots) is split in half first, the second half
    waiting on a stack, so blocks come out in row order.
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


def _cycle_counts(sys: Machine, top: int) -> list[Counter]:
    """The fiber counts of the maps into `sys` from the walking j-cycle, for
    every period j from 1 to `top`, each keyed as `_chart_counts` keys that
    period's walk: one walk over start states and input words of length `top`.

    A row holds its current state, its start state and its chart so far,
    the output of each state visited and the input that left it. Each step
    repeats every row once per input in canonical order, reads the next
    state through the effect's `point`, a cell with no point cutting its
    row, and counts the charts of the rows back at their start; the rows
    then take the next state's output. A block whose next step would take it
    past `_BLOCK_CELLS` cells is split in half first, as `_maps_into`'s are.
    """
    inputs, states, point = sys.interface.inputs.elements, sys.states.elements, sys.effect.point
    succ = {s: list(map(point, row.values())) for s, row in sys.update.items()}  # input by input
    readout = sys.readout.table.__getitem__
    counts = [Counter() for _ in range(top)]
    blocks = [(0, [states, states, list(map(readout, states))])]  # (steps, [current, start, *chart])
    while blocks:
        steps, cols = blocks.pop()
        for j in range(steps, top):
            rows = len(cols[0])
            while rows > 1 and rows * len(inputs) * (len(cols) + 2) > _BLOCK_CELLS:
                half = rows // 2
                blocks.append((j, [col[half:] for col in cols]))
                rows, cols = half, [col[:half] for col in cols]
            cols[0] = list(chain.from_iterable(map(succ.__getitem__, cols[0])))
            if len(inputs) > 1:
                cols[1:] = [_repeat(col, len(inputs)) for col in cols[1:]]
            cols.append(inputs * rows)
            if None in cols[0]:
                cols = _keep(cols, [s is not None for s in cols[0]])
            closed = [s == start for s, start in zip(cols[0], cols[1])]
            if True in closed:
                counts[j].update(zip(*[compress(col, closed) for col in cols[2:]]))
            if not closed or j + 1 == top:
                break
            cols.append(list(map(readout, cols[0])))
    return counts


def representable_span(rep: DetSystem, sys: Machine, *, layout: Optional[tuple] = None) -> Family:
    """All ways of mapping `rep` into `sys`, fibered over the chart used.

    An element is a state map phi with an input assignment isharp such that
    update(phi(s), isharp(s, i)) reaches phi(update_rep(s, i)) for sure, for
    all (s, i); its chart's output half is then readout . phi. Its label
    interleaves phi(s) with the isharp values slot by slot, as the base
    does. `sys` may have any effect; `rep` must be a DetSystem with at least
    one state, since a map from no states has no slots and so no label.

    The walk is bounded in this call (`_walk_plan`) and runs when the family
    is read: its rows by `_orbits`, its fiber counts, where read first, by
    `_chart_counts`. A caller that holds `rep`'s `_rep_layout` already
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


def lens_to_span(lens: DetLens, rep_interface: DetInterface, *, step: Optional[Span] = None) -> Span:
    """The span a lens induces between chart sets out of a walking-cycle interface.

    It is the k-th tensor power of the one-step span (`_lens_step`), for k
    the interface's outputs; nothing of the apex's size is built here. Both
    legs are functions of the apex, so its matrix has one 1 per apex
    element. The interface must have one input and at least one output, as
    a walking cycle's has. A caller that spans one lens at many periods
    passes the one-step span as `step`.
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


def lens_matrix_rows(lens: DetLens, k: int) -> tuple[ProductSet, ProductSet, Iterator[list[int]]]:
    """The lens's span at period k as the source and target chart sets and
    the rows of its counting matrix, the k-th Kronecker power of the lens's
    one-step matrix: the rows `opendyn matrix` streams, in order, each
    formed when it is asked for as the ascending columns of its 1s. A matrix
    of more than `MAX_MATRIX_ENTRIES` entries, or with more charts than that
    on either side, is a `ValidationError` that states its size, raised in
    this call before anything of size k is built; a count too large to print
    is stated as its formula."""
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
    span = lens_to_span(lens, walking_cycle(k).interface)
    return span.source, span.target, span._ones()


def check_matrix_theorem(lens: DetLens, sys: Machine, k: int) -> FamilyMatch:
    """Orbits of the rewired machine vs the lens span applied to the original orbits.

    The two families must always be fiberwise bijective; a mismatch on any
    valid input is a defect, not a data problem. The result is
    `families_isomorphic(periodic_orbit_span(compose_lens_system(lens, sys), k),
    apply_span_to_family(lens_to_span(lens, walking_cycle(k).interface),
    periodic_orbit_span(sys, k)))`, decided on fiber counts, so no element
    label is formed until the witness is read. Both machines' walks are
    bounded before either starts. It is `_matrix_theorem(lens, sys, k)` at
    k: one counting walk per machine serves every period up to k, and a
    witness, when read, plans period k's own walks and forms its rows by them.
    """
    return _matrix_theorem(lens, sys, k)(k)


def _matrix_theorem(lens: DetLens, sys: Machine, top: int) -> Callable[[int], FamilyMatch]:
    """`check_matrix_theorem(lens, sys, k)` as a function of k, for one lens
    and machine at the periods 1 to `top`: the rewired machine and the lens's
    one-step span are formed once, and one walk per machine (`_cycle_counts`)
    counts the orbits of every period up to the deepest one admitted.

    Each call bounds its own period's walks (`_period_walk`) before it forms
    anything of them, so refusals still come period by period: a caller gets
    each period's verdict or refusal in turn. The first call, or one past
    the periods walked so far, then bounds the periods after its own in
    order up to `top`, and walks each machine once, to the last period
    before the first one refused. No verdict plans a row walk: a witness,
    when read, plans its period's walks (`_walk_plan`) and forms the rows by
    them (`_orbits`). The plans never refuse, since `_period_walk` bounded
    the same counts (`_walk_size`).
    """
    rewired = compose_lens_system(lens, sys)  # refuses a lens whose source is not sys's
    step = _lens_step(lens)
    counts = [[], []]  # sys's and rewired's, a Counter per period walked

    def orbits(cycle: DetSystem, layout: tuple, machine: Machine, period_counts: Counter) -> Family:
        return _family(_charts(cycle.interface, machine.interface),
                       lambda: _orbits(_walk_plan(layout, machine)), lambda: period_counts)

    def at(k: int) -> FamilyMatch:
        cycle, layout = _period_walk(k, sys, rewired)
        if k > len(counts[0]):
            deepest = k
            with suppress(ValidationError):  # the walks stop before the first period refused
                for later in range(k + 1, top + 1):
                    _period_walk(later, sys, rewired)
                    deepest = later
            counts[:] = _cycle_counts(sys, deepest), _cycle_counts(rewired, deepest)
        return families_isomorphic(
            orbits(cycle, layout, rewired, counts[1][k - 1]),
            apply_span_to_family(lens_to_span(lens, cycle.interface, step=step),
                                 orbits(cycle, layout, sys, counts[0][k - 1])),
        )

    return at
