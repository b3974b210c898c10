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
One orbit walk, one apex construction (from the preimages of the one-step
`bwd` table) and one fiber match serve every step, all on slot tuples; labels
are joined with `|` only where a Family, Span or FamilyMatch is handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import ClassVar, Iterable, Iterator, Mapping, Optional

from .errors import BoundaryError, ValidationError
from .finset import (
    Family,
    FamilyMatch,
    FinMap,
    FinSet,
    Span,
    _family,
    _fibers,
    _match_fibers,
    expect_str,
    join_labels,
    product_finset,
)

#: Most entries a lens span's matrix may have, and most charts either side of
#: it may have; `lens_to_span` refuses a larger span before it builds a chart
#: set. At k = 3 a lens from 3 outputs x 3 inputs to 4 outputs x 5 inputs
#: has 729 x 8,000 = 5,832,000 entries, and `opendyn matrix` writes them as
#: 53 MB of JSON.
MAX_MATRIX_ENTRIES = 10_000_000


@dataclass(frozen=True)
class DetInterface:
    """An interface: the input and output alphabets a machine exposes."""

    inputs: FinSet
    outputs: FinSet

    def __repr__(self) -> str:
        return f"DetInterface(inputs={self.inputs}, outputs={self.outputs})"


def _label_problem(value, values: FinSet) -> Optional[str]:
    return None if value in values else f"= {value!r} is not in {values}"


def _check_nested_table(
    table: Mapping, rows: FinSet, cols: FinSet, values: FinSet, what: str, cell_problem=_label_problem
) -> dict:
    """Validate a (rows x cols) table given as nested dicts; `cell_problem(cell,
    values)` says what is wrong with one entry, or None."""
    for key in table:
        if key not in rows:
            raise ValidationError(f"{what} has a row for unknown element {key!r}")
    normalized: dict[str, dict] = {}
    for r in rows:
        if r not in table:
            raise ValidationError(f"{what} is missing a row for {r!r}")
        row = table[r]
        for key in row:
            if key not in cols:
                raise ValidationError(f"{what}[{r!r}] has an entry for unknown element {key!r}")
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
    with one update cell, or None; `product(a, b, states)` is the cell of two
    machines run side by side, on the product states; `is_unit_at(cell, s)`
    says whether the cell stays at s for sure; `cell_to_obj` and
    `cell_from_obj(value, states, what)` are the JSON codec of one cell.
    """

    cell_problem = staticmethod(_label_problem)

    @staticmethod
    def product(a: str, b: str, states: FinSet) -> str:
        return join_labels(a, b)

    @staticmethod
    def is_unit_at(cell: str, state: str) -> bool:
        return cell == state

    @staticmethod
    def cell_to_obj(cell: str) -> str:
        return cell

    @staticmethod
    def cell_from_obj(value, states: FinSet, what: str) -> str:
        return expect_str(value, what)


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

    def check_run(self, s0: str, word: list[str]) -> None:
        """Refuse a run from an unknown start state or over an unknown input."""
        if s0 not in self.states:
            raise ValidationError(f"unknown start state {s0!r}")
        for w in word:
            if w not in self.interface.inputs:
                raise ValidationError(f"unknown input {w!r}")

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


class DetSystem(Machine):
    """A deterministic Moore machine: update S x I -> S."""

    __slots__ = ()
    effect = Identity


class _Rewiring:
    """What a lens and a chart share: an interface map given by `fwd` on
    outputs plus one input table, whose attribute name is `table`."""

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
        self.bwd = _check_nested_table(bwd, source.outputs, target.inputs, source.inputs, "bwd")

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
        self.push = _check_nested_table(push, source.outputs, source.inputs, target.inputs, "push")

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
    return DetLens(iface, iface, FinMap.identity(iface.outputs), bwd)


def identity_chart(iface: DetInterface) -> DetChart:
    push = {o: {i: i for i in iface.inputs} for o in iface.outputs}
    return DetChart(iface, iface, FinMap.identity(iface.outputs), push)


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
    return DetLens(l1.source, l2.target, l1.fwd.then(l2.fwd), bwd)


def compose_charts(c1: DetChart, c2: DetChart) -> DetChart:
    if c1.target != c2.source:
        raise BoundaryError(
            f"cannot compose charts: first target {c1.target!r} differs from second source {c2.source!r}"
        )
    push = {
        o: {i: c2.push[c1.fwd(o)][c1.push[o][i]] for i in c1.source.inputs}
        for o in c1.source.outputs
    }
    return DetChart(c1.source, c2.target, c1.fwd.then(c2.fwd), push)


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
    return type(sys)(sys.states, lens.target, sys.readout.then(lens.fwd), update)


def tensor_systems(a: Machine, b: Machine) -> Machine:
    """Run two machines side by side; everything is the componentwise product,
    and update cells multiply in the machines' shared effect."""
    if type(a) is not type(b):
        raise BoundaryError(f"cannot tensor a {type(a).__name__} with a {type(b).__name__}")
    states = product_finset(a.states, b.states)
    iface = DetInterface(
        product_finset(a.interface.inputs, b.interface.inputs),
        product_finset(a.interface.outputs, b.interface.outputs),
    )
    readout = FinMap(
        states,
        iface.outputs,
        {
            join_labels(sa, sb): join_labels(a.readout(sa), b.readout(sb))
            for sa in a.states
            for sb in b.states
        },
    )
    cell_product = a.effect.product
    update = {
        join_labels(sa, sb): {
            join_labels(ia, ib): cell_product(a.update[sa][ia], b.update[sb][ib], states)
            for ia in a.interface.inputs
            for ib in b.interface.inputs
        }
        for sa in a.states
        for sb in b.states
    }
    return type(a)(states, iface, readout, update)


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
    whose charts pick out steady states.
    """
    if k < 1:
        raise ValidationError(f"cycle length must be at least 1, got {k}")
    states = FinSet(f"c{j}" for j in range(k))
    iface = DetInterface(FinSet(["*"]), states)
    update = {f"c{j}": {"*": f"c{(j + 1) % k}"} for j in range(k)}
    return DetSystem(states, iface, FinMap.identity(states), update)


def chart_hom_set(rep: DetInterface, iface: DetInterface) -> FinSet:
    """All charts rep -> iface as labels.

    Each chart is flattened slot by slot: for every rep output o (canonical
    order) its image g(o), followed by the pushed input g#(o, i) for every
    rep input i. Enumeration is the product order over these slots.
    """
    domains: list[tuple[str, ...]] = []
    for _o in rep.outputs:
        domains.append(iface.outputs.elements)
        for _i in rep.inputs:
            domains.append(iface.inputs.elements)
    return FinSet(join_labels(*combo) for combo in product(*domains))


def _maps_into(rep: DetSystem, sys: DetSystem) -> Iterator[tuple[str, ...]]:
    """Every (phi, isharp) from `rep` into `sys` as a slot tuple.

    The slots are phi(s) followed by isharp(s, i) for every rep input i, for
    every rep state s in canonical order. The search fills them depth first,
    each running in canonical order, so the tuples come out in the product
    order over the slots. A branch is cut as soon as the three slots of one
    constraint phi(update_rep(s, i)) = update(phi(s), isharp(s, i)) are
    filled and disagree; a slot phi(s') whose constraint has its other two
    slots earlier is computed rather than searched. On a walking k-cycle this
    walks a start state and an input word: |S| * |I|^k tuples tried, not
    (|S| * |I|)^k.
    """
    rep_states = rep.states.elements
    rep_inputs = rep.interface.inputs.elements
    width = 1 + len(rep_inputs)
    phi_slot = {s: pos * width for pos, s in enumerate(rep_states)}
    n = len(rep_states) * width
    domains = [
        sys.states.elements if slot % width == 0 else sys.interface.inputs.elements
        for slot in range(n)
    ]
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
    update = sys.update

    def candidates(slot: int):
        if forced[slot] is None:
            return iter(domains[slot])
        src, inp = forced[slot]
        return iter((update[combo[src]][combo[inp]],))

    if n == 0:
        yield ()
        return
    combo: list[str] = [""] * n
    stack = [candidates(0)]
    while stack:
        slot = len(stack) - 1
        tests = checks[slot]
        for value in stack[-1]:
            combo[slot] = value
            if not tests or all(combo[d] == update[combo[s]][combo[i]] for s, i, d in tests):
                break
        else:
            stack.pop()
            continue
        if slot + 1 == n:
            yield tuple(combo)
        else:
            stack.append(candidates(slot + 1))


def _orbits(rep: DetSystem, sys: DetSystem) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Every map from `rep` into `sys` as a (chart, element) row of slot
    tuples, in `_maps_into`'s order: the element is the map's slot tuple, and
    its chart is that tuple with each phi(s) replaced by its output."""
    width = 1 + len(rep.interface.inputs)
    for element in _maps_into(rep, sys):
        chart = list(element)
        for pos in range(0, len(chart), width):
            chart[pos] = sys.readout(chart[pos])
        yield tuple(chart), element


def representable_span(rep: DetSystem, sys: DetSystem) -> Family:
    """All ways of mapping `rep` into `sys`, fibered over the chart used.

    The base is every chart rep.interface -> sys.interface. An element is a
    state map phi together with an input assignment isharp such that
    phi(update_rep(s, i)) = update(phi(s), isharp(s, i)) for all (s, i);
    the output half of its chart is then forced to be readout . phi. The
    element label interleaves phi(s) with the isharp values slot by slot,
    mirroring the base encoding.
    """
    if rep.interface.outputs != rep.states or any(rep.readout(s) != s for s in rep.states):
        raise ValidationError("representing system must expose its entire state")
    return _family(chart_hom_set(rep.interface, sys.interface), _orbits(rep, sys))


def steady_span(sys: Machine) -> Family:
    """States whose update stays put for sure, fibered over (output, input) pairs.

    On a deterministic machine this is representable_span(walking_cycle(1),
    sys), including the label encoding, computed by direct enumeration of
    S x I; on a Markov machine the update must be the point distribution.
    """
    is_unit_at = sys.effect.is_unit_at
    rows = (
        ((sys.readout(s), i), (s, i))
        for s in sys.states
        for i in sys.interface.inputs
        if is_unit_at(sys.update[s][i], s)
    )
    return _family(product_finset(sys.interface.outputs, sys.interface.inputs), rows)


def _check_period(k: int) -> None:
    if k < 1:
        raise ValidationError(f"orbit period must be at least 1, got {k}")


def periodic_orbit_span(sys: DetSystem, k: int) -> Family:
    """Orbits of period dividing k, fibered over k-tuples of (output, input) pairs."""
    _check_period(k)
    return representable_span(walking_cycle(k), sys)


def periodic_orbits(sys: DetSystem, k: int) -> Iterator[tuple[str, str]]:
    """The (chart, element) labels of `periodic_orbit_span(sys, k)`, element
    by element in its total order, without building its chart base.

    Labels join their parts with `|`, so parts that contain it can make two
    elements, or two charts, print alike; like the span's `FinSet`s, this
    raises `duplicate element label` then.
    """
    _check_period(k)
    charts: dict[str, tuple[str, ...]] = {}
    elements: set[str] = set()
    for chart, combo in _orbits(walking_cycle(k), sys):
        chart_label, element = join_labels(*chart), join_labels(*combo)
        if element in elements:
            raise ValidationError(f"duplicate element label {element!r}")
        if charts.setdefault(chart_label, chart) != chart:
            raise ValidationError(f"duplicate element label {chart_label!r}")
        elements.add(element)
        yield chart_label, element


def _lens_apex(lens: DetLens, charts: Iterable[tuple[str, ...]]) -> list[tuple]:
    """The elements of a lens's period-k span over the given source charts
    (o_j, i_j)_j, as (apex, left, right) slot tuples in the whole apex's
    product order; the left leg is the chart. The span is the one-step span
    of `bwd` taken position by position: over (o, i) lie the (o, i') with
    bwd(o, i') = i, and their right leg is (fwd(o), i')."""
    # steps[o, i]: the one-step elements over (o, i) as (positions of o and
    # i', apex slots, right leg slots); `bwd` is normalized to canonical row
    # and column order, so concatenated positions sort in the apex's order
    steps = {(o, i): [] for o in lens.source.outputs for i in lens.source.inputs}
    for m, (o, row) in enumerate(lens.bwd.items()):
        for n, (i2, i) in enumerate(row.items()):
            steps[o, i].append(((m, n), (o, i2), (lens.fwd(o), i2)))
    elements = []
    for chart in charts:
        over = [((), (), ())]
        for pair in zip(chart[::2], chart[1::2]):
            over = [(k + k1, a + a1, r + r1) for k, a, r in over for k1, a1, r1 in steps[pair]]
        elements.extend((key, apex, chart, right) for key, apex, right in over)
    elements.sort()
    return [(apex, chart, right) for _key, apex, chart, right in elements]


def lens_to_span(lens: DetLens, rep_interface: DetInterface) -> Span:
    """The span a lens induces between chart sets out of a walking-cycle interface.

    An apex element assigns, to each cycle position, an old output o and a
    new input i'. The left leg fills the old input as bwd(o, i'); the right
    leg pushes the output forward as fwd(o). Both legs are functions of the
    apex, so the matrix of this span has exactly one 1 per apex element.
    The apex is `_lens_apex` over the source charts that apex elements lie
    over: those with (o, bwd(o, i')) at every position. A span whose matrix
    would have more than `MAX_MATRIX_ENTRIES` entries is a `ValidationError`
    that states its size.
    """
    if len(rep_interface.inputs) != 1:
        raise ValidationError(
            "representing interface must have a single input (a walking cycle)"
        )
    k = len(rep_interface.outputs)
    n_source, n_target = (
        (len(iface.outputs) * len(iface.inputs)) ** k for iface in (lens.source, lens.target)
    )
    if max(n_source * n_target, n_source, n_target) > MAX_MATRIX_ENTRIES:
        raise ValidationError(
            f"the lens span at period {k} is {n_source} x {n_target} charts, a matrix of "
            f"{n_source * n_target} entries; more than MAX_MATRIX_ENTRIES = {MAX_MATRIX_ENTRIES}"
        )
    source = chart_hom_set(rep_interface, lens.source)
    target = chart_hom_set(rep_interface, lens.target)
    hit = dict.fromkeys((o, i) for o, row in lens.bwd.items() for i in row.values())
    charts = (sum(pairs, ()) for pairs in product(hit, repeat=len(rep_interface.outputs)))
    elements = _lens_apex(lens, charts)
    apex = FinSet(join_labels(*element) for element, _, _ in elements)
    left = {z: join_labels(*down) for z, (_, down, _) in zip(apex, elements)}
    right = {z: join_labels(*up) for z, (_, _, up) in zip(apex, elements)}
    return Span(source, target, apex, FinMap(apex, source, left), FinMap(apex, target, right))


def check_matrix_theorem(lens: DetLens, sys: DetSystem, k: int) -> FamilyMatch:
    """Orbits of the rewired machine vs the lens span applied to the original orbits.

    The two families must always be fiberwise bijective; a mismatch on any
    valid input is a defect, not a data problem. The result equals
    `families_isomorphic(periodic_orbit_span(compose_lens_system(lens, sys), k),
    apply_span_to_family(lens_to_span(lens, walking_cycle(k).interface),
    periodic_orbit_span(sys, k)))`, but no chart set is built: both sides come
    from the one orbit walk, the span's apex is built over the charts that
    carry orbits only, and fibers are compared where they are nonempty.
    """
    rewired = compose_lens_system(lens, sys)  # refuses a lens whose source is not sys's
    _check_period(k)
    cycle = walking_cycle(k)
    _, orbit_fibers = _fibers(_orbits(cycle, sys))
    # apply_span_to_family's elements "apex|orbit": by apex, then by orbit
    pushed = _fibers(
        (up, (*apex, orbit))
        for apex, down, up in _lens_apex(lens, orbit_fibers)
        for orbit in orbit_fibers[down]
    )

    def order(chart: tuple[str, ...]) -> tuple[int, ...]:
        """Positions of interleaved (output, new input) labels: canonical order."""
        sets = (lens.target.outputs, lens.target.inputs)
        return tuple(sets[pos % 2].position(x) for pos, x in enumerate(chart))

    return _match_fibers(
        _fibers(_orbits(cycle, rewired)), pushed, order, lambda chart: join_labels(*chart)
    )


def run_word(sys: DetSystem, s0: str, word: list[str]) -> list[tuple[str, str]]:
    """Drive the machine from s0 along a word; returns every (state, output) visited."""
    sys.check_run(s0, word)
    state = s0
    path = [(state, sys.readout(state))]
    for w in word:
        state = sys.update[state][w]
        path.append((state, sys.readout(state)))
    return path
