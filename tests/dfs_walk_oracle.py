"""The orbit walk as a depth-first search over slots, kept as an oracle.

`opendyn.deterministic._maps_into` fills one slot at a time across blocks of
rows held as columns, and `_orbits` reads each chart column off the phi
columns. The functions here are the walk they replaced: a stack of iterators,
one per filled slot, that tries each candidate of a slot in canonical order
and tests every constraint the slot completes on that one tuple. Both yield
the same rows in the same order; this one costs a Python iteration per slot
per tuple tried, so it serves the small differential tests. It leaves out the
walk budget, which the tests of `MAX_WALK` and `MAX_SLOTS` pin on the library.
"""

from __future__ import annotations

from typing import Iterator, Optional

from opendyn import DetSystem, Machine


def dfs_maps_into(rep: DetSystem, sys: Machine) -> Iterator[tuple[str, ...]]:
    """Every (phi, isharp) from `rep` into `sys` as a slot tuple, in the
    product order over the slots: phi(s), then isharp(s, i) for every rep
    input i, for every rep state s in canonical order. A slot phi(s') whose
    constraint phi(update_rep(s, i)) = update(phi(s), isharp(s, i)) has its
    other two slots earlier is computed rather than searched; every other
    constraint is tested once its last slot is filled. Each update cell is
    read through the effect's `point`, so a cell that reaches no state for
    sure cuts the branch."""
    rep_states = rep.states.elements
    rep_inputs = rep.interface.inputs.elements
    width = 1 + len(rep_inputs)
    phi_slot = {s: pos * width for pos, s in enumerate(rep_states)}
    n = len(rep_states) * width
    domains = [
        sys.states.elements if slot % width == 0 else sys.interface.inputs.elements
        for slot in range(n)
    ]
    forced: list[Optional[tuple[int, int]]] = [None] * n
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for s in rep_states:
        for ipos, i in enumerate(rep_inputs):
            src, inp, dst = phi_slot[s], phi_slot[s] + 1 + ipos, phi_slot[rep.update[s][i]]
            if dst > inp and forced[dst] is None:
                forced[dst] = (src, inp)
            else:
                checks[max(inp, dst)].append((src, inp, dst))
    point = sys.effect.point
    update = {s: {i: point(cell) for i, cell in row.items()} for s, row in sys.update.items()}

    def candidates(slot: int):
        if forced[slot] is None:
            return iter(domains[slot])
        src, inp = forced[slot]
        target = update[combo[src]][combo[inp]]
        return iter(() if target is None else (target,))

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


def dfs_orbits(rep: DetSystem, sys: Machine) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Every map from `rep` into `sys` as a (chart, element) row of slot
    tuples, in `dfs_maps_into`'s order: the chart is the element with each
    phi(s) replaced by its output."""
    width = 1 + len(rep.interface.inputs)
    for element in dfs_maps_into(rep, sys):
        chart = list(element)
        for pos in range(0, len(chart), width):
            chart[pos] = sys.readout(chart[pos])
        yield tuple(chart), element
