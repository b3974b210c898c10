"""The frozen dataclass expression nodes, kept as an oracle.

`opendyn.expr` builds its nodes as `__slots__` classes whose fields refuse
assignment, and `parse` and `substitute` build them through a private path.
The classes here are the frozen dataclasses they replaced, with the
`__repr__` they had, written through `dataclasses.fields`, and `==` and
`hash` on the same key: each distinct subtree in post-order, operands left to
right, keyed by its operator and its operands' positions, a variable's name,
or a constant's type and repr. `from_slots` copies an opendyn tree into this
form, one copy per node object, so what the tree shares the copy shares.
The differential tests require equal `repr`, `==` and `hash` from both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

from opendyn import expr


class _Node:
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Node) and _index(self) == _index(other)

    def __hash__(self) -> int:
        return hash(tuple(_index(self)))

    def __repr__(self) -> str:
        nodes, at, parts = [self], {id(self): 0}, []
        for e in nodes:
            part = [f"{type(e).__name__}("]
            for n, f in enumerate(fields(e)):
                value = getattr(e, f.name)
                if isinstance(value, _Node) and id(value) not in at:
                    at[id(value)] = len(nodes)
                    nodes.append(value)
                shown = at[id(value)] if isinstance(value, _Node) else repr(value)
                part += (f"{', ' if n else ''}{f.name}=", shown)
            parts.append(part + [")"])
        uses = Counter(p for part in parts for p in part if type(p) is int)
        shared = [
            j for j, part in enumerate(parts) if uses[j] > 1 and any(type(p) is int for p in part)
        ]
        names = {j: f"#{n}" for n, j in enumerate(shared, 1)}
        parts = [[names.get(p, p) if type(p) is int else p for p in part] for part in parts]
        text = expr._expand(parts, 0)
        lets = ", ".join(f"{names[j]} = {expr._expand(parts, j)}" for j in shared)
        return f"{text} where {lets}" if lets else text


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    arg: _Node


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Node):
    op: str
    left: _Node
    right: _Node


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    fn: str
    arg: _Node


def _index(root: _Node) -> dict[tuple, int]:
    """Each distinct subtree's key -> its position, in post-order; recursive,
    each node object lowered once."""
    index: dict[tuple, int] = {}
    at: dict[int, int] = {}

    def lower(e: _Node) -> int:
        if id(e) not in at:
            if isinstance(e, Num):
                key = ("num", type(e.value), repr(e.value))
            elif isinstance(e, Var):
                key = ("var", e.name)
            elif isinstance(e, Neg):
                key = ("neg", lower(e.arg))
            elif isinstance(e, Call):
                key = ("call", e.fn, lower(e.arg))
            else:
                key = (e.op, lower(e.left), lower(e.right))
            at[id(e)] = index.setdefault(key, len(index))
        return at[id(e)]

    lower(root)
    return index


def from_slots(e: expr.Expr, copies: dict | None = None) -> _Node:
    """The dataclass copy of an `opendyn.expr` tree; `copies` maps the id of
    each node object copied so far to its copy."""
    copies = {} if copies is None else copies
    if id(e) not in copies:
        if isinstance(e, expr.Num):
            copy = Num(e.value)
        elif isinstance(e, expr.Var):
            copy = Var(e.name)
        elif isinstance(e, expr.Neg):
            copy = Neg(from_slots(e.arg, copies))
        elif isinstance(e, expr.Call):
            copy = Call(e.fn, from_slots(e.arg, copies))
        else:
            copy = BinOp(e.op, from_slots(e.left, copies), from_slots(e.right, copies))
        copies[id(e)] = copy
    return copies[id(e)]
