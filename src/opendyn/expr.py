"""A small arithmetic expression language for vector fields, readouts, and wiring.

Grammar (whitespace insignificant):

    sum     := product (('+' | '-') product)*
    product := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative exponent
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and '/'.
Parentheses, calls, unary minus and exponents nest at most MAX_NESTING deep;
nothing else bounds a tree's depth. The only functions are sin, cos, exp,
log. There are no binders, so substitution is plain simultaneous replacement.

No walk over expressions recurses: each is a loop over a `Dag`, the
expressions' distinct subtrees in post-order. `evaluate` defines what the
compiled functions compute and explains every error they meet.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from itertools import chain, islice
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import ExprEvalError, ExprSyntaxError, _shown
from .record import FrozenRecord, _set

FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

#: Deepest nesting of parentheses, calls, unary minus and exponents that
#: `parse` accepts, counted in the grammar's `factor` levels.
MAX_NESTING = 100

#: Most nodes one ODE table entry may have written out as a tree, as a project
#: file stores it. A compose copies a bwd into every use of a parameter, so it
#: multiplies sizes; `opendyn.ode` refuses a bigger entry before printing it.
MAX_NODES = 1_000_000


class _Node(FrozenRecord):
    """Equality and hashing on the `Dag`: constants compare by type and repr,
    so Num(0.0) != Num(-0.0) and Num(1) != Num(1.0). A node's fields are
    slots, named in order by its class's `_fields`, and refuse assignment."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Node) and Dag((self,)).index == Dag((other,)).index

    def __hash__(self) -> int:
        return hash(tuple(Dag((self,)).index))

    def __repr__(self) -> str:
        """The dataclass form, written without recursion or field checks. A
        node object with operands that is reached along more than one path is
        written once, after `where`, as `#j = ...`, and as `#j` where it
        occurs; so the text grows with the node objects, not the paths."""
        nodes, at, parts = [self], {id(self): 0}, []
        for e in nodes:  # breadth first: `nodes` grows as operands are met
            part = [f"{type(e).__name__}("]
            for n, name in enumerate(e._fields):
                value = getattr(e, name)
                if isinstance(value, _Node) and id(value) not in at:
                    at[id(value)] = len(nodes)
                    nodes.append(value)
                shown = at[id(value)] if isinstance(value, _Node) else repr(value)
                part += (f"{', ' if n else ''}{name}=", shown)
            parts.append(part + [")"])
        uses = Counter(p for part in parts for p in part if type(p) is int)
        shared = [
            j for j, part in enumerate(parts) if uses[j] > 1 and any(type(p) is int for p in part)
        ]
        names = {j: f"#{n}" for n, j in enumerate(shared, 1)}
        parts = [[names.get(p, p) if type(p) is int else p for p in part] for part in parts]
        text = _expand(parts, 0)
        lets = ", ".join(f"{names[j]} = {_expand(parts, j)}" for j in shared)
        return f"{text} where {lets}" if lets else text


class Num(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Var(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Neg(_Node):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: "Expr"):
        _set(self, "arg", arg)


class BinOp(_Node):
    __slots__ = _fields = ("op", "left", "right")  # op: one of + - * / ^

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Call(_Node):
    __slots__ = _fields = ("fn", "arg")

    def __init__(self, fn: str, arg: "Expr"):
        _set(self, "fn", fn)
        _set(self, "arg", arg)


Expr = Union[Num, Var, Neg, BinOp, Call]


def _draft(cls: type) -> type:
    """A subclass of the node class `cls` whose fields take plain stores. The
    two share their slots, so a draft's `__class__` may be set to `cls`."""
    return type(f"_{cls.__name__}Draft", (cls,), {
        "__slots__": (), "__init__": object.__init__,
        "__setattr__": _set, "__delattr__": object.__delattr__,
    })


_NumDraft, _VarDraft, _NegDraft, _BinOpDraft, _CallDraft = map(
    _draft, (Num, Var, Neg, BinOp, Call)
)

# `parse` and `substitute` build nodes through these: a draft, its fields
# stored, then its class set, at a fraction of the cost of the classes' own
# `__init__`, whose stores go through `object.__setattr__`.


def _num(value: float) -> Num:
    node = _NumDraft()
    node.value = value
    node.__class__ = Num
    return node


def _var(name: str) -> Var:
    node = _VarDraft()
    node.name = name
    node.__class__ = Var
    return node


def _neg(arg: Expr) -> Neg:
    node = _NegDraft()
    node.arg = arg
    node.__class__ = Neg
    return node


def _binop(op: str, left: Expr, right: Expr) -> BinOp:
    node = _BinOpDraft()
    node.op, node.left, node.right = op, left, right
    node.__class__ = BinOp
    return node


def _call(fn: str, arg: Expr) -> Call:
    node = _CallDraft()
    node.fn, node.arg = fn, arg
    node.__class__ = Call
    return node


_DONE = object()  # on the lowering stack, above a node whose operands are being lowered


class Dag:
    """Expressions lowered to one list of their distinct subtrees, in post-order.

    `index` keys each entry on its operator and its operands' positions, a
    variable's name, or a constant's type and repr; `nodes[i]` is the first
    node met with entry i's key, `operands[i]` its operands' positions, and
    `roots` the positions of the expressions added. Entries come in the order
    evaluation, operands left to right, first reaches each subtree.
    """

    __slots__ = ("nodes", "operands", "index", "roots")

    def __init__(self, exprs: Iterable[Expr] = ()):
        self.nodes: list[Expr] = []
        self.operands: list[tuple[int, ...]] = []
        self.index: dict[tuple, int] = {}
        self.roots: list[int] = []
        for e in exprs:
            self.add(e)

    def add(self, root: Expr) -> int:
        """Lower `root` and return its position. A node object reached along
        many paths is lowered once. Anything that is not an expression node
        raises TypeError, and so does a node field outside the language: an
        operator outside + - * / ^, a function outside FUNCTIONS, a variable
        name that is not a string, a constant that is not an int or a float."""
        at: dict[int, int] = {}  # id of each node object lowered so far -> position
        stack: list = [root]
        while stack:
            e = stack.pop()
            if e is _DONE:  # the node under it has its operands lowered
                e = stack.pop()
                if isinstance(e, BinOp):
                    if e.op not in ("+", "-", "*", "/", "^"):
                        raise TypeError(f"operator {e.op!r} is not one of + - * / ^")
                    ops = (at[id(e.left)], at[id(e.right)])
                    key = (e.op, *ops)
                else:
                    if isinstance(e, Call) and not (isinstance(e.fn, str) and e.fn in FUNCTIONS):
                        raise TypeError(f"function {e.fn!r} is not one of {', '.join(FUNCTIONS)}")
                    ops = (at[id(e.arg)],)
                    key = ("call", e.fn, *ops) if isinstance(e, Call) else ("neg", *ops)
            elif id(e) in at:
                continue
            elif isinstance(e, BinOp):
                stack += (e, _DONE, e.right, e.left)
                continue
            elif isinstance(e, (Neg, Call)):
                stack += (e, _DONE, e.arg)
                continue
            elif isinstance(e, Var):
                if not isinstance(e.name, str):
                    raise TypeError(f"variable name {e.name!r} is not a string")
                ops, key = (), ("var", e.name)
            elif isinstance(e, Num):
                if type(e.value) not in (int, float):
                    raise TypeError(f"constant {e.value!r} is not an int or a float")
                ops, key = (), ("num", type(e.value), repr(e.value))
            else:
                raise TypeError(f"{_shown(e)} is not an expression")
            at[id(e)] = self._enter(key, e, ops)
        self.roots.append(at[id(root)])
        return self.roots[-1]

    def _enter(self, key: tuple, node: Expr, ops: tuple[int, ...]) -> int:
        """The position of the entry keyed `key`; when there is none yet,
        `node` with operands at `ops` is appended as it."""
        position = self.index.setdefault(key, len(self.nodes))
        if position == len(self.nodes):
            self.nodes.append(node)
            self.operands.append(ops)
        return position


# -- parsing -----------------------------------------------------------------

#: One token after optional whitespace: a numeral, a name or an operator,
#: tried in that order at each position.
_TOKEN_RE = re.compile(
    r"\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|[a-zA-Z_][a-zA-Z0-9_]*|[+\-*/^()])"
)
_OPERATORS = frozenset("+-*/^()")
#: How tightly each binary operator binds; a pending operator binding at
#: least as tightly as the next one is reduced before it.
_BINDS = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY = 3  # a pending unary minus or exponent: reduced when its factor ends


def parse(text: str, dag: Dag | None = None) -> Expr:
    """The expression `text` spells, as a tree. Given a `dag`, each node is
    entered into it as soon as it is read, operands first, so `dag` gets
    the entries and root `dag.add` would give the tree; a text that fails
    to parse may leave entries of what was read before the fault.

    One regex pass tokenizes the text, and an explicit stack of pending
    operators takes the place of the grammar's recursion; `depth` counts
    the open factors, and a factor that would open at MAX_NESTING is
    refused. A fault raises ExprSyntaxError at the token the grammar meets
    it on, after any character that is no token.
    """
    tokens = _TOKEN_RE.findall(text)
    # `findall` skips what no token starts at; `split` drops the same
    # whitespace as the regex's `\s`, so any other skipped character shows
    if sum(map(len, tokens)) != sum(map(len, text.split())):
        raise _character_error(text)
    tokens.append("")  # the end of input
    if dag is None:
        dag = Dag()
    enter = dag._enter
    # pending operators, innermost last, as (binds, operator, left operand,
    # its position); a group, "(" or a function name, binds 0, and so does
    # the end of input, "", under the rest
    stack: list[tuple] = [(0, "", None, 0)]
    depth = i = 0
    while True:  # a factor starts at token i
        token = tokens[i]
        if depth == MAX_NESTING:
            raise _syntax_error(
                f"expression nests deeper than {MAX_NESTING} levels", text, tokens, i
            )
        depth += 1
        i += 1
        if token == "-" or token == "(":
            stack.append((_UNARY, "neg", None, 0) if token == "-" else (0, "(", None, 0))
            continue
        if token.isidentifier():
            if tokens[i] == "(":
                if token not in FUNCTIONS:
                    raise _syntax_error(f"unknown function {token!r}", text, tokens, i - 1)
                stack.append((0, token, None, 0))
                i += 1
                continue
            node = _var(token)
            at = enter(("var", token), node, ())
        elif token and token not in _OPERATORS:
            number = float(token)
            if number == math.inf:  # it would print as the name inf
                raise _syntax_error(
                    f"numeral {token!r} is not a finite float", text, tokens, i - 1
                )
            node = _num(number)
            at = enter(("num", float, repr(number)), node, ())
        else:
            shown = token if token else "end of input"
            raise _syntax_error(f"expected a value, got {shown!r}", text, tokens, i - 1)
        while True:  # the atom `node` at `at` is read
            token = tokens[i]
            if token == "^":
                stack.append((_UNARY, "^", node, at))
                i += 1
                break
            depth -= 1  # and so is the factor around it
            binds = _BINDS.get(token, 1)
            while stack[-1][0] >= binds:
                pending, op, left, left_at = stack.pop()
                if pending == _UNARY:  # the factor it is part of ends with it
                    depth -= 1
                if left is None:
                    node = _neg(node)
                    at = enter(("neg", at), node, (at,))
                else:
                    node = _binop(op, left, node)
                    at = enter((op, left_at, at), node, (left_at, at))
            if token in _BINDS:
                stack.append((_BINDS[token], token, node, at))
                i += 1
                break
            group = stack[-1][1]
            if not group:
                if token:
                    raise _syntax_error(
                        f"unexpected {token!r} after expression", text, tokens, i
                    )
                dag.roots.append(at)
                return node
            if token != ")":
                raise _syntax_error("expected ')'", text, tokens, i)
            stack.pop()
            i += 1
            if group != "(":
                node = _call(group, node)
                at = enter(("call", group, at), node, (at,))


def _syntax_error(message: str, text: str, tokens: list[str], i: int) -> ExprSyntaxError:
    """The error `message` at token i, its position found again."""
    if i == len(tokens) - 1:
        return ExprSyntaxError(message, len(text))
    return ExprSyntaxError(message, next(islice(_TOKEN_RE.finditer(text), i, None)).start(1))


def _character_error(text: str) -> ExprSyntaxError:
    """The error at the first character of `text` that no token starts at."""
    pos = 0
    while match := _TOKEN_RE.match(text, pos):
        pos = match.end()
    stripped = text[pos:].lstrip()
    return ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))


# -- walks over the lowered list -----------------------------------------------

# Precedence levels for the printer; higher binds tighter.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def to_text(e: Expr) -> str:
    """Canonical printing: parse(to_text(e)) reproduces e exactly."""
    return _dag_text(Dag((e,)))


def _dag_text(dag: Dag) -> str:
    """`to_text` of the first root of `dag`, for a caller that has lowered it."""
    prec: list[int] = []
    # each entry's text: strings, and the positions of the operands whose
    # text goes between them
    parts: list[tuple] = []

    def wrap(j: int, looser_than: int) -> tuple:
        return ("(", j, ")") if prec[j] < looser_than else (j,)

    for node, ops in zip(dag.nodes, dag.operands):
        if isinstance(node, BinOp):
            p = _PREC[node.op]
            # '^' is right-associative: it parenthesizes its left operand on ties
            left, right = (p + 1, p) if node.op == "^" else (p, p + 1)
            op = f" {node.op} " if node.op in "+-" else node.op
            part = (*wrap(ops[0], left), op, *wrap(ops[1], right))
        elif isinstance(node, Neg):
            p = _PREC["neg"]
            part = ("-", *wrap(ops[0], p))
        else:
            p = _ATOM_PREC
            if isinstance(node, Call):
                part = (f"{node.fn}(", ops[0], ")")
            else:
                part = (str(node.name),) if isinstance(node, Var) else (repr(node.value),)
        prec.append(p)
        parts.append(part)
    return _expand(parts, dag.roots[0])


def _expand(parts: list, root: int) -> str:
    """The text of entry `root`: its parts, strings and the positions of the
    entries whose text goes between them, written out without recursion."""
    out = []
    stack: list = [root]
    while stack:
        item = stack.pop()
        if type(item) is int:
            stack += reversed(parts[item])
        else:
            out.append(item)
    return "".join(out)


def free_vars(e: Expr) -> set[str]:
    return {node.name for node in Dag((e,)).nodes if isinstance(node, Var)}


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous replacement of variables by expressions. Each distinct
    subtree is rebuilt once, so the result shares what `e` shares."""
    dag = Dag((e,))
    new: list = []
    for node, ops in zip(dag.nodes, dag.operands):
        if isinstance(node, Var):
            node = bindings.get(node.name, node)
        elif isinstance(node, BinOp):
            node = _binop(node.op, new[ops[0]], new[ops[1]])
        elif isinstance(node, Neg):
            node = _neg(new[ops[0]])
        elif isinstance(node, Call):
            node = _call(node.fn, new[ops[0]])
        new.append(node)
    return new[dag.roots[0]]


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """The value of `e` with its variables read from `env`, operands left to
    right; the first failure raises ExprEvalError."""
    dag = Dag((e,))
    values: list = []
    _walk(dag, env, values, len(dag.nodes))
    return values[dag.roots[0]]


def _walk(dag: Dag, env: Mapping[str, float], values: list, end: int) -> None:
    """Extend `values`, the values of the first entries of `dag`, through
    entry `end - 1`, as `evaluate` computes them."""
    for node, ops in zip(dag.nodes[len(values):end], dag.operands[len(values):end]):
        args = [values[j] for j in ops]
        if isinstance(node, Num):
            value = node.value
        elif isinstance(node, Var):
            if node.name not in env:
                raise ExprEvalError(f"unbound variable {node.name!r}")
            value = env[node.name]
        elif isinstance(node, Neg):
            value = -args[0]
        elif isinstance(node, BinOp) and node.op in _ARITHMETIC:
            if node.op == "/" and args[1] == 0.0:
                raise ExprEvalError(f"division by zero: {to_text(node)}")
            value = _ARITHMETIC[node.op](*args)
        else:  # a function call or a power, which `math` may refuse
            if isinstance(node, Call):
                fn, shown = FUNCTIONS[node.fn], f"{node.fn}({args[0]!r})"
            else:
                fn, shown = math.pow, f"{args[0]!r}^{args[1]!r}"
            try:
                value = fn(*args)
            except ValueError:
                raise ExprEvalError(f"{shown} is undefined") from None
            except OverflowError:
                raise ExprEvalError(f"{shown} overflows") from None
        values.append(value)


def evaluate_table(
    table: Mapping[str, Expr], keys: Sequence[str], env: Mapping[str, float], what: str,
    dag: Dag | None = None,
) -> tuple:
    """`evaluate` of `table[key]` for each key, walking `dag`, their lowering
    with `table[keys[j]]` its root j, where the caller has one. An error gets
    `<what> component '<key>': `. The walk meets the error `evaluate` of the
    first failing key meets: every entry before that key's first own entry
    belongs to an earlier key, and its own come in its evaluation order."""
    if dag is None:
        dag = Dag(table[key] for key in keys)
    values: list = []
    for key, root in zip(keys, dag.roots):
        try:
            _walk(dag, env, values, root + 1)
        except ExprEvalError as exc:
            raise ExprEvalError(f"{what} component {key!r}: {exc}") from None
    return tuple([values[root] for root in dag.roots[: len(keys)]])


#: What generated code raises where `evaluate` raises ExprEvalError.
FAULTS = (ArithmeticError, ValueError, LookupError)


def replayed(stages: Sequence[tuple], args: Sequence[str], values: tuple) -> ExprEvalError:
    """The error `evaluate` meets first computing `stages`, as `compile_tables`
    takes them, at these `values` of `args`. A caller of the generated code
    calls it where that code raised one of `FAULTS`; where `evaluate` meets
    no error, it raises that fault again."""
    env = dict(zip(args, values))
    try:
        for table, keys, what, dag in stages:
            env.update(zip(keys, evaluate_table(table, keys, env, what, dag)))
    except ExprEvalError as exc:
        return exc
    raise  # the fault being handled


# -- compilation -------------------------------------------------------------

#: Deepest an entry's code nests inside one generated statement; an entry
#: whose code would nest deeper is stored in a local. Python's parser takes
#: fewer than 200 nested parentheses.
_INLINE_NESTING = 32

#: The kinds of term computed once per parameter row: on floats they never raise.
_BINDABLE = ("+", "-", "*", "neg")


def compile_table(
    table: Mapping[str, Expr],
    keys: Sequence[str],
    args: Sequence[str],
    what: str,
    dag: Dag | None = None,
) -> Callable[..., tuple[float, ...]]:
    """One function of the values of `args`, positionally, returning the
    tuple of `table[key]` for each key. A caller that has lowered the table
    passes the `dag`, `table[keys[j]]` its root j.

    The function is straight-line Python. An entry of the Dag that two or
    more operands or roots use is computed once into a local; one used once
    is written where it is used, parenthesized only where precedence needs
    it, unless its code would nest `_INLINE_NESTING` deep, when it gets a
    local too. So any depth compiles, every entry is computed exactly once,
    and each expression evaluates its operands left to right. It only
    computes, with `math` called directly, a finite float constant written
    as a literal and an unbound name read from an empty dict, giving what
    `evaluate` gives, bit for bit. It raises one of `FAULTS` exactly when
    some `evaluate` raises, since Python's `/` refuses exactly the divisors
    it does (0.0, -0.0 and 0). The function returned calls it and there
    replays the table through `evaluate` (`replayed`), raising its first
    error, prefixed `<what> component '<key>': `; its `__wrapped__` is the
    generated function.
    """
    stages = ((table, keys, what, dag),)
    compiled = compile_tables(stages, args, ())()

    def checked(*values: float) -> tuple[float, ...]:
        try:
            return compiled(*values)
        except FAULTS:
            raise replayed(stages, args, values) from None

    checked.__wrapped__ = compiled
    return checked


def compile_tables(
    stages: Sequence[tuple[Mapping[str, Expr], Sequence[str], str, Dag | None]],
    states: Sequence[str],
    params: Sequence[str],
    readout: bool = False,
) -> Callable[..., Callable[..., tuple[float, ...]]]:
    """`compile_table` of a chain of (table, keys, what, dag) stages over the
    values of `states` then `params`, split in two: a function of the values
    of `params` that returns the function of the values of `states`, which
    computes each stage's table in turn and returns the last one's tuple. In
    a later stage a name is the value, bound to a local, of the latest
    earlier stage's key of that name, else the argument of that name. The
    state function holds no exception handler but the readout's below:
    where it raises one of `FAULTS`, its caller replays the stages
    (`replayed`).

    The outer function computes each term built from parameters and finite
    float constants by `+`, `-`, `*` and unary minus alone, once per call:
    on floats those never raise, so no value or error changes. With no
    `params` it takes nothing and computes the constant terms.

    With `readout`, roots of the last stage's `dag` past its keys' are a
    readout over the states, computed last when the state function gets a
    function after the states: it gets their tuple, or None where a term
    only they hold fails."""
    args = (*states, *params)
    # a name listed twice reads its last value, as a dict built in order
    # would; each name maps to its code and whether it is a parameter's
    scope = {name: (f"_a{j}", j >= len(states)) for j, name in enumerate(args)}
    namespace = {"_pow": math.pow, "_unbound": {}, "_faults": FAULTS}
    outer: list[str] = []  # the lines of the outer function
    lines: list[str] = []  # the lines of the state function
    read: list[str] = []  # the lines of its readout

    def const(value) -> str:
        name = f"_k{len(namespace)}"
        namespace[name] = value
        return name

    def hoist(j: int) -> None:  # entry j, a parameter term written out, into an outer local
        outer.append(f"_h{len(outer)} = {code[j]}")
        code[j], prec[j], nesting[j] = f"_h{len(outer) - 1}", _ATOM_PREC, 0

    for k, (table, keys, what, dag) in enumerate(stages, 1):
        if dag is None:
            dag = Dag(table[key] for key in keys)
        roots = dag.roots[: len(keys)]
        own = 1 + max(roots, default=-1)  # the entries the keys' roots reach come first
        extra = dag.roots[len(keys):] if readout and k == len(stages) else []
        end = max(own, 1 + max(extra, default=-1))
        # a root before the last stage counts twice: it gets a local, computed
        # even where no later stage reads it
        uses = Counter(chain(roots, extra, *dag.operands[:end], roots if k < len(stages) else ()))
        code: list[str] = []  # each entry's code: a name, a literal, or an expression
        prec: list[int] = []  # the precedence of each entry's code, as `_PREC` counts
        nesting: list[int] = []  # how deep each entry's code nests, 0 for a name
        bound: list[bool] = []  # whether the outer function computes each entry
        # an entry's key starts with its kind: an operator, "neg", "call", "var" or "num"
        for j, key, node, ops in zip(range(end), dag.index, dag.nodes, dag.operands):
            kind, p, depth, b = key[0], _ATOM_PREC, 0, False
            if kind == "num":
                b = key[1] is float and math.isfinite(node.value)
                text = key[2] if b else const(node.value)
                text = f"({text})" if text[0] == "-" else text
            elif kind == "var" and key[1] in scope:
                text, b = scope[key[1]]
            elif kind == "var":  # read from an empty dict, to fail as `evaluate` does
                text, depth = f"_unbound[{const(key[1])}]", 1
            else:
                b = kind in _BINDABLE and bound[ops[0]] and bound[ops[-1]]  # one or two operands
                for i in ops:
                    if not b and bound[i] and nesting[i]:
                        hoist(i)
                a = code[ops[0]]
                depth = 1 + max(nesting[ops[0]], nesting[ops[-1]])
                if kind == "neg":
                    p = _PREC["neg"]
                    text = f"-({a})" if prec[ops[0]] < p else f"-{a}"
                elif kind == "call":
                    text = f"{const(FUNCTIONS[key[1]])}({a})"
                elif kind == "^":
                    text = f"_pow({a}, {code[ops[1]]})"
                else:
                    p, right = _PREC[kind], code[ops[1]]
                    a = a if prec[ops[0]] >= p else f"({a})"
                    text = f"{a} {kind} {right if prec[ops[1]] > p else f'({right})'}"
            if depth and uses[j] > 1 or depth == _INLINE_NESTING:  # not a name or literal
                name = f"_h{len(outer)}" if b else f"_v{len(lines) + len(read)}"
                (outer if b else lines if j < own else read).append(f"{name} = {text}")
                text, p, depth = name, _ATOM_PREC, 0
            code.append(text)
            prec.append(p)
            nesting.append(depth)
            bound.append(b)
        for j in chain(roots, extra):
            if bound[j] and nesting[j]:
                hoist(j)
        scope.update({key: (code[root], bound[root]) for key, root in zip(keys, roots)})

    names = [f"_a{j}" for j in range(len(args))]
    if readout:  # the state function hands the readout to `_read` before it returns
        handed = [*read, f"_read(({''.join(f'{code[root]}, ' for root in extra)}))"]
        if read or any([nesting[root] for root in extra]):  # a term only it holds may fail
            handed = ["try:", *[f"    {line}" for line in handed]]
            handed += ["except _faults:", "    _read(None)"]
        read = ["if _read is not None:", *[f"    {line}" for line in handed], "return _f"]
    returned = f"({''.join(f'{code[root]}, ' for root in roots)})"
    source = "\n".join([
        f"def _bind({', '.join(names[len(states):])}):",
        *[f"    {line}" for line in outer],
        f"    def _compiled({', '.join(names[:len(states)] + ['_read=None'] * readout)}):",
        *[f"        {line}" for line in lines],
        f"        _f = {returned}" if readout else f"        return {returned}",
        *[f"        {line}" for line in read],
        "    return _compiled",
        "",
    ])
    whats = "/".join([what for _, _, what, _ in stages])
    exec(compile(source, f"<compiled {whats}>", "exec"), namespace)
    return namespace["_bind"]
