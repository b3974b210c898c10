"""A small arithmetic expression language for vector fields, readouts, and wiring.

Grammar (whitespace insignificant):

    sum     := product (('+' | '-') product)*
    product := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative exponent
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and '/'.
Parentheses, calls, unary minus and exponents nest at most MAX_NESTING deep,
which bounds the recursive-descent parser's own stack. Nothing else bounds a
tree's depth: a flat chain such as `x+x+...+x` is parsed by a loop.
The only functions are sin, cos, exp, log. There are no binders, so
substitution is plain simultaneous replacement.

Every walk over expressions is a loop over one list, built without
recursion: `Dag` lowers expressions to their distinct subtrees in post-order,
equal subtrees sharing one entry. So no walk recurses, and a subtree that
many paths reach, as wiring by substitution builds, is visited once.
`compile_table` turns a table into the Python function `opendyn.ode`
evaluates fields with; `evaluate` defines what it computes and explains
every error it meets.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import ExprEvalError, ExprSyntaxError, _shown

FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

#: Deepest nesting of parentheses, calls, unary minus and exponents that the
#: recursive-descent parser accepts; deeper text would exhaust Python's stack.
MAX_NESTING = 100

#: Most nodes one ODE table entry may have written out as a tree, as a project
#: file stores it. A compose copies a bwd into every use of a parameter, so it
#: multiplies sizes; `opendyn.ode` refuses a bigger entry before printing it.
MAX_NODES = 1_000_000


class _Node:
    """Equality and hashing on the `Dag`: constants compare by type and repr,
    so Num(0.0) != Num(-0.0) and Num(1) != Num(1.0)."""

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
        text = _expand(parts, 0)
        lets = ", ".join(f"{names[j]} = {_expand(parts, j)}" for j in shared)
        return f"{text} where {lets}" if lets else text


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

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
            position = self.index.setdefault(key, len(self.nodes))
            if position == len(self.nodes):
                self.nodes.append(e)
                self.operands.append(ops)
            at[id(e)] = position
        self.roots.append(at[id(root)])
        return self.roots[-1]


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"|(?P<op>[+\-*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.lastgroup is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", position)
        self.advance()

    def parse(self) -> Expr:
        expr = self.sum()
        kind, value, position = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {value!r} after expression", position)
        return expr

    def chain(self, ops: str, operand) -> Expr:
        """operand ((op in ops) operand)*, associating to the left."""
        expr = operand()
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return expr
            self.advance()
            expr = BinOp(value, expr, operand())

    def sum(self) -> Expr:
        return self.chain("+-", self.product)

    def product(self) -> Expr:
        return self.chain("*/", self.factor)

    def factor(self) -> Expr:
        kind, value, position = self.peek()
        if self.nesting == MAX_NESTING:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_NESTING} levels", position)
        self.nesting += 1
        if kind == "op" and value == "-":
            self.advance()
            result = Neg(self.factor())
        else:
            result = self.power()
        self.nesting -= 1
        return result

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, value, position = self.advance()
        if kind == "num":
            number = float(value)
            if number == math.inf:  # it would print as the name inf
                raise ExprSyntaxError(f"numeral {value!r} is not a finite float", position)
            return Num(number)
        if kind == "ident":
            peek_kind, peek_value, _ = self.peek()
            if peek_kind == "op" and peek_value == "(":
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {value!r}", position)
                self.advance()
                arg = self.sum()
                self.expect_op(")")
                return Call(value, arg)
            return Var(value)
        if kind == "op" and value == "(":
            result = self.sum()
            self.expect_op(")")
            return result
        shown = value if value else "end of input"
        raise ExprSyntaxError(f"expected a value, got {shown!r}", position)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


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
            node = BinOp(node.op, new[ops[0]], new[ops[1]])
        elif isinstance(node, Neg):
            node = Neg(new[ops[0]])
        elif isinstance(node, Call):
            node = Call(node.fn, new[ops[0]])
        new.append(node)
    return new[dag.roots[0]]


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """The value of `e` with its variables read from `env`, operands left to
    right; the first failure raises ExprEvalError."""
    dag = Dag((e,))
    values: list = []
    for node, ops in zip(dag.nodes, dag.operands):
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
    return values[dag.roots[0]]


# -- compilation -------------------------------------------------------------


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

    The function is straight-line Python, a statement per entry of the Dag
    that is neither a constant nor an argument, so any depth compiles and a
    shared subtree is computed once. It only computes, with `math` called
    directly and an unbound name read from an empty dict, giving what
    `evaluate` gives, bit for bit. It raises exactly when some `evaluate`
    raises, since Python's `/` refuses exactly the divisors it does (0.0,
    -0.0 and 0); then `evaluate` replays the table and raises its first
    error, prefixed `<what> component '<key>': `.
    """
    if dag is None:
        dag = Dag(table[key] for key in keys)
    # a name listed twice reads its last value, as a dict built in order would
    arg_of = {name: f"_a{j}" for j, name in enumerate(args)}
    namespace = {"_pow": math.pow, "_unbound": {}}
    lines: list[str] = []
    local: list[str] = []  # the local or constant holding each entry

    def const(value) -> str:
        name = f"_k{len(namespace)}"
        namespace[name] = value
        return name

    for node, ops in zip(dag.nodes, dag.operands):
        operand = [local[j] for j in ops]
        if isinstance(node, Num):
            local.append(const(node.value))
            continue
        if isinstance(node, Var) and node.name in arg_of:
            local.append(arg_of[node.name])
            continue
        if isinstance(node, Var):
            rhs = f"_unbound[{const(node.name)}]"
        elif isinstance(node, Neg):
            rhs = f"-{operand[0]}"
        elif isinstance(node, Call):
            rhs = f"{const(FUNCTIONS[node.fn])}({operand[0]})"
        elif node.op == "^":
            rhs = f"_pow({operand[0]}, {operand[1]})"
        else:
            rhs = f"{operand[0]} {node.op} {operand[1]}"
        local.append(f"_v{len(lines)}")
        lines.append(f"        {local[-1]} = {rhs}")

    def explain(*values) -> None:
        env = dict(zip(args, values))
        for key in keys:
            try:
                evaluate(table[key], env)
            except ExprEvalError as exc:
                raise ExprEvalError(f"{what} component {key!r}: {exc}") from None

    namespace["_explain"] = explain
    params = ", ".join(f"_a{j}" for j in range(len(args)))
    returned = "".join(f"{local[root]}, " for root in dag.roots)
    source = "\n".join([
        f"def _compiled({params}):",
        "    try:",
        *lines,
        f"        return ({returned})",
        "    except (ArithmeticError, ValueError, LookupError):",
        f"        _explain({params})",
        "        raise",
        "",
    ])
    exec(compile(source, f"<compiled {what}>", "exec"), namespace)
    return namespace["_compiled"]
