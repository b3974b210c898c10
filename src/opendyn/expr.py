"""A small arithmetic expression language for vector fields, readouts, and wiring.

Grammar (whitespace insignificant):

    sum     := product (('+' | '-') product)*
    product := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative exponent
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and '/'.
Parentheses, calls, unary minus and exponents nest at most MAX_NESTING deep,
and a parsed tree is at most MAX_DEPTH nodes deep, long flat chains such as
`x+x+...+x` included.
The only functions are sin, cos, exp, log. There are no binders, so
substitution is plain simultaneous replacement.

`compile_table` turns a table of expressions into one Python function of
positional values, which is how `opendyn.ode` evaluates fields. `evaluate`,
the recursive tree walk, defines what that function must compute, bit for
bit, and is the reference the tests compare it against. The generated code
only computes; when it fails, it replays the table through `evaluate`, so
every expression error is explained by the tree walk alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .errors import ExprEvalError, ExprSyntaxError

FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}

IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")

#: Deepest nesting of parentheses, calls, unary minus and exponents that the
#: recursive-descent parser accepts; deeper text would exhaust Python's stack.
MAX_NESTING = 100

#: Deepest tree, in nodes from the root to a leaf, that `parse` builds. The
#: tree walkers below and the nodes' equality and hashing recurse once per
#: level; real fields are a few dozen levels deep even after deep wiring.
MAX_DEPTH = 200


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

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
        self.text = text
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

    # Each rule returns the tree it parsed together with the tree's depth.

    def parse(self) -> Expr:
        expr, _ = self.sum()
        kind, value, position = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {value!r} after expression", position)
        return expr

    @staticmethod
    def node(expr: Expr, depth: int, position: int) -> tuple[Expr, int]:
        """A new inner node `depth` levels deep, built at the operator at `position`."""
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression is deeper than {MAX_DEPTH} levels", position)
        return expr, depth

    def chain(self, ops: str, operand) -> tuple[Expr, int]:
        """operand ((op in ops) operand)*, associating to the left."""
        expr, depth = operand()
        while True:
            kind, value, position = self.peek()
            if kind != "op" or value not in ops:
                return expr, depth
            self.advance()
            right, right_depth = operand()
            depth = 1 + max(depth, right_depth)
            expr, depth = self.node(BinOp(value, expr, right), depth, position)

    def sum(self) -> tuple[Expr, int]:
        return self.chain("+-", self.product)

    def product(self) -> tuple[Expr, int]:
        return self.chain("*/", self.factor)

    def factor(self) -> tuple[Expr, int]:
        kind, value, position = self.peek()
        if self.nesting == MAX_NESTING:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_NESTING} levels", position)
        self.nesting += 1
        if kind == "op" and value == "-":
            self.advance()
            arg, depth = self.factor()
            result = self.node(Neg(arg), 1 + depth, position)
        else:
            result = self.power()
        self.nesting -= 1
        return result

    def power(self) -> tuple[Expr, int]:
        base, depth = self.atom()
        kind, value, position = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent, exponent_depth = self.factor()
            return self.node(BinOp("^", base, exponent), 1 + max(depth, exponent_depth), position)
        return base, depth

    def atom(self) -> tuple[Expr, int]:
        kind, value, position = self.advance()
        if kind == "num":
            return Num(float(value)), 1
        if kind == "ident":
            peek_kind, peek_value, _ = self.peek()
            if peek_kind == "op" and peek_value == "(":
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {value!r}", position)
                self.advance()
                arg, depth = self.sum()
                self.expect_op(")")
                return self.node(Call(value, arg), 1 + depth, position)
            return Var(value), 1
        if kind == "op" and value == "(":
            result = self.sum()
            self.expect_op(")")
            return result
        shown = value if value else "end of input"
        raise ExprSyntaxError(f"expected a value, got {shown!r}", position)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# Precedence levels for the printer; higher binds tighter.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _ATOM_PREC


def to_text(e: Expr) -> str:
    """Canonical printing: parse(to_text(e)) reproduces e exactly."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        if _prec(e.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    left, right = to_text(e.left), to_text(e.right)
    if e.op == "^":
        # right-associative: parenthesize the left child on ties
        if _prec(e.left) <= _PREC["^"]:
            left = f"({left})"
        if _prec(e.right) < _PREC["^"]:
            right = f"({right})"
        return f"{left}^{right}"
    if _prec(e.left) < _PREC[e.op]:
        left = f"({left})"
    if _prec(e.right) <= _PREC[e.op]:
        right = f"({right})"
    if e.op in "+-":
        return f"{left} {e.op} {right}"
    return f"{left}{e.op}{right}"


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Num):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Call):
        return free_vars(e.arg)
    return free_vars(e.left) | free_vars(e.right)


def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneous replacement of variables by expressions."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Var):
        return bindings.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, bindings))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, bindings))
    return BinOp(e.op, substitute(e.left, bindings), substitute(e.right, bindings))


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Call):
        arg = evaluate(e.arg, env)
        try:
            return FUNCTIONS[e.fn](arg)
        except ValueError:
            raise ExprEvalError(f"{e.fn}({arg!r}) is undefined") from None
        except OverflowError:
            raise ExprEvalError(f"{e.fn}({arg!r}) overflows") from None
    left = evaluate(e.left, env)
    right = evaluate(e.right, env)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if e.op == "/":
        if right == 0.0:
            raise ExprEvalError(f"division by zero: {to_text(e)}")
        return left / right
    try:
        return math.pow(left, right)
    except ValueError:
        raise ExprEvalError(f"{left!r}^{right!r} is undefined") from None
    except OverflowError:
        raise ExprEvalError(f"{left!r}^{right!r} overflows") from None


# -- compilation -------------------------------------------------------------
#
# `compile_table` turns a table of expressions into straight-line Python: one
# statement per distinct inner node, in the post-order `evaluate` visits them,
# so no generated line nests and any tree depth compiles. Equal subtrees are
# interned bottom-up on (operator, operand local, operand local) keys and get
# one local, bound where the tree walk would first evaluate them, so values
# are bit-identical. The code only computes, with `math` called directly and
# an unbound name read from an empty dict. It raises where `evaluate` first
# raises, since it skips only subtrees that already succeeded and Python's `/`
# raises on exactly the divisors `evaluate` refuses (0.0, -0.0 and 0); its
# one `except` replays the table through `evaluate`, which forms the message.

_HELPERS = {"_pow": math.pow, "_unbound": {}, **{f"_{name}": fn for name, fn in FUNCTIONS.items()}}


class _Emitter:
    """Statements and interned locals for one generated function."""

    def __init__(self, args: Sequence[str]):
        # a name listed twice reads its last value, as a dict built in order would
        self.arg_of = {name: f"_a{j}" for j, name in enumerate(args)}
        self.namespace = dict(_HELPERS)
        self.by_key: dict[tuple, str] = {}
        self.by_id: dict[int, str] = {}
        self.lines: list[str] = []

    def const(self, value) -> str:
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def local(self, key: tuple, e: Expr, operands: Sequence[str]) -> str:
        """The local holding the node interned as `key`; the first time, a new
        local and the statement that computes it."""
        local = self.by_key.get(key)
        if local is None:
            if isinstance(e, Num):
                local = self.const(e.value)
            else:
                local = f"_v{len(self.lines)}"
                self.lines.append(f"        {local} = {self.rhs(e, operands)}")
            self.by_key[key] = local
        return local

    def rhs(self, e: Expr, operands: Sequence[str]) -> str:
        if isinstance(e, Var):
            return f"_unbound[{self.const(e.name)}]"
        if isinstance(e, Neg):
            return f"-{operands[0]}"
        if isinstance(e, Call):
            if e.fn not in FUNCTIONS:
                raise KeyError(e.fn)
            return f"_{e.fn}({operands[0]})"
        left, right = operands
        if e.op == "^":
            return f"_pow({left}, {right})"
        return f"{left} {e.op} {right}"

    def node(self, e: Expr, operands: list[str]) -> str:
        if isinstance(e, Num):
            return self.local(("num", type(e.value), repr(e.value)), e, operands)
        if isinstance(e, Var):
            return self.arg_of.get(e.name) or self.local(("var", e.name), e, operands)
        if isinstance(e, BinOp):
            return self.local((e.op, *operands), e, operands)
        if isinstance(e, Call):
            return self.local(("call", e.fn, *operands), e, operands)
        return self.local(("neg", *operands), e, operands)

    def visit(self, root: Expr) -> str:
        """The local holding `root`, emitting statements in evaluate's post-order."""
        by_id = self.by_id
        stack = [root]
        while stack:
            e = stack[-1]
            if id(e) in by_id:
                stack.pop()
                continue
            if isinstance(e, BinOp):
                children = (e.left, e.right)
            elif isinstance(e, (Neg, Call)):
                children = (e.arg,)
            else:
                children = ()
            pending = [c for c in children if id(c) not in by_id]
            if pending:
                stack.extend(reversed(pending))
                continue
            stack.pop()
            by_id[id(e)] = self.node(e, [by_id[id(c)] for c in children])
        return by_id[id(root)]


def compile_table(
    table: Mapping[str, Expr], keys: Sequence[str], args: Sequence[str], what: str
) -> Callable[..., tuple[float, ...]]:
    """One function of the values of `args`, positionally, returning the
    tuple of `table[key]` for each key.

    It computes what `evaluate` computes on each expression with `args`
    bound, bit for bit. When it fails, `evaluate` replays the table and
    raises its first error, prefixed `<what> component '<key>': `.
    """
    emitter = _Emitter(args)
    results = [emitter.visit(table[key]) for key in keys]

    def explain(*values) -> None:
        env = dict(zip(args, values))
        for key in keys:
            try:
                evaluate(table[key], env)
            except ExprEvalError as exc:
                raise ExprEvalError(f"{what} component {key!r}: {exc}") from None

    emitter.namespace["_explain"] = explain
    params = ", ".join(f"_a{j}" for j in range(len(args)))
    returned = "".join(f"{local}, " for local in results)
    source = "\n".join([
        f"def _compiled({params}):",
        "    try:",
        *emitter.lines,
        f"        return ({returned})",
        "    except (ArithmeticError, ValueError, LookupError):",
        f"        _explain({params})",
        "        raise",
        "",
    ])
    namespace = emitter.namespace
    exec(compile(source, f"<compiled {what}>", "exec"), namespace)
    return namespace["_compiled"]
