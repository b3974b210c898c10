"""The recursive-descent expression parser, kept as an oracle.

`opendyn.expr.parse` tokenizes its text in one regex pass and lowers each
node into a `Dag` as soon as it reduces it, with an explicit stack of
pending operators. `_tokenize` and `_Parser` here are the tokenizer loop and
the recursive descent it replaced, one method per grammar rule, that built
a tree for `Dag.add` to lower in a second walk. `parse` here returns that
tree. The differential tests require the same `Dag` from both on valid text
and the same `ExprSyntaxError`, message and position, on broken text.
"""

from __future__ import annotations

import math
import re

from opendyn import ExprSyntaxError
from opendyn.expr import FUNCTIONS, MAX_NESTING, BinOp, Call, Expr, Neg, Num, Var

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
