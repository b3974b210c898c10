"""The one-pass parser against the recursive descent it replaced.

`opendyn.expr.parse` lowers text into a `Dag` as it reads it;
`recursive_parser_oracle` parses the same text into a tree, which `Dag.add`
then lowers. On valid text both must give the same Dag (keys in order,
operands, roots and nodes) and the same trees; on broken text the same
ExprSyntaxError, message and position.
"""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn import ExprSyntaxError, parse
from opendyn.expr import MAX_NESTING, Dag

import recursive_parser_oracle as oracle


def one_pass(text, dag):
    return parse(text, dag)


def recursive(text, dag):
    tree = oracle.parse(text)
    dag.add(tree)
    return tree


def outcome(read, texts):
    """The Dag and trees `read` makes of `texts`, lowered into one Dag in
    order, or the first error's message and position."""
    dag = Dag()
    try:
        trees = [read(text, dag) for text in texts]
    except ExprSyntaxError as exc:
        return str(exc), exc.position
    # a node's repr writes out its subtree: a long chain's entries are
    # compared through their keys and the root's repr
    nodes = dag.nodes if len(dag.nodes) <= 200 else []
    return (
        list(dag.index.items()), dag.operands, dag.roots,
        [repr(node) for node in nodes], [repr(tree) for tree in trees],
    )


def same_as_recursive(*texts):
    expected = outcome(recursive, texts)
    assert outcome(one_pass, texts) == expected
    if len(texts) == 1 and isinstance(expected[0], list):  # parsed, without a Dag
        assert repr(parse(texts[0])) == expected[-1][0]
    return expected


SPACES = ["", " ", "\t", "\n", " ", " ", "　", "\x1c"]
NAMES = ["x", "y", "p1", "_q", "sin", "e", "E"]
NUMERALS = ["0", "1", "2.5", ".5", "1.", "3e2", "4E-1", "1.7e308", "٣", "1٠"]

# Valid text: chains of signed operands under any of the binary operators,
# wrapped in parentheses, calls and minus signs, spaced by any whitespace.
operators = st.tuples(st.sampled_from(SPACES), st.sampled_from("+-*/^"), st.sampled_from(["", "-"]))
valid = st.recursive(
    st.sampled_from(NAMES + NUMERALS),
    lambda inner: st.one_of(
        st.tuples(inner, st.lists(st.tuples(operators, inner), min_size=1, max_size=5)).map(
            lambda t: t[0] + "".join(f"{sp}{op}{sp}{sign}{e}" for (sp, op, sign), e in t[1])
        ),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
    ),
    max_leaves=30,
)

# Anything: fragments of valid text and of faults, in any order.
FRAGMENTS = NAMES + NUMERALS + SPACES + [
    "1e999", "2e308", "tan", "(", ")", "-", "+", "*", "/", "^", ".", "$", "é", "²", "1.2.3", ",",
]
soup = st.lists(st.sampled_from(FRAGMENTS), max_size=25).map("".join)


class TestAgainstRecursiveDescent:
    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(st.lists(valid, min_size=1, max_size=3))
    def test_valid_text(self, texts):
        assert isinstance(same_as_recursive(*texts)[0], list)

    @settings(max_examples=1500, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(soup, valid), min_size=1, max_size=3))
    def test_any_text(self, texts):
        same_as_recursive(*texts)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(valid, st.integers(0, 20), st.sampled_from(["", ")", "x", "(", "1.2.3", "$", "+"]))
    def test_valid_text_cut_or_extended(self, text, cut, tail):
        same_as_recursive(text[: len(text) - cut] + tail)


def nested(n: int) -> list[str]:
    """Texts that open n nesting levels around x, one per way to nest."""
    return [
        "(" * n + "x" + ")" * n,
        "sin(" * n + "x" + ")" * n,
        "-" * n + "x",
        "x^" * n + "x",
        "2*-(" * n + "x" + ")" * n,
        "exp(-" * n + "x" + ")" * n,
    ]


@pytest.mark.parametrize("n", [MAX_NESTING - 2, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
def test_nesting_at_the_limit(n):
    for text in nested(n):
        same_as_recursive(text)
        same_as_recursive("y + " + text + "*y")


@pytest.mark.parametrize(
    "text",
    [
        "1e999", "-1e999", "2*1e309", "1e308", "tan(x)", "sin x", "sin(x", "x(1)", "1 + 2)",
        "x y", "x (", "1.2.3", "1..2", "x . y", "", " ", "  ", "x　+\x1cy",
        "٣*١٢", "2²", "é", "x $", "$ +", "()", ")", "-", "x+", "x^",
        "(x))", "((x)", "1e", "1e+", ".e1", "x+sin", "sin", "log(-)",
    ],
)
def test_edge_cases(text):
    same_as_recursive(text)


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
def test_long_flat_chains(op):
    if op == "^":  # an exponent nests, so its chain stays within the limit
        same_as_recursive(op.join(["x"] * MAX_NESTING))
        return
    same_as_recursive(op.join(["x", "y", "2"] * 1000))
    same_as_recursive(op.join(["x"] * 3000), op.join(["y", "x"] * 500))


def test_split_and_the_token_regex_agree_on_whitespace():
    """`parse` finds a character that is no token by comparing what the
    regex read with what `str.split` keeps; both must skip the same code
    points."""
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if re.fullmatch(r"\s", c)]
    assert spaces == [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert all(len(f"x{c}y".split()) == 2 for c in spaces)
    same_as_recursive("".join(spaces).join(["x", "+", "1", "*", "sin(", "y", ")"]))
