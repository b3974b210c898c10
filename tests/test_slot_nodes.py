"""Slot-class expression nodes against the frozen dataclasses they replaced.

Every tree here, drawn from the compiled-expression tests' generators,
parsed from text, wired by `substitute`, or sharing subtrees, must print,
compare and hash as its copy in `dataclass_node_oracle` does, and its nodes
must refuse assignment as the frozen dataclasses did.
"""

import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn import parse, substitute, to_text
from opendyn.expr import BinOp, Call, Dag, Neg, Num, Var

import dataclass_node_oracle as oracle
from helpers import wired
from test_compiled_expr import tables, trees


def same_as_dataclasses(*exprs):
    """Each expression prints and hashes as its dataclass copy, and every
    pair compares as their copies do."""
    copies = [oracle.from_slots(e) for e in exprs]
    for e, c in zip(exprs, copies):
        assert repr(e) == repr(c)
        assert hash(e) == hash(c)
    for e, c in zip(exprs, copies):
        for f, d in zip(exprs, copies):
            assert (e == f) == (c == d)
            assert (e != f) == (c != d)


TEXTS = [
    "sin(x)*2 - -y", "x + y*z", "(x + y)*(x + y)", "2^-x^3", "log(exp(1e-300))",
    "-(-(-x))", "x/y/z", "x - (y - z)", "0.1 + 0.2", ".5e3*x",
]


class TestAgainstDataclasses:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(trees, trees)
    def test_drawn_trees(self, e, f):
        same_as_dataclasses(e, f, substitute(e, {"x": f}), substitute(f, {"y": e, "z": e}))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(tables)
    def test_tables_with_shared_subtrees(self, table):
        same_as_dataclasses(*table.values())

    def test_parsed_texts(self):
        parsed = [parse(text) for text in TEXTS]
        same_as_dataclasses(*parsed, *(parse(to_text(e)) for e in parsed))

    @pytest.mark.parametrize("depth", [1, 4, 16])
    def test_substituted_towers(self, depth):
        system = wired(depth)
        fields = [system.field[v] for v in system.state_vars]
        same_as_dataclasses(*fields, *system.readout.values(), parse(to_text(fields[0])))

    def test_shared_and_special_constants(self):
        shared = parse("a*b")
        same_as_dataclasses(
            BinOp("+", shared, Neg(shared)), BinOp("*", shared, shared),
            parse("a*b*(a*b)"), Num(0.0), Num(-0.0), Num(1), Num(1.0),
            Num(math.nan), Num(math.inf), Neg(Num(-math.inf)), Call("sin", Var("x")),
        )

    def test_seeded_substitution_chains(self):
        rng = random.Random(35)
        e = parse("x")
        for _ in range(40):
            e = substitute(parse(rng.choice(TEXTS)), {rng.choice("xyz"): e})
        same_as_dataclasses(e, parse(to_text(e)), substitute(e, {"y": Num(2.0)}))


class TestFrozen:
    NODES = [Num(1.0), Var("x"), Neg(Var("x")), BinOp("+", Var("x"), Num(2.0)),
             Call("sin", Var("x"))]

    @pytest.mark.parametrize("node", NODES + [parse("-x*2 + sin(y)")], ids=repr)
    def test_fields_refuse_assignment_and_deletion(self, node):
        before = repr(node)
        for name in ("value", "name", "arg", "op", "left", "right", "fn", "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, Num(3.0))
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert repr(node) == before

    @pytest.mark.parametrize("node", NODES + [parse("-x*2 + sin(y)")], ids=repr)
    def test_copies_and_pickles_are_equal_nodes_of_the_same_class(self, node):
        for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(twin) is type(node) and twin == node and repr(twin) == repr(node)

    def test_parsed_and_substituted_nodes_are_the_public_classes(self):
        e = parse("-sin(x)*2")
        for tree in (e, substitute(e, {"x": parse("y - 1")})):
            assert {type(n) for n in Dag((tree,)).nodes} == {Num, Var, Neg, BinOp, Call}
