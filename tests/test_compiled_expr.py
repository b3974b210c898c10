"""Compiled expression tables against the tree walk they replace.

`compile_table` must compute what `evaluate` computes, bit for bit, and raise
the same first error with the same message; `opendyn.ode` built on it must
give the trajectories and deviations of the tree-walk integrator in
`tree_walk_oracle`.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn import (
    ExprEvalError,
    OdeLens,
    OdeSystem,
    ParamSignal,
    ValidationError,
    check_solve_functoriality,
    compile_table,
    compose_lens_ode,
    eval_field,
    eval_readout,
    evaluate,
    load_project,
    parse,
    rk4_solve,
    substitute,
    to_text,
)
from opendyn.expr import FUNCTIONS, BinOp, Call, Neg, Num, Var

import tree_walk_oracle as oracle
from helpers import fixture_path, ode_chain, wired

ARGS = ("x", "y", "z")

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 710.0, 1e308, 5e-324, math.inf, -math.inf, math.nan]
# small ints, 0 among them: Python's own `/` must fail on an int 0 divisor too
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.integers(-3, 3))
# "w" is never bound, so some trees raise `unbound variable 'w'`
leaves = st.one_of(numbers.map(Num), st.sampled_from(ARGS * 3 + ("w",)).map(Var))


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(lambda t: Call(*t)),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda t: BinOp(*t)),
    )


trees = st.recursive(leaves, _extend, max_leaves=24)


def _copy(e):
    """A structurally equal tree that shares no inner node with `e`."""
    return oracle.substitute(e, {})


# Components that share a subtree, as the same object or as an equal copy,
# wherever they mention `y`: wiring by substitution builds such tables.
tables = st.tuples(trees, st.lists(st.tuples(trees, st.booleans()), min_size=1, max_size=4)).map(
    lambda p: {
        f"c{j}": substitute(t, {"y": _copy(p[0]) if copy else p[0]})
        for j, (t, copy) in enumerate(p[1])
    }
)


def outcome(call):
    """Values as their IEEE bytes, or the error's class and message."""
    try:
        values = call()
    except Exception as exc:  # compared, not handled: any class must match
        return type(exc), str(exc)
    return [struct.pack("<d", v) for v in values]


def same_as_tree_walk(table, values, args=ARGS, what="t"):
    keys = list(table)
    env = dict(zip(args, values))
    compiled = compile_table(table, keys, args, what)
    expected = outcome(lambda: oracle.eval_table(table, keys, env, what))
    assert outcome(lambda: compiled(*values)) == expected
    return expected


class TestAgainstEvaluate:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(trees, st.tuples(numbers, numbers, numbers))
    def test_one_expression(self, tree, values):
        same_as_tree_walk({"e": tree}, values)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(tables, st.tuples(numbers, numbers, numbers))
    def test_tables_with_shared_subtrees(self, table, values):
        same_as_tree_walk(table, values)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/(x - x)", "t component 'e': division by zero: 1.0/(x - x)"),
            ("log(y - 1)", "t component 'e': log(-1.0) is undefined"),
            ("exp(1000*x)", "t component 'e': exp(1000.0) overflows"),
            ("(-x)^0.5", "t component 'e': -1.0^0.5 is undefined"),
            ("10^(400*x)", "t component 'e': 10.0^400.0 overflows"),
            ("x + w", "t component 'e': unbound variable 'w'"),
        ],
    )
    def test_each_error_message(self, text, message):
        assert same_as_tree_walk({"e": parse(text)}, (1.0, 0.0, 0.0)) == (ExprEvalError, message)

    def test_the_first_failing_component_and_node_win(self):
        table = {"a": parse("x + 1"), "b": parse("log(-x) + 1/(y - y)"), "c": parse("1/(y - y)")}
        same_as_tree_walk(table, (1.0, 2.0, 0.0))

    def test_operand_order_is_part_of_the_key(self):
        texts = ["x - y", "y - x", "x/y", "y/x", "x^y", "y^x", "x + y", "y + x"]
        same_as_tree_walk({t: parse(t) for t in texts}, (3.0, 2.0, 0.0))

    def test_an_argument_listed_twice_reads_its_last_value(self):
        f = compile_table({"e": parse("x - y")}, ["e"], ("x", "y", "x"), "t")
        assert f(1.0, 2.0, 5.0) == (3.0,)
        assert 3.0 == evaluate(parse("x - y"), {"x": 5.0, "y": 2.0})


def _deep_chain(levels: int, bottom: str):
    """`levels` nested copies of a wide block, each adding two levels of depth."""
    block = "+".join(["(y*z - z/y)"] * 26)
    e = parse(bottom)
    for _ in range(levels):
        e = substitute(parse(f"0.5*x + ({block})"), {"x": e})
    return e


def _depth(e) -> int:
    children = [getattr(e, f) for f in ("arg", "left", "right") if hasattr(e, f)]
    return 1 + max(map(_depth, children), default=0)


def _nodes(e) -> int:
    return 1 + sum(_nodes(getattr(e, f)) for f in ("arg", "left", "right") if hasattr(e, f))


# Nesting levels of `_deep_chain`, each two levels deep: deep, yet within the
# recursion limit of the oracle's tree walk.
LEVELS = 200


class TestDeepTrees:
    def test_past_max_depth_values_and_errors(self):
        ok = _deep_chain(LEVELS, "sin(x)")
        assert _depth(ok) > 2 * LEVELS and _nodes(ok) > 40_000
        assert isinstance(same_as_tree_walk({"e": ok}, (0.3, 1.5, -0.25)), list)
        for bottom in ("log(x - x)", "1/(z - z)", "x^1e9"):
            same_as_tree_walk({"e": _deep_chain(LEVELS, bottom)}, (0.3, 1.5, -0.25))

    def test_division_by_zero_prints_a_deep_divisor(self):
        deep = _deep_chain(LEVELS // 2, "x")
        same_as_tree_walk({"e": BinOp("/", deep, BinOp("-", deep, deep))}, (0.3, 1.5, -0.25))

    def test_each_distinct_node_is_one_statement(self):
        f = compile_table({"e": _deep_chain(LEVELS, "x")}, ["e"], ARGS, "t")
        temporaries = [v for v in f.__code__.co_varnames if v.startswith("_v")]
        # once: y*z, z/y, their difference and 25 sums; per level: 0.5*x and a sum
        assert len(temporaries) == 3 + 25 + LEVELS * 2


class TestKeywordIdentifiers:
    def test_python_keywords_are_plain_ode_names(self):
        sys = OdeSystem(
            ["if", "lambda"], ["class"], ["def"],
            {"class": "if + lambda"}, {"if": "def*lambda", "lambda": "-if"},
        )
        assert eval_field(sys, (1.0, 2.0), (3.0,)) == oracle.eval_field(sys, (1.0, 2.0), (3.0,))
        assert eval_readout(sys, (1.0, 2.0)) == (3.0,)
        signal = ParamSignal.constant((0.5,))
        assert rk4_solve(sys, (1.0, 0.0), signal, 0.0, 1.0, 0.01) == oracle.rk4_solve(
            sys, (1.0, 0.0), signal, 0.0, 1.0, 0.01
        )


def _inner_subtrees(e, into: set) -> set:
    if isinstance(e, (Num, Var)):
        return into
    into.add(e)
    for f in ("arg", "left", "right"):
        if hasattr(e, f):
            _inner_subtrees(getattr(e, f), into)
    return into


class TestWiredSystems:
    @pytest.mark.parametrize("depth", [1, 4, 16])
    def test_shared_subtrees_are_emitted_once(self, depth):
        system = wired(depth)
        # a saved and reloaded project shares no node between its copies
        system = OdeSystem(
            system.state_vars, system.output_vars, system.param_vars,
            {k: parse(to_text(v)) for k, v in system.readout.items()},
            {k: parse(to_text(v)) for k, v in system.field.items()},
        )
        field = system.compiled()[0]
        distinct = set()
        for e in system.field.values():
            _inner_subtrees(e, distinct)
        temporaries = [v for v in field.__code__.co_varnames if v.startswith("_v")]
        assert len(temporaries) == len(distinct)
        total = sum(_nodes(e) for e in system.field.values())
        if depth == 16:
            assert total > 3 * len(distinct)
        values = (0.3, -0.7)
        params = (0.4, 0.9)
        assert eval_field(system, values, params) == oracle.eval_field(system, values, params)
        assert eval_readout(system, values) == oracle.eval_readout(system, values)

    def test_depth_16_trajectory_is_the_tree_walk_one(self):
        system = wired(16)
        signal = ParamSignal.constant((0.4, 0.9))
        args = (system, (0.3, -0.7), signal, 0.0, 400 / 256, 1 / 256)
        assert bits(rk4_solve(*args)) == bits(oracle.rk4_solve(*args))

    def test_live_wiring_at_depth_16_matches_the_tree_walk(self):
        base, lenses = ode_chain(random.Random(0), 16)
        inner = base
        for lens in lenses[:-1]:
            inner = compose_lens_ode(lens, inner)
        args = (lenses[-1], inner, (0.3, -0.7), ParamSignal.constant((0.4, 0.9)),
                0.0, 1.0, 1 / 256, 1e-9)
        assert check_solve_functoriality(*args) == oracle.check_solve_functoriality(*args)


def bits(traj):
    rows = (traj.times, *traj.values, *traj.outputs)
    return [struct.pack(f"<{len(row)}d", *row) for row in rows]


class TestTrajectories:
    def test_lotka_volterra_fixture(self):
        system = load_project(fixture_path("lv.json")).system("lotka_volterra")
        args = (system, (2.0, 1.0), ParamSignal.constant((1.0, 0.5, 0.2, 0.4)), 0.0, 5.0, 1e-3)
        assert bits(rk4_solve(*args)) == bits(oracle.rk4_solve(*args))

    def test_predator_prey_functoriality_deviation(self):
        project = load_project(fixture_path("lv.json"))
        args = (project.lens("wiring"), project.system("rabbit_fox"), (2.0, 1.0),
                ParamSignal.constant((1.0, 0.5, 0.2, 0.4)), 0.0, 5.0, 1e-3, 1e-9)
        result = check_solve_functoriality(*args)
        expected = oracle.check_solve_functoriality(*args)
        assert result == expected
        assert result.max_deviation.hex() == expected.max_deviation.hex()

    def test_a_target_parameter_named_like_an_output_is_refused(self):
        # substitution would read `y` in bwd as the output, live wiring as the parameter
        with pytest.raises(ValidationError, match=(
            r"^identifier 'y' appears in both source output variables "
            r"and target parameter variables$"
        )):
            OdeLens(["y"], ["p"], ["y2"], ["y"], {"y2": "y"}, {"p": "y"})
