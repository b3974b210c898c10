"""Parsing, printing, evaluation, and substitution of arithmetic expressions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn import (
    ExprEvalError,
    ExprSyntaxError,
    compile_table,
    evaluate,
    free_vars,
    parse,
    substitute,
    to_text,
)
from opendyn.expr import MAX_NESTING, BinOp, Call, Neg, Num, Var

import tree_walk_oracle as oracle
from test_compiled_expr import ARGS, numbers, outcome, tables, trees


class TestParsing:
    def test_single_variable(self):
        assert parse("x") == Var("x")
        assert parse("_under_score1") == Var("_under_score1")

    def test_numbers(self):
        assert parse("2") == Num(2.0)
        assert parse("0.5") == Num(0.5)
        assert parse(".25") == Num(0.25)
        assert parse("1e-3") == Num(0.001)

    def test_growth_minus_predation_shape(self):
        e = parse("alpha*r - c*f*r")
        assert isinstance(e, BinOp) and e.op == "-"
        assert free_vars(e) == {"alpha", "r", "c", "f"}

    def test_exponent_is_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512.0
        assert parse("2^3^2") == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))

    def test_exponent_binds_tighter_than_unary_minus(self):
        assert parse("-x^2") == Neg(BinOp("^", Var("x"), Num(2.0)))
        assert evaluate(parse("-x^2"), {"x": 3.0}) == -9.0

    def test_sum_and_product_are_left_associative(self):
        assert evaluate(parse("2-3-4"), {}) == -5.0
        assert evaluate(parse("2/4/2"), {}) == 0.25

    def test_whitespace_is_insignificant(self):
        assert parse(" 1 +  2*x ") == parse("1+2*x")

    def test_function_calls(self):
        assert parse("sin(x)") == Call("sin", Var("x"))
        assert evaluate(parse("cos(0)"), {}) == 1.0
        assert evaluate(parse("exp(log(2))"), {}) == pytest.approx(2.0, rel=1e-15)


class TestParseErrors:
    def test_dangling_operator_reports_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 + * 2")
        assert err.value.position == 4
        assert "(at position 4)" in str(err.value)

    def test_unclosed_parenthesis(self):
        with pytest.raises(ExprSyntaxError, match="expected '\\)'"):
            parse("(1+2")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError, match="end of input"):
            parse("")

    def test_unknown_function_is_named(self):
        with pytest.raises(ExprSyntaxError, match="tan"):
            parse("tan(x)")

    def test_trailing_junk(self):
        with pytest.raises(ExprSyntaxError, match="after expression"):
            parse("1 + 2)")

    @pytest.mark.parametrize("text, position", [("1e999", 0), ("-1e999", 1), ("2*1e309", 2)])
    def test_a_numeral_past_the_floats_is_refused(self, text, position):
        with pytest.raises(ExprSyntaxError, match="is not a finite float") as err:
            parse(text)
        assert err.value.position == position
        assert parse("1e308") == Num(1e308)

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("a $ b")
        assert err.value.position == 2

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(" * 5000 + "x" + ")" * 5000, MAX_NESTING),
            ("-" * 5000 + "x", MAX_NESTING),
            ("x^" * 5000 + "x", 2 * MAX_NESTING),
            ("sin(" * 5000 + "x" + ")" * 5000, 4 * MAX_NESTING),
        ],
    )
    def test_nesting_past_the_limit_reports_position(self, text, position):
        with pytest.raises(ExprSyntaxError, match="nests deeper") as err:
            parse(text)
        assert err.value.position == position

    def test_nesting_up_to_the_limit_parses(self):
        depth = MAX_NESTING - 1
        assert parse("(" * depth + "x" + ")" * depth) == Var("x")
        assert evaluate(parse("-" * depth + "1"), {}) == -1.0



def tree_depth(e) -> int:
    """Nodes on the longest root-to-leaf path, found without recursion."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        children = [getattr(node, name) for name in node._fields]
        stack.extend((child, depth + 1) for child in children if isinstance(
            child, (Num, Var, Neg, BinOp, Call)))
    return deepest


def flat_sum(terms: int) -> str:
    return "+".join(["x"] * terms)


CHAIN = 3000  # terms: far past Python's recursion limit for a tree walk


class TestLongChains:
    def test_three_thousand_terms_parse_and_print_back(self):
        e = parse(flat_sum(CHAIN))
        assert tree_depth(e) == CHAIN
        text = to_text(e)
        assert text == " + ".join(["x"] * CHAIN)
        assert parse(text) == e

    def test_a_three_thousand_term_chain_works_in_every_walker(self):
        e = parse(flat_sum(CHAIN))
        assert free_vars(e) == {"x"}
        assert evaluate(e, {"x": 1.0}) == CHAIN
        assert compile_table({"e": e}, ["e"], ["x"], "t")(1.0) == (CHAIN,)
        assert hash(parse(flat_sum(CHAIN))) == hash(e)
        assert e != parse(flat_sum(CHAIN - 1) + "+y")
        doubled = substitute(e, {"x": parse("2*y")})
        assert tree_depth(doubled) == CHAIN + 1
        assert evaluate(doubled, {"y": 1.0}) == 2 * CHAIN

    @pytest.mark.parametrize("op", ["-", "*", "/"])
    def test_every_left_associative_chain_parses(self, op):
        e = parse(op.join(["x"] * CHAIN))
        assert tree_depth(e) == CHAIN
        assert parse(to_text(e)) == e
        assert evaluate(e, {"x": 1.0}) == {"-": 2.0 - CHAIN, "*": 1.0, "/": 1.0}[op]

    def test_nesting_bounds_the_wraps_around_a_chain_not_the_chain(self):
        wraps = MAX_NESTING // 2 - 1  # each "-(" is two nesting levels
        e = parse("-(" * wraps + flat_sum(CHAIN) + ")" * wraps)
        assert tree_depth(e) == wraps + CHAIN
        assert evaluate(e, {"x": 1.0}) == (-1) ** wraps * CHAIN
        with pytest.raises(ExprSyntaxError, match="nests deeper") as err:
            parse("-(" * (wraps + 1) + flat_sum(CHAIN) + ")" * (wraps + 1))
        assert err.value.position == MAX_NESTING


class TestExactEquality:
    def test_constants_compare_by_type_and_repr(self):
        assert Num(0.0) != Num(-0.0)
        assert Num(1) != Num(1.0)
        assert Num(math.nan) == Num(math.nan)
        assert parse("x*0") != BinOp("*", Var("x"), Num(-0.0))

    def test_equal_trees_hash_alike_whatever_they_share(self):
        shared = parse("x + y")
        one, other = BinOp("*", shared, shared), parse("(x + y)*(x + y)")
        assert one == other and hash(one) == hash(other)
        assert len({one, other, parse("(x + y)*(y + x)")}) == 2

    def test_non_finite_constants_compare_hash_and_print(self):
        for value in (math.inf, -math.inf, math.nan):
            node = Neg(Num(value))
            assert node == Neg(Num(value)) and hash(node) == hash(Neg(Num(value)))
            assert repr(node) == f"Neg(arg=Num(value={value!r}))"
        assert Num(math.inf) != Num(-math.inf)

    def test_a_node_is_not_equal_to_other_values(self):
        assert Var("x") != "x"
        assert Num(1.0) != 1.0


class TestRepr:
    def test_a_tree_prints_in_dataclass_form(self):
        assert repr(parse("sin(x)*2 - -y")) == (
            "BinOp(op='-', left=BinOp(op='*', left=Call(fn='sin', arg=Var(name='x')), "
            "right=Num(value=2.0)), right=Neg(arg=Var(name='y')))"
        )

    def test_a_node_object_reached_twice_is_written_once(self):
        shared = parse("a*b")
        assert repr(BinOp("+", shared, Neg(shared))) == (
            "BinOp(op='+', left=#1, right=Neg(arg=#1)) "
            "where #1 = BinOp(op='*', left=Var(name='a'), right=Var(name='b'))"
        )
        x = Var("x")
        assert repr(BinOp("*", x, x)) == "BinOp(op='*', left=Var(name='x'), right=Var(name='x'))"

    def test_a_long_chain_prints_without_recursion(self):
        text = repr(parse("+".join(["x"] * 600)))
        assert text.startswith("BinOp(op='+', left=BinOp(op='+', left=")
        assert text.count("Var(name='x')") == 600

    def test_fields_outside_the_language_still_print(self):
        assert repr(BinOp("%", Var("x"), 2.5)) == "BinOp(op='%', left=Var(name='x'), right=2.5)"
        assert repr(Num("1")) == "Num(value='1')"


class TestAgainstTreeWalk:
    """Each walk against the recursive tree walk it replaced, in `tree_walk_oracle`."""

    @staticmethod
    def same(e, bindings, env):
        assert free_vars(e) == oracle.free_vars(e)
        assert to_text(e) == oracle.to_text(e)
        got, want = substitute(e, bindings), oracle.substitute(e, bindings)
        assert got == want and to_text(got) == oracle.to_text(want)
        assert outcome(lambda: [evaluate(e, env)]) == outcome(lambda: [oracle.evaluate(e, env)])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(trees, trees, st.tuples(numbers, numbers, numbers))
    def test_one_expression(self, e, binding, values):
        self.same(e, {"x": binding}, dict(zip(ARGS, values)))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(tables, trees, st.tuples(numbers, numbers, numbers))
    def test_tables_with_shared_subtrees(self, table, binding, values):
        for e in table.values():
            self.same(e, {"y": binding, "z": Var("x")}, dict(zip(ARGS, values)))


class TestEvaluation:
    def test_growth_minus_predation_value(self):
        assert evaluate(parse("alpha*r - c*f*r"), {"alpha": 1, "c": 0.5, "r": 2, "f": 1}) == 1.0

    def test_single_variable_lookup(self):
        assert evaluate(parse("x"), {"x": 7}) == 7

    def test_conversion_minus_death_value(self):
        assert evaluate(parse("d*r*f - delta*f"), {"d": 0.2, "r": 2, "f": 1, "delta": 0.4}) == 0.0

    def test_unbound_variable_is_named(self):
        with pytest.raises(ExprEvalError, match="'r'"):
            evaluate(parse("alpha*r"), {"alpha": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError, match="division by zero"):
            evaluate(parse("x/(y-y)"), {"x": 1.0, "y": 3.0})

    def test_log_of_nonpositive_value(self):
        with pytest.raises(ExprEvalError, match="undefined"):
            evaluate(parse("log(0-1)"), {})

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(ExprEvalError, match="undefined"):
            evaluate(parse("(0-2)^0.5"), {})

    def test_overflow_is_reported(self):
        with pytest.raises(ExprEvalError, match="overflows"):
            evaluate(parse("exp(x)"), {"x": 1e6})
        with pytest.raises(ExprEvalError, match="overflows"):
            evaluate(parse("10^400"), {})


class TestPrinting:
    def test_canonical_forms(self):
        # numerals canonicalize to their repr; everything else is a fixed point
        cases = {
            "alpha*r - c*f*r": "alpha*r - c*f*r",
            "d*r*f - delta*f": "d*r*f - delta*f",
            "(a + b)*c": "(a + b)*c",
            "a - (b - c)": "a - (b - c)",
            "a/(b*c)": "a/(b*c)",
            "x^2": "x^2.0",
            "(x^2)^3": "(x^2.0)^3.0",
            "x^(-2)": "x^(-2.0)",
            "-(a + b)": "-(a + b)",
            "sin(x + y)": "sin(x + y)",
            "2.5*x + 1e-06": "2.5*x + 1e-06",
        }
        for text, canon in cases.items():
            assert to_text(parse(text)) == canon

    def test_redundant_parentheses_are_dropped(self):
        assert to_text(parse("(a)+((b))")) == "a + b"
        assert to_text(parse("a+(b*c)")) == "a + b*c"


def expr_trees():
    leaves = st.one_of(
        st.builds(Num, st.floats(min_value=0, max_value=1e6, allow_nan=False).map(abs)),
        st.builds(Var, st.sampled_from(["x", "y", "z_1", "alpha"])),
    )
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(Neg, kids),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log"]), kids),
            st.builds(BinOp, st.sampled_from(list("+-*/^")), kids, kids),
        ),
        max_leaves=20,
    )


class TestPrintParseProperties:
    @given(expr_trees())
    @settings(max_examples=300)
    def test_parse_inverts_print(self, e):
        assert parse(to_text(e)) == e

    @given(expr_trees())
    @settings(max_examples=300)
    def test_printing_is_idempotent(self, e):
        once = to_text(e)
        assert to_text(parse(once)) == once


class TestSubstitution:
    def test_empty_bindings_return_the_same_tree(self):
        e = parse("alpha*r - c*f*r")
        assert substitute(e, {}) == e

    def test_predation_rate_expansion(self):
        expanded = substitute(parse("alpha*r - beta*r"), {"beta": parse("c*f")})
        target = parse("alpha*r - c*f*r")
        rng = random.Random(9)
        for _ in range(100):
            env = {v: rng.uniform(-3, 3) for v in ("alpha", "c", "f", "r")}
            got, want = evaluate(expanded, env), evaluate(target, env)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_free_vars_after_substitution(self):
        e = parse("alpha*r - beta*r")
        out = substitute(e, {"beta": parse("c*f")})
        assert free_vars(out) == (free_vars(e) - {"beta"}) | {"c", "f"}

    def test_substitution_commutes_with_evaluation(self):
        rng = random.Random(10)
        e = parse("x^2 + sin(y)*x - y/(z + 4)")
        bindings = {"x": parse("u + v"), "y": parse("2*u")}
        substituted = substitute(e, bindings)
        for _ in range(100):
            env = {"u": rng.uniform(-2, 2), "v": rng.uniform(-2, 2), "z": rng.uniform(0.5, 3)}
            inner = dict(env)
            inner["x"] = evaluate(bindings["x"], env)
            inner["y"] = evaluate(bindings["y"], env)
            got, want = evaluate(substituted, env), evaluate(e, inner)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_substitution_is_simultaneous_not_sequential(self):
        e = parse("x + y")
        out = substitute(e, {"x": parse("y"), "y": parse("x")})
        assert to_text(out) == "y + x"
