"""Parsing, printing, evaluation, and substitution of arithmetic expressions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn import ExprEvalError, ExprSyntaxError, evaluate, free_vars, parse, substitute, to_text
from opendyn.expr import MAX_DEPTH, MAX_NESTING, BinOp, Call, Neg, Num, Var


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
        stack.extend((child, depth + 1) for child in vars(node).values() if isinstance(
            child, (Num, Var, Neg, BinOp, Call)))
    return deepest


def flat_sum(terms: int) -> str:
    return "+".join(["x"] * terms)


class TestDepthLimit:
    def test_a_flat_chain_at_the_limit_works_in_every_walker(self):
        e = parse(flat_sum(MAX_DEPTH))
        assert tree_depth(e) == MAX_DEPTH
        assert free_vars(e) == {"x"}
        assert evaluate(e, {"x": 1.0}) == MAX_DEPTH
        assert parse(to_text(e)) == e
        assert hash(parse(flat_sum(MAX_DEPTH))) == hash(e)
        doubled = substitute(e, {"x": parse("2*y")})
        assert tree_depth(doubled) == MAX_DEPTH + 1
        assert evaluate(doubled, {"y": 1.0}) == 2 * MAX_DEPTH
        assert repr(e).startswith("BinOp(")

    def test_one_past_the_limit_names_the_operator_that_crosses_it(self):
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels") as err:
            parse(flat_sum(MAX_DEPTH + 1))
        # the last '+' of "x+x+...+x" would build the tree's root
        assert err.value.position == 2 * MAX_DEPTH - 1

    def test_three_thousand_terms_are_refused(self):
        with pytest.raises(ExprSyntaxError, match="deeper than") as err:
            parse(flat_sum(3000))
        assert err.value.position == 2 * MAX_DEPTH - 1

    @pytest.mark.parametrize("op", ["-", "*", "/"])
    def test_every_left_associative_chain_counts(self, op):
        assert tree_depth(parse(op.join(["x"] * MAX_DEPTH))) == MAX_DEPTH
        with pytest.raises(ExprSyntaxError, match="deeper than"):
            parse(op.join(["x"] * (MAX_DEPTH + 1)))

    def test_nesting_and_chains_add_up(self):
        wraps = 40  # each "-(" is two nesting levels
        inner = flat_sum(MAX_DEPTH - wraps)
        assert tree_depth(parse("-(" * wraps + inner + ")" * wraps)) == MAX_DEPTH
        with pytest.raises(ExprSyntaxError, match="deeper than") as err:
            parse("-(" * wraps + inner + "+x" + ")" * wraps)
        assert err.value.position == 0  # the outermost minus
        with pytest.raises(ExprSyntaxError, match="deeper than") as err:
            parse("sin(" * wraps + inner + "+x" + ")" * wraps)
        assert err.value.position == 0


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
