"""ODE systems, wiring by substitution, RK4 solving, and the two-path check."""

import math
import random
import re
import signal
from contextlib import contextmanager

import pytest

from opendyn import (
    ExprEvalError,
    ExprSyntaxError,
    IntegrationError,
    OdeLens,
    OdeSystem,
    ParamSignal,
    Trajectory,
    ValidationError,
    check_residual,
    check_solve_functoriality,
    compose_lens_ode,
    eval_field,
    eval_readout,
    evaluate,
    parse,
    rk4_solve,
    tensor_ode,
    to_text,
)
from opendyn.expr import (
    MAX_NODES,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    compile_table,
    free_vars,
    substitute,
)
from opendyn.errors import _shown
from opendyn.laws import _lv_fixture
from opendyn.ode import MAX_STEPS, _check_vars, _grid

from helpers import compose_ode_lenses, identity_ode_lens


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def regex_check_vars(names, what: str) -> tuple:
    """`ode._check_vars` as it was, by a regex: the oracle for its test."""
    out = tuple(names)
    seen = set()
    for name in out:
        if not isinstance(name, str) or not _IDENT.fullmatch(name):
            raise ValidationError(f"{what}: bad identifier {_shown(name)}")
        if name in seen:
            raise ValidationError(f"{what}: duplicate identifier {name!r}")
        seen.add(name)
    return out


def outcome(call):
    """The value, or the error's class and message."""
    try:
        return call()
    except ValidationError as exc:
        return ValidationError, str(exc)


def predator_prey():
    """The composed two-species system with growth, predation, conversion, death."""
    lens, pair = _lv_fixture()
    return compose_lens_ode(lens, pair)


LV_PARAMS = ParamSignal.constant((1.0, 0.5, 0.2, 0.4))
NO_PARAMS = ParamSignal.constant(())


def plain_exp():
    return OdeSystem(["s"], ["y"], [], {"y": "s"}, {"s": "s"})


def unit_slope():
    return OdeSystem(["s"], ["y"], [], {"y": "s"}, {"s": "1"})


class TestOdeSystemValidation:
    def test_identifier_groups_must_be_disjoint(self):
        with pytest.raises(ValidationError, match="x"):
            OdeSystem(["x"], ["x"], [], {"x": "x"}, {"x": "x"})

    def test_readout_may_only_use_state_vars(self):
        with pytest.raises(ValidationError, match="readout"):
            OdeSystem(["s"], ["y"], ["p"], {"y": "s + p"}, {"s": "s"})

    def test_field_may_only_use_state_and_param_vars(self):
        with pytest.raises(ValidationError, match="field"):
            OdeSystem(["s"], ["y"], ["p"], {"y": "s"}, {"s": "s + q"})

    def test_bad_identifier_is_rejected(self):
        with pytest.raises(ValidationError):
            OdeSystem(["2s"], ["y"], [], {"y": "1"}, {"2s": "1"})

    @pytest.mark.parametrize(
        "name",
        [
            "x", "_", "_x1", "Alpha_2", "if", "lambda", "None", "2s", "", "é", "ℌ", "ｘ",
            "a-b", "a b", "x\n", 3, None, ["x"], 10**5000,
        ],
        ids=lambda v: ascii(v) if isinstance(v, str) else type(v).__name__,
    )
    def test_identifiers_are_judged_as_the_ascii_regex_judged_them(self, name):
        assert outcome(lambda: _check_vars([name, "y"], "state variables")) == outcome(
            lambda: regex_check_vars([name, "y"], "state variables")
        )

    def test_missing_table_entry_is_rejected(self):
        with pytest.raises(ValidationError):
            OdeSystem(["s", "t"], ["y"], [], {"y": "s"}, {"s": "t"})

    @pytest.mark.parametrize(
        "value, shown",
        [(5, "5"), (None, "None"), (BinOp("+", Var("x"), 2.5), "2.5"), (["x"], "['x']")],
    )
    def test_a_value_that_is_not_an_expression_names_the_table_and_key(self, value, shown):
        message = f"field['x']: {shown} is not an expression"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            OdeSystem(["x"], [], [], {}, {"x": value})
        with pytest.raises(ValidationError, match=r"^bwd\['p'\]: None is not an expression$"):
            OdeLens(["y"], ["p"], [], [], {}, {"p": None})

    @pytest.mark.parametrize(
        "value, problem",
        [
            # compiled, x % 2 gave 1.0 at x = 7 where evaluate gave 49.0
            (BinOp("%", Var("x"), Num(2.0)), "operator '%' is not one of + - * / ^"),
            (Call("abs", Var("x")), "function 'abs' is not one of sin, cos, exp, log"),
            (Num("1"), "constant '1' is not an int or a float"),
            (BinOp("+", Var(3), Num(1.0)), "variable name 3 is not a string"),
        ],
    )
    def test_a_node_field_outside_the_language_names_the_table_and_key(self, value, problem):
        message = f"field['x']: {problem}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            OdeSystem(["x"], [], [], {}, {"x": value})
        with pytest.raises(TypeError, match=f"^{re.escape(problem)}$"):
            to_text(value)
        with pytest.raises(TypeError, match=f"^{re.escape(problem)}$"):
            compile_table({"x": value}, ["x"], ["x"], "field")

    @pytest.mark.parametrize(
        "build, message, position",
        [
            (lambda: OdeSystem(["x", "y"], [], [], {}, {"x": "x", "y": "x +* 2"}),
             "field['y']: expected a value, got '*'", 3),
            (lambda: OdeSystem(["x"], ["o"], [], {"o": "sin(x"}, {"x": "x"}),
             "readout['o']: expected ')'", 5),
            (lambda: OdeLens(["y"], ["p"], ["z"], ["q"], {"z": "y $ 1"}, {"p": "q"}),
             "fwd['z']: unexpected character '$'", 2),
            (lambda: OdeLens(["y"], ["p"], ["z"], ["q"], {"z": "y"}, {"p": "tan(q)"}),
             "bwd['p']: unknown function 'tan'", 0),
        ],
    )
    def test_a_syntax_error_names_the_table_and_key(self, build, message, position):
        with pytest.raises(ExprSyntaxError) as err:
            build()
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_a_subtree_shared_across_keys_is_scoped_by_each_key(self):
        shared = parse("s*t + q")
        with pytest.raises(ValidationError, match=r"^field\['s'\] .*\['q'\]$"):
            OdeSystem(["s", "t"], [], ["p"], {}, {"s": shared, "t": BinOp("-", shared, Var("p"))})
        with pytest.raises(ValidationError, match=r"^field\['t'\] .*\['q', 'r'\]$"):
            OdeSystem(
                ["s", "t"], [], ["p"], {},
                {"s": parse("s*t"), "t": BinOp("-", parse("s*t + q"), Var("r"))},
            )

    def test_copied_states_names_each_bare_state_readout(self):
        sys = OdeSystem(
            ["a", "b"], ["x", "y", "z", "w", "v"], [],
            {"x": "b", "y": "a*b", "z": Var("b"), "w": "(a)", "v": "2"}, {"a": "0", "b": "0"},
        )
        assert sys.copied_states() == (1, None, 1, 0, None)
        assert _lv_fixture()[1].copied_states() == (0, 1)
        assert OdeSystem([], [], [], {}, {}).copied_states() == ()


class TestComposeLensOde:
    def test_predation_wiring_produces_the_closed_form(self):
        sys = predator_prey()
        assert {v: to_text(e) for v, e in sys.field.items()} == {
            "r": "alpha*r - c*f*r",
            "f": "d*r*f - delta*f",
        }
        assert {v: to_text(e) for v, e in sys.readout.items()} == {
            "r_pop": "r",
            "f_pop": "f",
        }
        assert sys.param_vars == ("alpha", "c", "d", "delta")
        assert sys.state_vars == ("r", "f")

    def test_identity_lens_keeps_field_values(self):
        lens, pair = _lv_fixture()
        ident = identity_ode_lens(pair.output_vars, pair.param_vars)
        composed = compose_lens_ode(ident, pair)
        rng = random.Random(28)
        for _ in range(100):
            state = [rng.uniform(-2, 2) for _ in pair.state_vars]
            params = [rng.uniform(-2, 2) for _ in pair.param_vars]
            got = eval_field(composed, state, params)
            want = eval_field(pair, state, params)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_double_composition_matches_composed_lenses(self):
        lens, pair = _lv_fixture()
        outer = OdeLens(
            ["r_pop", "f_pop"],
            ["alpha", "c", "d", "delta"],
            ["total"],
            ["drive"],
            {"total": "r_pop + f_pop"},
            {"alpha": "drive", "c": "drive/2", "d": "f_pop/10", "delta": "drive"},
        )
        staged = compose_lens_ode(outer, compose_lens_ode(lens, pair))
        at_once = compose_lens_ode(compose_ode_lenses(lens, outer), pair)
        rng = random.Random(29)
        assert staged.param_vars == at_once.param_vars == ("drive",)
        for _ in range(100):
            state = [rng.uniform(0.1, 2) for _ in pair.state_vars]
            params = [rng.uniform(0.1, 2)]
            got = eval_field(staged, state, params)
            want = eval_field(at_once, state, params)
            assert got == pytest.approx(want, rel=1e-12)
            assert eval_readout(staged, state) == pytest.approx(
                eval_readout(at_once, state), rel=1e-12
            )

    def test_name_mismatch_lists_the_missing_identifiers(self):
        _, pair = _lv_fixture()
        wrong = OdeLens(["nope"], [], ["out"], [], {"out": "nope"}, {})
        with pytest.raises(ValidationError) as err:
            compose_lens_ode(wrong, pair)
        assert "r_out" in str(err.value) or "nope" in str(err.value)


class TestTensorOde:
    def test_two_species_pair_has_the_advertised_shape(self):
        _, pair = _lv_fixture()
        assert pair.state_vars == ("r", "f")
        assert len(pair.param_vars) == 4

    def test_tensor_with_the_empty_system_is_identity(self):
        empty = OdeSystem([], [], [], {}, {})
        sys = plain_exp()
        assert tensor_ode(sys, empty) == sys
        assert tensor_ode(empty, sys) == sys

    def test_field_evaluation_concatenates(self):
        a, b = plain_exp(), unit_slope()
        b2 = OdeSystem(["t"], ["z"], [], {"z": "t"}, {"t": "1"})
        both = tensor_ode(a, b2)
        assert eval_field(both, (2.0, 5.0), ()) == (2.0, 1.0)

    def test_identifier_collision_is_an_error(self):
        with pytest.raises(ValidationError, match="s"):
            tensor_ode(plain_exp(), unit_slope())


class TestEvalField:
    def test_predator_prey_point_values(self):
        sys = predator_prey()
        assert eval_field(sys, (2.0, 1.0), (1.0, 0.5, 0.2, 0.4)) == (1.0, 0.0)
        assert eval_field(sys, (0.0, 0.0), (1.0, 0.5, 0.2, 0.4)) == (0.0, 0.0)

    def test_constant_field(self):
        sys = unit_slope()
        for s in (-3.0, 0.0, 7.5):
            assert eval_field(sys, (s,), ()) == (1.0,)

    def test_errors_name_the_component(self):
        sys = OdeSystem(["u", "v"], ["y"], [], {"y": "u"}, {"u": "1", "v": "1/u"})
        with pytest.raises(Exception, match="'v'"):
            eval_field(sys, (0.0, 1.0), ())


class TestParamSignal:
    def test_left_step_sampling_with_clamping(self):
        sig = ParamSignal((0.0, 1.0, 2.0), ((10.0,), (20.0,), (30.0,)))
        assert sig(-1.0) == (10.0,)
        assert sig(0.0) == (10.0,)
        assert sig(0.5) == (10.0,)
        assert sig(1.0) == (20.0,)
        assert sig(1.7) == (20.0,)
        assert sig(5.0) == (30.0,)

    def test_constant_signal(self):
        sig = ParamSignal.constant((1.0, 2.0))
        assert sig(-3.0) == sig(100.0) == (1.0, 2.0)

    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            ParamSignal((0.0, 0.0), ((1.0,), (2.0,)))

    def test_row_widths_must_agree(self):
        with pytest.raises(ValidationError):
            ParamSignal((0.0, 1.0), ((1.0,), (2.0, 3.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sample_times_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            ParamSignal((bad,), ((1.0,),))
        with pytest.raises(ValidationError, match="finite"):
            ParamSignal((0.0, bad), ((1.0,), (2.0,)))


class TestTrajectoryValidation:
    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            Trajectory((0.0, 0.0), ((1.0,), (1.0,)), ((1.0,), (1.0,)))

    def test_row_counts_must_match(self):
        with pytest.raises(ValidationError):
            Trajectory((0.0, 1.0), ((1.0,),), ((1.0,), (1.0,)))


class TestRk4Solve:
    def test_exponential_growth_reaches_e(self):
        traj = rk4_solve(plain_exp(), (1.0,), NO_PARAMS, 0.0, 1.0, 1e-3)
        assert abs(traj.values[-1][0] - math.e) <= 1e-8

    def test_unit_slope_is_exact_on_the_grid(self):
        traj = rk4_solve(unit_slope(), (0.0,), NO_PARAMS, 0.0, 1.0, 1e-2)
        for t, (s,) in zip(traj.times, traj.values):
            assert abs(s - t) <= 1e-12

    def test_walking_start_shifts_the_line(self):
        traj = rk4_solve(unit_slope(), (2.5,), NO_PARAMS, 0.0, 5.0, 1e-2)
        for t, (s,) in zip(traj.times, traj.values):
            assert abs(s - (2.5 + t)) <= 1e-12

    def test_final_partial_step_lands_on_the_endpoint(self):
        traj = rk4_solve(unit_slope(), (0.0,), NO_PARAMS, 0.0, 0.25, 0.1)
        assert traj.times == (0.0, 0.1, 0.2, 0.25)

    def test_predator_prey_stays_positive(self):
        traj = rk4_solve(predator_prey(), (2.0, 1.0), LV_PARAMS, 0.0, 5.0, 1e-3)
        assert len(traj.times) == 5001
        assert traj.times[-1] == 5.0
        assert all(r > 0 and f > 0 for r, f in traj.values)

    def test_outputs_follow_the_readout(self):
        traj = rk4_solve(predator_prey(), (2.0, 1.0), LV_PARAMS, 0.0, 0.1, 1e-2)
        assert traj.outputs == traj.values  # readout is the identity here

    @pytest.mark.parametrize(
        "readout, compiles",
        [
            ({"x": "r", "y": "f"}, False),  # the states themselves
            ({"x": "f", "y": "f"}, False),  # a state twice
            ({"x": "f"}, False),
            ({}, False),
            ({"x": "f", "y": "r*f"}, True),
        ],
    )
    def test_outputs_that_copy_states_are_read_off_the_states(self, readout, compiles):
        def system():
            pp = predator_prey()
            return OdeSystem(pp.state_vars, list(readout), pp.param_vars, readout, pp.field)

        sys = system()
        traj = rk4_solve(sys, (2.0, 1.0), LV_PARAMS, 0.0, 0.1, 1e-2)
        # the field takes a function to hand its readout to only where an
        # output is computed
        state_function = sys.compiled()(*LV_PARAMS(0.0))
        assert ("_read" in state_function.__code__.co_varnames) == compiles
        # the tree walk of a fresh copy gives the very same floats
        expected = tuple(eval_readout(system(), y) for y in traj.values)
        assert [tuple(map(float.hex, row)) for row in traj.outputs] == [
            tuple(map(float.hex, row)) for row in expected
        ]
        assert all(type(row) is tuple for row in traj.outputs)

    def test_degenerate_windows_are_rejected(self):
        with pytest.raises(ValidationError):
            rk4_solve(plain_exp(), (1.0,), NO_PARAMS, 1.0, 1.0, 1e-3)
        with pytest.raises(ValidationError):
            rk4_solve(plain_exp(), (1.0,), NO_PARAMS, 0.0, 1.0, 2.0)

    @pytest.mark.parametrize(
        "t0, t1", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)]
    )
    def test_non_finite_windows_are_rejected(self, t0, t1):
        with pytest.raises(ValidationError, match="finite"):
            rk4_solve(plain_exp(), (1.0,), NO_PARAMS, t0, t1, 1e-3)

    @pytest.mark.parametrize(
        "t0, t1, h", [(0.0, 10.0, 1e-300), (0.0, 1.0, 0.99 / MAX_STEPS), (-1e308, 1e308, 1.0)]
    )
    def test_a_grid_past_max_steps_is_refused_before_it_is_built(self, t0, t1, h):
        with pytest.raises(ValidationError, match=f"steps, more than MAX_STEPS = {MAX_STEPS}"):
            rk4_solve(plain_exp(), (1.0,), NO_PARAMS, t0, t1, h)

    def test_a_grid_of_max_steps_is_allowed(self):
        assert len(_grid(0.0, 1.0, 1.0 / MAX_STEPS)) == MAX_STEPS + 1

    def test_an_evaluation_error_names_the_stage_time_and_state(self):
        # x falls at unit speed from 0.5, so log(x) fails once a stage reaches x <= 0
        sys = OdeSystem(["x", "y"], ["o"], [], {"o": "x"}, {"x": "-1 + 0*log(x)", "y": "x"})
        with pytest.raises(ExprEvalError) as err:
            rk4_solve(sys, (0.5, 1.0), NO_PARAMS, 0.0, 1.0, 0.2)
        message = str(err.value)
        match = re.fullmatch(
            r"field component 'x': log\((\S+)\) is undefined at t=(\S+) in state \(x=(\S+), y=(\S+)\)",
            message,
        )
        assert match, message
        arg, t, x, _ = map(float, match.groups())
        assert arg == x <= 0.0
        assert 0.4 <= t <= 0.6

    def test_wrong_vector_lengths_are_rejected(self):
        with pytest.raises(ValidationError, match="initial"):
            rk4_solve(plain_exp(), (1.0, 2.0), NO_PARAMS, 0.0, 1.0, 1e-2)
        with pytest.raises(ValidationError, match="signal width"):
            rk4_solve(plain_exp(), (1.0,), LV_PARAMS, 0.0, 1.0, 1e-2)

    def test_blow_up_reports_the_time(self):
        doubling = OdeSystem(["s"], ["y"], [], {"y": "s"}, {"s": "s*s"})
        with pytest.raises(IntegrationError) as err:
            rk4_solve(doubling, (1.0,), NO_PARAMS, 0.0, 2.0, 1e-2)
        assert 0.9 < err.value.time <= 2.0
        assert "non-finite" in str(err.value)

    def test_time_varying_params_sample_at_stage_times(self):
        # ds/dt = p with p stepping 0 -> 1 at t = 1. Every step inside [1, 2]
        # adds h; the step landing on t = 1 already sees the new value at its
        # final stage, adding h/6. So s(2) = 1 + h/6.
        sys = OdeSystem(["s"], ["y"], ["p"], {"y": "s"}, {"s": "p"})
        sig = ParamSignal((0.0, 1.0), ((0.0,), (1.0,)))
        h = 0.25
        traj = rk4_solve(sys, (0.0,), sig, 0.0, 2.0, h)
        assert traj.values[-1][0] == pytest.approx(1.0 + h / 6.0, rel=1e-12)


class TestCheckResidual:
    def test_exact_line_has_zero_residual(self):
        times = tuple(j * 0.1 for j in range(11))
        traj = Trajectory(times, tuple((t,) for t in times), tuple((t,) for t in times))
        result = check_residual(unit_slope(), traj, NO_PARAMS, 1e-15)
        assert result
        assert result.max_residual <= 1e-12

    def test_solver_output_passes_at_the_quadratic_tolerance(self):
        # C = 2.0 was calibrated once against both model systems (observed
        # C is about 0.45 for exponential growth and 0.66 for the two-species
        # system) and is fixed here.
        for h in (1e-2, 1e-3):
            traj = rk4_solve(plain_exp(), (1.0,), NO_PARAMS, 0.0, 1.0, h)
            result = check_residual(plain_exp(), traj, NO_PARAMS, 2.0 * h * h)
            assert result

    def test_predator_prey_output_passes_at_the_quadratic_tolerance(self):
        sys = predator_prey()
        for h in (1e-2, 1e-3):
            traj = rk4_solve(sys, (2.0, 1.0), LV_PARAMS, 0.0, 5.0, h)
            assert check_residual(sys, traj, LV_PARAMS, 2.0 * h * h)

    def test_corrupted_sample_is_located(self):
        traj = rk4_solve(plain_exp(), (1.0,), NO_PARAMS, 0.0, 1.0, 1e-2)
        values = list(traj.values)
        values[40] = (values[40][0] + 0.1,)
        corrupted = Trajectory(traj.times, tuple(values), traj.outputs)
        result = check_residual(plain_exp(), corrupted, NO_PARAMS, 1e-5)
        assert not result
        assert result.index in (39, 41)  # central differences blame a neighbor
        assert result.component == "s"
        assert result.max_residual > 1.0

    def test_short_grids_are_rejected(self):
        traj = Trajectory((0.0, 1.0), ((0.0,), (1.0,)), ((0.0,), (1.0,)))
        with pytest.raises(ValidationError, match="too short"):
            check_residual(unit_slope(), traj, NO_PARAMS, 1e-5)

    def test_nonuniform_grids_are_rejected(self):
        traj = Trajectory((0.0, 0.1, 0.25), ((0.0,), (0.1,), (0.25,)), ((0.0,), (0.1,), (0.25,)))
        with pytest.raises(ValidationError, match="uniform"):
            check_residual(unit_slope(), traj, NO_PARAMS, 1e-5)


    @pytest.mark.parametrize(
        "nan_rows, index",
        [({0}, 1), ({1}, 2), ({2}, 1), ({3}, 2), ({1, 2}, 1), ({0, 3}, 1)],
    )
    def test_a_nan_residual_fails_where_it_first_occurs(self, nan_rows, index):
        # the field of `b` is 1 everywhere, so a NaN only reaches it through
        # a slope; `a` stays exact and the first defect is on `b`
        sys = OdeSystem(["a", "b"], ["y"], [], {"y": "a"}, {"a": "1", "b": "1"})
        times = (0.0, 0.1, 0.2, 0.3)
        values = tuple((t, math.nan if j in nan_rows else t) for j, t in enumerate(times))
        traj = Trajectory(times, values, tuple((t,) for t in times))
        result = check_residual(sys, traj, NO_PARAMS, 1e-5)
        assert not result
        assert math.isnan(result.max_residual)
        assert (result.index, result.time, result.component) == (index, times[index], "b")

    def test_a_nan_state_fails_even_after_a_larger_finite_defect(self):
        times = (0.0, 0.1, 0.2, 0.3, 0.4)
        values = ((0.0,), (5.0,), (0.2,), (math.nan,), (0.4,))
        traj = Trajectory(times, values, values)
        result = check_residual(plain_exp(), traj, NO_PARAMS, 100.0)
        assert not result
        assert math.isnan(result.max_residual)
        # the slope at index 2 already reads the NaN at index 3
        assert (result.index, result.time, result.component) == (2, 0.2, "s")

    @pytest.mark.parametrize("tol", [-1e-9, -math.inf, math.inf, math.nan])
    def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(self, tol):
        times = tuple(j * 0.1 for j in range(11))
        traj = Trajectory(times, tuple((t,) for t in times), tuple((t,) for t in times))
        with pytest.raises(ValidationError) as err:
            check_residual(unit_slope(), traj, NO_PARAMS, tol)
        assert str(err.value) == f"tolerance must be finite and nonnegative, got {tol!r}"
        assert check_residual(unit_slope(), traj, NO_PARAMS, 0.0)  # an exact line


class TestOneFieldCompile:
    def run_and_count(self, monkeypatch, sys):
        """The `compile_tables` calls, as (stage names, readout), made while
        solving, evaluating the field, checking and reading out `sys`."""
        import opendyn.expr as expr
        import opendyn.ode as ode

        compiled = []
        real = expr.compile_tables

        def counted(stages, states, params, readout=False):
            compiled.append((tuple(what for _, _, what, _ in stages), readout))
            return real(stages, states, params, readout)

        monkeypatch.setattr(expr, "compile_tables", counted)
        monkeypatch.setattr(ode, "compile_tables", counted)
        traj = rk4_solve(sys, (2.0, 1.0), LV_PARAMS, 0.0, 1.0, 1e-2)
        field = eval_field(sys, (2.0, 1.0), LV_PARAMS(0.0))
        assert check_residual(sys, traj, LV_PARAMS, 2e-4)
        eval_readout(sys, (2.0, 1.0))
        # the same function of the parameters runs in the loop and evaluates
        assert field == sys.compiled()(*LV_PARAMS(0.0))(2.0, 1.0)
        return compiled

    def test_solve_evaluate_and_check_compile_the_field_once(self, monkeypatch):
        assert self.run_and_count(monkeypatch, predator_prey()) == [(("field",), False)]

    def test_a_computed_readout_compiles_in_the_same_emission(self, monkeypatch):
        pp = predator_prey()
        readout = {"x": "f", "y": "r*f"}
        sys = OdeSystem(pp.state_vars, list(readout), pp.param_vars, readout, pp.field)
        assert self.run_and_count(monkeypatch, sys) == [(("field",), True)]


class TestSolveFunctoriality:
    def test_identity_lens_gives_identical_paths(self):
        _, pair = _lv_fixture()
        ident = identity_ode_lens(pair.output_vars, pair.param_vars)
        result = check_solve_functoriality(
            ident, pair, (2.0, 1.0), LV_PARAMS, 0.0, 1.0, 1e-2, 1e-12
        )
        assert result
        assert result.max_deviation == 0.0

    def test_predation_wiring_agrees_along_the_whole_path(self):
        lens, pair = _lv_fixture()
        result = check_solve_functoriality(
            lens, pair, (2.0, 1.0), LV_PARAMS, 0.0, 5.0, 1e-3, 1e-9
        )
        assert result
        assert result.max_deviation <= 1e-9

    def test_polynomial_system_with_linear_wiring(self):
        sys = OdeSystem(["s"], ["y"], ["p", "q"], {"y": "s"}, {"s": "0.7 - p*s^3 - q*s"})
        lens = OdeLens(
            ["y"], ["p", "q"], ["y2"], ["u", "v"],
            {"y2": "y"}, {"p": "u", "q": "v + 0.3*y"},
        )
        result = check_solve_functoriality(
            lens, sys, (0.5,), ParamSignal.constant((0.3, 0.2)), 0.0, 5.0, 1e-3, 1e-9
        )
        assert result

    def test_time_varying_outer_signal(self):
        lens, pair = _lv_fixture()
        sig = ParamSignal(
            (0.0, 1.0, 2.0),
            ((1.0, 0.5, 0.2, 0.4), (0.8, 0.4, 0.3, 0.5), (1.2, 0.6, 0.1, 0.3)),
        )
        result = check_solve_functoriality(lens, pair, (2.0, 1.0), sig, 0.0, 3.0, 1e-3, 1e-9)
        assert result

    @pytest.mark.parametrize("case", ["predator-prey", "polynomial"])
    def test_a_constant_signal_bound_once_gives_the_sampled_result(self, case):
        # a two-row signal of equal rows is sampled at every stage; a
        # constant one is bound once: the same parameters, the same result
        if case == "predator-prey":
            lens, sys = _lv_fixture()
            s0, row = (2.0, 1.0), (1.0, 0.5, 0.2, 0.4)
        else:
            sys = OdeSystem(["s"], ["y"], ["p", "q"], {"y": "s"}, {"s": "0.7 - p*s^3 - q*s"})
            lens = OdeLens(["y"], ["p", "q"], ["y2"], ["u", "v"],
                           {"y2": "y"}, {"p": "u", "q": "v + 0.3*y"})
            s0, row = (0.5,), (0.3, 0.2)
        bound = check_solve_functoriality(
            lens, sys, s0, ParamSignal.constant(row), 0.0, 5.0, 1e-3, 1e-9
        )
        sampled = check_solve_functoriality(
            lens, sys, s0, ParamSignal((0.0, 1.0), (row, row)), 0.0, 5.0, 1e-3, 1e-9
        )
        assert bound == sampled and bound


class TestConvergenceOrder:
    def test_halving_the_step_divides_the_error_by_about_sixteen(self):
        errors = {}
        for h in (1e-2, 5e-3, 2.5e-3):
            traj = rk4_solve(plain_exp(), (1.0,), NO_PARAMS, 0.0, 1.0, h)
            errors[h] = abs(traj.values[-1][0] - math.e)
        assert 12.0 <= errors[1e-2] / errors[5e-3] <= 20.0
        assert 12.0 <= errors[5e-3] / errors[2.5e-3] <= 20.0



def chain_of(levels: int, name: str = "x"):
    """`x + 1 + 1 + ...`, built without the parser, `levels` nodes deep."""
    e = Var(name)
    for _ in range(levels - 1):
        e = BinOp("+", e, Num(1.0))
    return e


@contextmanager
def within(seconds: float):
    """Fail the block, rather than let it hang, once it runs past `seconds`."""

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sized(nodes: int):
    """An expression in `x` that has exactly `nodes` nodes written out, built
    from about 2 log2(nodes) distinct nodes by sharing."""
    if nodes == 1:
        return Var("x")
    if nodes % 2 == 0:
        return Neg(sized(nodes - 1))
    half = sized(nodes // 2)
    return BinOp("+", half, half)


class TestDeepTables:
    def test_three_parsed_depths_build_and_run(self):
        # A compose puts a bwd inside a field and readouts inside that, so a
        # composed entry can be three parsed expressions deep: 600 levels
        # for three 200-level ones.
        levels = 600
        sys = OdeSystem(["x"], ["u"], [], {"u": chain_of(levels)}, {"x": chain_of(levels)})
        assert eval_field(sys, (0.5,), ()) == (0.5 + (levels - 1),)
        assert eval_readout(sys, (0.5,)) == (0.5 + (levels - 1),)
        assert to_text(sys.field["x"]).count("+") == levels - 1
        lens = OdeLens(["v"], [], ["u"], [], {"u": chain_of(levels, "v")}, {})
        assert to_text(lens.fwd["u"]).count("+") == levels - 1

    def test_repeated_wiring_builds_and_its_error_is_explained(self):
        # 500 chained substitutions nest 1,003 levels: past Python's recursion
        # limit for a recursive tree walk.
        def wired(x: str, y: str):
            e = parse(f"log({x} - {x})")
            for _ in range(500):
                e = substitute(parse(f"0.5*{x} + {y}"), {x: e})
            return e

        sys = OdeSystem(["x", "y"], [], [], {}, {"x": wired("x", "y"), "y": "0"})
        assert sys == OdeSystem(["x", "y"], [], [], {}, {"x": wired("x", "y"), "y": "0"})
        with pytest.raises(ExprEvalError, match=r"^field component 'x': log\(0\.0\) is undefined$"):
            eval_field(sys, (1.0, 2.0), ())
        lens = OdeLens(["v", "w"], [], ["u"], [], {"u": wired("v", "w")}, {})
        assert free_vars(lens.fwd["u"]) == {"v", "w"}
        assert to_text(lens.fwd["u"]).count("0.5*") == 500
        # wired("v", "v") puts the level below into both of its operands
        nodes = 4
        for _ in range(500):
            nodes = 2 * nodes + 3
        with within(1.0), pytest.raises(
            ValidationError, match=rf"^fwd\['u'\] has {nodes} nodes written out"
        ):
            OdeLens(["v"], [], ["u"], [], {"u": wired("v", "v")}, {})

    def test_a_subtree_reached_along_many_paths_is_walked_once(self):
        # 2^41 - 1 nodes written out, 41 distinct: a walk per path would not end
        e = Var("x")
        for _ in range(40):
            e = BinOp("*", e, e)
        with within(0.1):
            assert free_vars(e) == {"x"}
        with within(0.1):
            substitute(e, {"x": Num(1.0)})
        with within(0.1):
            assert evaluate(e, {"x": 1.0}) == 1.0
        with within(0.1):
            assert compile_table({"e": e}, ["e"], ["x"], "t")(1.0) == (1.0,)
        with within(0.1), pytest.raises(
            ValidationError, match=rf"^field\['x'\] has {2**41 - 1} nodes"
        ):
            OdeSystem(["x"], [], [], {}, {"x": e})

    def test_repr_writes_a_subtree_reached_along_many_paths_once(self):
        e = Var("x")
        for _ in range(40):
            e = BinOp("*", e, e)
        with within(0.1):
            text = repr(e)
        assert text.startswith("BinOp(op='*', left=#1, right=#1) where #1 = ")
        assert text.endswith(", #39 = BinOp(op='*', left=Var(name='x'), right=Var(name='x'))")

    def test_max_nodes_bounds_each_entry_written_out(self):
        message = f"has {MAX_NODES + 1} nodes written out, more than MAX_NODES = {MAX_NODES}"
        with within(1.0):
            sys = OdeSystem(["x"], ["u"], [], {"u": sized(MAX_NODES)}, {"x": sized(MAX_NODES)})
            assert eval_field(sys, (0.0,), ()) == (0.0,)
            with pytest.raises(ValidationError, match=rf"^readout\['u'\] {message}$"):
                OdeSystem(["x"], ["u"], [], {"u": sized(MAX_NODES + 1)}, {"x": "x"})
            with pytest.raises(ValidationError, match=rf"^fwd\['u'\] {message}$"):
                OdeLens(["x"], [], ["u"], [], {"u": sized(MAX_NODES + 1)}, {})

    @pytest.mark.parametrize("form", ["text", "tree"])
    def test_a_scope_fault_is_named_before_a_size_fault(self, monkeypatch, form):
        import opendyn.ode as ode

        monkeypatch.setattr(ode, "MAX_NODES", 7)
        shared = "x*x + x*x"  # 7 nodes written out
        if form == "text":
            table = {"x": shared, "y": f"({shared})*q + w*w"}
        else:  # built by substitution, the subtree one object in both keys
            tree = parse(shared)
            table = {"x": tree, "y": substitute(parse("a*q + w*w"), {"a": tree})}
        # past 7 nodes and out of scope: the scope fault, each name once
        with pytest.raises(ValidationError) as err:
            OdeSystem(["x", "y"], [], [], {}, table)
        assert str(err.value) == "field['y'] uses identifiers outside its scope: ['q', 'w']"
        # the subtree key x added counts in full toward key y's size
        table["y"] = f"({shared})*y" if form == "text" else BinOp("*", table["x"], Var("y"))
        with pytest.raises(ValidationError) as err:
            OdeSystem(["x", "y"], [], [], {}, table)
        assert str(err.value) == "field['y'] has 9 nodes written out, more than MAX_NODES = 7"

    def test_a_composed_entry_counts_each_readout_it_repeats(self, monkeypatch):
        import opendyn.ode as ode

        sys = OdeSystem(["x"], ["o"], ["p"], {"o": "x*x + x*x"}, {"x": "p*x"})
        lens = OdeLens(["o"], ["p"], ["u"], [], {"u": "o"}, {"p": "o + o"})
        monkeypatch.setattr(ode, "MAX_NODES", 17)
        assert to_text(compose_lens_ode(lens, sys).field["x"]) == "(x*x + x*x + (x*x + x*x))*x"
        monkeypatch.setattr(ode, "MAX_NODES", 16)
        with pytest.raises(ValidationError) as err:
            compose_lens_ode(lens, sys)
        assert str(err.value) == "field['x'] has 17 nodes written out, more than MAX_NODES = 16"
