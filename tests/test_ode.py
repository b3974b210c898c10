"""ODE systems, wiring by substitution, RK4 solving, and the two-path check."""

import math
import random

import pytest

from opendyn import (
    IntegrationError,
    OdeLens,
    OdeSystem,
    ParamSignal,
    Trajectory,
    ValidationError,
    check_residual,
    check_solve_functoriality,
    compose_lens_ode,
    compose_ode_lenses,
    eval_field,
    eval_readout,
    evaluate,
    identity_ode_lens,
    parse,
    rk4_solve,
    tensor_ode,
    to_text,
)
from opendyn.laws import _lv_fixture


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

    def test_missing_table_entry_is_rejected(self):
        with pytest.raises(ValidationError):
            OdeSystem(["s", "t"], ["y"], [], {"y": "s"}, {"s": "t"})


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


class TestConvergenceOrder:
    def test_halving_the_step_divides_the_error_by_about_sixteen(self):
        errors = {}
        for h in (1e-2, 5e-3, 2.5e-3):
            traj = rk4_solve(plain_exp(), (1.0,), NO_PARAMS, 0.0, 1.0, h)
            errors[h] = abs(traj.values[-1][0] - math.e)
        assert 12.0 <= errors[1e-2] / errors[5e-3] <= 20.0
        assert 12.0 <= errors[5e-3] / errors[2.5e-3] <= 20.0
