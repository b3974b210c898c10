"""The command-line driver: exit codes, output files, and report layout."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import opendyn.cli as cli
import opendyn.deterministic as det
from opendyn import (
    DetInterface,
    DetSystem,
    FinMap,
    FinSet,
    OdeSystem,
    ParamSignal,
    Span,
    ValidationError,
    check_solve_functoriality,
    compose_lens_ode,
    load_project,
    random_lens,
    random_system,
    rk4_solve,
    save_project,
)
from opendyn.cli import main
from opendyn.expr import MAX_NODES
from opendyn.laws import _lv_fixture, random_interface
from opendyn.project import ProjectFile, project_from_obj
from opendyn.stochastic import MAX_WEIGHT_EXPONENT

from helpers import (
    feedback_lens,
    fixture_path,
    flipflop,
    oscillator,
    random_markov_machine,
    wide_lens,
    wired,
)

FLIPFLOP = fixture_path("flipflop.json")
LV = fixture_path("lv.json")
STOCH = fixture_path("stoch.json")
SQUARE_OK = fixture_path("square_ok.json")
SQUARE_BROKEN = fixture_path("square_broken.json")


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args, **kwargs):
    """`python args` in a child process with the repository's `src` first on
    its PYTHONPATH, so that it runs without an installed package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def run_cli(*argv, **kwargs):
    """`python -m opendyn.cli argv` in a child process, as `run_python`."""
    return run_python("-m", "opendyn.cli", *map(str, argv), **kwargs)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCompose:
    def test_latch_plus_feedback_writes_the_oscillator(self, tmp_path):
        out = tmp_path / "osc.json"
        code = main(
            ["compose", FLIPFLOP, "--lens", "feedback", "--system", "flipflop", "--out", str(out)]
        )
        assert code == 0
        assert load_project(str(out)).system("flipflop_feedback") == oscillator()

    def test_wiring_writes_the_closed_two_species_system(self, tmp_path):
        out = tmp_path / "lv_out.json"
        code = main(
            ["compose", LV, "--lens", "wiring", "--system", "rabbit_fox",
             "--out", str(out), "--name", "closed"]
        )
        assert code == 0
        composed = load_project(str(out)).system("closed")
        assert composed == load_project(LV).system("lotka_volterra")
        assert "alpha*r - c*f*r" in out.read_text()

    def test_doctrine_mismatch_exits_2(self, tmp_path, capsys):
        merged = tmp_path / "merged.json"
        save_project(
            ProjectFile(
                1,
                {"lv": load_project(LV).system("lotka_volterra")},
                {"feedback": feedback_lens()},
                {},
            ),
            merged,
        )
        code = main(
            ["compose", str(merged), "--lens", "feedback", "--system", "lv",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_name_exits_2(self, tmp_path, capsys):
        code = main(
            ["compose", FLIPFLOP, "--lens", "ghost", "--system", "flipflop",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "ghost" in capsys.readouterr().err


    def test_lens_reading_an_output_and_a_parameter_of_one_name_exits_2(self, tmp_path):
        project = tmp_path / "clash.json"
        project.write_text(json.dumps({"version": 1, "systems": {"s": {
            "kind": "ode", "stateVars": ["s"], "outputVars": ["y"], "paramVars": ["p"],
            "readout": {"y": "2*s"}, "field": {"s": "p - s"},
        }}, "lenses": {"clash": {
            "kind": "ode", "sourceOutputVars": ["y"], "sourceParamVars": ["p"],
            "targetOutputVars": ["y2"], "targetParamVars": ["y"],
            "fwd": {"y2": "y"}, "bwd": {"p": "y"},
        }}}))
        out = tmp_path / "out.json"
        proc = run_cli("compose", project, "--lens", "clash", "--system", "s", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "lens 'clash': identifier 'y' appears in both" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestTensor:
    def test_two_latches_side_by_side(self, tmp_path):
        out = tmp_path / "pair.json"
        code = main(
            ["tensor", FLIPFLOP, "--a", "flipflop", "--b", "flipflop", "--out", str(out)]
        )
        assert code == 0
        pair = load_project(str(out)).system("flipflop_flipflop")
        assert len(pair.states) == 4

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        merged = tmp_path / "merged.json"
        save_project(
            ProjectFile(
                1,
                {"ff": flipflop(), "lv": load_project(LV).system("lotka_volterra")},
                {},
                {},
            ),
            merged,
        )
        code = main(["tensor", str(merged), "--a", "ff", "--b", "lv",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "cannot tensor" in capsys.readouterr().err


class TestSteady:
    def test_latch_has_four_steady_rows(self, tmp_path):
        out = tmp_path / "steady.csv"
        assert main(["steady", FLIPFLOP, "--system", "flipflop", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["chart", "element"]
        assert sorted(rows[1:]) == [
            ["hi|hold", "s1|hold"],
            ["hi|set", "s1|set"],
            ["lo|hold", "s0|hold"],
            ["lo|reset", "s0|reset"],
        ]

    def test_oscillator_counts_by_period(self, tmp_path):
        osc = tmp_path / "osc.json"
        main(["compose", FLIPFLOP, "--lens", "feedback", "--system", "flipflop",
              "--out", str(osc), "--name", "osc"])
        steady = tmp_path / "k1.csv"
        main(["steady", str(osc), "--system", "osc", "--out", str(steady)])
        assert len(read_csv(steady)) == 1  # header only
        orbits = tmp_path / "k2.csv"
        main(["steady", str(osc), "--system", "osc", "--k", "2", "--out", str(orbits)])
        assert len(read_csv(orbits)) == 3

    def test_bad_period_and_wrong_doctrine_exit_2(self, tmp_path, capsys):
        assert main(["steady", FLIPFLOP, "--system", "flipflop", "--k", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["steady", LV, "--system", "rabbit",
                     "--out", str(tmp_path / "y.csv")]) == 2
        assert "needs a finite-state system, got ode" in capsys.readouterr().err
        assert not (tmp_path / "y.csv").exists()

    def test_labels_that_join_alike_exit_2(self, tmp_path):
        # elements (a|b, c) and (a, b|c) would both print as a|b|c, so the
        # states, whose labels have different numbers of parts, are refused
        project = tmp_path / "pipes.json"
        project.write_text(json.dumps({"version": 1, "systems": {"m": {
            "kind": "deterministic", "states": ["a|b", "a"], "inputs": ["c", "b|c"],
            "outputs": ["o"], "readout": {"a|b": "o", "a": "o"},
            "update": {"a|b": {"c": "a|b", "b|c": "a|b"}, "a": {"c": "a", "b|c": "a"}},
        }}}))
        out = tmp_path / "x.csv"
        proc = run_cli("steady", project, "--system", "m", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {project}: system 'm': labels 'a|b' and 'a' have different numbers of "
            "'|'-separated parts\n"
        )
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestMatrix:
    def test_feedback_lens_matrix_dump(self, tmp_path):
        out = tmp_path / "matrix.json"
        assert main(["matrix", FLIPFLOP, "--lens", "feedback", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["version"] == 1 and obj["k"] == 1
        assert obj["source"] == [
            "lo|set", "lo|reset", "lo|hold", "hi|set", "hi|reset", "hi|hold"
        ]
        assert obj["target"] == ["star|tick"]
        assert obj["matrix"] == [[1], [0], [0], [0], [1], [0]]

    def test_matrix_total_counts_the_apex(self, tmp_path):
        out = tmp_path / "matrix2.json"
        assert main(["matrix", FLIPFLOP, "--lens", "feedback", "--k", "2",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert sum(map(sum, obj["matrix"])) == 4  # (2 outputs x 1 new input)^2


class TestSimulate:
    def test_deterministic_run(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(
            ["simulate", FLIPFLOP, "--system", "flipflop", "--start", "s0",
             "--word", "set,hold,reset", "--out", str(out)]
        )
        assert code == 0
        assert read_csv(out) == [
            ["step", "input", "state", "output"],
            ["0", "", "s0", "lo"],
            ["1", "set", "s1", "hi"],
            ["2", "hold", "s1", "hi"],
            ["3", "reset", "s0", "lo"],
        ]

    def test_stochastic_run_is_seed_stable(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", STOCH, "--system", "chain", "--start", "a",
                "--word", ",".join(["go"] * 40), "--seed", "3"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_ode_run_hits_the_endpoint(self, tmp_path):
        from opendyn import OdeSystem

        project = tmp_path / "line.json"
        save_project(
            ProjectFile(1, {"line": OdeSystem(["s"], ["y"], [], {"y": "s"}, {"s": "1"})}, {}, {}),
            project,
        )
        out = tmp_path / "line.csv"
        code = main(
            ["simulate", str(project), "--system", "line", "--init", "0",
             "--t1", "5", "--h", "0.5", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["time", "s", "y"]
        assert len(rows) == 12
        assert abs(float(rows[-1][0]) - 5.0) <= 1e-12
        assert abs(float(rows[-1][1]) - 5.0) <= 1e-12

    def test_missing_arguments_exit_2(self, tmp_path, capsys):
        assert main(["simulate", LV, "--system", "lotka_volterra",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "--init" in capsys.readouterr().err
        assert main(["simulate", FLIPFLOP, "--system", "flipflop",
                     "--out", str(tmp_path / "y.csv")]) == 2
        assert "--start" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system, values, message",
        [
            ("lotka_volterra", ["--init", "1,1"],
             "error: --params: expected 4 values (alpha, c, d, delta), got 0\n"),
            ("lotka_volterra", ["--init", "1,1,1", "--params", "1,1,1,1"],
             "error: --init: expected 2 values (r, f), got 3\n"),
            ("decay", ["--init", "1", "--params", "1"], "error: --params: expected 0 values, got 1\n"),
            ("decay", ["--init", "1,2"], "error: --init: expected 1 value (s), got 2\n"),
        ],
        ids=["params-missing", "init-too-long", "params-for-none", "init-for-one"],
    )
    def test_a_wrong_value_count_exits_2_naming_the_flag(self, tmp_path, capsys, system, values, message):
        project = tmp_path / "both.json"
        decay = OdeSystem(["s"], ["y"], [], {"y": "s"}, {"s": "-s"})
        save_project(ProjectFile(1, {"decay": decay, **load_project(LV).systems}, {}, {}), project)
        out = tmp_path / "x.csv"
        assert main(["simulate", str(project), "--system", system, *values, "--t1", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_unknown_start_state_exits_2(self, tmp_path):
        assert main(["simulate", FLIPFLOP, "--system", "flipflop", "--start", "zz",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("window", [["--t1", "inf"], ["--t0=-inf", "--t1", "1"]])
    def test_non_finite_time_exits_2_without_a_traceback(self, tmp_path, window):
        proc = run_cli("simulate", LV, "--system", "lotka_volterra", "--init", "1,1",
                       "--params", "1,1,1,1", *window, "--out", tmp_path / "x.csv")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_csv_cells_are_the_shortest_round_trip_of_each_float(self, tmp_path):
        project = tmp_path / "edge.json"
        edge = OdeSystem(
            ["s", "z"], ["neg", "tiny", "big", "nan"], [],
            {"neg": "-0*s", "tiny": "s", "big": "1e308*10", "nan": "1e308*10 - 1e308*10"},
            {"s": "0", "z": "0"},
        )
        save_project(ProjectFile(1, {"edge": edge}, {}, {}), project)
        out = tmp_path / "edge.csv"
        assert main(["simulate", str(project), "--system", "edge", "--init=1e-300,-0.0",
                     "--t1", "1", "--h", "0.5", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"time,s,z,neg,tiny,big,nan\r\n"
            b"0.0,1e-300,-0.0,-0.0,1e-300,inf,nan\r\n"
            b"0.5,1e-300,0.0,-0.0,1e-300,inf,nan\r\n"
            b"1.0,1e-300,0.0,-0.0,1e-300,inf,nan\r\n"
        )

    @pytest.mark.parametrize(
        "init, message",
        [
            ("nan,1", "error: initial value of 'r' must be finite, got nan\n"),
            ("1,-inf", "error: initial value of 'f' must be finite, got -inf\n"),
            (
                "1e200,1e200",
                "error: state became non-finite in the step from t=0.0 to t=0.001: "
                "(r=1e+200, f=1e+200) -> (r=nan, f=nan)\n",
            ),
        ],
        ids=["nan", "-inf", "blow-up"],
    )
    def test_a_non_finite_state_exits_2_naming_it(self, tmp_path, init, message):
        proc = run_cli("simulate", LV, "--system", "lotka_volterra", f"--init={init}",
                       "--params", "1,0.5,0.2,0.4", "--t1", "1", "--out", tmp_path / "x.csv")
        assert proc.returncode == 2
        assert proc.stderr == message
        assert not (tmp_path / "x.csv").exists()

    def test_a_readout_failing_mid_run_leaves_the_out_file_as_it_was(self, tmp_path):
        # s = 1, 0.5, 0.0, ...: the readout log(s) fails at the third row,
        # after the integration, and before the output file is opened
        project = tmp_path / "log.json"
        save_project(ProjectFile(1, {"decay": OdeSystem(
            ["s"], ["y"], [], {"y": "log(s)"}, {"s": "-1"})}, {}, {}), project)
        out = tmp_path / "x.csv"
        out.write_bytes(b"kept\r\n\x00 as it was")
        proc = run_cli("simulate", project, "--system", "decay", "--init", "1",
                       "--t1", "2", "--h", "0.5", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr == "error: readout component 'y': log(0.0) is undefined\n"
        assert out.read_bytes() == b"kept\r\n\x00 as it was"

    def test_a_step_below_the_float_spacing_exits_2_before_integrating(self, tmp_path):
        # at 1e16 the floats are 2 apart, so t0 + j * 0.5 repeats a time
        proc = run_cli("simulate", LV, "--system", "lotka_volterra", "--init", "1,1",
                       "--params", "1,1,1,1", "--t0", "1e16", "--t1", "1.0000000000000004e16",
                       "--h", "0.5", "--out", tmp_path / "x.csv")
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: time grid [1e+16, 1.0000000000000004e+16] at step 0.5 is not strictly "
            "increasing: the step is too small for the float spacing of its times\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_a_grid_past_max_steps_exits_2_at_once(self, tmp_path):
        proc = run_cli("simulate", LV, "--system", "lotka_volterra", "--init", "1,1",
                       "--params", "1,1,1,1", "--t1", "10", "--h", "1e-300",
                       "--out", tmp_path / "x.csv", timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "MAX_STEPS" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()


    def test_negative_values_are_read_in_the_equals_form(self, tmp_path):
        out = tmp_path / "neg.csv"
        assert main(["simulate", LV, "--system", "rabbit_fox", "--init=-1,2",
                     "--params=1,-0.5,0.2,-0.4", "--t0=-1e-3", "--t1", "0.05", "--h", "0.01",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[1][:3] == ["-0.001", "-1.0", "2.0"]
        assert [row[0] for row in rows[2:4]] == ["0.009000000000000001", "0.019"]
        assert rows[-1][0] == "0.05"


def csv_writer_bytes(system: OdeSystem, init, params, t0: float, t1: float, h: float) -> bytes:
    """The trajectory written by `csv.writer`, as `simulate` wrote it before
    it formatted each row itself."""
    traj = rk4_solve(system, init, ParamSignal.constant(params), t0, t1, h)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(("time", *system.state_vars, *system.output_vars))
    writer.writerows((t, *vals, *outs) for t, vals, outs in zip(traj.times, traj.values, traj.outputs))
    return text.getvalue().encode("utf-8")


CSV_SYSTEMS = {
    "wired4": wired(4),
    "no_outputs": OdeSystem(["x", "y"], [], ["p"], {}, {"x": "p*y", "y": "-x"}),
    "one_state": OdeSystem(["z"], ["w"], [], {"w": "z*z"}, {"z": "-0.5*z"}),
    "edge": OdeSystem(["s", "z"], ["big", "huge", "neg"], [],
                      {"big": "1e16", "huge": "1e22", "neg": "-0*s"}, {"s": "0", "z": "0*z"}),
    # outputs that copy states, in another order than the states'
    "shuffled": OdeSystem(["a", "b", "c"], ["oc", "oa", "ob"], [],
                          {"oc": "c", "oa": "a", "ob": "b"}, {"a": "b", "b": "-a", "c": "0.5*c"}),
    # one state read by two outputs, and a state no output reads
    "twice": OdeSystem(["x", "y"], ["y1", "y2"], ["p"],
                       {"y1": "x", "y2": "x"}, {"x": "p*y", "y": "-x"}),
    # copied and computed outputs mixed
    "mixed": OdeSystem(["x", "y"], ["o1", "o2", "o3", "o4"], ["p"],
                       {"o1": "y", "o2": "x*y", "o3": "x", "o4": "2"}, {"x": "p*y", "y": "-x"}),
    "no_states": OdeSystem([], ["c", "d"], ["p"], {"c": "2.5", "d": "-0.0"}, {}),
}


class TestOdeCsvBytes:
    """`simulate`'s ODE CSV against `csv.writer`, byte for byte."""

    @pytest.mark.parametrize(
        "system, init, params, window",
        [
            ("lotka_volterra", (2.0, 1.0), (1.0, 0.5, 0.2, 0.4), (0.0, 2.0, 0.01)),
            ("rabbit_fox", (-1.0, 2.0), (1.0, 0.5, 0.2, 0.4), (-1e-3, 1.0, 0.01)),
            ("wired4", (-0.3, 0.7), (0.4, 0.9), (0.0, 1.0, 1 / 256)),
            ("no_outputs", (1.0, -0.0), (0.5,), (2.5, 3.5, 0.1)),
            ("one_state", (5e-324,), (), (0.0, 1.0, 0.25)),
            ("one_state", (1e22,), (), (-3.0, -2.0, 0.125)),
            ("edge", (-0.0, 5e-324), (), (0.0, 1.0, 0.5)),
            ("shuffled", (1.0, -2.0, 3.0), (), (0.0, 1.0, 0.1)),
            ("twice", (0.3, -0.7), (2.0,), (0.0, 1.0, 0.1)),
            ("mixed", (0.3, -0.7), (2.0,), (0.0, 1.0, 0.1)),
            ("no_states", (), (1.5,), (0.0, 1.0, 0.25)),
            # more rows than one write block
            ("mixed", (0.3, -0.7), (2.0,), (0.0, 2.0, 1e-4)),
            ("lotka_volterra", (2.0, 1.0), (1.0, 0.5, 0.2, 0.4), (0.0, 20.0, 1e-3)),
        ],
        ids=["lv", "lv-negative", "wired-depth-4", "no-outputs", "one-state-tiny",
             "one-state-huge", "edge-values", "copies-shuffled", "one-state-read-twice",
             "copied-and-computed", "no-states", "mixed-20000-steps", "lv-20000-steps"],
    )
    def test_rows_match_csv_writer(self, tmp_path, system, init, params, window):
        project = tmp_path / "systems.json"
        save_project(ProjectFile(1, {**load_project(LV).systems, **CSV_SYSTEMS}, {}, {}), project)
        entry = load_project(project).system(system)
        out = tmp_path / "run.csv"
        t0, t1, h = window
        assert main(["simulate", str(project), "--system", system,
                     "--init=" + ",".join(map(repr, init)), "--params=" + ",".join(map(repr, params)),
                     f"--t0={t0!r}", "--t1", repr(t1), "--h", repr(h), "--out", str(out)]) == 0
        assert out.read_bytes() == csv_writer_bytes(entry, init, params, t0, t1, h)

    def test_the_long_grids_span_several_write_blocks(self):
        assert 20_000 > 4 * cli._CSV_BLOCK_ROWS


class TestDeepExpressions:
    def test_deeply_nested_field_exits_2_without_a_traceback(self, tmp_path):
        deep = "(" * 400 + "x" + ")" * 400
        project = tmp_path / "deep.json"
        project.write_text(json.dumps({"version": 1, "systems": {"deep": {
            "kind": "ode", "stateVars": ["x"], "outputVars": ["y"], "paramVars": [],
            "readout": {"y": "x"}, "field": {"x": deep},
        }}}))
        proc = run_cli("steady", project, "--system", "deep", "--out", tmp_path / "x.csv")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "nests deeper" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_a_syntax_error_names_its_entry(self, tmp_path):
        project = tmp_path / "typo.json"
        project.write_text(json.dumps({"version": 1, "systems": {"typo": {
            "kind": "ode", "stateVars": ["x", "y"], "outputVars": ["o"], "paramVars": [],
            "readout": {"o": "x"}, "field": {"x": "x", "y": "x +* 2"},
        }}}))
        out = tmp_path / "x.csv"
        proc = run_cli("simulate", project, "--system", "typo", "--init", "1,1", "--params", "",
                       "--t1", "1", "--h", "0.5", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {project}: system 'typo': field['y']: "
            "expected a value, got '*' (at position 3)\n"
        )
        assert not out.exists()


    def test_three_thousand_term_field_simulates(self, tmp_path):
        long_sum = "+".join(["x"] * 3000)
        project = tmp_path / "long.json"
        project.write_text(json.dumps({"version": 1, "systems": {"long": {
            "kind": "ode", "stateVars": ["x"], "outputVars": ["y"], "paramVars": [],
            "readout": {"y": long_sum}, "field": {"x": long_sum},
        }}}))
        out = tmp_path / "x.csv"
        proc = run_cli("simulate", project, "--system", "long", "--init", "1",
                       "--t1", "0.001", "--h", "0.001", "--out", out)
        assert proc.returncode == 0, proc.stderr
        rows = read_csv(out)
        assert rows[1] == ["0.0", "1.0", "3000.0"]
        # one RK4 step of x' = 3000x at h = 0.001: 1 + 3 + 3^2/2 + 3^3/6 + 3^4/24
        assert float(rows[2][1]) == pytest.approx(16.375, rel=1e-12)

    @staticmethod
    def compose_project(path, terms: int, field_term: str, bwd_term: str, join: str = " + "):
        """A system and a lens whose field, bwd and readout are `terms`-term
        sums: the field `p` and then `field_term`s, the bwd `y` and then
        `bwd_term`s, the readout `x`s. Composing them puts the bwd in place of
        p in the field, and the readout in place of y in that."""

        def chain(first: str, term: str) -> str:
            return join.join([first] + [term] * (terms - 1))

        path.write_text(json.dumps({"version": 1, "systems": {"s": {
            "kind": "ode", "stateVars": ["x"], "outputVars": ["y"], "paramVars": ["p"],
            "readout": {"y": chain("x", "x")}, "field": {"x": chain("p", field_term)},
        }}, "lenses": {"l": {
            "kind": "ode", "sourceOutputVars": ["y"], "sourceParamVars": ["p"],
            "targetOutputVars": ["z"], "targetParamVars": ["q"],
            "fwd": {"z": "y"}, "bwd": {"p": chain("y", bwd_term)},
        }}}))
        return path

    def test_composing_three_deepest_loadable_expressions_writes_the_result(self, tmp_path):
        # 200 terms each, once the deepest a parsed expression could be: the
        # composed field is 3 * 200 - 2 levels deep.
        levels = 200
        project = self.compose_project(tmp_path / "deep_compose.json", levels, "x", "q")
        out = tmp_path / "composed.json"
        proc = run_cli("compose", project, "--lens", "l", "--system", "s", "--out", out)
        assert proc.returncode == 0, proc.stderr
        field = json.loads(out.read_text())["systems"]["s_l"]["field"]["x"]
        assert field == " + ".join(["x"] * levels + ["q"] * (levels - 1) + ["x"] * (levels - 1))

    def test_separately_composed_deep_systems_are_equal(self, tmp_path):
        project = self.compose_project(tmp_path / "deep_compose.json", 200, "x", "q")
        out = tmp_path / "composed.json"
        assert main(["compose", str(project), "--lens", "l", "--system", "s",
                     "--out", str(out)]) == 0
        loaded = load_project(str(project))
        composed = compose_lens_ode(loaded.lens("l"), loaded.system("s"))
        written = load_project(str(out)).system("s_l")
        assert composed == written and hash(composed.field["x"]) == hash(written.field["x"])
        assert composed.readout == written.readout

    def test_a_compose_past_max_nodes_exits_2_naming_the_size(self, tmp_path):
        # p+...+p with y+...+y for p and x+...+x for y, n terms each, writes
        # out to 2n^3 - 1 nodes: 1,999,999 for n = 100
        project = self.compose_project(tmp_path / "big.json", 100, "p", "y", "+")
        out = tmp_path / "composed.json"
        start = time.perf_counter()
        proc = run_cli("compose", project, "--lens", "l", "--system", "s", "--out", out)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: field['x'] has 1999999 nodes written out, more than MAX_NODES = {MAX_NODES}\n"
        )
        assert not out.exists()

    def test_a_compose_within_max_nodes_writes_it_out(self, tmp_path):
        project = self.compose_project(tmp_path / "big.json", 60, "p", "y", "+")
        out = tmp_path / "composed.json"
        proc = run_cli("compose", project, "--lens", "l", "--system", "s", "--out", out)
        assert proc.returncode == 0, proc.stderr
        field = json.loads(out.read_text())["systems"]["s_l"]["field"]["x"]
        assert field.count("x") == 60**3 and field.count("+") == 2 * 60**3 - 1 - 60**3


class TestCheck:
    def test_passing_project_exits_0(self, tmp_path, capsys):
        code = main(["check", SQUARE_OK, "--cases", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS (6/6 suites)" in out
        assert "PASS project-squares" in out

    def test_broken_square_exits_1_with_a_witness(self, capsys):
        code = main(["check", SQUARE_BROKEN, "--cases", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL project-squares" in out
        assert "('q', 'c')" in out
        assert "result: FAIL (5/6 suites)" in out

    def test_zero_cases_is_a_vacuous_pass(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"version": 1}\n')
        assert main(["check", str(empty), "--cases", "0"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_project_scan_runs_the_theorem_on_a_markov_system(self, tmp_path, capsys):
        # the lens `flip` rewires the Markov machine `p`; `q` has another interface
        project = tmp_path / "pair.json"
        project.write_text(json.dumps(STOCH_PAIR))
        assert main(["check", str(project), "--cases", "0"]) == 0
        assert "PASS project-matrix: 1 cases" in capsys.readouterr().out

    def test_report_file_matches_stdout(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        main(["check", SQUARE_OK, "--cases", "3", "--out", str(report)])
        assert report.read_text() == capsys.readouterr().out

    def test_negative_cases_exit_2(self, capsys):
        assert main(["check", SQUARE_OK, "--cases", "-1"]) == 2

    @pytest.mark.parametrize("tol", ["-1", "-1e-300", "-inf", "inf", "nan"])
    def test_a_nonsense_tolerance_exits_2_before_any_suite(self, tol, tmp_path, capsys, monkeypatch):
        def no_suite(*args):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli, "lens_law_suite", no_suite)
        out = tmp_path / "report.txt"
        assert main(["check", SQUARE_OK, "--cases", "1", f"--tol={tol}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --tol must be finite and nonnegative, got {float(tol)!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("tol", [-1.0, -math.inf, math.inf, math.nan])
    def test_the_python_api_refuses_a_nonsense_tolerance(self, tol):
        lens, pair = _lv_fixture()
        with pytest.raises(ValidationError) as err:
            check_solve_functoriality(
                lens, pair, (2.0, 1.0), ParamSignal.constant((1.0, 0.5, 0.2, 0.4)), 0.0, 5.0, 1e-3, tol
            )
        assert str(err.value) == f"tolerance must be finite and nonnegative, got {tol!r}"

    def test_valid_tolerances_give_the_same_report(self, capsys):
        reports = {}
        for tol in ("0", "1e-09", "0.5"):
            assert main(["check", SQUARE_OK, "--cases", "2", "--tol", tol]) == 0
            command, *rest = capsys.readouterr().out.splitlines()[1:]
            assert command.endswith(f"--tol {float(tol)!r}")
            assert "PASS ode-functoriality: 2 cases" in rest
            reports[tol] = rest
        assert reports["0"] == reports["1e-09"] == reports["0.5"]


class TestDriver:
    def test_usage_error_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main([])

    def test_console_script_is_installed(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert proc.stdout == HELP


# `opendyn --help` at 80 columns, as the parser built with every subcommand printed it
HELP = """\
usage: opendyn [-h] {compose,tensor,steady,matrix,simulate,check} ...

Compose, enumerate, simulate, and check open dynamical systems.

positional arguments:
  {compose,tensor,steady,matrix,simulate,check}
    compose             apply a lens to a system and write the result
    tensor              put two same-doctrine systems side by side
    steady              enumerate steady states or period-k orbits as CSV
    matrix              dump a lens's chart-set span as a counting matrix
    simulate            run a system and write the trace as CSV
    check               run law suites and project checks, report pass/fail

options:
  -h, --help            show this help message and exit
"""

COMMANDS = ["compose", "tensor", "steady", "matrix", "simulate", "check"]

# argv that end in parsing: help, a usage error of the parent or of one subcommand
PINNED_ARGV = [
    [], ["-h"], ["--help"], ["--"], ["-x"], ["bogus"], ["--", "compose"],
    *([command, "-h"] for command in COMMANDS),
    ["compose", "p", "--lens", "l", "--system", "s"],
    ["check"],
    ["steady", "p", "--system", "s", "--out", "o", "--k", "two"],
    ["matrix", "p", "--lens", "l", "--out", "o", "--k", "1.5"],
    ["simulate", "p", "--system", "s", "--out", "o", "--t1", "x"],
    ["steady", "p", "--system", "s", "--out", "o", "--bogus"],
    ["check", "p", "extra"],
    ["compose", "p", "--le"],
    ["simulate", "p", "--s", "x"],
]

# argv that parse, with defaults, a prefix of a long option and an `=` value
PARSED_ARGV = [
    ["compose", "p", "--le", "l", "--system", "s", "--out", "o"],
    ["tensor", "p", "--a", "x", "--b", "y", "--out", "o", "--name", "n"],
    ["steady", "p", "--system", "s", "--out", "o", "--k", "3"],
    ["matrix", "p", "--lens", "l", "--out", "o"],
    ["simulate", "p", "--system", "s", "--out", "o", "--init=1,2", "--t1", "3", "--seed", "4"],
    ["check", "p", "--tol", "0.5"],
]


def printed(parse, argv, capsys):
    """Exit code, stdout and stderr of `parse(argv)`, which is to exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


# `opendyn steady -h` at 80 columns
STEADY_HELP = """\
usage: opendyn steady [-h] --system SYSTEM [--k K] --out OUT project

positional arguments:
  project

options:
  -h, --help       show this help message and exit
  --system SYSTEM
  --k K
  --out OUT
"""


class TestLeanParser:
    """`main` reads a well-formed argv off the spec table without argparse,
    and builds the parser of every subcommand for any other argv, which
    prints what it always printed."""

    @pytest.fixture
    def added(self, monkeypatch):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        return names

    @pytest.mark.parametrize("argv", PINNED_ARGV, ids=lambda argv: " ".join(argv) or "<none>")
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys):
        full = printed(lambda a: cli.build_parser().parse_args(a), argv, capsys)
        assert printed(main, argv, capsys) == full

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus' "
                        "(choose from 'compose', 'tensor', 'steady', 'matrix', 'simulate', 'check')"),
            (["steady", "p", "--system", "s", "--out", "o", "--bogus"],
             "unrecognized arguments: --bogus"),
        ],
        ids=["none", "unknown", "extra"],
    )
    def test_the_parents_errors_keep_their_text(self, argv, error, capsys):
        usage = HELP.splitlines(keepends=True)[0]
        assert printed(main, argv, capsys) == (2, "", f"{usage}opendyn: error: {error}\n")

    @pytest.mark.parametrize("argv", PARSED_ARGV, ids=lambda argv: argv[0])
    def test_a_lean_parse_gives_the_full_namespace(self, argv):
        full = vars(cli.build_parser().parse_args(argv))
        if "--le" in argv:  # an abbreviated flag is argparse's to read
            assert cli._scan(argv) is None
        else:
            assert vars(cli._scan(argv)) == full

    def test_a_known_command_builds_one_subparser(self, tmp_path, added):
        out = tmp_path / "s.csv"
        assert main(["steady", FLIPFLOP, "--system", "flipflop", "--out", str(out)]) == 0
        assert added == []
        assert len(read_csv(out)) == 5

    @pytest.mark.parametrize("argv", [["-h"], ["bogus"], []], ids=["-h", "unknown", "none"])
    def test_any_other_argv_builds_all_six(self, argv, added, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert added == COMMANDS

    def test_no_argv_reads_sys_argv(self, tmp_path, added, monkeypatch):
        out = tmp_path / "s.csv"
        monkeypatch.setattr(
            sys, "argv", ["opendyn", "steady", FLIPFLOP, "--system", "flipflop", "--out", str(out)]
        )
        assert main() == 0
        assert added == []
        assert len(read_csv(out)) == 5

    def test_a_well_formed_run_imports_no_argparse(self, tmp_path):
        out = tmp_path / "s.csv"
        code = (
            "import sys\n"
            "from opendyn.cli import main\n"
            f"main(['steady', {FLIPFLOP!r}, '--system', 'flipflop', '--out', {str(out)!r}])\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"wrote {out} (4 rows)", "[]"]

    def test_subcommand_help_is_unchanged(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        proc = run_cli("steady", "-h")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, STEADY_HELP, "")


# the fewest options each command runs with on the flipflop fixture
REQUIRED = {
    "compose": {"--lens": "feedback", "--system": "flipflop", "--out": "o"},
    "tensor": {"--a": "flipflop", "--b": "flipflop", "--out": "o"},
    "steady": {"--system": "flipflop", "--out": "o"},
    "matrix": {"--lens": "feedback", "--out": "o"},
    "simulate": {"--system": "flipflop", "--out": "o", "--start": "s0"},
    "check": {"--cases": "0", "--out": "o"},
}


class TestADashDashValueIsRefused:
    """`--opt=--` is no value: argparse stores [] for it (3.13: "--"), which
    once crashed a command or silently ran it on nothing."""

    @pytest.mark.parametrize(
        "command, flag",
        [(name, flag) for name, (_, _, options) in cli._COMMANDS.items() for flag, _ in options],
        ids=lambda x: x,
    )
    def test_it_exits_2_naming_the_option_and_writes_nothing(
        self, command, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        options = {**REQUIRED[command], flag: "--"}
        argv = [command, FLIPFLOP, *(f"{f}={v}" for f, v in options.items())]
        code, out, err = printed(main, argv, capsys)
        usage, error = err.splitlines()
        assert (code, out) == (2, "")
        assert usage.startswith("usage: opendyn ")
        assert error == f"opendyn: error: argument {flag}: expected one argument, got '--'"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_same_options_run(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = [command, FLIPFLOP, *(f"{f}={v}" for f, v in REQUIRED[command].items())]
        assert main(argv) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["o"]


def assert_named_error(proc, path, text):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert f"{path}: {text}" in proc.stderr


class TestFileErrors:
    def test_missing_project(self, tmp_path):
        project, out = tmp_path / "missing.json", tmp_path / "out.csv"
        proc = run_cli("steady", project, "--system", "flipflop", "--out", out)
        assert_named_error(proc, project, "cannot read the file: No such file or directory")
        assert not out.exists()

    def test_project_path_is_a_directory(self, tmp_path):
        out = tmp_path / "out.json"
        proc = run_cli("compose", tmp_path, "--lens", "feedback", "--system", "flipflop",
                       "--out", out)
        assert_named_error(proc, tmp_path, "cannot read the file: Is a directory")
        assert not out.exists()

    def test_project_is_not_utf8(self, tmp_path):
        project, out = tmp_path / "latin1.json", tmp_path / "out.json"
        project.write_bytes('{"version": 1, "systems": {"café": {}}}'.encode("latin-1"))
        proc = run_cli("matrix", project, "--lens", "feedback", "--out", out)
        assert_named_error(proc, project, "not UTF-8 text (byte 31)")
        assert not out.exists()

    def test_deeply_nested_json(self, tmp_path):
        project, out = tmp_path / "deep.json", tmp_path / "out.csv"
        project.write_text("[" * 100_000 + "]" * 100_000)
        proc = run_cli("steady", project, "--system", "x", "--out", out)
        assert_named_error(proc, project, "JSON nests too deeply to decode")
        assert not out.exists()

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integers of any length",
    )
    def test_an_integer_too_long_to_decode(self, tmp_path):
        project, out = tmp_path / "long.json", tmp_path / "out.csv"
        project.write_text('{"version": ' + "1" * (sys.get_int_max_str_digits() + 1) + "}")
        proc = run_cli("steady", project, "--system", "x", "--out", out)
        assert_named_error(proc, project, "JSON holds an integer too long to decode")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["steady", "--system", "flipflop"],
            ["simulate", "--system", "flipflop", "--start", "s0", "--word", "set,hold"],
        ],
        ids=["steady", "simulate"],
    )
    def test_a_lone_surrogate_is_refused_before_any_file_is_opened(self, tmp_path, command):
        project, out = tmp_path / "surrogate.json", tmp_path / "out.csv"
        project.write_text(Path(FLIPFLOP).read_text().replace('"s1"', '"\\ud800"'))
        proc = run_cli(command[0], project, *command[1:], "--out", out)
        assert_named_error(proc, project, "'\\ud800' holds a lone surrogate, which UTF-8 cannot encode")
        assert not out.exists()

    def test_a_surrogate_pair_loads(self, tmp_path):
        project, out = tmp_path / "pair.json", tmp_path / "out.csv"
        project.write_text(Path(FLIPFLOP).read_text().replace('"s1"', '"\\ud83d\\ude00"'))
        assert load_project(project).system("flipflop").states.elements == ("s0", "\U0001f600")
        proc = run_cli("steady", project, "--system", "flipflop", "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "\U0001f600|" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", FLIPFLOP, "--lens", "feedback", "--system", "flipflop", "--out"],
            ["tensor", FLIPFLOP, "--a", "flipflop", "--b", "flipflop", "--out"],
            ["matrix", FLIPFLOP, "--lens", "feedback", "--out"],
            ["steady", FLIPFLOP, "--system", "flipflop", "--out"],
            ["check", FLIPFLOP, "--cases", "0", "--out"],
        ],
        ids=["compose", "tensor", "matrix", "steady", "check"],
    )
    def test_out_in_a_missing_directory(self, tmp_path, argv):
        out = tmp_path / "no" / "such" / "dir" / "out"
        proc = run_cli(*argv, out)
        assert_named_error(proc, out, "cannot write the file: No such file or directory")
        assert not out.parent.exists()


def stoch_with_weights(path, a: str, b: str) -> Path:
    """The packaged chain with `a` and `b` as the weights of its `a --go->` cell."""
    doc = json.loads(Path(STOCH).read_text())
    doc["systems"]["chain"]["update"]["a"]["go"] = {"a": a, "b": b}
    path.write_text(json.dumps(doc))
    return path


class TestWeightExponentBound:
    """`Fraction` builds a weight's power of ten in time that grows with the
    exponent, so one past `MAX_WEIGHT_EXPONENT` is refused before it is built."""

    @pytest.mark.parametrize("weight", ["1e-99999999", "1e99999999", "5E+4301"])
    def test_a_huge_exponent_is_refused_at_once(self, tmp_path, weight):
        project = stoch_with_weights(tmp_path / "huge.json", weight, "1/2")
        out = tmp_path / "out.csv"
        proc = run_cli("simulate", project, "--system", "chain", "--start", "a", "--word", "go",
                       "--out", out, timeout=20)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            f"error: {project}: system 'chain': weight of 'a': bad rational {weight!r} "
            f"(exponent beyond {MAX_WEIGHT_EXPONENT} in either direction)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "a, b", [("0.25", "3/4"), ("1e-3", "999/1000"), ("3/4", "0.25"), ("1e0", "0e4300")]
    )
    def test_plain_weights_still_load(self, tmp_path, a, b):
        project = stoch_with_weights(tmp_path / "plain.json", a, b)
        out = tmp_path / "out.csv"
        proc = run_cli("simulate", project, "--system", "chain", "--start", "a", "--word", "go",
                       "--out", out)
        assert proc.returncode == 0, proc.stderr
        weights = load_project(project).system("chain").update["a"]["go"].weights
        assert weights == {k: Fraction(w) for k, w in {"a": a, "b": b}.items() if Fraction(w)}


class TestMatrixSizeBound:
    def test_k4_exits_2_before_building_a_chart_set(self, tmp_path, capsys, monkeypatch):
        def no_chart_sets(*args):
            raise AssertionError("a chart set was built")

        monkeypatch.setattr(det, "chart_hom_set", no_chart_sets)
        project, out = tmp_path / "lens.json", tmp_path / "matrix.json"
        save_project(ProjectFile(lenses={"l0": wide_lens(5)}), project)
        assert main(["matrix", str(project), "--lens", "l0", "--k", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "6561 x 160000 charts, a matrix of 1049760000 entries" in err
        assert not out.exists()

    def test_bound_is_inclusive(self, tmp_path, monkeypatch):
        out = tmp_path / "matrix.json"
        argv = ["matrix", FLIPFLOP, "--lens", "feedback", "--out", str(out)]
        monkeypatch.setattr(det, "MAX_MATRIX_ENTRIES", 6)  # 6 source charts x 1 target chart
        assert main(argv) == 0
        monkeypatch.setattr(det, "MAX_MATRIX_ENTRIES", 5)
        out.unlink()
        assert main(argv) == 2
        assert not out.exists()

    def test_a_count_too_large_to_print_is_stated_as_its_formula(self, tmp_path, capsys, monkeypatch):
        def no_cycle(k):
            raise AssertionError("a walking cycle was built")

        monkeypatch.setattr(det, "walking_cycle", no_cycle)
        out = tmp_path / "matrix.json"
        argv = ["matrix", FLIPFLOP, "--lens", "feedback", "--k", "10000", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: the lens span at period 10000 is 6^10000 x 1 charts, a matrix of "
            "6^10000 entries; more than MAX_MATRIX_ENTRIES = 10000000\n"
        )
        assert not out.exists()


def swap() -> DetSystem:
    """Two states that swap under every input: no orbit at odd periods."""
    states = FinSet(["s0", "s1"])
    iface = DetInterface(FinSet(["a", "b", "c"]), FinSet(["o"]))
    readout = FinMap(states, iface.outputs, {"s0": "o", "s1": "o"})
    update = {"s0": dict.fromkeys("abc", "s1"), "s1": dict.fromkeys("abc", "s0")}
    return DetSystem(states, iface, readout, update)


class TestWalkBound:
    def test_k40_exits_2_before_walking(self, tmp_path, capsys, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the orbit walk started")

        monkeypatch.setattr(det, "_maps_into", no_walk)
        out = tmp_path / "orbits.csv"
        argv = ["steady", FLIPFLOP, "--system", "flipflop", "--k", "40", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "|S|*|I|^k = 2*3^40 = 24315330918113857602 tuples" in err
        assert not out.exists()

    def test_bound_is_inclusive_and_counts_the_walk(self, monkeypatch):
        monkeypatch.setattr(det, "MAX_WALK", 2 * 3**3)
        assert len(list(det.periodic_orbits(flipflop(), 3))) > 0
        assert list(det.periodic_orbits(swap(), 3)) == []
        monkeypatch.setattr(det, "MAX_WALK", 2 * 3**3 - 1)
        refused = r"2\*3\^3 = 54 tuples; more than MAX_WALK = 53$"
        for machine in (flipflop(), swap()):
            with pytest.raises(ValidationError, match=refused):
                list(det.periodic_orbits(machine, 3))


def fan_in_project(new_inputs: int) -> dict:
    """Two fixed states under one input, and a lens that feeds the input from
    any of `new_inputs` new ones: the rewired walk is 2*new_inputs^k long."""
    names = [f"n{j}" for j in range(new_inputs)]
    return {"version": 1, "systems": {"s": {
        "kind": "deterministic", "states": ["a", "b"], "inputs": ["x"], "outputs": ["o"],
        "readout": {"a": "o", "b": "o"}, "update": {"a": {"x": "a"}, "b": {"x": "b"}},
    }}, "lenses": {"wide": {
        "kind": "deterministic", "sourceInputs": ["x"], "sourceOutputs": ["o"],
        "targetInputs": names, "targetOutputs": ["o"], "fwd": {"o": "o"},
        "bwd": {"o": dict.fromkeys(names, "x")},
    }}}


def one_state_project() -> dict:
    """One state, one input and a one-to-one lens: every count is 1 at any k."""
    return {"version": 1, "systems": {"one": {
        "kind": "deterministic", "states": ["s"], "inputs": ["i"], "outputs": ["o"],
        "readout": {"s": "o"}, "update": {"s": {"i": "s"}},
    }}, "lenses": {"id": {
        "kind": "deterministic", "sourceInputs": ["i"], "sourceOutputs": ["o"],
        "targetInputs": ["j"], "targetOutputs": ["p"], "fwd": {"o": "p"},
        "bwd": {"o": {"j": "i"}},
    }}}


class TestPeriodBound:
    """Where |I| = 1 the walk's count stays |S| and a one-to-one lens's matrix
    stays 1 x 1 at any k, so the period itself is bounded."""

    def test_steady_and_matrix_past_max_period_exit_2_at_once(self, tmp_path, capsys, monkeypatch):
        def nothing(*args):
            raise AssertionError("a walk or a span was built")

        monkeypatch.setattr(det, "_maps_into", nothing)
        monkeypatch.setattr(det, "lens_to_span", nothing)
        project, out = tmp_path / "one.json", tmp_path / "out"
        project.write_text(json.dumps(one_state_project()))
        for argv in (
            ["steady", str(project), "--system", "one", "--k", "10000000", "--out", str(out)],
            ["matrix", str(project), "--lens", "id", "--k", "10000000", "--out", str(out)],
        ):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err == (
                "error: cycle length 10000000 is more than MAX_PERIOD = 10000\n"
            )
            assert not out.exists()

    def test_the_bound_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(det, "MAX_PERIOD", 3)
        machine = project_from_obj(one_state_project()).system("one")
        assert det.periodic_orbits(machine, 3) == [("o|i|o|i|o|i", "s|i|s|i|s|i")]
        with pytest.raises(ValidationError, match="^cycle length 4 is more than MAX_PERIOD = 3$"):
            det.periodic_orbits(machine, 4)


class TestARefusalLeavesTheOutputAlone:
    """`matrix` and `steady` write each row as it is formed, so every refusal
    must come before the output file is opened: an existing --out file then
    keeps its bytes."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["matrix", "{wide}", "--lens", "l0", "--k", "4"], "more than MAX_MATRIX_ENTRIES"),
            (["matrix", LV, "--lens", "wiring"], "matrix dump needs a deterministic lens, got ode"),
            (["steady", FLIPFLOP, "--system", "flipflop", "--k", "40"], "more than MAX_WALK"),
            (["steady", "{one}", "--system", "one", "--k", "10001"], "more than MAX_PERIOD"),
            (["steady", LV, "--system", "rabbit"], "needs a finite-state system, got ode"),
            (["steady", FLIPFLOP, "--system", "nope"], "no system named 'nope'"),
        ],
        ids=["matrix-entries", "matrix-ode", "steady-walk", "steady-period", "steady-ode",
             "steady-unknown"],
    )
    def test_an_existing_output_keeps_its_bytes(self, tmp_path, capsys, argv, error):
        wide, one, out = tmp_path / "wide.json", tmp_path / "one.json", tmp_path / "out"
        save_project(ProjectFile(lenses={"l0": wide_lens(5)}), wide)
        one.write_text(json.dumps(one_state_project()))
        before = b"an earlier run's output\r\n\x00\xff"
        out.write_bytes(before)
        argv = [arg.format(wide=wide, one=one) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert out.read_bytes() == before


class TestEveryWalkIsBounded:
    """`periodic_orbits` bounds its walk; the spans and the theorem, on both
    the machine and the machine behind the lens, go through the same bound."""

    def no_walk(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a walk or an apex was built")

        monkeypatch.setattr(det, "_maps_into", fail)
        monkeypatch.setattr(Span, "_over", fail)

    def test_check_refuses_a_wide_lens_naming_the_pair(self, tmp_path, capsys):
        project = tmp_path / "wide.json"
        project.write_text(json.dumps(fan_in_project(1500), indent=2))
        out = tmp_path / "report.txt"
        argv = ["check", str(project), "--cases", "0", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: lens 'wide' on system 's', k=2: the period-2 orbit walk of the rewired "
            "system tries |S|*|I|^k = 2*1500^2 = 4500000 tuples; more than MAX_WALK = 1000000\n"
        )
        assert not out.exists()

    def test_the_theorem_checks_both_machines_before_walking(self, monkeypatch):
        project = project_from_obj(fan_in_project(4))
        lens, sys = project.lens("wide"), project.system("s")
        monkeypatch.setattr(det, "MAX_WALK", 2 * 4**2 - 1)
        assert det.check_matrix_theorem(lens, sys, 1)
        self.no_walk(monkeypatch)
        rewired = r"walk of the rewired system tries \|S\|\*\|I\|\^k = 2\*4\^2 = 32 tuples"
        with pytest.raises(ValidationError, match=rewired):
            det.check_matrix_theorem(lens, sys, 2)
        monkeypatch.setattr(det, "MAX_WALK", 1)
        with pytest.raises(ValidationError, match=r"^the period-1 orbit walk tries .* = 2 tuples"):
            det.check_matrix_theorem(lens, sys, 1)

    def test_the_spans_are_bounded_like_the_rows(self, monkeypatch):
        monkeypatch.setattr(det, "MAX_WALK", 2 * 3**3 - 1)
        self.no_walk(monkeypatch)
        refused = r"2\*3\^3 = 54 tuples; more than MAX_WALK = 53$"
        with pytest.raises(ValidationError, match=refused):
            det.periodic_orbit_span(flipflop(), 3)
        monkeypatch.setattr(det, "MAX_WALK", 2 * 3 - 1)
        with pytest.raises(ValidationError, match=r"2\*3\^1 = 6 tuples"):
            det.steady_span(flipflop())

    def test_a_walk_too_long_to_count_is_refused_without_its_count(self, tmp_path, capsys):
        out = tmp_path / "orbits.csv"
        argv = ["steady", FLIPFLOP, "--system", "flipflop", "--k", "100000", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: the period-100000 orbit walk tries |S|*|I|^k = 2*3^100000 tuples; "
            "more than MAX_WALK = 1000000\n"
        )
        assert not out.exists()


def fixed_states(n: int) -> DetSystem:
    """`n` states that each stay put under the one input."""
    states = FinSet(f"s{j}" for j in range(n))
    iface = DetInterface(FinSet(["x"]), FinSet(["o"]))
    readout = FinMap(states, iface.outputs, dict.fromkeys(states, "o"))
    return DetSystem(states, iface, readout, {s: {"x": s} for s in states})


def forbid_walks(monkeypatch):
    def fail(*args):
        raise AssertionError("a walk was started")

    monkeypatch.setattr(det, "_maps_into", fail)


class TestWalkSlotsAreBounded:
    """Where |I| = 1 the tuples stay |S| at any k, but each orbit fills 2k
    slots: |S|*|I|^k*k is bounded once k is, before anything walks."""

    def test_the_bound_is_inclusive_and_checked_before_walking(self, monkeypatch):
        monkeypatch.setattr(det, "MAX_SLOTS", 2 * 5)
        machine = fixed_states(2)
        assert len(det.periodic_orbits(machine, 5)) == 2
        forbid_walks(monkeypatch)
        with pytest.raises(ValidationError) as err:
            det.periodic_orbit_span(machine, 6)
        assert str(err.value) == (
            "the period-6 orbit walk fills |S|*|I|^k*k = 2*1^6*6 = 12 slots; "
            "more than MAX_SLOTS = 10"
        )

    def test_the_theorem_bounds_the_rewired_slots_before_walking(self, monkeypatch):
        project = project_from_obj(fan_in_project(4))
        lens, sys = project.lens("wide"), project.system("s")
        monkeypatch.setattr(det, "MAX_SLOTS", 2 * 4**2 * 2 - 1)
        forbid_walks(monkeypatch)
        with pytest.raises(ValidationError) as err:
            det.check_matrix_theorem(lens, sys, 2)
        assert str(err.value) == (
            "the period-2 orbit walk of the rewired system fills |S|*|I|^k*k = 2*4^2*2 = 64 "
            "slots; more than MAX_SLOTS = 63"
        )

    def test_many_states_at_a_long_period_are_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValidationError) as err:
            det.periodic_orbits(fixed_states(2_000), 10_000)
        assert str(err.value) == (
            "the period-10000 orbit walk fills |S|*|I|^k*k = 2000*1^10000*10000 = 20000000 "
            "slots; more than MAX_SLOTS = 10000000"
        )
        assert time.perf_counter() - start < 1.0


class TestRepresentableSpanIsBounded:
    """`representable_span` counts the tuples its own walk tries: |S| per phi
    slot it searches, times |I| per input slot."""

    def test_a_long_cycle_into_the_latch_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValidationError) as err:
            det.representable_span(det.walking_cycle(24), flipflop())
        assert str(err.value) == (
            "the walk from a 24-state machine tries |S|^1*|I|^24 = 2^1*3^24 tuples; "
            "more than MAX_WALK = 1000000"
        )
        assert time.perf_counter() - start < 1.0

    def test_the_count_skips_computed_slots_and_is_inclusive(self, monkeypatch):
        # b's phi slot is computed from a's under x: one phi slot searched,
        # four input slots
        states = FinSet(["a", "b"])
        iface = DetInterface(FinSet(["x", "y"]), states)
        update = {"a": {"x": "b", "y": "a"}, "b": {"x": "a", "y": "b"}}
        rep = DetSystem(states, iface, FinMap.identity(states), update)
        monkeypatch.setattr(det, "MAX_WALK", 2 * 3**4)
        assert len(det.representable_span(rep, flipflop()).total) > 0
        monkeypatch.setattr(det, "MAX_WALK", 2 * 3**4 - 1)
        with pytest.raises(ValidationError) as err:
            det.representable_span(rep, flipflop())
        assert str(err.value) == (
            "the walk from a 2-state machine tries |S|^1*|I|^4 = 2^1*3^4 tuples; "
            "more than MAX_WALK = 161"
        )
        # its 162 tuples fill 162 * 2 slots, one per rep state
        monkeypatch.setattr(det, "MAX_WALK", 2 * 3**4)
        monkeypatch.setattr(det, "MAX_SLOTS", 2 * 3**4 * 2)
        assert len(det.representable_span(rep, flipflop()).total) > 0
        monkeypatch.setattr(det, "MAX_SLOTS", 2 * 3**4 * 2 - 1)
        with pytest.raises(ValidationError) as err:
            det.representable_span(rep, flipflop())
        assert str(err.value) == (
            "the walk from a 2-state machine fills |S|^1*|I|^4*2 = 2^1*3^4*2 slots; "
            "more than MAX_SLOTS = 323"
        )

    def test_many_fixed_states_on_a_long_cycle_are_refused_by_slots_at_once(self, monkeypatch):
        def no_tuples(cell):
            raise AssertionError("the walk read an update cell")

        machine, cycle = fixed_states(2_000), det.walking_cycle(10_000)
        monkeypatch.setattr(det.Identity, "point", staticmethod(no_tuples))
        start = time.perf_counter()
        with pytest.raises(ValidationError) as err:
            det.representable_span(cycle, machine)
        assert str(err.value) == (
            "the walk from a 10000-state machine fills |S|^1*|I|^10000*10000 = "
            "2000^1*1^10000*10000 slots; more than MAX_SLOTS = 10000000"
        )
        assert time.perf_counter() - start < 1.0


class TestOneWalkBudget:
    """`_walk_size` is the one count of a walk's tuples and slots: every entry
    asks it before walking, and the period bound asks it for the counts the
    walker itself checks, so the walker never refuses what the bound accepted."""

    def test_every_walk_entry_asks_the_budget_before_walking(self, tmp_path, monkeypatch):
        class Asked(Exception):
            pass

        def budget(*args):
            raise Asked

        def no_walk(cell):
            raise AssertionError("the walk read an update cell")

        monkeypatch.setattr(det, "_walk_size", budget)
        monkeypatch.setattr(det.Identity, "point", staticmethod(no_walk))
        latch, lens, out = flipflop(), feedback_lens(), tmp_path / "out"
        entries = {
            "representable_span": lambda: det.representable_span(det.walking_cycle(2), latch),
            "periodic_orbit_span": lambda: det.periodic_orbit_span(latch, 2),
            "steady_span": lambda: det.steady_span(latch),
            "periodic_orbits": lambda: det.periodic_orbits(latch, 2),
            "check_matrix_theorem": lambda: det.check_matrix_theorem(lens, latch, 2),
            "steady": lambda: main(["steady", FLIPFLOP, "--system", "flipflop", "--k", "2",
                                    "--out", str(out)]),
            "check": lambda: main(["check", FLIPFLOP, "--cases", "0", "--out", str(out)]),
        }
        for name, entry in entries.items():
            with pytest.raises(Asked):
                entry()
                pytest.fail(f"{name} did not ask the budget")
        assert not out.exists()

    def test_the_period_bound_asks_for_the_walkers_counts(self, monkeypatch):
        asked = []
        real = det._walk_size

        def recorded(machine, *counts):
            size = real(machine, *counts)
            asked.append((machine, counts, size))
            return size

        monkeypatch.setattr(det, "_walk_size", recorded)
        rng = random.Random(16)
        for case in range(8):  # every other one a Markov machine
            iface = random_interface(rng, 3)
            machine = (random_system(rng, iface, 3) if case % 2
                       else random_markov_machine(rng, iface, 3))
            lens = random_lens(rng, iface, random_interface(rng, 3, "t"))
            for k in range(1, 7):
                asked.clear()
                det.check_matrix_theorem(lens, machine, k)
                by_machine = {}
                for walked, counts, size in asked:
                    by_machine.setdefault(id(walked), []).append((counts, size))
                # the machine and the rewired one, each asked by the bound and by the walker
                assert len(by_machine) == 2, (case, k)
                for calls in by_machine.values():
                    assert calls == [((1, k, k), calls[0][1])] * 2, (case, k)
                tuples = len(machine.states) * len(iface.inputs) ** k
                assert by_machine[id(machine)][0][1] == (tuples, tuples * k)


# Two Markov machines with weight denominators 2 to 7, some given out of state
# order, unreduced, padded or zero, and a lens that rewires the first.
STOCH_PAIR = {
    "version": 1,
    "systems": {
        "p": {
            "kind": "stochastic",
            "states": ["x0", "x1", "x2"],
            "inputs": ["u", "v"],
            "outputs": ["lo", "hi"],
            "readout": {"x0": "lo", "x1": "hi", "x2": "hi"},
            "update": {
                "x0": {"u": {"x2": "1/2", "x0": "2/4"}, "v": {"x0": "1/3", "x1": "1/6", "x2": "1/2"}},
                "x1": {"u": {"x1": "2/7", "x2": "5/7"}, "v": {"x1": "2/5", "x2": "0", "x0": " 3/5 "}},
                "x2": {"u": {"x0": "1/4", "x1": "3/4"}, "v": {"x2": "1"}},
            },
        },
        "q": {
            "kind": "stochastic",
            "states": ["y0", "y1"],
            "inputs": ["w", "z"],
            "outputs": ["e"],
            "readout": {"y0": "e", "y1": "e"},
            "update": {
                "y0": {"w": {"y0": "4/7", "y1": "3/7"}, "z": {"y1": "1"}},
                "y1": {"w": {"y0": "5/6", "y1": "1/6"}, "z": {"y0": "2/3", "y1": "1/3"}},
            },
        },
    },
    "lenses": {
        "flip": {
            "kind": "deterministic",
            "sourceInputs": ["u", "v"],
            "sourceOutputs": ["lo", "hi"],
            "targetInputs": ["tick", "tock"],
            "targetOutputs": ["out"],
            "fwd": {"lo": "out", "hi": "out"},
            "bwd": {"lo": {"tick": "u", "tock": "v"}, "hi": {"tick": "v", "tock": "v"}},
        }
    },
}


class TestStochasticBytes:
    """Output bytes of the stochastic commands, pinned: a changed sampler or
    changed weight arithmetic shows here even when two runs still agree."""

    @staticmethod
    def digest(path) -> tuple[int, str]:
        data = path.read_bytes()
        return len(data), hashlib.sha256(data).hexdigest()

    @pytest.fixture
    def pair(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(STOCH_PAIR, indent=2))
        return str(path)

    def test_simulate_chain(self, tmp_path):
        out = tmp_path / "sim.csv"
        argv = ["simulate", STOCH, "--system", "chain", "--start", "a",
                "--word", ",".join(["go"] * 40), "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        states = "".join(row[2] for row in read_csv(out)[1:])
        assert states == "aabbbbaabaabbbbbabbbbbabbaabbbbbbbbbbbaaa"
        assert self.digest(out) == (
            505, "e36a89d1f845237eeb7d55bbaf844fc582c8659e4d4201d7478bdf585a9c21a6"
        )

    def test_tensor(self, tmp_path, pair):
        out = tmp_path / "tensor.json"
        assert main(["tensor", pair, "--a", "p", "--b", "q", "--out", str(out)]) == 0
        assert self.digest(out) == (
            3876, "ae6d4fe62a6ac6089da2f9edb01fe4b66cc1bd60b292977ced25a0ac09b68478"
        )

    def test_compose(self, tmp_path, pair):
        out = tmp_path / "compose.json"
        assert main(["compose", pair, "--lens", "flip", "--system", "p", "--out", str(out)]) == 0
        assert self.digest(out) == (
            913, "b9d95f64f02ee8d68b9bcd04d6bf9a6257cc4aa585ee18aa82fd5a0539738f12"
        )
