"""Loading, validating, and round-tripping project files."""

import json
import math

import pytest

from opendyn import (
    BinOp,
    DetChart,
    Num,
    OdeSystem,
    OpendynError,
    StochSystem,
    Var,
    ValidationError,
    identity_chart,
    load_project,
    save_project,
    tensor_systems,
    to_text,
)
from opendyn.laws import _lv_fixture
from opendyn.project import ProjectFile, project_from_obj, project_to_obj

from helpers import chain, feedback_lens, fixture_path, flipflop


def write_json(tmp_path, obj, name="project.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def det_entry(**overrides):
    entry = {
        "kind": "deterministic",
        "states": ["s0"],
        "inputs": ["i"],
        "outputs": ["o"],
        "readout": {"s0": "o"},
        "update": {"s0": {"i": "s0"}},
    }
    entry.update(overrides)
    return entry


class TestBundledFixtures:
    def test_latch_fixture_loads(self):
        project = load_project(fixture_path("flipflop.json"))
        assert len(project.systems) == 1 and len(project.lenses) == 1
        assert project.system("flipflop") == flipflop()
        assert project.lens("feedback") == feedback_lens()

    def test_two_species_fixture_loads_with_the_closed_form(self):
        project = load_project(fixture_path("lv.json"))
        lv = project.system("lotka_volterra")
        assert isinstance(lv, OdeSystem)
        assert {v: to_text(e) for v, e in lv.field.items()} == {
            "r": "alpha*r - c*f*r",
            "f": "d*r*f - delta*f",
        }

    def test_chain_fixture_loads_with_exact_weights(self):
        project = load_project(fixture_path("stoch.json"))
        sys = project.system("chain")
        assert isinstance(sys, StochSystem)
        assert sys == chain()

    def test_square_fixtures_load(self):
        ok = load_project(fixture_path("square_ok.json"))
        broken = load_project(fixture_path("square_broken.json"))
        assert set(ok.charts) == {"top", "bottom"}
        assert set(broken.lenses) == {"left", "right"}


class TestValidation:
    def test_empty_project_loads(self, tmp_path):
        project = load_project(write_json(tmp_path, {"version": 1}))
        assert not project.systems and not project.lenses and not project.charts

    def test_version_must_be_one(self, tmp_path):
        with pytest.raises(ValidationError, match="version"):
            load_project(write_json(tmp_path, {"version": 2}))
        with pytest.raises(ValidationError, match="version"):
            load_project(write_json(tmp_path, {}))

    def test_unknown_section_is_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="wires"):
            load_project(write_json(tmp_path, {"version": 1, "wires": {}}))

    def test_parse_error_reports_the_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,\n  "systems": [}')
        with pytest.raises(ValidationError, match=r"line 2 column \d+"):
            load_project(str(path))

    def test_duplicate_state_label_names_the_label(self, tmp_path):
        obj = {
            "version": 1,
            "systems": {
                "bad": det_entry(states=["s0", "s0"], readout={"s0": "o"}),
            },
        }
        with pytest.raises(ValidationError, match="s0"):
            load_project(write_json(tmp_path, obj))

    def test_unknown_kind_is_rejected(self, tmp_path):
        obj = {"version": 1, "systems": {"x": det_entry(kind="quantum")}}
        with pytest.raises(ValidationError, match="quantum"):
            load_project(write_json(tmp_path, obj))

    def test_unknown_field_is_rejected(self, tmp_path):
        obj = {"version": 1, "systems": {"bad": det_entry(surprise=True)}}
        with pytest.raises(ValidationError, match="surprise"):
            load_project(write_json(tmp_path, obj))

    def test_errors_name_the_offending_entry(self, tmp_path):
        obj = {
            "version": 1,
            "systems": {
                "culprit": {
                    "kind": "ode",
                    "stateVars": ["s"],
                    "outputVars": ["y"],
                    "paramVars": [],
                    "readout": {"y": "s +"},
                    "field": {"s": "s"},
                }
            },
        }
        with pytest.raises(ValidationError, match="culprit"):
            load_project(write_json(tmp_path, obj))

    def test_missing_entry_lookup_is_an_error(self, tmp_path):
        project = load_project(write_json(tmp_path, {"version": 1}))
        with pytest.raises(ValidationError, match="ghost"):
            project.system("ghost")

    def test_update_must_be_total(self, tmp_path):
        obj = {"version": 1, "systems": {"bad": det_entry(update={"s0": {}})}}
        with pytest.raises(ValidationError, match="update"):
            load_project(write_json(tmp_path, obj))


def ode_entry(**overrides):
    entry = {
        "kind": "ode", "stateVars": ["x"], "outputVars": ["y"], "paramVars": [],
        "readout": {"y": "x"}, "field": {"x": "-x"},
    }
    entry.update(overrides)
    return entry


def det_lens_entry(**overrides):
    entry = {
        "kind": "deterministic", "sourceInputs": ["i"], "sourceOutputs": ["o"],
        "targetInputs": ["j"], "targetOutputs": ["o"], "fwd": {"o": "o"},
        "bwd": {"o": {"j": "i"}},
    }
    entry.update(overrides)
    return entry


STOCH_ENTRY = det_entry(kind="stochastic", update={"s0": {"i": {"s0": 1}}})
NO_OUTPUTS = {k: v for k, v in det_entry().items() if k != "outputs"}


class TestLoadErrorsNameTheEntryOnce:
    """Every refusal of an entry names it once: a wrong JSON shape at the
    place that is wrong, anything else ahead of the reason."""

    @pytest.mark.parametrize(
        "section, entry, message",
        [
            ("systems", NO_OUTPUTS, "system 'e' is missing the field 'outputs'"),
            ("systems", det_entry(surprise=True), "system 'e' has an unknown field 'surprise'"),
            ("systems", [], "system 'e' must be an object"),
            ("systems", det_entry(states="s0"), "system 'e'.states must be an array of strings"),
            ("systems", det_entry(readout={"s0": 1}), "system 'e'.readout['s0'] must be a string"),
            ("systems", det_entry(update={"s0": ["i"]}), "system 'e'.update['s0'] must be an object"),
            ("systems", STOCH_ENTRY, "system 'e'.update['s0']['i']['s0'] must be a string"),
            ("systems", ode_entry(field={"x": 1}), "system 'e'.field['x'] must be a string"),
            ("lenses", det_lens_entry(bwd={"o": "i"}), "lens 'e'.bwd['o'] must be an object"),
            ("systems", det_entry(kind=3), "system 'e'.kind must be a string"),
            ("charts", {}, "chart 'e'.kind must be a string"),
            ("systems", det_entry(kind="quantum"), "system 'e': unknown kind 'quantum'"),
            ("lenses", det_lens_entry(kind="stochastic"), "lens 'e': unknown kind 'stochastic'"),
            (
                "charts",
                det_lens_entry(kind="ode"),
                "chart 'e': charts exist only in the deterministic doctrine",
            ),
            ("systems", det_entry(states=["s0", "s0"]), "system 'e': duplicate element label 's0'"),
            (
                "systems",
                ode_entry(field={"x": "1e999*x"}),
                "system 'e': numeral '1e999' is not a finite float (at position 0)",
            ),
        ],
    )
    def test_message(self, section, entry, message):
        with pytest.raises(ValidationError) as err:
            project_from_obj({"version": 1, section: {"e": entry}})
        assert str(err.value) == message

    def test_a_file_prefixes_its_path(self, tmp_path):
        path = write_json(tmp_path, {"version": 1, "systems": {"e": det_entry(kind="quantum")}})
        with pytest.raises(ValidationError) as err:
            load_project(path)
        assert str(err.value) == f"{path}: system 'e': unknown kind 'quantum'"


class TestNonFiniteConstants:
    """A numeral past the floats parses to inf, which would print as a name."""

    @pytest.mark.parametrize("text", ["1e999*x", "-1e999"])
    def test_a_numeral_past_the_floats_is_refused(self, text):
        with pytest.raises(OpendynError, match="numeral '1e999' is not a finite float"):
            OdeSystem(["x"], ["y"], [], {"y": "x"}, {"x": text})

    def test_the_largest_floats_round_trip(self, tmp_path):
        sys = OdeSystem(["x"], ["y"], [], {"y": "-1e308*x"}, {"x": "1.7976931348623157e308"})
        path = tmp_path / "big.json"
        save_project(ProjectFile(systems={"big": sys}), path)
        assert load_project(str(path)).system("big") == sys

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_python_built_constant_is_refused_before_writing(self, tmp_path, value):
        field = BinOp("*", Num(value), Var("x"))
        sys = OdeSystem(["x"], ["y"], [], {"y": "x"}, {"x": field})
        path = tmp_path / "inf.json"
        with pytest.raises(ValidationError) as err:
            save_project(ProjectFile(systems={"s": sys}), path)
        assert str(err.value) == (
            f"system 's': field['x'] has a constant that is not a finite float: {value!r}"
        )
        assert not path.exists()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["flipflop.json", "lv.json", "stoch.json", "square_ok.json"]
    )
    def test_save_load_save_is_byte_stable(self, tmp_path, name):
        project = load_project(fixture_path(name))
        first = tmp_path / "first.json"
        save_project(project, first)
        second = tmp_path / "second.json"
        save_project(load_project(str(first)), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "name",
        ["flipflop.json", "lv.json", "stoch.json", "square_ok.json", "square_broken.json"],
    )
    def test_bundled_fixture_resaves_to_its_own_bytes(self, tmp_path, name):
        out = tmp_path / name
        save_project(load_project(fixture_path(name)), out)
        with open(fixture_path(name), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_object_round_trip_preserves_every_entry(self):
        for name in ("flipflop.json", "lv.json", "stoch.json", "square_ok.json"):
            project = load_project(fixture_path(name))
            again = project_from_obj(project_to_obj(project))
            assert again.systems == project.systems
            assert again.lenses == project.lenses
            assert again.charts == project.charts

    def test_rational_weights_survive_as_strings(self, tmp_path):
        project = load_project(fixture_path("stoch.json"))
        out = tmp_path / "out.json"
        save_project(project, out)
        text = out.read_text()
        assert '"1/3"' in text and '"2/3"' in text

    def test_composite_labels_round_trip(self, tmp_path):
        both = tensor_systems(flipflop(), flipflop())
        project = ProjectFile(1, {"both": both}, {}, {})
        path = tmp_path / "tensor.json"
        save_project(project, path)
        assert load_project(str(path)).system("both") == both


class TestSaveRefusesAnEntryInTheWrongSection:
    """A project built in Python can hold an entry under the wrong section;
    saving names the section and the entry instead of crashing."""

    def test_a_chart_under_systems(self, tmp_path):
        chart = identity_chart(flipflop().interface)
        assert isinstance(chart, DetChart)
        path = tmp_path / "wrong.json"
        with pytest.raises(ValidationError) as err:
            save_project(ProjectFile(systems={"c": chart}), path)
        assert str(err.value) == "system 'c': an entry of class DetChart does not belong in systems"
        assert not path.exists()

    def test_an_ode_lens_under_charts(self):
        lens, _pair = _lv_fixture()
        with pytest.raises(ValidationError) as err:
            project_to_obj(ProjectFile(charts={"w": lens}))
        assert str(err.value) == "chart 'w': an entry of class OdeLens does not belong in charts"
