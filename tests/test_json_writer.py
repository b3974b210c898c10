"""The indent-2 JSON writer against `json.dumps(indent=2)`, byte for byte."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn import (
    DetInterface,
    FinSet,
    compose_lens_stoch,
    compose_lens_system,
    lens_to_span,
    load_project,
    span_to_matrix,
    tensor_stoch,
    tensor_systems,
    walking_cycle,
)
from opendyn.cli import main
from opendyn.laws import random_lens
from opendyn.project import ProjectFile, json_text, project_to_obj, save_project

from helpers import chain, feedback_lens, fixture_path, flipflop, wide_lens

FIXTURES = ["flipflop.json", "lv.json", "stoch.json", "square_ok.json", "square_broken.json"]


def dumped(obj) -> str:
    return json.dumps(obj, indent=2)


keys = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\|/\x00\x1f\x7f é€\U0001f600')), max_size=8
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]),
    keys,
)
int_lists = st.lists(st.one_of(st.integers(), st.booleans()), max_size=8)
# ints around the digit rows' byte path: 48 and 57 are the bytes of "0" and "9"
digit_edges = st.sampled_from([10, 48, 57, 255, 256, -1, 2**70, True, False])
digit_rows = st.one_of(
    st.lists(st.integers(0, 9), min_size=1, max_size=400),
    st.lists(st.one_of(st.integers(0, 9), digit_edges), min_size=1, max_size=12),
)
values = st.recursive(
    st.one_of(scalars, int_lists),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(keys, inner, max_size=4)),
    max_leaves=12,
)


class TestAgainstJsonDumps:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(values)
    def test_nested_values(self, value):
        assert json_text(value) == dumped(value)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(digit_rows, st.lists(digit_rows, max_size=4)))
    def test_digit_rows(self, value):
        assert json_text(value) == dumped(value)

    def test_digit_row_edges(self):
        rng = random.Random(20)
        matrix = [[int(rng.random() < 0.05) for _ in range(400)] for _ in range(3)]
        for value in (
            [0], [9], [0] * 400, [1] * 400, matrix, {"matrix": matrix},
            list(range(10)), [*range(10), 10], [48], [57], [0, 48, 57, 9], [255], [256, 0],
            [-1, 0], [0, -1], [2**70, 1], [3, 2**70], [0, True], [False, 1], [True, False],
        ):
            assert json_text(value) == dumped(value), value

    def test_edge_values(self):
        for value in (
            {}, [], [[]], {"": {}}, [{}], [0], [True, 1, False], [1, 2.0], [-0.0],
            {"a|b": [1e-300, math.nan, math.inf, -math.inf, None]},
            ["\"\\\x00é\U0001f600"], 2**100, -(2**100),
        ):
            assert json_text(value) == dumped(value), value

    def test_tuples_write_as_lists(self):
        assert json_text({"t": (1, "a", (2, 3))}) == dumped({"t": (1, "a", (2, 3))})


# strings of every kind the writer's one-join rows quote: empty, non-ASCII,
# control characters, quotes and backslashes
flat_strings = st.one_of(
    keys,
    st.sampled_from(["", '"', "\\", '"\\', "\x00", "\n\t\r", "\x7f", "é", "\U0001f600", "\ud800", "1/3"]),
)
not_strings = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.just([]), st.just({}),
    st.lists(flat_strings, max_size=2), st.dictionaries(keys, flat_strings, max_size=2),
)


@st.composite
def mixed_lists(draw):
    """Strings, then one value that is not a string, then anything."""
    head = draw(st.lists(flat_strings, min_size=1, max_size=4))
    return [*head, draw(not_strings), *draw(st.lists(st.one_of(flat_strings, not_strings), max_size=3))]


@st.composite
def mixed_dicts(draw):
    return dict(zip(draw(st.lists(keys, unique=True, min_size=8, max_size=8)), draw(mixed_lists())))


def nested_empties(depth: int):
    """Each empty container, alone and beside a string, at `depth` levels."""
    values = [{}, [], (), {"": []}, ["", {}], {"a": "", "b": {}}]
    for _ in range(depth):
        values = [wrap for v in values for wrap in ([v], {"k": v}, ["s", v], {"k": "s", "v": v})]
    return values


class TestFlatRows:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(
        st.dictionaries(keys, flat_strings, min_size=1, max_size=6),
        st.lists(flat_strings, min_size=1, max_size=6),
        st.tuples(flat_strings, flat_strings),
    ))
    def test_all_string_rows(self, value):
        for nested in (value, [value], {"row": value}, [[value, value]]):
            assert json_text(nested) == dumped(nested)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(mixed_lists(), mixed_dicts()))
    def test_rows_with_a_later_value_that_is_not_a_string(self, value):
        for nested in (value, [value], {"row": value}, [value, value]):
            assert json_text(nested) == dumped(nested)

    def test_a_later_value_that_cannot_be_written_is_refused(self):
        for value in (["a", "b", {1, 2}], {"a": "x", "b": b"x"}, ["a", object()]):
            with pytest.raises(TypeError) as want:
                dumped(value)
            with pytest.raises(TypeError) as got:
                json_text(value)
            assert str(got.value) == str(want.value)

    def test_empty_containers_at_every_depth(self):
        for depth in range(4):
            for value in nested_empties(depth):
                assert json_text(value) == dumped(value), value


def stoch_lens():
    target = DetInterface(FinSet(["x", "y"]), FinSet(["p", "q"]))
    return random_lens(random.Random(3), chain().interface, target)


class TestProjectBytes:
    def test_every_fixture(self):
        for name in FIXTURES:
            obj = project_to_obj(load_project(fixture_path(name)))
            assert json_text(obj) == dumped(obj), name

    def test_composites_and_tensors_in_each_finite_doctrine(self, tmp_path):
        systems = {
            "det_composite": compose_lens_system(feedback_lens(), flipflop()),
            "det_tensor": tensor_systems(flipflop(), flipflop()),
            "stoch_composite": compose_lens_stoch(stoch_lens(), chain()),
            "stoch_tensor": tensor_stoch(chain(), chain()),
        }
        for name, system in systems.items():
            project = ProjectFile(systems={name: system})
            path = tmp_path / f"{name}.json"
            save_project(project, path)
            expected = dumped(project_to_obj(project)) + "\n"
            assert path.read_bytes() == expected.encode("utf-8"), name


class TestMatrixAtBenchmarkShape:
    def test_three_by_three_to_four_by_five_lens_at_k2(self, tmp_path):
        lens = wide_lens(8)
        project = tmp_path / "lens.json"
        save_project(ProjectFile(lenses={"l0": lens}), project)
        out = tmp_path / "matrix.json"
        assert main(["matrix", str(project), "--lens", "l0", "--k", "2", "--out", str(out)]) == 0
        span = lens_to_span(lens, walking_cycle(2).interface)
        obj = {
            "version": 1,
            "lens": "l0",
            "k": 2,
            "source": list(span.source),
            "target": list(span.target),
            "matrix": span_to_matrix(span),
        }
        assert (len(obj["source"]), len(obj["target"])) == (81, 400)
        assert out.read_bytes() == (dumped(obj) + "\n").encode("utf-8")
