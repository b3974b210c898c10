"""The indent-2 JSON writer against `json.dumps(indent=2)`, byte for byte,
on the document grammar `project.json_text` names, and its refusals."""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn import (
    DetInterface,
    FinSet,
    compose_lens_ode,
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
from opendyn.project import (
    ProjectFile, json_text, project_from_obj, project_to_obj, save_project, write_json
)

from helpers import chain, feedback_lens, fixture_path, flipflop, wide_lens

FIXTURES = ["flipflop.json", "lv.json", "stoch.json", "square_ok.json", "square_broken.json"]
ROOT = Path(__file__).resolve().parents[1]


def dumped(obj) -> str:
    return json.dumps(obj, indent=2)


keys = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\|/\x00\x1f\x7f é€\U0001f600')), max_size=8
)
# strings of every kind the writer's one-join rows quote: empty, non-ASCII,
# control characters, quotes and backslashes, a lone surrogate
flat_strings = st.one_of(
    keys,
    st.sampled_from(["", '"', "\\", '"\\', "\x00", "\n\t\r", "\x7f", "é", "\U0001f600", "\ud800", "1/3"]),
)
# ints around the old digit rows' byte path: 48 and 57 are the bytes of "0" and "9"
int_edges = st.sampled_from([0, 9, 10, 48, 57, 255, 256, -1, 2**70, -(2**100)])
ints = st.one_of(st.integers(), st.integers(min_value=-(10**40), max_value=10**40), int_edges)
string_lists = st.lists(flat_strings, max_size=6)
documents = st.recursive(
    st.one_of(flat_strings, ints, string_lists),
    lambda inner: st.dictionaries(keys, inner, max_size=4),
    max_leaves=12,
)


class TestAgainstJsonDumps:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(documents)
    def test_nested_values(self, value):
        assert json_text(value) == dumped(value)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.dictionaries(keys, ints, min_size=1, max_size=12))
    def test_ints(self, value):
        for nested in (value, {"row": value}, {"k": 2, "row": value, "s": ""}):
            assert json_text(nested) == dumped(nested)

    def test_edge_values(self):
        rng = random.Random(20)
        row = [str(int(rng.random() < 0.05)) for _ in range(400)]
        for value in (
            {}, [], {"": {}}, {"": []}, ["\"\\\x00é\U0001f600"], 2**100, -(2**100), 0, -1,
            row, {"matrix": [], "row": row}, {"a|b": ["1/3", "", "\ud800"]},
            {"version": 1, "k": 3, "source": ["a"], "target": []},
        ):
            assert json_text(value) == dumped(value), value


not_strings = st.one_of(
    ints, st.just([]), st.just({}),
    st.lists(flat_strings, max_size=2), st.dictionaries(keys, flat_strings, max_size=2),
)


@st.composite
def mixed_dicts(draw):
    """Strings, then one value that is not a string, then anything."""
    head = draw(st.lists(flat_strings, min_size=1, max_size=4))
    values = [*head, draw(not_strings), *draw(st.lists(st.one_of(flat_strings, not_strings), max_size=3))]
    return dict(zip(draw(st.lists(keys, unique=True, min_size=8, max_size=8)), values))


def nested_empties(depth: int):
    """Each empty container, alone and beside a string, at `depth` levels."""
    values = [{}, [], {"": []}, {"": {}}, {"a": "", "b": {}}, {"a": [], "b": ""}]
    for _ in range(depth):
        values = [
            wrap for v in values
            for wrap in ({"k": v}, {"k": "s", "v": v}, {"v": v, "k": "s"}, {"k": [], "v": v})
        ]
    return values


class TestFlatRows:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(
        st.dictionaries(keys, flat_strings, min_size=1, max_size=6),
        st.lists(flat_strings, min_size=1, max_size=6),
    ))
    def test_all_string_rows(self, value):
        for nested in (value, {"row": value}, {"a": {"row": value}, "b": value}):
            assert json_text(nested) == dumped(nested)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(mixed_dicts())
    def test_rows_with_a_later_value_that_is_not_a_string(self, value):
        for nested in (value, {"row": value}, {"a": value, "b": value}):
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


def refused_text(value) -> str:
    return f"Object of type {type(value).__name__} is not JSON serializable"


#: Each kind of value outside the grammar, by name. In a list, the item that
#: is not a string is the one named.
OUTSIDE = {
    "null": None,
    "true": True,
    "false": False,
    "float": 0.5,
    "negative zero": -0.0,
    "integral float": 1.0,
    "nan": math.nan,
    "infinity": math.inf,
    "negative infinity": -math.inf,
    "empty tuple": (),
    "tuple of strings": ("a", "b"),
    "fraction": Fraction(1, 3),
    "set": {1, 2},
    "frozenset": frozenset(),
    "bytes": b"x",
    "object": object(),
}
#: Lists holding a value that is not a string, with the value named.
LISTS = {
    "int": ([1], 1),
    "int after a string": (["a", 1], 1),
    "bool": (["a", True], True),
    "null": ([None], None),
    "float": (["a", math.nan], math.nan),
    "list": ([["a"]], ["a"]),
    "empty list": (["a", []], []),
    "empty object": (["a", {}], {}),
    "set": (["a", {1}], {1}),
    "bytes": (["a", b"x"], b"x"),
}


def places(value):
    """`value` at the top, in an object, after a string in an object (past the
    one-join row's fallback), and deep in objects after ints and lists."""
    return [value, {"v": value}, {"s": "x", "v": value, "t": "y"},
            {"a": 1, "b": {"c": ["d"], "e": {"f": "g", "v": value}}}]


def assert_refused(value, named):
    """`value` is refused in each of its places, the text naming `named`'s
    type, and in `json.dumps`' own words where `json.dumps` refuses it too."""
    for placed in places(value):
        with pytest.raises(TypeError) as got:
            json_text(placed)
        assert str(got.value) == refused_text(named)
        try:
            dumped(placed)
        except TypeError as want:
            assert str(got.value) == str(want)


class TestRefusals:
    @pytest.mark.parametrize("name", OUTSIDE)
    def test_each_value_outside_the_grammar(self, name):
        assert_refused(OUTSIDE[name], OUTSIDE[name])

    @pytest.mark.parametrize("name", LISTS)
    def test_each_list_holding_a_non_string(self, name):
        assert_refused(*LISTS[name])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(flat_strings, max_size=3),
        st.one_of(st.integers(0, 9), int_edges, st.booleans(), st.none(), st.floats()),
        st.lists(st.one_of(flat_strings, st.integers()), max_size=3),
    )
    def test_lists_of_ints_and_other_scalars(self, head, item, tail):
        value = [*head, item, *tail]
        with pytest.raises(TypeError) as got:
            json_text({"row": value})
        assert str(got.value) == refused_text(item)

    def test_a_key_that_is_not_a_string(self):
        for value in ({1: "a"}, {"a": "b", 2: "c"}, {None: []}):
            with pytest.raises(TypeError, match="not (int|NoneType)"):
                json_text(value)

    def test_nothing_is_written_on_a_refusal(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json({"a": "b", "c": [1]}, path)
        assert not path.exists()


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

    def test_wire_documents_and_their_composites_and_tensors(self):
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import inputs
        finally:
            sys.path.pop(0)
        written = 0
        for seed in range(20):
            docs = inputs.wire_projects(random.Random(seed))
            docs = {stem: project_from_obj(doc) for stem, doc in docs.items()}
            det, stoch, mixed = docs["det"], docs["stoch"], docs["mixed"]
            made = ProjectFile(systems={
                "det_composite": compose_lens_system(det.lens("l0"), det.system("d0")),
                "det_tensor": tensor_systems(det.system("t0"), det.system("t1")),
                "stoch_composite": compose_lens_stoch(stoch.lens("l1"), stoch.system("m2")),
                "stoch_tensor": tensor_stoch(stoch.system("t0"), stoch.system("t1")),
                "ode_composite": compose_lens_ode(mixed.lens("olens"), mixed.system("osc")),
            })
            for project in (*docs.values(), made):
                obj = project_to_obj(project)
                assert json_text(obj) == dumped(obj), seed
                written += 1
        assert written == 20 * 4


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
