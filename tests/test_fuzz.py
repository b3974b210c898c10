"""Fuzzing the two ways in: project files and command lines.

Every input gets an answer or a named `OpendynError`: a mutated fixture loads
or raises one, and a command line exits 0, 1 or 2 with no traceback. Sizes are
kept small (`--k` <= 4, `--cases` <= 3, `--t1` <= 1, `--h` >= 1e-3) so that no
example runs long.
"""

import contextlib
import io
import json
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opendyn import OpendynError, load_project
from opendyn.cli import main

from helpers import fixture_path

FIXTURES = ["flipflop.json", "lv.json", "square_ok.json", "square_broken.json", "stoch.json"]
DOCS = {name: json.loads(Path(fixture_path(name)).read_text()) for name in FIXTURES}

# Labels, weights and expressions that occur in the fixtures, and near misses.
NAMES = ["flipflop", "feedback", "chain", "wiring", "rabbit_fox", "lotka_volterra", "left",
         "right", "top", "bottom", "s0", "s1", "a", "b", "r", "f", "lo", "hi", "set", "go",
         "alpha", "", "|", "a|b", "ghost"]
WEIGHTS = ["1/2", "1/3", "2/3", "1", "0", "-1/2", "1/0", "abc", " 1/3 ", "0.25", "1e-2",
           "1e999", "nan", "2/4"]
EXPRESSIONS = ["r", "alpha*r - beta*r", "x +", "log(r)", "1/0", "((((r", "r^f", "sin(r)*1e308"]

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2**70),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(NAMES + WEIGHTS + EXPRESSIONS),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


def paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from paths(value, prefix + (index,))


def labels(node):
    """Every key and string leaf of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from labels(value)
    elif isinstance(node, list):
        for value in node:
            yield from labels(value)
    elif isinstance(node, str):
        yield node


LABELS = {name: sorted(set(labels(doc))) for name, doc in DOCS.items()}
ENTRIES = {
    name: [entry for section in ("systems", "lenses", "charts") for entry in doc.get(section, {})]
    for name, doc in DOCS.items()
}


def replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return copy


@st.composite
def mutated_fixtures(draw):
    """A fixture with one position replaced, by a random JSON value or, half
    the time, by a string from the same fixture, which often still loads."""
    fixture = draw(st.sampled_from(FIXTURES))
    doc = DOCS[fixture]
    path = draw(st.sampled_from(list(paths(doc))))
    return replaced(doc, path, draw(json_values | st.sampled_from(LABELS[fixture])))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(mutated_fixtures())
def test_a_mutated_fixture_loads_or_names_its_error(workdir, doc):
    path = workdir / "project.json"
    path.write_text(json.dumps(doc))
    try:
        load_project(str(path))
    except OpendynError:
        pass


# -- command lines -----------------------------------------------------------

SMALL_FLOATS = st.floats(-1, 1, allow_nan=False).map(repr)


def csv_of(items):
    return st.lists(items, max_size=3).map(",".join)


@st.composite
def command_lines(draw, workdir):
    fixture = draw(st.sampled_from(FIXTURES + ["missing.json"]))
    project = str(workdir / fixture) if fixture == "missing.json" else fixture_path(fixture)
    name = st.one_of(
        st.sampled_from(ENTRIES.get(fixture, NAMES)),
        st.sampled_from(LABELS.get(fixture, NAMES)),
        st.sampled_from(NAMES),
    )
    out = st.sampled_from([str(workdir / "out"), str(workdir)])
    options = {
        "compose": {"--lens": name, "--system": name, "--out": out, "--name": name},
        "tensor": {"--a": name, "--b": name, "--out": out, "--name": name},
        "steady": {"--system": name, "--k": st.integers(-1, 4).map(str), "--out": out},
        "matrix": {"--lens": name, "--k": st.integers(-1, 4).map(str), "--out": out},
        "simulate": {
            "--system": name,
            "--out": out,
            "--init": csv_of(SMALL_FLOATS | st.sampled_from(["nan", "x"])),
            "--params": csv_of(SMALL_FLOATS),
            "--t0": SMALL_FLOATS,
            "--t1": SMALL_FLOATS | st.sampled_from(["nan", "inf", "-inf"]),
            "--h": st.floats(1e-3, 2).map(repr) | st.sampled_from(["0", "-0.5", "nan"]),
            "--start": name,
            "--word": csv_of(name),
            "--seed": st.integers(-2, 2**40).map(str),
        },
        "check": {
            "--seed": st.integers(0, 2**40).map(str),
            "--cases": st.integers(-1, 3).map(str),
            "--tol": st.sampled_from(["1e-9", "0", "-1", "nan"]),
            "--out": out,
        },
    }
    # `check` runs 200 cases unless told otherwise.
    usual = {"--lens", "--system", "--out", "--a", "--b", "--cases", "--start", "--t1"}
    command = draw(st.sampled_from(sorted(options)))
    argv = [command, project]
    for flag, values in options[command].items():
        if flag == "--cases" or draw(st.integers(0, 9)) < (9 if flag in usual else 5):
            # `=` so that "-inf" is a value, not a flag; `=--` is no value at all
            value = "--" if draw(st.integers(0, 19)) == 0 else draw(values)
            argv.append(f"{flag}={value}")
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "-h"])))
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_a_command_line_exits_0_1_or_2_without_a_traceback(workdir, data):
    argv = data.draw(command_lines(workdir))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
        except Exception:
            pytest.fail(f"{argv} raised\n{traceback.format_exc()}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
