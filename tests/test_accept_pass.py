"""The project loader's accept pass against its checked decode.

`project._accepted` builds a finite entry (deterministic or stochastic
machine, lens, chart) straight through the trusted constructors, or declines;
`project._decoded` is the checked decode, which names the first fault. On
every input here, either both build `==` entries whose saved bytes are equal,
or the accept pass declines and the checked decode raises. Whole documents
load to the same project, or to the same refusal text, with the accept pass
switched off. The inputs are mutated fixtures, the `wire` benchmark's
generated documents with shuffled key order, and Python values that JSON
cannot hold (int, `Fraction` and bool weights, tuples).
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import given, settings

from opendyn import OpendynError, project
from opendyn.project import ProjectFile, json_text, project_from_obj, project_to_obj

from test_fuzz import DOCS, mutated_fixtures, paths, replaced

ROOT = Path(__file__).resolve().parents[1]


def saved(proj: ProjectFile) -> str:
    """The text `save_project` writes for `proj`, but its last newline."""
    return json_text(project_to_obj(proj))


def entries(doc):
    """Each (section, entry) of a document whose kind the accept pass may take."""
    if not isinstance(doc, dict):
        return
    for section in project.SECTIONS:
        table = doc.get(section)
        if isinstance(table, dict):
            for obj in table.values():
                if not (isinstance(obj, dict) and obj.get("kind") == project.DOCTRINE_ODE):
                    yield section, obj


def agree(section: str, obj) -> bool:
    """Assert the two paths agree on one entry; True when the accept pass took it."""
    accepted = project._accepted(section, obj, {})
    try:
        decoded = project._decoded(section, obj, "entry")
    except OpendynError:
        decoded = None
    if accepted is None:
        assert decoded is None, obj
        return False
    assert decoded is not None and accepted == decoded, obj
    alone = [ProjectFile(**{section: {"e": entry}}) for entry in (accepted, decoded)]
    assert saved(alone[0]) == saved(alone[1]), obj
    return True


def outcome(doc):
    """`project_from_obj`'s saved text, or its refusal's text."""
    try:
        return saved(project_from_obj(doc))
    except OpendynError as exc:
        return f"refused: {exc}"


def assert_loads_as_without_the_accept_pass(doc) -> None:
    with mock.patch.object(project, "_accepted", lambda section, obj, sets: None):
        checked = outcome(doc)
    assert outcome(doc) == checked


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures(doc):
    for section, obj in entries(doc):
        agree(section, obj)
    assert_loads_as_without_the_accept_pass(doc)


def shuffled(node, rng: random.Random):
    """`node` with the keys of every object in a random order."""
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {key: shuffled(node[key], rng) for key in keys}
    if isinstance(node, list):
        return [shuffled(item, rng) for item in node]
    return node


def wire_documents():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    for seed in range(20):
        rng = random.Random(seed)
        for doc in inputs.wire_projects(rng).values():
            yield shuffled(doc, rng)


def test_wire_documents_with_shuffled_keys():
    taken = 0
    for doc in wire_documents():
        for section, obj in entries(doc):
            assert agree(section, obj)
            taken += 1
        assert_loads_as_without_the_accept_pass(doc)
    assert taken == 20 * 20  # 20 finite entries in each seed's three documents


#: Python values put in place of each position of the finite fixtures' entries.
PYTHON_VALUES = [1, 0, Fraction(1, 2), Fraction(1), True, None, ("a", "b"), ["a"], [], {},
                 "1/3", "0", "2/4", "s0", "a|b"]


def test_python_values():
    counts = [0, 0]
    for name in ("flipflop.json", "square_ok.json", "stoch.json"):
        for section, obj in entries(DOCS[name]):
            for path in paths(obj):
                node = obj
                for step in path:
                    node = node[step]
                values = PYTHON_VALUES + ([tuple(node)] if isinstance(node, list) else [])
                for value in values:
                    counts[agree(section, replaced(obj, path, value))] += 1
    declined, taken = counts
    assert declined > 1000 and taken > 10, counts


def test_a_document_shares_one_set_per_label_list():
    proj = project_from_obj(json.loads(json.dumps(DOCS["square_ok.json"])))
    sets = [arrow.source.outputs for arrow in [*proj.lenses.values(), *proj.charts.values()]]
    by_labels = {}
    for labels in sets:
        assert by_labels.setdefault(labels.elements, labels) is labels
    assert len(by_labels) < len(sets)
