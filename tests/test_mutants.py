"""The mutant catalogue of `tools/mutants.py` still fits the tree: every
mutant's old text occurs exactly once in its file, and every test it names
exists. Running the mutants is the tool's job, not tier-1's."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()
CATALOGUE = TOOL.CATALOGUE


def test_the_names_are_distinct():
    names = [mutant.name for mutant in CATALOGUE]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda mutant: mutant.name)
def test_the_old_text_occurs_once_and_is_changed(mutant):
    assert TOOL.stale(mutant) == ""
    assert mutant.new != mutant.old
    assert mutant.tests


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda mutant: mutant.name)
def test_each_named_test_exists(mutant):
    for test_id in mutant.tests:
        path, *names = test_id.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", text, re.M), test_id
