"""`tools/src_lines.py` counts the public names `opendyn` exports."""

import importlib.util
import inspect
from pathlib import Path

import opendyn

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_exported_names_are_the_packages_public_attributes():
    public = {
        name for name, value in vars(opendyn).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert load_tool().exported(Path(opendyn.__file__)) == sorted(public)


def test_the_report_ends_with_the_count(capsys):
    tool = load_tool()
    root = Path(opendyn.__file__).parent
    assert tool.main(["src_lines.py", str(root)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"public names exported: {len(tool.exported(root / '__init__.py'))}"
