"""Project files: one JSON document holding named systems, lenses, and charts.

The one module that knows the format. Every entry carries a `kind` tag
("deterministic", "stochastic", or "ode"); `KINDS` maps each section and kind
to the entry's class and the codec of its shape. Loading checks an entry's
JSON shape, naming the place that is wrong, then builds it, naming the entry
ahead of any invariant it breaks. Saving is deterministic (construction
order, fixed key order), so identical projects give identical bytes.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from sys import float_info
from typing import Iterable, Iterator, TextIO, Union

from .deterministic import DetChart, DetInterface, DetLens, DetSystem, Identity, Machine
from .errors import FileAccessError, OpendynError, ValidationError
from .expr import Dag, Expr, Num, _dag_text
from .finset import FinMap, FinSet
from .ode import OdeLens, OdeSystem
from .stochastic import Dist, DistEffect, StochSystem

SystemEntry = Union[DetSystem, StochSystem, OdeSystem]
LensEntry = Union[DetLens, OdeLens]

DOCTRINE_DET = "deterministic"
DOCTRINE_STOCH = "stochastic"
DOCTRINE_ODE = "ode"

#: Each section of a project, and the noun that names one of its entries.
SECTIONS = {"systems": "system", "lenses": "lens", "charts": "chart"}


@dataclass
class ProjectFile:
    """A validated project: named entries, insertion-ordered."""

    version: int = 1
    systems: dict[str, SystemEntry] = field(default_factory=dict)
    lenses: dict[str, LensEntry] = field(default_factory=dict)
    charts: dict[str, DetChart] = field(default_factory=dict)

    def system(self, name: str) -> SystemEntry:
        if name not in self.systems:
            raise ValidationError(f"no system named {name!r}")
        return self.systems[name]

    def lens(self, name: str) -> LensEntry:
        if name not in self.lenses:
            raise ValidationError(f"no lens named {name!r}")
        return self.lenses[name]

    def chart(self, name: str) -> DetChart:
        if name not in self.charts:
            raise ValidationError(f"no chart named {name!r}")
        return self.charts[name]


def _shaped(value, shape: Union[type, int], what: str):
    """`value`, checked to have `shape`: `dict`, an object; `list`, an array of
    strings; an int d, d levels of objects around strings (0 is a string). A
    mismatch names its place below `what`."""
    if shape is list:
        if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
            raise ValidationError(f"{what} must be an array of strings")
    elif shape == 0:
        if not isinstance(value, str):
            raise ValidationError(f"{what} must be a string")
    elif not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object")
    elif shape is not dict:
        for key, item in value.items():
            if shape > 1 or not isinstance(item, str):
                _shaped(item, shape - 1, f"{what}[{key!r}]")
    return value


# One codec per entry shape, three functions: `fields(cls)` gives each JSON
# field with its shape, in the order `decode(cls, *values)` takes their
# values to build the entry; `encode(cls, entry)` gives the fields' values.

#: A finite machine's update cells, per effect: the shape of a cell, the cell
#: from JSON given the machine's states, and the cell to JSON.
CELLS = {
    Identity: (0, lambda value, states: value, lambda cell: cell),
    DistEffect: (1, lambda value, states: Dist(states, value), Dist.to_obj),
}


def _machine_fields(cls: type) -> dict:
    cell = CELLS[cls.effect][0]
    return {"states": list, "inputs": list, "outputs": list, "readout": 1, "update": 2 + cell}


def _machine_from_obj(cls: type, states, inputs, outputs, readout, update) -> Machine:
    states = FinSet(states)
    iface = DetInterface(FinSet(inputs), FinSet(outputs))
    readout = FinMap(states, iface.outputs, readout)
    cell = CELLS[cls.effect][1]
    update = {s: {i: cell(c, states) for i, c in row.items()} for s, row in update.items()}
    return cls(states, iface, readout, update)


def _machine_to_obj(cls: type, sys: Machine) -> dict:
    cell = CELLS[cls.effect][2]
    return {
        "states": list(sys.states),
        "inputs": list(sys.interface.inputs),
        "outputs": list(sys.interface.outputs),
        "readout": {s: sys.readout(s) for s in sys.states},
        "update": {s: {i: cell(c) for i, c in row.items()} for s, row in sys.update.items()},
    }


# A finite lens or chart. They differ only in their input table, whose field
# name is the class's `table`: `bwd` for a lens, `push` for a chart.


def _rewiring_fields(cls: type) -> dict:
    interfaces = ("sourceInputs", "sourceOutputs", "targetInputs", "targetOutputs")
    return {**dict.fromkeys(interfaces, list), "fwd": 1, cls.table: 2}


def _rewiring_from_obj(cls: type, source_in, source_out, target_in, target_out, fwd, table):
    source = DetInterface(FinSet(source_in), FinSet(source_out))
    target = DetInterface(FinSet(target_in), FinSet(target_out))
    return cls(source, target, FinMap(source.outputs, target.outputs, fwd), table)


def _rewiring_to_obj(cls: type, arrow: Union[DetLens, DetChart]) -> dict:
    return {
        "sourceInputs": list(arrow.source.inputs),
        "sourceOutputs": list(arrow.source.outputs),
        "targetInputs": list(arrow.target.inputs),
        "targetOutputs": list(arrow.target.outputs),
        "fwd": {o: arrow.fwd(o) for o in arrow.source.outputs},
        cls.table: {o: dict(row) for o, row in getattr(arrow, cls.table).items()},
    }


#: An ODE entry's fields, JSON name -> attribute, in constructor order. A
#: `...Vars` field is a list of names; the others are expression tables.
_ODE_FIELDS = {
    OdeSystem: dict(stateVars="state_vars", outputVars="output_vars", paramVars="param_vars",
                    readout="readout", field="field"),
    OdeLens: dict(sourceOutputVars="source_outputs", sourceParamVars="source_params",
                  targetOutputVars="target_outputs", targetParamVars="target_params",
                  fwd="fwd", bwd="bwd"),
}


def _ode_to_obj(cls: type, entry: Union[OdeSystem, OdeLens]) -> dict:
    obj = {}
    for key, attr in _ODE_FIELDS[cls].items():
        value = getattr(entry, attr)
        obj[key] = list(value) if key.endswith("Vars") else {
            k: _expr_text(e, f"{key}[{k!r}]") for k, e in value.items()
        }
    return obj


def _expr_text(e: Expr, what: str) -> str:
    """The text of `e`, which `parse` reads back as `e` when its constants are finite."""
    dag = Dag((e,))
    for node in dag.nodes:
        if isinstance(node, Num) and not abs(node.value) <= float_info.max:
            raise ValidationError(f"{what} has a constant that is not a finite float: {node.value!r}")
    return _dag_text(dag)


_MACHINE = (_machine_fields, _machine_from_obj, _machine_to_obj)
_REWIRING = (_rewiring_fields, _rewiring_from_obj, _rewiring_to_obj)
_ODE = (
    lambda cls: {key: list if key.endswith("Vars") else 1 for key in _ODE_FIELDS[cls]},
    lambda cls, *values: cls(*values),
    _ode_to_obj,
)

#: (section, kind) -> the entry's class and codec.
KINDS = {
    ("systems", DOCTRINE_DET): (DetSystem, _MACHINE),
    ("systems", DOCTRINE_STOCH): (StochSystem, _MACHINE),
    ("systems", DOCTRINE_ODE): (OdeSystem, _ODE),
    ("lenses", DOCTRINE_DET): (DetLens, _REWIRING),
    ("lenses", DOCTRINE_ODE): (OdeLens, _ODE),
    ("charts", DOCTRINE_DET): (DetChart, _REWIRING),
}


def doctrine_of(entry: object) -> str:
    for (_, kind), (cls, _) in KINDS.items():
        if isinstance(entry, cls):
            return kind
    raise ValidationError(f"not a project entry: {type(entry).__name__}")


def _entry_from_obj(section: str, obj, what: str):
    """The entry `what` of `section`; a class's refusal is prefixed `what: `."""
    kind = _shaped(obj, dict, what).get("kind")
    if not isinstance(kind, str):
        raise ValidationError(f"{what}.kind must be a string")
    if (section, kind) not in KINDS:
        if section == "charts":
            raise ValidationError(f"{what}: charts exist only in the deterministic doctrine")
        raise ValidationError(f"{what}: unknown kind {kind!r}")
    cls, (fields, decode, _) = KINDS[section, kind]
    shapes = fields(cls)
    for key in obj:
        if key not in shapes and key != "kind":
            raise ValidationError(f"{what} has an unknown field {key!r}")
    for key in shapes:
        if key not in obj:
            raise ValidationError(f"{what} is missing the field {key!r}")
    values = [_shaped(obj[key], shape, f"{what}.{key}") for key, shape in shapes.items()]
    try:
        return decode(cls, *values)
    except OpendynError as exc:
        raise ValidationError(f"{what}: {exc}") from None


def project_to_obj(project: ProjectFile) -> dict:
    obj: dict = {"version": project.version}
    for section in SECTIONS:
        entries = {}
        for name, entry in getattr(project, section).items():
            try:
                kind = doctrine_of(entry)
                if (section, kind) not in KINDS or not isinstance(entry, KINDS[section, kind][0]):
                    raise ValidationError(
                        f"an entry of class {type(entry).__name__} does not belong in {section}"
                    )
                cls, (_, _, encode) = KINDS[section, kind]
                entries[name] = {"kind": kind, **encode(cls, entry)}
            except OpendynError as exc:
                raise ValidationError(f"{SECTIONS[section]} {name!r}: {exc}") from None
        if entries:
            obj[section] = entries
    return obj


def project_from_obj(obj) -> ProjectFile:
    top = _shaped(obj, dict, "project")
    for key in top:
        if key != "version" and key not in SECTIONS:
            raise ValidationError(f"project has an unknown field {key!r}")
    if top.get("version") != 1:
        raise ValidationError(f"unsupported project version {top.get('version')!r}")
    sections = {
        section: {
            name: _entry_from_obj(section, entry, f"{noun} {name!r}")
            for name, entry in _shaped(top.get(section, {}), dict, section).items()
        }
        for section, noun in SECTIONS.items()
    }
    return ProjectFile(1, **sections)


def load_project(path: Union[str, Path]) -> ProjectFile:
    """Read and fully validate a project file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileAccessError(f"{path}: cannot read the file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FileAccessError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nests too deeply to decode") from None
    try:
        return project_from_obj(obj)
    except OpendynError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_lines(value, indent: str, put) -> None:
    """Put the text of `value`, nested at `indent` ("\n" plus its spaces)."""
    if isinstance(value, str):
        put(_quote(value))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            put(sep + _quote(key) + ": ")
            _json_lines(item, inner, put)
            sep = "," + inner
        put(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _json_lines(item, inner, put)
            sep = "," + inner
        put(indent + "]")
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        put(_float_text(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """The text of `json.dumps(obj, indent=2)`, for the values opendyn writes:
    dicts with string keys, lists, strings, ints, floats, bools and None.

    `json.dumps` falls back to its pure-Python encoder whenever `indent` is
    set; this writer emits the same bytes.
    """
    parts: list[str] = []
    _json_lines(obj, "\n", parts.append)
    return "".join(parts)


@contextmanager
def open_output(path: Union[str, Path]) -> Iterator[TextIO]:
    """An output file open for UTF-8 text, written as it is (no newline
    translation). A file that cannot be opened or written is a
    `FileAccessError` naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f
    except OSError as exc:
        raise FileAccessError(f"{path}: cannot write the file: {exc.strerror}") from None


def write_json(obj, path: Union[str, Path]) -> None:
    """Write `json.dumps(obj, indent=2)`'s bytes and a newline to `path`,
    as the parts `json_text` would join, so the text is never held whole."""
    parts: list[str] = []
    _json_lines(obj, "\n", parts.append)
    parts.append("\n")
    with open_output(path) as f:
        f.writelines(parts)


#: One cell of a matrix row in `write_json_matrix`'s text, with the comma
#: that follows it; its digit is at `_CELL_DIGIT`.
_CELL = "\n      0,"
_CELL_DIGIT = len(_CELL) - 2


def write_json_matrix(head: dict, rows: Iterable[Iterable[int]], width: int,
                      path: Union[str, Path]) -> None:
    """Write `json.dumps({**head, "matrix": matrix}, indent=2)`'s bytes and a
    newline to `path`, where `matrix` has a 0/1 row of `width` cells for each
    item of `rows`, the ascending columns of that row's 1s.

    The head goes through the JSON writer; then each row's text is written as
    soon as it is formed, as runs of the all-zero row's text with a "1" put in
    place of each 1's "0". Neither the matrix nor a list of rows is held.
    """
    text = json_text({**head, "matrix": []})
    zeros = _CELL * width
    close = "\n    ]" if width else "]"
    with open_output(path) as f:
        f.write(text[:-len('[]\n}')])
        sep = "[\n    "
        for ones in rows:
            parts, start = [sep, "["], 0
            for c in ones:
                digit = c * len(_CELL) + _CELL_DIGIT
                parts += zeros[start:digit], "1"
                start = digit + 1
            parts += zeros[start:-1], close
            f.write("".join(parts))
            sep = ",\n    "
        f.write("[]\n}\n" if sep == "[\n    " else "\n  ]\n}\n")


def save_project(project: ProjectFile, path: Union[str, Path]) -> None:
    """Write a project deterministically (stable key order, trailing newline)."""
    write_json(project_to_obj(project), path)
