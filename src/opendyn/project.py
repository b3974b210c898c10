"""Project files: one JSON document holding named systems, lenses, and charts.

The one module that knows the format. Every entry carries a `kind` tag
("deterministic", "stochastic", or "ode"); `KINDS` maps each section and kind
to the entry's class and the codec of its shape. Saving is deterministic
(construction order, fixed key order), so identical projects give identical
bytes: those of `json.dumps(obj, indent=2)`, from a writer that puts a dict
or list of strings alone (an update cell, a readout or fwd row, a label
list) in one join, and a Markov machine's weights as one `str` per distinct
weight object.

Loading reads a finite entry (a machine of either effect, a lens, a chart)
in one validating pass, the accept pass (`_accepted`): it walks the JSON
once, checks everything the checked decode and the public constructors
check (the exact field set; label lists of distinct non-empty strings with
equal "|" counts; total tables whose values are members; weight strings
that parse, are non-negative and sum to 1) and builds the entry through the
trusted constructors (`_finmap`, `_machine`, `_rewiring`, `_dist`), tables in
canonical order. Equal label lists of one document share one `FinSet`, held
by a memo that lives for that load only. The accept pass never raises: an
entry it declines, and every ODE entry, goes through the checked decode
(`_decoded`), which checks the entry's JSON shape, naming the place that is
wrong, then builds it through the public constructors, naming the entry ahead
of any invariant it breaks. So a refused entry gets the same message, and
the same first fault, as it would with no accept pass.

Every file goes through one reader and one writer. `read_bytes` opens the
file for bytes, and `read_text` decodes them as UTF-8 once and reads a CRLF
or a lone CR as LF, as text mode would; `open_output` opens an output for
bytes, and each writer encodes its text as UTF-8 a block at a time, with no
newline translation.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from os import PathLike, fspath
from sys import float_info
from typing import BinaryIO, Iterable, Iterator, Optional, Union

from .deterministic import (
    DetChart, DetInterface, DetLens, DetSystem, Identity, Machine, _machine, _rewiring
)
from .errors import FileAccessError, OpendynError, ValidationError, _shown
from .expr import Dag, Expr, Num, _dag_text
from .finset import FinMap, FinSet, _finmap
from .ode import OdeLens, OdeSystem
from .stochastic import Dist, DistEffect, StochSystem, _accepted_dist

SystemEntry = Union[DetSystem, StochSystem, OdeSystem]
LensEntry = Union[DetLens, OdeLens]
StrPath = Union[str, PathLike]

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


# The parts of the accept pass (`_accepted`). Each gives None where it
# declines, and checks a value's type before it hashes the value.


def _accepted_label(values: FinSet, value) -> Optional[str]:
    return value if type(value) is str and value in values._index else None


def _accepted_set(value, sets: dict) -> Optional[FinSet]:
    """The `FinSet` of a label list, the one `sets` holds for an equal list if
    there is one; None unless `value` is a list of distinct non-empty strings
    with equal "|" counts."""
    if type(value) is not list:
        return None
    for label in value:
        if type(label) is not str:
            return None
    key = tuple(value)
    labels = sets.get(key)
    if labels is None:
        try:
            labels = sets[key] = FinSet(key)
        except ValidationError:
            return None
    return labels


def _accepted_row(row, cols: FinSet, values: FinSet, cell=_accepted_label) -> Optional[dict]:
    """`row`, a JSON object, in `cols` order with each value through
    `cell(values, value)`; None unless it has exactly the keys `cols` and
    every cell is accepted."""
    if type(row) is not dict or len(row) != len(cols):
        return None
    out = {}
    for c in cols:
        v = cell(values, row.get(c))
        if v is None:
            return None
        out[c] = v
    return out


def _accepted_table(table, rows: FinSet, cols: FinSet, values: FinSet,
                    cell=_accepted_label) -> Optional[dict]:
    """`table`, a JSON object of rows, in `rows` order, each row as
    `_accepted_row` takes it; None unless it has exactly the keys `rows` and
    every row is accepted."""
    if type(table) is not dict or len(table) != len(rows):
        return None
    out = {}
    for r in rows:
        row = _accepted_row(table.get(r), cols, values, cell)
        if row is None:
            return None
        out[r] = row
    return out


# One codec per entry shape, four functions: `fields(cls)` gives each JSON
# field with its shape, in the order `decode(cls, *values)` takes their
# values to build the entry; `encode(cls, entry)` gives the fields' values;
# `accept(cls, obj, sets)`, None for ODE entries, is the accept pass.

def _label_table(update: dict) -> dict:
    """A deterministic machine's update table as JSON: its rows as they are."""
    return {s: dict(row) for s, row in update.items()}


def _dist_table(update: dict) -> dict:
    """A Markov machine's update table as JSON: one `str` per distinct weight
    object, keyed by its id, which is sound while the machine holds it."""
    texts: dict[int, str] = {}
    table = {}
    for s, row in update.items():
        table[s] = out = {}
        for i, cell in row.items():
            out[i] = obj = {}
            for label, w in cell.weights.items():
                text = texts.get(id(w))
                if text is None:
                    text = texts[id(w)] = str(w)
                obj[label] = text
    return table


#: A finite machine's update cells, per effect: the shape of a cell, the cell
#: from JSON given the machine's states, the update table to JSON, and the
#: accept pass's cell from JSON given the states (None where it declines).
CELLS = {
    Identity: (0, lambda value, states: value, _label_table, _accepted_label),
    DistEffect: (1, lambda value, states: Dist(states, value), _dist_table, _accepted_dist),
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


def _machine_accepted(cls: type, obj: dict, sets: dict) -> Optional[Machine]:
    states = _accepted_set(obj["states"], sets)
    inputs = _accepted_set(obj["inputs"], sets)
    outputs = _accepted_set(obj["outputs"], sets)
    if states is None or inputs is None or outputs is None:
        return None
    readout = _accepted_row(obj["readout"], states, outputs)
    update = _accepted_table(obj["update"], states, inputs, states, CELLS[cls.effect][3])
    if readout is None or update is None:
        return None
    readout = _finmap(states, outputs, readout)
    return _machine(cls, states, DetInterface(inputs, outputs), readout, update)


def _machine_to_obj(cls: type, sys: Machine) -> dict:
    return {
        "states": list(sys.states),
        "inputs": list(sys.interface.inputs),
        "outputs": list(sys.interface.outputs),
        "readout": dict(sys.readout.table),
        "update": CELLS[cls.effect][2](sys.update),
    }


# A finite lens or chart. They differ only in their input table, whose field
# name is the class's `table`: `bwd` for a lens, `push` for a chart.


_INTERFACES = ("sourceInputs", "sourceOutputs", "targetInputs", "targetOutputs")


def _rewiring_fields(cls: type) -> dict:
    return {**dict.fromkeys(_INTERFACES, list), "fwd": 1, cls.table: 2}


def _rewiring_from_obj(cls: type, source_in, source_out, target_in, target_out, fwd, table):
    source = DetInterface(FinSet(source_in), FinSet(source_out))
    target = DetInterface(FinSet(target_in), FinSet(target_out))
    return cls(source, target, FinMap(source.outputs, target.outputs, fwd), table)


def _rewiring_accepted(cls: type, obj: dict, sets: dict) -> Optional[Union[DetLens, DetChart]]:
    parts = [_accepted_set(obj[key], sets) for key in _INTERFACES]
    if None in parts:
        return None
    source_in, source_out, target_in, target_out = parts
    source = DetInterface(source_in, source_out)
    target = DetInterface(target_in, target_out)
    fwd = _accepted_row(obj["fwd"], source_out, target_out)
    table = _accepted_table(obj[cls.table], *cls.axes(source, target))
    if fwd is None or table is None:
        return None
    return _rewiring(cls, source, target, _finmap(source_out, target_out, fwd), table)


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


_MACHINE = (_machine_fields, _machine_from_obj, _machine_to_obj, _machine_accepted)
_REWIRING = (_rewiring_fields, _rewiring_from_obj, _rewiring_to_obj, _rewiring_accepted)
_ODE = (
    lambda cls: {key: list if key.endswith("Vars") else 1 for key in _ODE_FIELDS[cls]},
    lambda cls, *values: cls(*values),
    _ode_to_obj,
    None,
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

#: (section, kind) -> the class, the exact field set and the accept function
#: of each kind the accept pass takes.
_ACCEPTS = {
    key: (cls, {"kind", *fields(cls)}, accept)
    for key, (cls, (fields, _, _, accept)) in KINDS.items()
    if accept
}


def doctrine_of(entry: object) -> str:
    for (_, kind), (cls, _) in KINDS.items():
        if isinstance(entry, cls):
            return kind
    raise ValidationError(f"not a project entry: {type(entry).__name__}")


def _entry_from_obj(section: str, name: str, obj, sets: dict):
    """The entry `name` of `section`: the accept pass's, or where it declines,
    the checked decode's."""
    entry = _accepted(section, obj, sets)
    return _decoded(section, obj, f"{SECTIONS[section]} {name!r}") if entry is None else entry


def _accepted(section: str, obj, sets: dict):
    """The accept pass: the finite entry `obj` of `section`, built through the
    trusted constructors with label lists shared through `sets`, or None
    unless the checked decode would build an equal entry. Never raises."""
    if type(obj) is not dict:
        return None
    kind = obj.get("kind")
    if type(kind) is not str or (section, kind) not in _ACCEPTS:
        return None
    cls, fields, accept = _ACCEPTS[section, kind]
    return accept(cls, obj, sets) if obj.keys() == fields else None


def _decoded(section: str, obj, what: str):
    """The checked decode of the entry `what` of `section`, naming the place
    of its first fault; a class's refusal is prefixed `what: `."""
    kind = _shaped(obj, dict, what).get("kind")
    if not isinstance(kind, str):
        raise ValidationError(f"{what}.kind must be a string")
    if (section, kind) not in KINDS:
        if section == "charts":
            raise ValidationError(f"{what}: charts exist only in the deterministic doctrine")
        raise ValidationError(f"{what}: unknown kind {kind!r}")
    cls, (fields, decode, _, _) = KINDS[section, kind]
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
                cls, (_, _, encode, _) = KINDS[section, kind]
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
    version = top.get("version")
    if version != 1:
        raise ValidationError(f"unsupported project version {_shown(version)}")
    sets: dict = {}
    sections = {
        section: {
            name: _entry_from_obj(section, name, entry, sets)
            for name, entry in _shaped(top.get(section, {}), dict, section).items()
        }
        for section in SECTIONS
    }
    return ProjectFile(1, **sections)


_SURROGATE = re.compile("[\ud800-\udfff]")


def _lone_surrogate(obj) -> Optional[str]:
    """The first string of `obj`, key or value in document order, holding a
    surrogate code point, or None. JSON decodes an escaped surrogate pair to
    the one code point it encodes, so such a surrogate stands alone."""
    stack = [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            if _SURROGATE.search(node):
                return node
        elif isinstance(node, dict):
            for key, value in reversed(node.items()):
                stack += value, key
        elif isinstance(node, list):
            stack += reversed(node)
    return None


def read_bytes(path: StrPath) -> bytes:
    """The bytes of the file at `path`, as `Path(path).read_bytes()` reads
    them: "" names the current directory, and a path that pathlib would
    tidy ("x.json/", "x.json/.") names the file it tidies to. A file that
    cannot be read is a `FileAccessError` naming the path."""
    name = fspath(path)
    try:
        try:
            f = open(name or ".", "rb", buffering=0)
        except NotADirectoryError:
            from pathlib import Path  # only here: pathlib drops a trailing "/" or "/."

            f = open(Path(name), "rb", buffering=0)
        with f:
            return f.read()
    except OSError as exc:
        raise FileAccessError(f"{path}: cannot read the file: {exc.strerror}") from None


def read_text(path: StrPath) -> str:
    """The text of the UTF-8 file at `path`, with universal newlines ("\r\n"
    and a lone "\r" read as "\n"), as `Path(path).read_text(encoding="utf-8")`
    gives it: one read, one decode, and a newline pass only over text that
    holds a "\r". Bytes that are not UTF-8 are a `FileAccessError` naming
    the offset of the first."""
    data = read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileAccessError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_project(path: StrPath) -> ProjectFile:
    """Read and fully validate a project file."""
    text = read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # after its subclass JSONDecodeError: the int digit limit
        raise ValidationError(f"{path}: JSON holds an integer too long to decode") from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nests too deeply to decode") from None
    # Only a \u escape decodes to a surrogate: UTF-8 text holds none.
    if "\\u" in text:
        lone = _lone_surrogate(obj)
        if lone is not None:
            raise ValidationError(
                f"{path}: {lone!r} holds a lone surrogate, which UTF-8 cannot encode"
            )
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
    """Put the text of `value`, nested at `indent` ("\n" plus its spaces). A
    dict whose values are all strings, or a list whose items are, is put in
    one join; one whose first item is a string is tried, and `_quote` raises
    TypeError at the first item that is not."""
    if isinstance(value, str):
        put(_quote(value))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = indent + "  "
        text = None
        if type(next(iter(value.values()))) is str:
            try:
                text = ("," + inner).join([_quote(k) + ": " + _quote(v) for k, v in value.items()])
            except TypeError:
                pass
        if text is None:
            sep = "{" + inner
            for key, item in value.items():
                put(sep + _quote(key) + ": ")
                _json_lines(item, inner, put)
                sep = "," + inner
        else:
            put("{" + inner + text)
        put(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = indent + "  "
        text = None
        if type(value[0]) is str:
            try:
                text = ("," + inner).join(map(_quote, value))
            except TypeError:
                pass
        if text is None:
            sep = "[" + inner
            for item in value:
                put(sep)
                _json_lines(item, inner, put)
                sep = "," + inner
        else:
            put("[" + inner + text)
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
def open_output(path: StrPath) -> Iterator[BinaryIO]:
    """An output file open for bytes: each writer forms a block of its text,
    encodes it as UTF-8 once and writes it as it is (no newline
    translation). A file that cannot be opened or written is a
    `FileAccessError` naming the path."""
    try:
        with open(path, "wb") as f:
            yield f
    except OSError as exc:
        raise FileAccessError(f"{path}: cannot write the file: {exc.strerror}") from None


#: Parts of `write_json`'s text it joins and encodes into one block.
_JSON_BLOCK_PARTS = 4096

#: Characters a streamed output (a matrix, a CSV) gathers into one block.
_BLOCK_CHARS = 1 << 16


def write_json(obj, path: StrPath) -> None:
    """Write `json.dumps(obj, indent=2)`'s bytes and a newline to `path`,
    as the parts `json_text` would join, a block of parts at a time, so the
    text is never held whole."""
    parts: list[str] = []
    _json_lines(obj, "\n", parts.append)
    parts.append("\n")
    with open_output(path) as f:
        for start in range(0, len(parts), _JSON_BLOCK_PARTS):
            f.write("".join(parts[start:start + _JSON_BLOCK_PARTS]).encode())


#: One cell of a matrix row in `write_json_matrix`'s text, with the comma
#: that follows it; its digit is at `_CELL_DIGIT`.
_CELL = "\n      0,"
_CELL_DIGIT = len(_CELL) - 2


def write_json_matrix(head: dict, rows: Iterable[Iterable[int]], width: int,
                      path: StrPath) -> None:
    """Write `json.dumps({**head, "matrix": matrix}, indent=2)`'s bytes and a
    newline to `path`, where `matrix` has a 0/1 row of `width` cells for each
    item of `rows`, the ascending columns of that row's 1s.

    The head goes through the JSON writer; then each row's text is formed as
    runs of the all-zero row's text with a "1" put in place of each 1's "0",
    and the rows are written a block of `_BLOCK_CHARS` characters at a time,
    so no more of the matrix than one block and one row is held.
    """
    text = json_text({**head, "matrix": []})
    zeros = _CELL * width
    close = "\n    ]" if width else "]"
    with open_output(path) as f:
        block, held = [text[:-len('[]\n}')]], 0
        sep = "[\n    "
        for ones in rows:
            parts, start = [sep, "["], 0
            for c in ones:
                digit = c * len(_CELL) + _CELL_DIGIT
                parts += zeros[start:digit], "1"
                start = digit + 1
            parts += zeros[start:-1], close
            row = "".join(parts)
            block.append(row)
            held += len(row)
            if held >= _BLOCK_CHARS:
                f.write("".join(block).encode())
                block, held = [], 0
            sep = ",\n    "
        block.append("[]\n}\n" if sep == "[\n    " else "\n  ]\n}\n")
        f.write("".join(block).encode())


def save_project(project: ProjectFile, path: StrPath) -> None:
    """Write a project deterministically (stable key order, trailing newline)."""
    write_json(project_to_obj(project), path)
