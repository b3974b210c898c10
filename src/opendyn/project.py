"""Project files: one JSON document holding named systems, lenses, and charts.

Every entry carries a `kind` tag ("deterministic", "stochastic", or "ode")
so wiring commands can refuse cross-doctrine combinations up front. Loading
validates every module-level invariant and reports the offending entry by
name; serialization is deterministic (construction order, fixed key order),
so identical projects produce identical bytes.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterator, TextIO, Union

from .deterministic import DetChart, DetInterface, DetLens, DetSystem, Machine
from .errors import FileAccessError, OpendynError, ValidationError
from .expr import to_text
from .finset import FinMap, FinSet, expect_obj, expect_str, str_table
from .ode import OdeLens, OdeSystem
from .stochastic import StochSystem

SystemEntry = Union[DetSystem, StochSystem, OdeSystem]
LensEntry = Union[DetLens, OdeLens]

DOCTRINE_DET = "deterministic"
DOCTRINE_STOCH = "stochastic"
DOCTRINE_ODE = "ode"
_MACHINES = {DOCTRINE_DET: DetSystem, DOCTRINE_STOCH: StochSystem}


def doctrine_of(entry: object) -> str:
    if isinstance(entry, (DetSystem, DetLens, DetChart)):
        return DOCTRINE_DET
    if isinstance(entry, StochSystem):
        return DOCTRINE_STOCH
    if isinstance(entry, (OdeSystem, OdeLens)):
        return DOCTRINE_ODE
    raise ValidationError(f"not a project entry: {type(entry).__name__}")


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


def _expect_str_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValidationError(f"{what} must be an array of strings")
    return value


def _take(obj: dict, what: str, required: tuple[str, ...]) -> dict:
    for key in obj:
        if key not in required and key != "kind":
            raise ValidationError(f"{what} has an unknown field {key!r}")
    out = {}
    for key in required:
        if key not in obj:
            raise ValidationError(f"{what} is missing the field {key!r}")
        out[key] = obj[key]
    return out


def _nested_table(value, what: str) -> dict[str, dict[str, str]]:
    table = expect_obj(value, what)
    return {k: str_table(v, f"{what}[{k!r}]") for k, v in table.items()}


def _finmap(dom: FinSet, cod: FinSet, value, what: str) -> FinMap:
    return FinMap(dom, cod, str_table(value, what))


def _finset(fields: dict, key: str, what: str) -> FinSet:
    return FinSet(_expect_str_list(fields[key], f"{what}.{key}"))


def _interface(fields: dict, inputs: str, outputs: str, what: str) -> DetInterface:
    return DetInterface(_finset(fields, inputs, what), _finset(fields, outputs, what))


def machine_to_obj(sys: Machine) -> dict:
    """A finite machine of any effect; update cells go through the effect's codec."""
    cell_to_obj = sys.effect.cell_to_obj
    return {
        "kind": doctrine_of(sys),
        "states": list(sys.states),
        "inputs": list(sys.interface.inputs),
        "outputs": list(sys.interface.outputs),
        "readout": {s: sys.readout(s) for s in sys.states},
        "update": {
            s: {i: cell_to_obj(c) for i, c in row.items()} for s, row in sys.update.items()
        },
    }


def machine_from_obj(obj: dict, what: str, cls: type) -> Machine:
    fields = _take(obj, what, ("states", "inputs", "outputs", "readout", "update"))
    states = _finset(fields, "states", what)
    iface = _interface(fields, "inputs", "outputs", what)
    readout = _finmap(states, iface.outputs, fields["readout"], f"{what}.readout")
    cell_from_obj = cls.effect.cell_from_obj
    update = {
        s: {
            i: cell_from_obj(c, states, f"{what}.update[{s!r}][{i!r}]")
            for i, c in expect_obj(row, f"{what}.update[{s!r}]").items()
        }
        for s, row in expect_obj(fields["update"], f"{what}.update").items()
    }
    return cls(states, iface, readout, update)


def ode_system_to_obj(sys: OdeSystem) -> dict:
    return {
        "kind": DOCTRINE_ODE,
        "stateVars": list(sys.state_vars),
        "outputVars": list(sys.output_vars),
        "paramVars": list(sys.param_vars),
        "readout": {v: to_text(sys.readout[v]) for v in sys.output_vars},
        "field": {v: to_text(sys.field[v]) for v in sys.state_vars},
    }


def ode_system_from_obj(obj: dict, what: str) -> OdeSystem:
    fields = _take(obj, what, ("stateVars", "outputVars", "paramVars", "readout", "field"))
    return OdeSystem(
        _expect_str_list(fields["stateVars"], f"{what}.stateVars"),
        _expect_str_list(fields["outputVars"], f"{what}.outputVars"),
        _expect_str_list(fields["paramVars"], f"{what}.paramVars"),
        str_table(fields["readout"], f"{what}.readout"),
        str_table(fields["field"], f"{what}.field"),
    )


def rewiring_to_obj(arrow: Union[DetLens, DetChart]) -> dict:
    """A finite lens or chart. They differ only in their input table, whose
    field name is the class's `table`: `bwd` for a lens, `push` for a chart."""
    table = arrow.table
    return {
        "kind": DOCTRINE_DET,
        "sourceInputs": list(arrow.source.inputs),
        "sourceOutputs": list(arrow.source.outputs),
        "targetInputs": list(arrow.target.inputs),
        "targetOutputs": list(arrow.target.outputs),
        "fwd": {o: arrow.fwd(o) for o in arrow.source.outputs},
        table: {o: dict(row) for o, row in getattr(arrow, table).items()},
    }


def rewiring_from_obj(obj: dict, what: str, cls: type) -> Union[DetLens, DetChart]:
    table = cls.table
    fields = _take(
        obj,
        what,
        ("sourceInputs", "sourceOutputs", "targetInputs", "targetOutputs", "fwd", table),
    )
    source = _interface(fields, "sourceInputs", "sourceOutputs", what)
    target = _interface(fields, "targetInputs", "targetOutputs", what)
    fwd = _finmap(source.outputs, target.outputs, fields["fwd"], f"{what}.fwd")
    return cls(source, target, fwd, _nested_table(fields[table], f"{what}.{table}"))


def ode_lens_to_obj(lens: OdeLens) -> dict:
    return {
        "kind": DOCTRINE_ODE,
        "sourceOutputVars": list(lens.source_outputs),
        "sourceParamVars": list(lens.source_params),
        "targetOutputVars": list(lens.target_outputs),
        "targetParamVars": list(lens.target_params),
        "fwd": {o: to_text(lens.fwd[o]) for o in lens.target_outputs},
        "bwd": {p: to_text(lens.bwd[p]) for p in lens.source_params},
    }


def ode_lens_from_obj(obj: dict, what: str) -> OdeLens:
    fields = _take(
        obj,
        what,
        (
            "sourceOutputVars",
            "sourceParamVars",
            "targetOutputVars",
            "targetParamVars",
            "fwd",
            "bwd",
        ),
    )
    return OdeLens(
        _expect_str_list(fields["sourceOutputVars"], f"{what}.sourceOutputVars"),
        _expect_str_list(fields["sourceParamVars"], f"{what}.sourceParamVars"),
        _expect_str_list(fields["targetOutputVars"], f"{what}.targetOutputVars"),
        _expect_str_list(fields["targetParamVars"], f"{what}.targetParamVars"),
        str_table(fields["fwd"], f"{what}.fwd"),
        str_table(fields["bwd"], f"{what}.bwd"),
    )


def system_to_obj(sys: SystemEntry) -> dict:
    return ode_system_to_obj(sys) if isinstance(sys, OdeSystem) else machine_to_obj(sys)


def system_from_obj(obj: dict, what: str) -> SystemEntry:
    kind = expect_str(expect_obj(obj, what).get("kind"), f"{what}.kind")
    if kind in _MACHINES:
        return machine_from_obj(obj, what, _MACHINES[kind])
    if kind == DOCTRINE_ODE:
        return ode_system_from_obj(obj, what)
    raise ValidationError(f"{what}: unknown kind {kind!r}")


def lens_to_obj(lens: LensEntry) -> dict:
    return rewiring_to_obj(lens) if isinstance(lens, DetLens) else ode_lens_to_obj(lens)


def lens_from_obj(obj: dict, what: str) -> LensEntry:
    kind = expect_str(expect_obj(obj, what).get("kind"), f"{what}.kind")
    if kind == DOCTRINE_DET:
        return rewiring_from_obj(obj, what, DetLens)
    if kind == DOCTRINE_ODE:
        return ode_lens_from_obj(obj, what)
    raise ValidationError(f"{what}: unknown kind {kind!r}")


def chart_from_obj(obj: dict, what: str) -> DetChart:
    kind = expect_str(expect_obj(obj, what).get("kind"), f"{what}.kind")
    if kind != DOCTRINE_DET:
        raise ValidationError(f"{what}: charts exist only in the deterministic doctrine")
    return rewiring_from_obj(obj, what, DetChart)


def project_to_obj(project: ProjectFile) -> dict:
    obj: dict = {"version": project.version}
    if project.systems:
        obj["systems"] = {name: system_to_obj(s) for name, s in project.systems.items()}
    if project.lenses:
        obj["lenses"] = {name: lens_to_obj(l) for name, l in project.lenses.items()}
    if project.charts:
        obj["charts"] = {name: rewiring_to_obj(c) for name, c in project.charts.items()}
    return obj


def project_from_obj(obj) -> ProjectFile:
    top = expect_obj(obj, "project")
    for key in top:
        if key not in ("version", "systems", "lenses", "charts"):
            raise ValidationError(f"project has an unknown field {key!r}")
    if top.get("version") != 1:
        raise ValidationError(f"unsupported project version {top.get('version')!r}")
    project = ProjectFile(version=1)

    def load_section(section: str, noun: str, loader) -> dict:
        out: dict = {}
        for name, entry in expect_obj(top.get(section, {}), section).items():
            what = f"{noun} {name!r}"
            try:
                out[name] = loader(expect_obj(entry, what), what)
            except OpendynError as exc:
                raise ValidationError(f"{what}: {exc}") from None
        return out

    project.systems = load_section("systems", "system", system_from_obj)
    project.lenses = load_section("lenses", "lens", lens_from_obj)
    project.charts = load_section("charts", "chart", chart_from_obj)
    return project


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
        if set(map(type, value)) == {int}:
            put("[" + inner + ("," + inner).join(map(int.__repr__, value)) + indent + "]")
            return
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
    set; this writer emits the same bytes, and writes a list of plain ints,
    such as a matrix row, with one `join`.
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
    """Write `json.dumps(obj, indent=2)`'s bytes and a newline to `path`."""
    text = json_text(obj) + "\n"
    with open_output(path) as f:
        f.write(text)


def save_project(project: ProjectFile, path: Union[str, Path]) -> None:
    """Write a project deterministically (stable key order, trailing newline)."""
    write_json(project_to_obj(project), path)
