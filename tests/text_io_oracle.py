"""File I/O through text-mode files, as `opendyn.project` and `opendyn.cli`
did it before they read and wrote bytes: a differential oracle.

The reader is `Path(path).read_text(encoding="utf-8")`, whose universal
newlines read "\r\n" and a lone "\r" as "\n"; each writer writes `str`
through a file opened with `newline=""`, which leaves its text as it is.
The formatting each writer shares with the byte path (`_json_lines`, the
matrix's cell text, the ODE CSV's block size) is imported, so a difference
is one of reading, encoding or writing alone.
"""

from __future__ import annotations

import csv
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

from opendyn.cli import _CSV_BLOCK_ROWS
from opendyn.errors import FileAccessError, OpendynError, ValidationError
from opendyn.project import _CELL, _CELL_DIGIT, _json_lines, _lone_surrogate, json_text, project_from_obj


def load_project(path):
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
    except ValueError:
        raise ValidationError(f"{path}: JSON holds an integer too long to decode") from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nests too deeply to decode") from None
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


def digest(path) -> str:
    """`check`'s input digest."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextmanager
def open_output(path):
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f
    except OSError as exc:
        raise FileAccessError(f"{path}: cannot write the file: {exc.strerror}") from None


def write_json(obj, path) -> None:
    parts: list[str] = []
    _json_lines(obj, "\n", parts.append)
    parts.append("\n")
    with open_output(path) as f:
        f.writelines(parts)


def write_json_matrix(head: dict, rows, width: int, path) -> None:
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


def write_csv(path, header, rows) -> int:
    count = 0
    with open_output(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for count, row in enumerate(rows, 1):
            writer.writerow(row)
    return count


def write_ode_csv(path, system, traj) -> None:
    copies = system.copied_states()
    with open_output(path) as f:
        f.write(",".join(("time", *system.state_vars, *system.output_vars)) + "\r\n")
        for start in range(0, len(traj.times), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            states = [list(map(repr, col)) for col in zip(*traj.values[start:stop])]
            outputs = list(zip(*traj.outputs[start:stop]))
            columns = [list(map(repr, traj.times[start:stop])), *states]
            columns += [
                states[j] if j is not None else list(map(repr, outputs[k]))
                for k, j in enumerate(copies)
            ]
            f.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def write_report(path, report: str) -> None:
    """`check --out`'s write."""
    with open_output(path) as f:
        f.write(report)
