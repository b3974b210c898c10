"""Files are read and written as bytes: one open, one decode, one encode per
block. Each test holds the byte path to the text-mode oracle
(`tests/text_io_oracle.py`): the same projects, the same error texts and
the same output bytes."""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

import opendyn.cli as cli
import opendyn.project as project_module
from opendyn import (
    DetInterface,
    FinSet,
    OpendynError,
    ParamSignal,
    random_lens,
    rk4_solve,
    tensor_systems,
)
from opendyn.cli import main
from opendyn.deterministic import lens_matrix_rows, periodic_orbit_rows
from opendyn.project import ProjectFile, load_project, project_to_obj, save_project

import text_io_oracle as oracle
from helpers import fixture_path, wide_lens
from test_streamed_output import CSV_MARKS, JSON_MARKS, quoted_machine

FIXTURES = ["flipflop.json", "lv.json", "stoch.json", "square_ok.json", "square_broken.json"]

#: Each line break a document may use, and mixes of them.
NEWLINES = {"lf": "\n", "crlf": "\r\n", "cr": "\r", "cr-crlf": "\r\r\n", "lf-cr": "\n\r"}


def outcome(load, path):
    """What loading `path` gives: the project as JSON, or the error's class and text."""
    try:
        return "loaded", project_to_obj(load(path))
    except OpendynError as exc:
        return type(exc).__name__, str(exc)


def assert_loads_alike(path, expect: str = "loaded"):
    got = outcome(load_project, path)
    assert got == outcome(oracle.load_project, path)
    assert got[0] == expect, got
    return got


class TestReader:
    @pytest.mark.parametrize("newline", NEWLINES)
    @pytest.mark.parametrize("name", FIXTURES)
    def test_every_fixture_under_each_line_break(self, tmp_path, name, newline):
        text = Path(fixture_path(name)).read_text(encoding="utf-8")
        path = tmp_path / name
        path.write_bytes(text.replace("\n", NEWLINES[newline]).encode())
        got = assert_loads_alike(path)
        assert got == ("loaded", project_to_obj(load_project(fixture_path(name))))

    @pytest.mark.parametrize("newline", NEWLINES)
    @pytest.mark.parametrize(
        "text",
        [
            '{"version": 1,\n  "systems": oops}',
            '{"version": 1,\n  "systems": {}\n',
            '{"version": 1,\n  "sys\rtems": {}}',
            '{"version": 1,\n\n  "systems": {"x": 1,}}',
        ],
        ids=["bad-value", "unclosed", "raw-cr-in-a-string", "trailing-comma"],
    )
    def test_a_json_error_names_the_same_line_and_column(self, tmp_path, text, newline):
        path = tmp_path / "bad.json"
        path.write_bytes(text.replace("\n", NEWLINES[newline]).encode())
        kind, message = assert_loads_alike(path, "ValidationError")
        assert "invalid JSON at line " in message

    def test_a_json_error_on_line_two(self, tmp_path):
        for newline in ("\n", "\r\n", "\r"):
            path = tmp_path / "bad.json"
            path.write_bytes(f'{{"version": 1,{newline}  "systems": oops}}'.encode())
            assert assert_loads_alike(path, "ValidationError")[1] == (
                f"{path}: invalid JSON at line 2 column 14: Expecting value"
            )

    def test_a_byte_order_mark_is_refused_alike(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + Path(fixture_path("flipflop.json")).read_bytes())
        message = assert_loads_alike(path, "ValidationError")[1]
        assert "line 1 column 1: Unexpected UTF-8 BOM" in message

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_invalid_utf8_names_its_byte(self, tmp_path, newline):
        path = tmp_path / "latin1.json"
        path.write_bytes(f'{{"version": 1,{newline}"systems": {{"café": {{}}}}}}'.encode("latin-1"))
        message = assert_loads_alike(path, "FileAccessError")[1]
        assert message == f"{path}: not UTF-8 text (byte {30 + len(newline)})"

    def test_the_empty_path_is_the_current_directory(self):
        assert assert_loads_alike("", "FileAccessError")[1] == ": cannot read the file: Is a directory"

    def test_a_missing_file_and_a_directory(self, tmp_path):
        missing = tmp_path / "missing.json"
        for path in (missing, str(missing), tmp_path, str(tmp_path), f"{tmp_path}/"):
            assert_loads_alike(path, "FileAccessError")
        assert outcome(load_project, missing)[1] == f"{missing}: cannot read the file: No such file or directory"
        assert outcome(load_project, tmp_path)[1] == f"{tmp_path}: cannot read the file: Is a directory"

    def test_a_path_argument(self, tmp_path):
        path = tmp_path / "ff.json"
        path.write_bytes(Path(fixture_path("flipflop.json")).read_bytes())
        assert assert_loads_alike(path) == assert_loads_alike(str(path))

    @pytest.mark.parametrize("tail", ["/", "/.", "//", "/./"])
    def test_a_path_that_pathlib_tidies(self, tmp_path, tail):
        path = tmp_path / "ff.json"
        path.write_bytes(Path(fixture_path("flipflop.json")).read_bytes())
        assert_loads_alike(f"{path}{tail}")
        assert_loads_alike(f"{path}{tail}missing.json", "FileAccessError")

    def test_the_digest_is_of_the_bytes(self, tmp_path):
        path = tmp_path / "crlf.json"
        path.write_bytes(Path(fixture_path("lv.json")).read_bytes().replace(b"\n", b"\r\n"))
        assert cli._digest(str(path)) == oracle.digest(path)


def assert_same_bytes(tmp_path, write, write_oracle) -> bytes:
    """The bytes of the files `write(path)` and `write_oracle(path)` make, equal."""
    new, old = tmp_path / "new.out", tmp_path / "old.out"
    write(new)
    write_oracle(old)
    assert new.read_bytes() == old.read_bytes()
    return new.read_bytes()


def marked_rows(rng: random.Random, count: int) -> list[tuple]:
    marks = CSV_MARKS + JSON_MARKS
    return [
        (n, *(f"{rng.choice(marks)}{rng.choice(marks)}x{rng.choice(marks)}" for _ in range(3)))
        for n in range(count)
    ]


class TestWriters:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_write_json_of_every_fixture(self, tmp_path, name):
        obj = project_to_obj(load_project(fixture_path(name)))
        assert_same_bytes(
            tmp_path, lambda p: project_module.write_json(obj, p), lambda p: oracle.write_json(obj, p)
        )

    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_write_json_over_many_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(project_module, "_JSON_BLOCK_PARTS", block)
        rng = random.Random(block)
        obj = {
            "rows": {f"r{n}": {m: {"n": str(n), "k": n, "labels": [m, str(n)], "none": []}}
                     for n, m in enumerate(JSON_MARKS * 300)},
            "labels": [rng.choice(JSON_MARKS) + str(n) for n in range(50)],
        }
        parts: list[str] = []
        project_module._json_lines(obj, "\n", parts.append)
        assert len(parts) > 4 * 4096
        data = assert_same_bytes(
            tmp_path, lambda p: project_module.write_json(obj, p), lambda p: oracle.write_json(obj, p)
        )
        assert data == (json.dumps(obj, indent=2) + "\n").encode()

    @pytest.mark.parametrize("name, system", [("flipflop.json", "flipflop"), ("stoch.json", "chain")])
    def test_save_project_of_a_tensor(self, tmp_path, name, system):
        machine = load_project(fixture_path(name)).system(system)
        tensor = ProjectFile(systems={"t": tensor_systems(machine, machine)})
        assert_same_bytes(
            tmp_path, lambda p: save_project(tensor, p), lambda p: oracle.write_json(project_to_obj(tensor), p)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_write_json_matrix_over_many_blocks(self, tmp_path, seed):
        lens = wide_lens(seed)
        source, target, _ = lens_matrix_rows(lens, 2)
        head = {"version": 1, "lens": "w", "k": 2, "source": list(source), "target": list(target)}
        data = assert_same_bytes(
            tmp_path,
            lambda p: project_module.write_json_matrix(head, lens_matrix_rows(lens, 2)[2], len(target), p),
            lambda p: oracle.write_json_matrix(head, lens_matrix_rows(lens, 2)[2], len(target), p),
        )
        assert len(data) > 4 * project_module._BLOCK_CHARS

    @pytest.mark.parametrize(
        "rows, width",
        [([], 0), ([[]] * 3, 0), ([], 5), ([[], [0, 4], [2]], 5), ([[0]], 1)],
    )
    def test_write_json_matrix_edges(self, tmp_path, rows, width):
        head = {"version": 1, "lens": "é\"", "k": 1, "source": [], "target": []}
        data = assert_same_bytes(
            tmp_path,
            lambda p: project_module.write_json_matrix(head, rows, width, p),
            lambda p: oracle.write_json_matrix(head, rows, width, p),
        )
        dense = [[int(c in ones) for c in range(width)] for ones in rows]
        assert json.loads(data) == {**head, "matrix": dense}

    @pytest.mark.parametrize("block", [1, 50, 1 << 16])
    def test_csv_rows_with_marked_labels(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(cli, "_BLOCK_CHARS", block)
        header = ("a", "b\r\n", "c", "é")
        rows = marked_rows(random.Random(block), 2000)
        for count in (0, 1, len(rows)):
            counts = []
            assert_same_bytes(
                tmp_path,
                lambda p: counts.append(cli._write_csv(p, header, iter(rows[:count]))),
                lambda p: counts.append(oracle.write_csv(p, header, iter(rows[:count]))),
            )
            assert counts == [count, count]

    @pytest.mark.parametrize("seed", range(4))
    def test_steady_of_machines_with_marked_labels(self, tmp_path, capsys, seed):
        machine = quoted_machine(random.Random(seed), markov=seed % 2 == 1)
        project = tmp_path / "m.json"
        save_project(ProjectFile(systems={"m": machine}), project)
        for k in (1, 2, 3):
            argv, codes = ["steady", str(project), "--system", "m", "--k", str(k), "--out"], []
            assert_same_bytes(
                tmp_path,
                lambda p: codes.append(main([*argv, str(p)])),
                lambda p: oracle.write_csv(p, ("chart", "element"), periodic_orbit_rows(machine, k)),
            )
            assert codes == [0]
        capsys.readouterr()

    def test_an_ode_csv_longer_than_a_block(self, tmp_path):
        system = load_project(fixture_path("lv.json")).system("lotka_volterra")
        traj = rk4_solve(system, (2.0, 1.0), ParamSignal.constant((1.0, 0.5, 0.2, 0.4)), 0.0, 10.0, 1e-3)
        assert len(traj.times) > 2 * cli._CSV_BLOCK_ROWS
        assert_same_bytes(
            tmp_path,
            lambda p: cli._write_ode_csv(p, system, traj),
            lambda p: oracle.write_ode_csv(p, system, traj),
        )

    def test_check_out_with_a_non_ascii_path(self, tmp_path, capsys):
        folder = tmp_path / "café €"
        folder.mkdir()
        project = folder / "lv.json"
        project.write_bytes(Path(fixture_path("lv.json")).read_bytes())
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        assert main(["check", str(project), "--cases", "1", "--out", str(new)]) == 0
        report = capsys.readouterr().out
        oracle.write_report(old, report)
        assert new.read_bytes() == old.read_bytes() == report.encode()
        assert "café €" in new.read_text(encoding="utf-8")

    def test_a_lens_matrix_with_marked_labels_through_main(self, tmp_path, capsys):
        source = DetInterface(FinSet(["i\r0", "i,1"]), FinSet(['o"0', "é"]))
        target = DetInterface(FinSet(["x\n"]), FinSet(["y0", "y1", "y2"]))
        lens = random_lens(random.Random(5), source, target)
        project = tmp_path / "l.json"
        save_project(ProjectFile(lenses={"l": lens}), project)
        s, t, _ = lens_matrix_rows(lens, 3)
        head = {"version": 1, "lens": "l", "k": 3, "source": list(s), "target": list(t)}
        codes = []
        assert_same_bytes(
            tmp_path,
            lambda p: codes.append(main(["matrix", str(project), "--lens", "l", "--k", "3", "--out", str(p)])),
            lambda p: oracle.write_json_matrix(head, lens_matrix_rows(lens, 3)[2], len(t), p),
        )
        assert codes == [0]
        capsys.readouterr()

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_an_output_that_cannot_be_written(self, tmp_path, where):
        path = tmp_path / "no" / "out" if where == "missing-dir" else tmp_path
        writes = [
            (lambda p: project_module.write_json({"a": 1}, p), lambda p: oracle.write_json({"a": 1}, p)),
            (lambda p: project_module.write_json_matrix({}, [[0]], 1, p),
             lambda p: oracle.write_json_matrix({}, [[0]], 1, p)),
            (lambda p: cli._write_csv(p, ("a",), [("b",)]), lambda p: oracle.write_csv(p, ("a",), [("b",)])),
        ]
        for write, write_oracle in writes:
            with pytest.raises(OpendynError) as new:
                write(path)
            with pytest.raises(OpendynError) as old:
                write_oracle(path)
            assert str(new.value) == str(old.value)
            assert str(new.value).startswith(f"{path}: cannot write the file: ")


class Recorder:
    """An output file that records the size of each write."""

    def __init__(self, f, sizes: list):
        self.f, self.sizes = f, sizes

    def write(self, data: bytes) -> None:
        self.sizes.append(len(data))
        self.f.write(data)


def record_writes(monkeypatch) -> list[int]:
    """The sizes of the writes `open_output`'s files take, in `project` and `cli`."""
    sizes: list[int] = []
    opened = project_module.open_output

    @contextmanager
    def open_output(path):
        with opened(path) as f:
            yield Recorder(f, sizes)

    monkeypatch.setattr(project_module, "open_output", open_output)
    monkeypatch.setattr(cli, "open_output", open_output)
    return sizes


class TestBlocks:
    """A streamed output holds no more than one block and one row: each
    write but the last is one block of at least `_BLOCK_CHARS` characters,
    which the row that reached the bound ends."""

    def test_a_matrix(self, tmp_path, monkeypatch):
        lens = wide_lens(0)
        source, target, rows = lens_matrix_rows(lens, 2)
        sizes = record_writes(monkeypatch)
        project_module.write_json_matrix({"k": 2}, rows, len(target), tmp_path / "m.json")
        row = len(target) * len(project_module._CELL) + 16
        assert len(sizes) > 4
        assert all(project_module._BLOCK_CHARS <= n < project_module._BLOCK_CHARS + row for n in sizes[:-1])
        assert sum(sizes) == (tmp_path / "m.json").stat().st_size

    def test_csv_rows(self, tmp_path, monkeypatch):
        rows = [(n, "x" * (n % 50)) for n in range(20_000)]
        sizes = record_writes(monkeypatch)
        assert cli._write_csv(tmp_path / "r.csv", ("n", "x"), iter(rows)) == len(rows)
        assert len(sizes) > 4
        assert all(cli._BLOCK_CHARS <= n < cli._BLOCK_CHARS + 60 for n in sizes[:-1])
        assert sum(sizes) == (tmp_path / "r.csv").stat().st_size
