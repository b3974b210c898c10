"""`steady` and `matrix` stream their rows into the file; their bytes against
the whole-list writers they replaced.

`steady` is compared with `csv.writer` over the list `periodic_orbits`
returns, and `matrix` with `json.dumps(..., indent=2)` of the dense span's
matrix (`tests/dense_oracle.py`), on the fixtures and on seeded machines and
lenses whose labels csv must quote or JSON must escape.
"""

import csv
import io
import json
import random

import pytest

from opendyn import (
    DetInterface,
    DetLens,
    DetSystem,
    Dist,
    FinMap,
    FinSet,
    Machine,
    StochSystem,
    ValidationError,
    load_project,
    random_lens,
    span_to_matrix,
    walking_cycle,
)
from opendyn.cli import main
from opendyn.project import ProjectFile, save_project

from dense_oracle import dense_lens_to_span
from helpers import fixture_path, periodic_orbits, random_dist

FIXTURES = ["flipflop.json", "lv.json", "stoch.json", "square_ok.json", "square_broken.json"]

#: Marks put into labels: csv quotes a field with a comma, a quote or a line
#: break; JSON escapes a quote, a backslash, control and non-ASCII characters.
CSV_MARKS = [",", '"', "\n", "\r", " ", ""]
JSON_MARKS = ['"', "\\", "\x00", "/", "é", "€", "\U0001f600", ""]


def marked(rng: random.Random, prefix: str, count: int, marks: list[str]) -> FinSet:
    return FinSet(f"{prefix}{rng.choice(marks)}{n}" for n in range(count))


def quoted_machine(rng: random.Random, markov: bool) -> Machine:
    """A machine of 1 to 4 states whose labels csv must often quote; a Markov
    machine's cells are point distributions half the time."""
    iface = DetInterface(
        marked(rng, "i", rng.randint(1, 3), CSV_MARKS), marked(rng, "o", rng.randint(1, 3), CSV_MARKS)
    )
    states = marked(rng, "s", rng.randint(1, 4), CSV_MARKS)
    readout = FinMap(states, iface.outputs, {s: rng.choice(iface.outputs.elements) for s in states})
    if not markov:
        update = {s: {i: rng.choice(states.elements) for i in iface.inputs} for s in states}
        return DetSystem(states, iface, readout, update)
    update = {
        s: {
            i: Dist.dirac(states, rng.choice(states.elements))
            if rng.random() < 0.5
            else random_dist(rng, states)
            for i in iface.inputs
        }
        for s in states
    }
    return StochSystem(states, iface, readout, update)


def csv_bytes(rows) -> bytes:
    """What `opendyn steady` wrote before it streamed: the whole list of rows
    through `csv.writer`."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(("chart", "element"))
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def assert_steady_bytes(project, name: str, machine: Machine, k: int, tmp_path, capsys) -> None:
    out = tmp_path / "steady.csv"
    argv = ["steady", str(project), "--system", name, "--k", str(k), "--out", str(out)]
    try:
        rows = periodic_orbits(machine, k)
    except ValidationError:  # past a walk bound: refused alike, with no file
        assert main(argv) == 2
        assert not out.exists()
        return
    assert main(argv) == 0
    assert out.read_bytes() == csv_bytes(rows), (name, k)
    assert capsys.readouterr().out == f"wrote {out} ({len(rows)} rows)\n"
    out.unlink()


class TestStreamedSteadyBytes:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_fixtures_at_periods_one_to_eight(self, fixture, tmp_path, capsys):
        project = fixture_path(fixture)
        machines = {n: s for n, s in load_project(project).systems.items() if isinstance(s, Machine)}
        for name, machine in machines.items():
            for k in range(1, 9):
                assert_steady_bytes(project, name, machine, k, tmp_path, capsys)

    def test_seeded_machines_with_quoted_labels(self, tmp_path, capsys):
        rng = random.Random(22)
        machines = {f"m{n}": quoted_machine(rng, markov=n % 2 == 1) for n in range(12)}
        project = tmp_path / "machines.json"
        save_project(ProjectFile(systems=machines), project)
        quoted = 0
        for name, machine in machines.items():
            for k in range(1, 9):
                assert_steady_bytes(project, name, machine, k, tmp_path, capsys)
            rows = csv_bytes(periodic_orbits(machine, 1)).split(b"\r\n", 1)[1]
            quoted += b'"' in rows
        assert quoted >= 6  # most machines wrote a quoted field
        assert {type(m) for m in machines.values()} == {DetSystem, StochSystem}


def escaped_lens(rng: random.Random):
    """A lens between interfaces of 0 to 2 inputs and 0 to 2 outputs whose
    labels JSON must often escape, drawn so that fwd and bwd exist."""
    n_out, new_in = rng.randint(0, 2), rng.randint(0, 2)
    new_out, n_in = rng.randint(1 if n_out else 0, 2), rng.randint(1 if n_out and new_in else 0, 2)

    def iface(tag: str, inputs: int, outputs: int) -> DetInterface:
        return DetInterface(marked(rng, f"{tag}i", inputs, JSON_MARKS),
                            marked(rng, f"{tag}o", outputs, JSON_MARKS))

    return random_lens(rng, iface("", n_in, n_out), iface("t", new_in, new_out))


def dense_matrix_bytes(lens, name: str, k: int) -> bytes:
    span = dense_lens_to_span(lens, walking_cycle(k).interface)
    obj = {
        "version": 1,
        "lens": name,
        "k": k,
        "source": list(span.source),
        "target": list(span.target),
        "matrix": span_to_matrix(span),
    }
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


class TestStreamedMatrixBytes:
    def test_fixture_lenses_at_periods_one_to_three(self, tmp_path):
        out = tmp_path / "matrix.json"
        for fixture in FIXTURES:
            project = fixture_path(fixture)
            for name, lens in load_project(project).lenses.items():
                if not isinstance(lens, DetLens):  # an ODE lens has no matrix
                    continue
                for k in (1, 2, 3):
                    argv = ["matrix", project, "--lens", name, "--k", str(k), "--out", str(out)]
                    assert main(argv) == 0
                    assert out.read_bytes() == dense_matrix_bytes(lens, name, k), (fixture, name, k)

    def test_seeded_lenses_with_escaped_labels(self, tmp_path):
        rng = random.Random(22)
        lenses = {f'l"{n}\\é': escaped_lens(rng) for n in range(40)}
        project = tmp_path / "lenses.json"
        save_project(ProjectFile(lenses=lenses), project)
        out = tmp_path / "matrix.json"
        shapes = set()
        for name, lens in lenses.items():
            for k in (1, 2, 3):
                argv = ["matrix", str(project), "--lens", name, "--k", str(k), "--out", str(out)]
                assert main(argv) == 0
                assert out.read_bytes() == dense_matrix_bytes(lens, name, k), (name, k)
            shapes.add((len(lens.source.inputs) * len(lens.source.outputs) > 0,
                        len(lens.target.inputs) * len(lens.target.outputs) > 0))
        assert shapes == {(True, True), (True, False), (False, True), (False, False)}
