"""Run the mutant catalogue: each mutant is one small fault put into a copy of
the repository, and the tests named with it must fail on that copy.

    python3 tools/mutants.py

A mutant (`Mutant`) has a name, a file, an old text that occurs exactly once
in that file, the new text that replaces it, and the pytest ids of the tests
expected to catch it; those tests pass on the tree as it is. For each
mutant of `CATALOGUE` the tool copies the repository, without `.git`,
`__pycache__`, `BENCH_*.json` and the test tools' caches, into a temporary
directory, applies the mutant there, and runs its tests with
`python -m pytest -x`. It prints one line per mutant:

- `caught`: a named test failed; the line names the first one;
- `missed`: every named test passed;
- `error`: pytest could not run the tests (a collection error, an unknown
  id) or ran past `TIMEOUT` seconds;

each with its wall time, and a total at the end. It exits 1 if any mutant
is not caught, and 2, before running any, if an old text does not occur
exactly once. It never writes into the repository. Stdlib only.

A claim that a test catches a fault goes into the catalogue, so that it can
be run again after a refactor; `tests/test_mutants.py` checks, with no
subprocess, that every old text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one mutant's tests may run before it counts as an error.
TIMEOUT = 600

#: What the copy leaves out: history, bytecode, benchmark records, caches.
SKIPPED = (".git", "__pycache__", "BENCH_*.json", ".pytest_cache", ".hypothesis", ".perfbench_run")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in `file`
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


DET = "src/opendyn/deterministic.py"
FINSET = "src/opendyn/finset.py"
ODE = "src/opendyn/ode.py"
RECORD = "src/opendyn/record.py"
STOCH = "src/opendyn/stochastic.py"

CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_orbits_compose_by_matrix_arithmetic"
CYCLE_COUNTS = "tests/test_cycle_counts.py"
CYCLE_KEY = "counts[j].update(zip(*[compress(col, closed) for col in cols[2:]]))"
BLOCKS = "tests/test_block_functoriality.py"
DENSE_TENSOR = "tests/test_finset.py::TestTensorSpans::test_two_factors_equal_the_dense_tensor"

CATALOGUE = (
    Mutant(
        "compose_lens_system reads bwd at the first output",
        DET,
        "{i2: row[a] for i2, a in bwd[readout[s]].items()}",
        "{i2: row[a] for i2, a in bwd[next(iter(bwd))].items()}",
        (CRITERION_1,),
    ),
    Mutant(
        "_lens_step's right leg reads a fixed input",
        DET,
        "(fwd[o], i2)) for o, row in lens.bwd.items()",
        "(fwd[o], t.inputs.elements[0])) for o, row in lens.bwd.items()",
        (CRITERION_1,),
    ),
    Mutant(
        "_cycle_counts drops each period's first closed row",
        DET,
        CYCLE_KEY,
        "counts[j].update(list(zip(*[compress(col, closed) for col in cols[2:]]))[1:])",
        (CRITERION_1, CYCLE_COUNTS),
    ),
    Mutant(
        "_cycle_counts counts closures only at the top period",
        DET,
        "            if True in closed:\n",
        "            if True in closed and j + 1 == top:\n",
        (CYCLE_COUNTS,),
    ),
    Mutant(
        "_cycle_counts leaves the word's last input out of the key",
        DET,
        CYCLE_KEY,
        "counts[j].update(zip(*[compress(col, closed) for col in cols[2:-1]]))",
        (CYCLE_COUNTS,),
    ),
    Mutant(
        "_cycle_counts swaps a chart's last output and input",
        DET,
        CYCLE_KEY,
        "counts[j].update(zip(*[compress(col, closed) for col in cols[2:-2] + cols[:-3:-1]]))",
        (CYCLE_COUNTS,),
    ),
    Mutant(
        "Record.__eq__ compares with != and no identity check",
        RECORD,
        "if mine is not theirs and not mine == theirs:",
        "if mine != theirs:",
        ("tests/test_value_eq.py",),
    ),
    Mutant(
        "Record.__eq__ checks only that the other is a Record",
        RECORD,
        "if other.__class__ is not self.__class__:",
        "if not isinstance(other, Record):",
        ("tests/test_value_eq.py",),
    ),
    Mutant(
        "_grid_blocks drops each block's end boundary row",
        ODE,
        "yield _grid_slice(t0, t1, h, start, min(start + _BLOCK_STEPS, length - 1) + 1)",
        "yield _grid_slice(t0, t1, h, start, min(start + _BLOCK_STEPS, length - 1))",
        (f"{BLOCKS}::test_a_perturbed_composite_matches_the_whole_run",
         f"{BLOCKS}::test_the_worst_deviation_in_a_later_block"),
    ),
    Mutant(
        "check_solve_functoriality raises a live error at once",
        ODE,
        "held = exc  # raised only once the composed run has ended cleanly",
        "raise",
        (
            f"{BLOCKS}::test_a_composed_blow_up_in_block_3_wins_over_a_live_error_in_block_1",
            f"{BLOCKS}::test_a_composed_readout_error_wins_over_a_live_error",
            f"{BLOCKS}::test_a_composed_readout_error_at_the_last_row_wins_over_a_live_error",
        ),
    ),
    Mutant(
        "a span's right-key table keeps only the first right key",
        FINSET,
        "rights = {v: [w for _, _, w in elements] for v, elements in over.items()}",
        "rights = {v: [elements[0][2]] for v, elements in over.items()}",
        ("tests/test_push_table.py",),
    ),
    Mutant(
        "Span._push counts 1 per key",
        FINSET,
        "pushed[key2] = get(key2, 0) + n",
        "pushed[key2] = get(key2, 0) + 1",
        ("tests/test_push_table.py", CRITERION_1),
    ),
    Mutant(
        "Span._over leaves its elements unsorted",
        FINSET,
        "        elements.sort()\n",
        "",
        (DENSE_TENSOR,),
    ),
    Mutant(
        "tensor_spans lists the targets' alphabets in reverse",
        FINSET,
        "span.target = ProductSet([a for s in spans for a in _alphabets(s.target)])",
        "span.target = ProductSet([a for s in spans[::-1] for a in _alphabets(s.target)])",
        (DENSE_TENSOR,),
    ),
    Mutant(
        "Span._ones takes the Kronecker place values in reverse",
        FINSET,
        "for digits in product(*reversed(places)):",
        "for digits in product(*places):",
        (DENSE_TENSOR,),
    ),
    Mutant(
        "Family equality compares the bases only",
        FINSET,
        "self.base == other.base and self.labels() == other.labels()",
        "self.base == other.base",
        ("tests/test_orbit_walk.py::TestFamilyLabels"
         "::test_sparse_families_read_and_compare_as_the_dense_ones",),
    ),
    Mutant(
        "compose_charts reads the second push at the first output",
        DET,
        "{i: push2[fwd[o]][a] for i, a in row.items()}",
        "{i: push2[next(iter(push2))][a] for i, a in row.items()}",
        ("tests/test_deterministic.py::TestSquares::test_horizontal_pasting_preserves_commuting",),
    ),
    Mutant(
        "check_square compares no inputs",
        DET,
        "via_top, via_bottom = pushed[back[a3]], pulled[i4]",
        "via_top = via_bottom = pulled[i4]",
        ("tests/test_deterministic.py::TestSquares::test_mutations_are_caught_with_a_witness",),
    ),
    Mutant(
        "a Markov draw breaks a tie at a cumulative boundary downward",
        STOCH,
        "if cum * b > bound:",
        "if cum * b >= bound:",
        ("tests/test_fraction_arithmetic.py::TestSample::test_cumulative_boundaries_break_ties_upward",),
    ),
    Mutant(
        "a project's Markov cell is accepted whatever its weights sum to",
        STOCH,
        "    if num != den:\n        return None\n",
        "",
        ("tests/test_accept_pass.py::test_mutated_fixtures",),
    ),
)


def stale(mutant: Mutant) -> str:
    """Why the mutant cannot be applied to the tree, or "" when its old text
    occurs exactly once in its file."""
    found = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
    return "" if found == 1 else f"{mutant.name}: the old text occurs {found} times in {mutant.file}"


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply the mutant to a fresh copy and run its tests: the status, and
    the first failing test or what went wrong."""
    with tempfile.TemporaryDirectory(prefix="opendyn-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*SKIPPED))
        path = copy / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                   *mutant.tests]
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "error", f"timed out after {TIMEOUT} s"
    lines = done.stdout.splitlines()
    first = next((line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))), "")
    if done.returncode in (0, 1):  # pytest: all passed, or a test failed
        return ("missed", "caught")[done.returncode], first
    return "error", first or f"pytest exited {done.returncode}: {(lines or [''])[-1]}"


def main() -> int:
    problems = [problem for problem in map(stale, CATALOGUE) if problem]
    if problems:  # refused before any mutant runs
        print("\n".join(problems), file=sys.stderr)
        return 2
    caught, start = 0, time.perf_counter()
    for mutant in CATALOGUE:
        began = time.perf_counter()
        status, first = run(mutant)
        caught += status == "caught"
        shown = f"  [{first}]" if first else ""
        print(f"{status:<7} {time.perf_counter() - began:6.1f} s  {mutant.name}{shown}", flush=True)
    print(f"{caught} of {len(CATALOGUE)} mutants caught in {time.perf_counter() - start:.1f} s")
    return 0 if caught == len(CATALOGUE) else 1


if __name__ == "__main__":
    sys.exit(main())
