"""`cli._scan` against the full argparse parser it stands in for.

On generated command lines, every namespace `_scan` returns equals the full
parse's, and `_scan` declines every argv the full parser exits on. `_scan`
also reads every command line that the benchmark's workloads and the
README's examples run. The module needs no pytest, so that other Python
versions can run it as a script that prints its counts:

    PYTHONPATH=src python tests/test_argv_scan.py
"""

import contextlib
import io
import math
import random
import shlex
import sys
import tempfile
from pathlib import Path

import opendyn
from opendyn import cli

ROOT = Path(__file__).resolve().parent.parent
CASES = 12_000

# values of each option type: well-formed, malformed, and argparse's odd cases
VALUES = {
    int: ["0", "3", "12", "-1", "1.5", "x", "", " 2", "nan", "1_0", "--", "-"],
    float: ["0", "0.5", "1e-3", "-1e-3", "nan", "inf", "-inf", "x", "", "1_0", "--"],
    None: ["a", "p.json", "", "nan", "1,2", "-1,2", "a b", "a=b", "-", "--", "-x", "--out"],
}
GOOD = {
    int: lambda rng: str(rng.randrange(5)),
    float: lambda rng: repr(rng.uniform(0, 2)),
    None: lambda rng: rng.choice(["a", "b", "p.json", "1,2", "x y"]),
}
ODD = ["-h", "--help", "--", "-", "-1", "--bogus", "-x", "--lens", "--system=s"]
POSITIONALS = ["p.json", "p", "", "nan", "a b", "steady", "-", "-p", "--"]
PARENT_ONLY = [[], ["-h"], ["--help"], ["--"], ["bogus"], ["-x"], ["ste"], ["--", "compose"]]


def option_tokens(rng: random.Random, flag: str, kind) -> list[str]:
    """One option: exact or abbreviated, with a good or odd value, `=` or
    separated, or with its value left off."""
    if len(flag) > 3 and rng.random() < 0.06:
        flag = flag[: rng.randrange(3, len(flag))]
    value = rng.choice(VALUES[kind]) if rng.random() < 0.25 else GOOD[kind](rng)
    form = rng.random()
    if form < 0.03:
        return [flag]
    if form < 0.45:
        return [f"{flag}={value}"]
    return [flag, value]


def generate(rng: random.Random) -> list[str]:
    if rng.random() < 0.02:
        return list(rng.choice(PARENT_ONLY))
    command = rng.choice(list(cli._COMMANDS))
    groups = []
    for flag, kwargs in cli._COMMANDS[command][2]:
        if rng.random() < (0.93 if kwargs.get("required") else 0.5):
            for _ in range(2 if rng.random() < 0.04 else 1):  # now and then twice
                groups.append(option_tokens(rng, flag, kwargs.get("type")))
    if rng.random() < 0.5:
        rng.shuffle(groups)
    if rng.random() < 0.06:
        groups.insert(rng.randint(0, len(groups)), [rng.choice(ODD)])
    for _ in range(rng.choices([0, 1, 2], weights=[3, 94, 3])[0]):
        at = 0 if rng.random() < 0.8 else rng.randint(0, len(groups))
        groups.insert(at, [rng.choice(POSITIONALS) if rng.random() < 0.2 else "p.json"])
    return [command, *(token for group in groups for token in group)]


def full_parse(parser, argv: list[str]):
    """vars() of the full parser's namespace, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def same(a: dict, b: dict) -> bool:
    """Equal keys, and values of one type that are equal or both NaN."""
    return a.keys() == b.keys() and all(
        type(a[k]) is type(b[k])
        and (a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k]) and math.isnan(b[k])))
        for k in a
    )


def differential(cases: int = CASES, seed: int = 0) -> dict[str, int]:
    """Counts of generated argvs `_scan` accepted, declined while the full
    parser read them, and declined while the full parser exited."""
    parser = cli.build_parser()
    rng = random.Random(seed)
    counts = {"accepted": 0, "declined": 0, "exited": 0}
    for _ in range(cases):
        argv = generate(rng)
        scanned = cli._scan(argv)
        full = full_parse(parser, argv)
        if scanned is not None:
            assert full is not None and same(vars(scanned), full), argv
            counts["accepted"] += 1
        else:
            counts["declined" if full is not None else "exited"] += 1
    return counts


def workload_argvs(tmp: Path) -> list[list[str]]:
    """What each `wire` and `simulate` op of a seed-0 plan passes to `cli.main`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    argvs = []
    for workload in (workloads.WireWorkload, workloads.SimulateWorkload):
        w = workload(opendyn, 0, tmp)
        w.cli = argvs.append
        for op in w.plan(300):
            if op[0] != "ode_suite":  # calls `laws` directly, not the CLI
                w.execute(op)
    return argvs


def readme_argvs() -> list[list[str]]:
    """The command lines of the README's CLI examples."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


def check_usual_argvs(tmp: Path) -> int:
    parser = cli.build_parser()
    argvs = workload_argvs(tmp) + readme_argvs()
    for argv in argvs:
        scanned = cli._scan(argv)
        assert scanned is not None, argv
        assert same(vars(scanned), full_parse(parser, argv)), argv
    return len(argvs)


def test_scan_agrees_with_the_full_parse():
    counts = differential()
    assert counts["accepted"] >= CASES // 5
    assert counts["exited"] >= CASES // 5


def test_a_string_default_goes_through_type(monkeypatch):
    # no listed option has one yet; argparse converts it, and so must `_scan`
    help_text, func, options = cli._COMMANDS["steady"]
    every = ("--every", {"type": int, "default": "2"})
    monkeypatch.setitem(cli._COMMANDS, "steady", (help_text, func, (*options, every)))
    argv = ["steady", "p", "--system", "s", "--out", "o"]
    scanned = vars(cli._scan(argv))
    assert scanned["every"] == 2
    assert same(scanned, full_parse(cli.build_parser(), argv))


def test_scan_reads_every_benchmark_and_readme_command_line(tmp_path):
    assert check_usual_argvs(tmp_path) > 500


if __name__ == "__main__":
    counts = differential()
    with tempfile.TemporaryDirectory() as tmp:
        usual = check_usual_argvs(Path(tmp))
    print(f"Python {sys.version.split()[0]}: {CASES} generated argvs, {counts}; "
          f"{usual} workload and README argvs all scanned")
