"""Command-line driver: wire, enumerate, simulate, and check project files.

Subcommands: compose, tensor, steady, matrix, simulate, check. All outputs
are deterministic for a fixed invocation (no timestamps, seeded randomness,
canonical float and JSON formatting), so repeated runs are byte-identical.
Every refusal comes before an output file is opened, so a refused command
leaves an existing file as it was. Exit codes: 0 success, 1 a check reported
a failure, 2 usage or validation problems, a project file that cannot be
read or an output file that cannot be written; each names the path.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .deterministic import (
    DetLens,
    DetSquare,
    Machine,
    _matrix_theorem,
    check_square,
    lens_matrix_rows,
    periodic_orbit_rows,
    simulate_system,
    tensor_systems,
    compose_lens_system,
)
from .errors import OpendynError, ValidationError
from .laws import (
    lens_law_suite,
    matrix_suite,
    ode_functoriality_suite,
    square_suite,
    SuiteResult,
)
from .ode import (
    OdeLens, OdeSystem, ParamSignal, Trajectory, compose_lens_ode, rk4_solve, tensor_ode
)
from .project import (
    _BLOCK_CHARS,
    DOCTRINE_ODE,
    ProjectFile,
    doctrine_of,
    load_project,
    open_output,
    read_bytes,
    save_project,
    write_json_matrix,
)

if TYPE_CHECKING:
    import argparse


def _write_csv(path: str, header: Sequence[str], rows) -> int:
    """Write the header and each row as it comes through `csv.writer`, into
    text that is encoded and written a block of `_BLOCK_CHARS` characters at
    a time; the number of rows."""
    count = 0
    text = io.StringIO()  # newline="\n" keeps the rows' "\r\n" and, unlike "", scans no write
    writer = csv.writer(text)
    writer.writerow(header)
    with open_output(path) as f:
        for count, row in enumerate(rows, 1):
            writer.writerow(row)
            if text.tell() >= _BLOCK_CHARS:
                f.write(text.getvalue().encode())
                text.seek(0)
                text.truncate()
        f.write(text.getvalue().encode())
    return count


#: Rows of an ODE trajectory that `simulate` formats and writes at a time.
_CSV_BLOCK_ROWS = 4096


def _write_ode_csv(path: str, system: OdeSystem, traj: Trajectory) -> None:
    """Write the trajectory's bytes as `csv.writer` would: identifiers are
    never quoted, a float is its repr, and a row ends in "\r\n".

    A block of rows at a time is transposed into columns, and each column's
    floats are formatted in one pass; an output that copies a state takes
    that state's text, since it holds the same floats. A block is one write."""
    copies = system.copied_states()
    with open_output(path) as f:
        f.write((",".join(("time", *system.state_vars, *system.output_vars)) + "\r\n").encode())
        for start in range(0, len(traj.times), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            states = [list(map(repr, col)) for col in zip(*traj.values[start:stop])]
            outputs = list(zip(*traj.outputs[start:stop]))
            columns = [list(map(repr, traj.times[start:stop])), *states]
            columns += [
                states[j] if j is not None else list(map(repr, outputs[k]))
                for k, j in enumerate(copies)
            ]
            f.write(("\r\n".join(map(",".join, zip(*columns))) + "\r\n").encode())


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    if text == "":
        return ()
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated numbers, got {text!r}")


def _check_count(flag: str, values: Sequence[float], names: Sequence[str]) -> None:
    if len(values) != len(names):
        listed = f" ({', '.join(names)})" if names else ""
        raise ValidationError(
            f"{flag}: expected {len(names)} value{'s' * (len(names) != 1)}{listed}, "
            f"got {len(values)}"
        )


def _parse_word(text: str) -> list[str]:
    return text.split(",") if text else []


def cmd_compose(args) -> int:
    project = load_project(args.project)
    lens = project.lens(args.lens)
    sys_entry = project.system(args.system)
    if isinstance(lens, DetLens) and isinstance(sys_entry, Machine):
        composed = compose_lens_system(lens, sys_entry)
    elif isinstance(lens, OdeLens) and isinstance(sys_entry, OdeSystem):
        composed = compose_lens_ode(lens, sys_entry)
    else:
        raise ValidationError(
            f"cannot apply a {doctrine_of(lens)} lens to a {doctrine_of(sys_entry)} system"
        )
    name = args.name or f"{args.system}_{args.lens}"
    save_project(ProjectFile(systems={name: composed}), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_tensor(args) -> int:
    project = load_project(args.project)
    a = project.system(args.a)
    b = project.system(args.b)
    kind_a, kind_b = doctrine_of(a), doctrine_of(b)
    if kind_a != kind_b:
        raise ValidationError(f"cannot tensor a {kind_a} system with a {kind_b} system")
    combined = tensor_ode(a, b) if kind_a == DOCTRINE_ODE else tensor_systems(a, b)
    name = args.name or f"{args.a}_{args.b}"
    save_project(ProjectFile(systems={name: combined}), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_steady(args) -> int:
    project = load_project(args.project)
    sys_entry = project.system(args.system)
    if not isinstance(sys_entry, Machine):
        raise ValidationError(
            f"steady enumeration needs a finite-state system, got {doctrine_of(sys_entry)}"
        )
    rows = periodic_orbit_rows(sys_entry, args.k)  # refuses an unbounded walk first
    count = _write_csv(args.out, ("chart", "element"), rows)
    print(f"wrote {args.out} ({count} rows)")
    return 0


def cmd_matrix(args) -> int:
    project = load_project(args.project)
    lens = project.lens(args.lens)
    if not isinstance(lens, DetLens):
        raise ValidationError(
            f"matrix dump needs a deterministic lens, got {doctrine_of(lens)}"
        )
    source, target, rows = lens_matrix_rows(lens, args.k)  # refuses an oversized matrix first
    head = {"version": 1, "lens": args.lens, "k": args.k, "source": list(source),
            "target": list(target)}
    write_json_matrix(head, rows, len(target), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_simulate(args) -> int:
    project = load_project(args.project)
    sys_entry = project.system(args.system)
    if isinstance(sys_entry, OdeSystem):
        if args.init is None or args.t1 is None:
            raise ValidationError("ode simulation needs --init and --t1")
        init = _parse_floats(args.init, "--init")
        params = _parse_floats(args.params, "--params")
        _check_count("--init", init, sys_entry.state_vars)
        _check_count("--params", params, sys_entry.param_vars)
        signal = ParamSignal.constant(params)
        # every integration and readout failure is raised here, before the file is opened
        traj = rk4_solve(sys_entry, init, signal, args.t0, args.t1, args.h)
        _write_ode_csv(args.out, sys_entry, traj)
        print(f"wrote {args.out} ({len(traj.times)} rows)")
        return 0
    else:
        if args.start is None:
            raise ValidationError("finite-state simulation needs --start")
        word = _parse_word(args.word)
        states = simulate_system(sys_entry, args.start, word, args.seed)
        header = ("step", "input", "state", "output")
        rows = [
            (step, inp, state, sys_entry.readout(state))
            for step, (inp, state) in enumerate(zip(["", *word], states))
        ]
    count = _write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({count} rows)")
    return 0


def _digest(path: str) -> str:
    import hashlib  # here, not at the top: only `check` needs it

    return hashlib.sha256(read_bytes(path)).hexdigest()


def _project_square_scan(project: ProjectFile) -> SuiteResult:
    """Check every square assembled from named charts and lenses whose
    corners fit together."""
    det_lenses = {n: l for n, l in project.lenses.items() if isinstance(l, DetLens)}
    checked = 0
    for tn, top in project.charts.items():
        for bn, bottom in project.charts.items():
            for ln, left in det_lenses.items():
                if left.source != top.source or left.target != bottom.source:
                    continue
                for rn, right in det_lenses.items():
                    if right.source != top.target or right.target != bottom.target:
                        continue
                    checked += 1
                    verdict = check_square(DetSquare(top, bottom, left, right))
                    if not verdict.holds:
                        return SuiteResult(
                            "project-squares",
                            False,
                            checked,
                            f"square(top={tn}, bottom={bn}, left={ln}, right={rn}): "
                            f"{verdict.reason}",
                        )
    return SuiteResult("project-squares", True, checked)


def _project_matrix_scan(project: ProjectFile) -> SuiteResult:
    """Run the composition theorem on every matching lens/system pair."""
    checked = 0
    for ln, lens in project.lenses.items():
        if not isinstance(lens, DetLens):
            continue
        for sn, sys_entry in project.systems.items():
            if not isinstance(sys_entry, Machine) or lens.source != sys_entry.interface:
                continue
            checked += 1
            at = _matrix_theorem(lens, sys_entry)
            for k in (1, 2):
                try:
                    match = at(k)
                except ValidationError as exc:
                    raise ValidationError(f"lens {ln!r} on system {sn!r}, k={k}: {exc}") from None
                if not match:
                    return SuiteResult(
                        "project-matrix",
                        False,
                        checked,
                        f"lens {ln!r} on system {sn!r}, k={k}: {match.mismatch}",
                    )
    return SuiteResult("project-matrix", True, checked)


def cmd_check(args) -> int:
    project = load_project(args.project)
    if args.cases < 0:
        raise ValidationError(f"--cases must be nonnegative, got {args.cases}")
    if not 0 <= args.tol < math.inf:  # also refuses NaN, which compares false
        raise ValidationError(f"--tol must be finite and nonnegative, got {args.tol!r}")
    lines = [
        "opendyn check report",
        f"command: check {args.project} --seed {args.seed} --cases {args.cases} --tol {args.tol!r}",
        f"input: {args.project} sha256={_digest(args.project)}",
    ]
    results = [
        lens_law_suite(args.seed, args.cases),
        square_suite(args.seed, args.cases),
        matrix_suite(args.seed, args.cases),
        ode_functoriality_suite(args.seed, args.tol),
        _project_square_scan(project),
        _project_matrix_scan(project),
    ]
    for r in results:
        if r.passed:
            lines.append(f"PASS {r.name}: {r.cases} cases")
        else:
            lines.append(f"FAIL {r.name}: {r.detail}")
    good = sum(1 for r in results if r.passed)
    overall = "PASS" if good == len(results) else "FAIL"
    lines.append(f"result: {overall} ({good}/{len(results)} suites)")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        with open_output(args.out) as f:
            f.write(report.encode())
    return 0 if overall == "PASS" else 1


_REQUIRED = {"required": True}
_K = {"type": int, "default": 1}

# One spec per subcommand: name -> (help, handler, options after `project`).
_COMMANDS = {
    "compose": ("apply a lens to a system and write the result", cmd_compose, (
        ("--lens", _REQUIRED),
        ("--system", _REQUIRED),
        ("--out", _REQUIRED),
        ("--name", {"help": "name of the composed system (default <system>_<lens>)"}),
    )),
    "tensor": ("put two same-doctrine systems side by side", cmd_tensor, (
        ("--a", _REQUIRED),
        ("--b", _REQUIRED),
        ("--out", _REQUIRED),
        ("--name", {"help": "name of the combined system (default <a>_<b>)"}),
    )),
    "steady": ("enumerate steady states or period-k orbits as CSV", cmd_steady, (
        ("--system", _REQUIRED),
        ("--k", _K),
        ("--out", _REQUIRED),
    )),
    "matrix": ("dump a lens's chart-set span as a counting matrix", cmd_matrix, (
        ("--lens", _REQUIRED),
        ("--k", _K),
        ("--out", _REQUIRED),
    )),
    "simulate": ("run a system and write the trace as CSV", cmd_simulate, (
        ("--system", _REQUIRED),
        ("--out", _REQUIRED),
        ("--init", {"help": "ode: comma-separated initial state values"}),
        ("--params", {"default": "", "help": "ode: comma-separated parameter values"}),
        ("--t0", {"type": float, "default": 0.0}),
        ("--t1", {"type": float}),
        ("--h", {"type": float, "default": 1e-3}),
        ("--start", {"help": "deterministic/stochastic: start state"}),
        ("--word", {"default": "", "help": "comma-separated input labels"}),
        ("--seed", {"type": int, "default": 0}),
    )),
    "check": ("run law suites and project checks, report pass/fail", cmd_check, (
        ("--seed", {"type": int, "default": 0}),
        ("--cases", {"type": int, "default": 200}),
        ("--tol", {"type": float, "default": 1e-9}),
        ("--out", {"help": "also write the report to this file"}),
    )),
}


def _dest(flag: str) -> str:
    """The attribute argparse stores an argument under."""
    return flag.lstrip("-").replace("-", "_")


def _scan(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace `build_parser().parse_args(argv)` returns, for an argv
    of the common shape, or None for any other.

    That shape is a command name, one positional that starts with no `-`,
    and options each given at most once, spelled exactly as listed, as
    `--flag=value` or `--flag value` with a value that starts with no `-`;
    no value is `--`, every required option is there, and every `type`
    takes its value. An absent option takes its default, a string default
    through `type`, as argparse does. Help, errors, abbreviated flags and a
    separated value such as `-1` are left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    spec = dict(options)
    given = {}
    project = None
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if project is not None:
                return None
            project = token
            continue
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        if flag not in spec or flag in given or value == "--":
            return None
        given[flag] = value
    if project is None:
        return None
    args = SimpleNamespace(command=argv[0], project=project, func=func)
    for flag, kwargs in options:
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        else:
            value = kwargs.get("default")
        convert = kwargs.get("type")
        if convert is not None and isinstance(value, str):
            try:
                value = convert(value)
            except ValueError:
                return None
        setattr(args, _dest(flag), value)
    return args


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand, built from `_COMMANDS`.

    `main` builds it only for an argv that `_scan` declines: help, a usage
    error or an unusual form, each of which it prints and parses as it
    always has; and tests hold `_scan` to it."""
    import argparse  # here, not at the top: a well-formed argv never needs it

    parser = argparse.ArgumentParser(
        prog="opendyn",
        description="Compose, enumerate, simulate, and check open dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("project")
        for flag, kwargs in options:
            if "type" in kwargs:
                kwargs = {**kwargs, "type": _passing_dashes(kwargs["type"])}
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _passing_dashes(convert: Callable[[str], object]) -> Callable[[str], object]:
    """`convert`, handing a `--` value back as it is, for `main` to refuse:
    Python 3.13's argparse converts the value of `--k=--`, where 3.10-3.12
    store []. Its name stays `convert`'s, which argparse's errors print."""

    def typed(value: str) -> object:
        return value if value == "--" else convert(value)

    typed.__name__ = convert.__name__
    return typed


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _scan(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        # argparse takes the `--` out of `--out=--` and stores [] (3.13 keeps "--")
        for flag, _ in _COMMANDS[args.command][2]:
            value = getattr(args, _dest(flag))
            if isinstance(value, list) or value == "--":
                parser.error(f"argument {flag}: expected one argument, got '--'")
    try:
        return args.func(args)
    except OpendynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
