"""Command-line driver: wire, enumerate, simulate, and check project files.

Subcommands: compose, tensor, steady, matrix, simulate, check. All outputs
are deterministic for a fixed invocation (no timestamps, seeded randomness,
canonical float and JSON formatting), so repeated runs are byte-identical.
`matrix` output and the projects `compose` and `tensor` write are the bytes
of `json.dumps(obj, indent=2)` plus a newline, from one writer,
`project.write_json`. `matrix` refuses a span whose matrix would have more than
`deterministic.MAX_MATRIX_ENTRIES` entries before building anything of size k,
and `steady` and `check`'s project scan an orbit walk of more than
`deterministic.MAX_WALK` tuples or `deterministic.MAX_SLOTS` slots; all three
refuse a period past `deterministic.MAX_PERIOD`.
`steady`, `simulate` and `check`'s project scan run one code path for a
deterministic and a Markov machine alike; an ODE system cannot be `steady`.
Exit codes: 0 success, 1 a check reported a failure, 2 usage or validation
problems, a project file that cannot be read (missing, a directory, not
UTF-8) or an output file that cannot be written; each names the path.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from .deterministic import (
    DetLens,
    DetSquare,
    Machine,
    check_matrix_theorem,
    check_square,
    lens_matrix,
    periodic_orbits,
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
from .ode import OdeLens, OdeSystem, ParamSignal, compose_lens_ode, rk4_solve, tensor_ode
from .project import (
    DOCTRINE_ODE,
    ProjectFile,
    doctrine_of,
    load_project,
    open_output,
    save_project,
    write_json,
)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open_output(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    if text == "":
        return ()
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated numbers, got {text!r}")


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
    rows = periodic_orbits(sys_entry, args.k)
    _write_csv(args.out, ("chart", "element"), rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_matrix(args) -> int:
    project = load_project(args.project)
    lens = project.lens(args.lens)
    if not isinstance(lens, DetLens):
        raise ValidationError(
            f"matrix dump needs a deterministic lens, got {doctrine_of(lens)}"
        )
    source, target, matrix = lens_matrix(lens, args.k)
    obj = {
        "version": 1,
        "lens": args.lens,
        "k": args.k,
        "source": list(source),
        "target": list(target),
        "matrix": matrix,
    }
    write_json(obj, args.out)
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
        signal = ParamSignal.constant(params)
        traj = rk4_solve(sys_entry, init, signal, args.t0, args.t1, args.h)
        header = ("time", *sys_entry.state_vars, *sys_entry.output_vars)
        # csv writes a float as str(x), which is repr(x): the shortest round trip
        rows = [
            (t, *vals, *outs) for t, vals, outs in zip(traj.times, traj.values, traj.outputs)
        ]
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
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
            for k in (1, 2):
                try:
                    match = check_matrix_theorem(lens, sys_entry, k)
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
            f.write(report)
    return 0 if overall == "PASS" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opendyn",
        description="Compose, enumerate, simulate, and check open dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="apply a lens to a system and write the result")
    p.add_argument("project")
    p.add_argument("--lens", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", help="name of the composed system (default <system>_<lens>)")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("tensor", help="put two same-doctrine systems side by side")
    p.add_argument("project")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", help="name of the combined system (default <a>_<b>)")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("steady", help="enumerate steady states or period-k orbits as CSV")
    p.add_argument("project")
    p.add_argument("--system", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("matrix", help="dump a lens's chart-set span as a counting matrix")
    p.add_argument("project")
    p.add_argument("--lens", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("simulate", help="run a system and write the trace as CSV")
    p.add_argument("project")
    p.add_argument("--system", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", help="ode: comma-separated initial state values")
    p.add_argument("--params", default="", help="ode: comma-separated parameter values")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--start", help="deterministic/stochastic: start state")
    p.add_argument("--word", default="", help="comma-separated input labels")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="run law suites and project checks, report pass/fail")
    p.add_argument("project")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OpendynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
