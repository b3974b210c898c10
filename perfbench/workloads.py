"""The three workloads: seeded inputs, a fixed plan of ops, and per-op oracles.

A workload is built from a fresh `opendyn` module and a seed. `plan()` lists
its ops; `execute(op)` is the timed part and goes only through opendyn's
public functions and `opendyn.cli.main`; `verify(op, outcome)` is untimed
and returns the op's output bytes (for the digest) and a problem string, or
None when the output is correct. The oracles read the generated JSON
documents and the written files with the standard library; they do not
reuse the code under test to compute an expected answer, except where the
check is a round trip (an ODE composite reloaded from its file).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import inputs
from inputs import H


class CliOutcome:
    __slots__ = ("code", "stdout", "stderr")

    def __init__(self, code, stdout: str, stderr: str):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


class Workload:
    name = ""
    # op kind -> relative share of the plan
    mix: dict[str, int] = {}
    # ops per second of run time, checks and calibration included, on a
    # 2-vCPU VM with Python 3.11; sizes the plan from --seconds
    ops_per_second = 1.0

    def __init__(self, od, seed: int, tmp: Path):
        self.od = od
        self.seed = seed
        self.tmp = tmp
        self.rng = random.Random(f"{seed}|{self.name}")
        self.docs: dict[str, dict] = {}
        self.build()

    # -- inputs ------------------------------------------------------------

    def build(self) -> None:
        """Generate, write and load the seeded inputs."""

    def write_doc(self, stem: str, doc: dict) -> str:
        path = self.tmp / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        self.docs[str(path)] = doc
        self.od.project.load_project(path)
        return str(path)

    def make_op(self, kind: str, rng: random.Random) -> tuple:
        raise NotImplementedError

    def plan(self, n_ops: int) -> list[tuple]:
        """A seeded list of `n_ops` ops in the workload's kind mix, shuffled."""
        kinds = [k for k, count in self.mix.items() for _ in range(count)]
        kinds = [kinds[(j * len(kinds)) // n_ops] for j in range(n_ops)]
        rng = random.Random(f"{self.seed}|{self.name}|plan")
        rng.shuffle(kinds)
        return [self.make_op(kind, rng) for kind in kinds]

    def warmup_ops(self) -> list[tuple]:
        """One op of each kind. Their random choices do not depend on the
        seed, so set-up time does not depend on the luck of one draw."""
        rng = random.Random(f"{self.name}|warmup")
        return [self.make_op(kind, rng) for kind in self.mix]

    def fingerprint(self, plan: list[tuple]) -> bytes:
        """Canonical text of the generated inputs: documents and plan."""
        docs = {Path(p).name: d for p, d in self.docs.items()}
        return self.normalize(json.dumps({"docs": docs, "plan": plan}, sort_keys=True))

    # -- ops ---------------------------------------------------------------

    def cli(self, argv: list[str]) -> CliOutcome:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.od.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return CliOutcome(code, out.getvalue(), err.getvalue())

    def out_path(self, suffix: str) -> str:
        return str(self.tmp / f"out{suffix}")

    def take_output(self, path: str) -> bytes:
        p = Path(path)
        data = p.read_bytes()
        p.unlink()
        return data

    def normalize(self, text: str) -> bytes:
        """Text with the run's own directories replaced, so it repeats."""
        text = text.replace(str(self.tmp), "<tmp>").replace(str(Path.cwd()), "<root>")
        return text.encode("utf-8")

    def execute(self, op: tuple):
        raise NotImplementedError

    def verify(self, op: tuple, outcome) -> tuple[bytes, str | None, int]:
        """(output bytes, problem or None, bytes written by the CLI)."""
        raise NotImplementedError

    def verify_cli(self, outcome: CliOutcome, path: str, check) -> tuple[bytes, str | None, int]:
        """Common part of a CLI op: exit 0, then the file-specific check."""
        shown = self.normalize(outcome.stdout + outcome.stderr)
        if outcome.code != 0 or not Path(path).exists():
            return shown, f"exit {outcome.code}: {outcome.stderr.strip()[:200]}", len(shown)
        data = self.take_output(path)
        return shown + data, check(data), len(shown) + len(data)


# -- check ----------------------------------------------------------------


class CheckWorkload(Workload):
    """One seeded case of each randomized law suite per op."""

    name = "check"
    # one third each of the size ranking; the kind names the third
    mix = {"case_small": 1, "case_medium": 1, "case_large": 1}
    ops_per_second = 16.0

    def plan(self, n_ops: int) -> list[tuple]:
        """Case seeds stratified by the size of their matrix-suite case.

        Case cost spans two orders of magnitude and is set almost entirely by
        the five sizes `matrix_suite` draws first (|I|, |O|, |I'|, |O'|,
        |S|). All 5^5 size tuples are ranked by the enumeration they imply
        and the ranking is cut into one stratum per op, so every plan has
        the same mix of sizes and seeds differ in the tables drawn. An op's
        kind is the third of the ranking its stratum lies in.
        """
        rank = size_ranks()
        strata = min(n_ops, len(rank))
        want = [0] * strata
        for j in range(n_ops):
            want[(j * strata) // n_ops] += 1
        kinds = list(self.mix)
        rng = random.Random(f"{self.seed}|{self.name}|plan")
        ops = []
        while len(ops) < n_ops:
            case = rng.randrange(2**31)
            stratum = rank[matrix_sizes(case)] * strata // len(rank)
            if want[stratum]:
                want[stratum] -= 1
                ops.append((kinds[stratum * len(kinds) // strata], case))
        return ops

    def warmup_ops(self) -> list[tuple]:
        """The first case, from a fixed generator, with the largest sizes:
        set-up runs the heaviest case once, whatever the seed."""
        rng = random.Random(f"{self.name}|warmup")
        rank = size_ranks()
        while True:
            case = rng.randrange(2**31)
            if rank[matrix_sizes(case)] == len(rank) - 1:
                return [("case_large", case)]

    def execute(self, op: tuple):
        laws = self.od.laws
        s = op[1]
        return (laws.lens_law_suite(s, 1), laws.square_suite(s, 1), laws.matrix_suite(s, 1))

    def verify(self, op, outcome):
        text = "".join(f"{r.name} {r.passed} {r.cases} {r.detail}\n" for r in outcome)
        failed = [r.name for r in outcome if not r.passed]
        return text.encode("utf-8"), (f"suite failed: {failed}" if failed else None), 0


def matrix_sizes(case: int) -> tuple[int, ...]:
    """The first five draws of `matrix_suite(case, 1)` at its default sizes:
    |I| and |O| of the system, |I'| and |O'| of the lens target, |S|."""
    rng = random.Random(f"{case}|matrix")
    return tuple(rng.randint(1, 5) for _ in range(5))


def size_ranks() -> dict[tuple[int, ...], int]:
    """Every size tuple ranked by the largest sets a k <= 3 case enumerates."""

    def work(t):
        ni, no, ti, to, ns = t
        return (ns * ni) ** 3 + (ns * ti) ** 3 + (no * ti) ** 3 + (no * ni) ** 3 + (to * ti) ** 3

    ordered = sorted(product(range(1, 6), repeat=5), key=lambda t: (work(t), t))
    return {t: r for r, t in enumerate(ordered)}


# -- simulate ---------------------------------------------------------------

DEPTHS = (1, 4, 16)
VARIANTS = 3


class SimulateWorkload(Workload):
    """CLI simulate on Lotka-Volterra and on ODE systems wired to depth 1/4/16."""

    name = "simulate"
    # depth 16 is the heaviest kind, so the tail percentile falls inside it
    mix = {"lv": 120, "d1": 110, "d4": 110, "d16": 58, "ode_suite": 2}
    steps = {"lv": 400, "d1": 400, "d4": 200, "d16": 400}
    ops_per_second = 16.0

    def build(self) -> None:
        od = self.od
        self.lv_path = str(Path(od.__file__).parent / "fixtures" / "lv.json")
        od.project.load_project(self.lv_path)
        self.paths: dict[int, list[str]] = {}
        self.field_nodes: dict[int, int] = {}
        for depth in DEPTHS:
            self.paths[depth] = []
            for v in range(VARIANTS):
                base, lenses = inputs.ode_chain(self.rng, depth)
                doc = {
                    "version": 1,
                    "systems": {"base": base},
                    "lenses": {f"w{j}": lens for j, lens in enumerate(lenses)},
                }
                loaded = od.project.project_from_obj(doc)
                system = loaded.system("base")
                for j in range(depth):
                    system = od.ode.compose_lens_ode(loaded.lens(f"w{j}"), system)
                path = self.tmp / f"depth{depth}-{v}.json"
                od.project.save_project(od.project.ProjectFile(systems={"wired": system}), path)
                od.project.load_project(path)
                self.docs[str(path)] = doc
                self.paths[depth].append(str(path))
                if v == 0:
                    self.field_nodes[depth] = sum(expr_nodes(e) for e in system.field.values())

    def make_op(self, kind: str, rng: random.Random) -> tuple:
        if kind == "ode_suite":
            return (kind, rng.randrange(2**31))
        if kind == "lv":
            init = [round(rng.uniform(1.6, 2.4), 3), round(rng.uniform(0.8, 1.2), 3)]
            params = [round(x * rng.uniform(0.8, 1.2), 3) for x in (1.0, 0.5, 0.2, 0.4)]
            return (kind, self.lv_path, "lotka_volterra", init, params)
        depth = int(kind[1:])
        init = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(2)]
        params = [round(rng.uniform(0.1, 1.0), 3) for _ in range(2)]
        return (kind, rng.choice(self.paths[depth]), "wired", init, params)

    def execute(self, op: tuple):
        kind = op[0]
        if kind == "ode_suite":
            return self.od.laws.ode_functoriality_suite(op[1], 1e-9)
        _, path, system, init, params = op
        return self.cli(
            [
                "simulate", path, "--system", system,
                "--init=" + ",".join(map(repr, init)),
                "--params=" + ",".join(map(repr, params)),
                "--t1", repr(self.steps[kind] * H), "--h", repr(H),
                "--out", self.out_path(".csv"),
            ]
        )

    def verify(self, op, outcome):
        kind = op[0]
        if kind == "ode_suite":
            text = f"{outcome.name} {outcome.passed} {outcome.cases} {outcome.detail}\n"
            return text.encode("utf-8"), (None if outcome.passed else outcome.detail), 0
        if kind == "lv":
            header = ["time", "r", "f", "r_pop", "f_pop"]
        else:
            header = ["time", "x", "y", f"u{kind[1:]}"]
        return self.verify_cli(
            outcome,
            self.out_path(".csv"),
            lambda data: check_ode_csv(data, header, self.steps[kind], op[3]),
        )


def expr_nodes(e) -> int:
    return 1 + sum(expr_nodes(getattr(e, f)) for f in ("arg", "left", "right") if hasattr(e, f))


def check_ode_csv(data: bytes, header: list[str], steps: int, init: list[float]) -> str | None:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if rows[0] != header:
        return f"header {rows[0]} != {header}"
    if len(rows) != steps + 2:
        return f"{len(rows) - 1} rows, grid has {steps + 1}"
    for j, row in enumerate(rows[1:]):
        values = [float(x) for x in row]
        if len(values) != len(header) or not all(map(math.isfinite, values)):
            return f"row {j} is short or not finite: {row}"
        if values[0] != j * H:
            return f"row {j} has time {values[0]}, grid has {j * H}"
    if [float(x) for x in rows[1][1:3]] != init:
        return f"first row {rows[1]} does not start at {init}"
    return None


# -- wire -----------------------------------------------------------------


class WireWorkload(Workload):
    """Construction, validation and serialization through the CLI."""

    name = "wire"
    # compose_stoch and simulate_stoch take 31% of the plan, so the median
    # op falls inside them rather than in the gap between the 2-3 ms kinds
    # and them, where it moved with small changes in the mix
    mix = {
        "compose_det": 24, "compose_stoch": 36, "compose_ode": 16,
        "tensor_det": 16, "tensor_stoch": 16,
        "steady_k1": 16, "steady_k2": 16, "steady_k3": 12,
        "matrix_k1": 14, "matrix_k2": 14,
        "simulate_stoch": 36,
        "bad_boundary": 4, "bad_doctrine_compose": 3, "bad_doctrine_tensor": 3,
        "bad_name": 4,
    }
    ops_per_second = 60.0

    def build(self) -> None:
        self.files: list[dict[str, str]] = []
        for v in range(VARIANTS):
            docs = inputs.wire_projects(self.rng)
            self.files.append({stem: self.write_doc(f"{stem}-{v}", doc) for stem, doc in docs.items()})

    def make_op(self, kind: str, rng: random.Random) -> tuple:
        files = rng.choice(self.files)
        det, stoch, mixed = files["det"], files["stoch"], files["mixed"]
        out_json, out_csv = self.out_path(".json"), self.out_path(".csv")
        if kind == "compose_det":
            argv = ["compose", det, "--lens", f"l{rng.randrange(3)}", "--system", f"d{rng.randrange(4)}", "--out", out_json]
        elif kind == "compose_stoch":
            argv = ["compose", stoch, "--lens", f"l{rng.randrange(2)}", "--system", f"m{rng.randrange(3)}", "--out", out_json]
        elif kind == "compose_ode":
            argv = ["compose", mixed, "--lens", "olens", "--system", "osc", "--out", out_json]
        elif kind in ("tensor_det", "tensor_stoch"):
            argv = ["tensor", det if kind == "tensor_det" else stoch, "--a", "t0", "--b", "t1", "--out", out_json]
        elif kind.startswith("steady"):
            # period 3 only on the smallest machine: enumeration stays small
            system = "d0" if kind == "steady_k3" else f"d{rng.randrange(4)}"
            argv = ["steady", det, "--system", system, "--k", kind[-1], "--out", out_csv]
        elif kind.startswith("matrix"):
            argv = ["matrix", det, "--lens", f"l{rng.randrange(3)}", "--k", kind[-1], "--out", out_json]
        elif kind == "simulate_stoch":
            name = f"m{rng.randrange(3)}"
            doc = self.docs[stoch]["systems"][name]
            word = [rng.choice(doc["inputs"]) for _ in range(rng.randint(40, 80))]
            argv = [
                "simulate", stoch, "--system", name, "--start", rng.choice(doc["states"]),
                "--word", ",".join(word), "--seed", str(rng.randrange(1000)), "--out", out_csv,
            ]
        elif kind == "bad_boundary":
            argv = ["compose", det, "--lens", "lb", "--system", "d0", "--out", out_json]
        elif kind == "bad_doctrine_compose":
            argv = ["compose", mixed, "--lens", "olens", "--system", "d", "--out", out_json]
        elif kind == "bad_doctrine_tensor":
            argv = ["tensor", mixed, "--a", "d", "--b", "m", "--out", out_json]
        else:
            argv = ["steady", det, "--system", "nope", "--out", out_csv]
        return (kind, argv)

    def execute(self, op: tuple):
        return self.cli(op[1])

    def verify(self, op, outcome):
        kind, argv = op
        out = argv[argv.index("--out") + 1]
        if kind.startswith("bad"):
            shown = self.normalize(outcome.stdout + outcome.stderr)
            problem = None
            if outcome.code != 2:
                problem = f"invalid request exited {outcome.code}"
            elif not outcome.stderr.startswith("error:") or "Traceback" in outcome.stderr:
                problem = f"invalid request stderr {outcome.stderr[:200]!r}"
            elif Path(out).exists():
                problem = "invalid request wrote an output file"
            return shown, problem, len(shown)
        doc = self.docs[argv[1]]
        opt = dict(zip(argv[2::2], argv[3::2]))
        if kind == "compose_ode":
            check = lambda data: self.check_ode_compose(argv[1], data)
        elif kind.startswith("compose"):
            check = lambda data: check_compose(
                data, doc["lenses"][opt["--lens"]], doc["systems"][opt["--system"]],
                f"{opt['--system']}_{opt['--lens']}",
            )
        elif kind.startswith("tensor"):
            check = lambda data: check_tensor(data, doc["systems"]["t0"], doc["systems"]["t1"])
        elif kind.startswith("steady"):
            check = lambda data: check_steady(data, doc["systems"][opt["--system"]], int(opt["--k"]))
        elif kind.startswith("matrix"):
            check = lambda data: check_matrix(data, doc["lenses"][opt["--lens"]], int(opt["--k"]))
        else:
            check = lambda data: check_stoch_trace(data, doc["systems"][opt["--system"]], opt)
        return self.verify_cli(outcome, out, check)

    def check_ode_compose(self, project: str, data: bytes) -> str | None:
        od = self.od
        loaded = od.project.load_project(project)
        expected = od.ode.compose_lens_ode(loaded.lens("olens"), loaded.system("osc"))
        reloaded = od.project.project_from_obj(json.loads(data)).systems
        if reloaded != {"osc_olens": expected}:
            return "ODE composite does not reload equal to the in-memory composite"
        return None


def _weights(row: dict) -> dict[str, Fraction]:
    return {s: Fraction(w) for s, w in row.items()}


def _same_system(got: dict, want: dict) -> bool:
    if got.get("kind") == "stochastic":
        got = {**got, "update": {s: {i: _weights(d) for i, d in r.items()} for s, r in got["update"].items()}}
    return got == want


def check_compose(data: bytes, lens: dict, system: dict, name: str) -> str | None:
    """The composite by table chasing on the generated documents."""
    fwd, bwd, read, upd = lens["fwd"], lens["bwd"], system["readout"], system["update"]
    want = {
        "kind": system["kind"],
        "states": system["states"],
        "inputs": lens["targetInputs"],
        "outputs": lens["targetOutputs"],
        "readout": {s: fwd[read[s]] for s in system["states"]},
        "update": {
            s: {i2: upd[s][bwd[read[s]][i2]] for i2 in lens["targetInputs"]}
            for s in system["states"]
        },
    }
    if want["kind"] == "stochastic":
        want["update"] = {s: {i: _weights(d) for i, d in r.items()} for s, r in want["update"].items()}
    got = json.loads(data)
    if list(got.get("systems", {})) != [name] or not _same_system(got["systems"][name], want):
        return f"composite {name} differs from the table-chased composite"
    return None


def check_tensor(data: bytes, a: dict, b: dict) -> str | None:
    """The product machine by componentwise tables; weights multiply."""
    j = "|".join
    states = [j(p) for p in product(a["states"], b["states"])]
    ins = list(product(a["inputs"], b["inputs"]))
    want = {
        "kind": a["kind"],
        "states": states,
        "inputs": [j(p) for p in ins],
        "outputs": [j(p) for p in product(a["outputs"], b["outputs"])],
        "readout": {j((sa, sb)): j((a["readout"][sa], b["readout"][sb])) for sa in a["states"] for sb in b["states"]},
    }
    ua, ub = a["update"], b["update"]
    if a["kind"] == "deterministic":
        want["update"] = {
            j((sa, sb)): {j((ia, ib)): j((ua[sa][ia], ub[sb][ib])) for ia, ib in ins}
            for sa in a["states"] for sb in b["states"]
        }
    else:
        want["update"] = {
            j((sa, sb)): {
                j((ia, ib)): {
                    j((ta, tb)): Fraction(wa) * Fraction(wb)
                    for ta, wa in ua[sa][ia].items() for tb, wb in ub[sb][ib].items()
                }
                for ia, ib in ins
            }
            for sa in a["states"] for sb in b["states"]
        }
    got = json.loads(data)
    if list(got.get("systems", {})) != ["t0_t1"] or not _same_system(got["systems"]["t0_t1"], want):
        return "tensor differs from the componentwise product"
    return None


def check_steady(data: bytes, system: dict, k: int) -> str | None:
    """Replay every row on the machine's tables; count closing orbits."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if rows[0] != ["chart", "element"]:
        return f"steady header {rows[0]}"
    upd, read = system["update"], system["readout"]
    for chart, element in rows[1:]:
        parts, labels = element.split("|"), chart.split("|")
        states, word = parts[0::2], parts[1::2]
        if len(states) != k or len(word) != k:
            return f"element {element!r} is not a period-{k} orbit"
        for j in range(k):
            if upd[states[j]][word[j]] != states[(j + 1) % k]:
                return f"element {element!r} does not close after {k} steps"
            if labels[2 * j : 2 * j + 2] != [read[states[j]], word[j]]:
                return f"element {element!r} does not match its chart {chart!r}"
    closing = 0
    for s0 in system["states"]:
        for word in product(system["inputs"], repeat=k):
            s = s0
            for i in word:
                s = upd[s][i]
            closing += s == s0
    if closing != len(rows) - 1 or len(set(map(tuple, rows))) != len(rows):
        return f"{len(rows) - 1} distinct rows, {closing} closing orbits"
    return None


def check_matrix(data: bytes, lens: dict, k: int) -> str | None:
    obj = json.loads(data)
    n_o, n_i = len(lens["sourceOutputs"]), len(lens["sourceInputs"])
    n_o2, n_i2 = len(lens["targetOutputs"]), len(lens["targetInputs"])
    m = obj["matrix"]
    if len(m) != (n_o * n_i) ** k or any(len(row) != (n_o2 * n_i2) ** k for row in m):
        return "matrix has the wrong shape"
    total = sum(map(sum, m))
    if total != (n_o * n_i2) ** k or min(map(min, m)) < 0:
        return f"matrix entries sum to {total}, expected {(n_o * n_i2) ** k}"
    return None


def check_stoch_trace(data: bytes, system: dict, opt: dict) -> str | None:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    word = opt["--word"].split(",")
    if rows[0] != ["step", "input", "state", "output"] or len(rows) != len(word) + 2:
        return f"trace has {len(rows)} lines for a {len(word)}-letter word"
    prev = None
    for step, (n, inp, state, output) in enumerate(rows[1:]):
        if n != str(step) or output != system["readout"][state]:
            return f"trace row {step} is inconsistent: {(n, inp, state, output)}"
        if step == 0:
            if state != opt["--start"] or inp != "":
                return "trace does not start at the start state"
        elif inp != word[step - 1] or Fraction(system["update"][prev][inp].get(state, "0")) <= 0:
            return f"trace step {step} takes a zero-weight transition"
        prev = state
    return None


WORKLOADS = {w.name: w for w in (CheckWorkload, SimulateWorkload, WireWorkload)}
