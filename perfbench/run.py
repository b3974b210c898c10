"""opendyn benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload check|simulate|wire --seed N \
        --seconds S --trace 0|1

Run from the repository root; the benchmark imports opendyn from `./src`
and writes only under `./.perfbench_run/`. Workloads, op mixes and oracles
are in `workloads.py`, tracing in `tracer.py`, host-speed calibration in
`calib.py`, and the measured baseline per op kind in `BASELINE.md`.

A timed run (`--trace 0`) sets the workload up (import opendyn, generate,
write and load the seeded inputs and the plan, one warm-up op of each
kind), runs one pass over the plan, and then times `SETUP_REPEATS` more
set-ups. They are timed after the pass because on a 2-vCPU VM, set-ups at
the start of a process ran 35-75% slower in half the runs of one set of
ten, while the ops of the same runs did not. The plan
has `--seconds` times the workload's `ops_per_second` ops, so a run takes
about `--seconds` on the VM the rates were measured on, and the same
arguments always run and check the same ops. Each op starts when the
previous one has finished and been checked. `gc.collect()` runs between
ops, and a settled calibration chunk right before and right after each op,
all outside the timed span. A traced run
(`--trace 1`) sets up once under the tracer, then runs one untraced and one
traced pass over a plan half as long.

The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` the metrics
are setup_s, ops_per_s, op_p50_ms, op_tail_ms (all calibrated), peak_rss_mb
and pass_share; with `--trace 1` they are the per-layer metrics of
`tracer.METRICS`. The line before it is a context object: raw wall values,
the tail percentile and its sample count, the output digest, the inputs
digest, per-kind median op times, the mean calibration scale per op kind,
and the machine.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calib
import tracer as tracing
import workloads

SETUP_REPEATS = 5
WORK_DIR = ".perfbench_run"


class BenchError(Exception):
    pass


def import_opendyn(src: Path):
    """A fresh import of opendyn (and its CLI) from `src`."""
    for name in [n for n in sys.modules if n == "opendyn" or n.startswith("opendyn.")]:
        del sys.modules[name]
    od = importlib.import_module("opendyn")
    importlib.import_module("opendyn.cli")
    if not Path(od.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported opendyn from {od.__file__}, not from {src}")
    return od


def setup(cls, src: Path, seed: int, tmp: Path, n_ops: int, tracer=None):
    """Import, build and load the inputs and the plan, and warm up each op
    kind once. Returns the workload and its plan."""
    od = import_opendyn(src)
    if tracer is not None:
        tracer.install()
        tracer.kind = "setup"
    wl = cls(od, seed, tmp)
    plan = wl.plan(n_ops)
    for op in wl.warmup_ops():
        outcome = wl.execute(op)
        if tracer is not None:
            tracer.active = False
        _blob, problem, _n = wl.verify(op, outcome)
        if tracer is not None:
            tracer.active = True
        if problem:
            raise BenchError(f"warm-up op {op[0]} failed: {problem}")
    return wl, plan


def timed_setups(cls, src: Path, seed: int, tmp: Path, n_ops: int):
    """Set up SETUP_REPEATS times; the median raw and calibrated set-up
    seconds."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        cal = [calib.time_settled() for _ in range(3)]
        t0 = time.perf_counter()
        setup(cls, src, seed, tmp, n_ops)
        elapsed = time.perf_counter() - t0
        gc.collect()
        cal += [calib.time_settled() for _ in range(3)]
        raw.append(elapsed)
        scaled.append(calib.scale_by(elapsed, cal))
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    """Runs passes over a plan, recording every op's raw time and the mean
    of the calibration chunks timed right before and right after it."""

    def __init__(self, wl, plan: list[tuple]):
        self.wl = wl
        self.plan = plan
        self.raw: list[float] = []
        self.cal: list[float] = []
        self.kinds: list[str] = []
        self.problems: list[str] = []

    def run_pass(self, tracer=None) -> str:
        """One pass over the plan; returns the sha256 of its outputs."""
        wl = self.wl
        digest = hashlib.sha256()
        for j, op in enumerate(self.plan):
            gc.collect()
            before = calib.time_settled()
            if tracer is not None:
                tracer.op_index, tracer.kind, tracer.active = j, op[0], True
            t0 = time.perf_counter()
            try:
                outcome, error = wl.execute(op), None
            except Exception:
                outcome, error = None, traceback.format_exc(limit=-3)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            self.cal.append((before + calib.time_settled()) / 2)
            self.raw.append(t1 - t0)
            self.kinds.append(op[0])
            blob, problem, cli_bytes = b"", f"raised:\n{error}", 0
            if error is None:
                try:
                    blob, problem, cli_bytes = wl.verify(op, outcome)
                except Exception:
                    problem = f"oracle raised:\n{traceback.format_exc(limit=-3)}"
            digest.update(op[0].encode() + b"\0" + blob + b"\0")
            if problem:
                self.problems.append(f"op {j} ({op[0]}): {problem}")
            if tracer is not None:
                tracer.counts["cli.out_bytes"] += cli_bytes
        return digest.hexdigest()

    def factors(self) -> list[float]:
        """Each op's calibration scale, pass by pass."""
        n = len(self.plan)
        return [f for p in range(0, len(self.cal), n) for f in calib.factors(self.cal[p : p + n])]

    def scaled(self) -> list[float]:
        """Calibrated op times."""
        return [t * f for t, f in zip(self.raw, self.factors(), strict=True)]


def plan_size(cls, args, passes: int) -> int:
    """Ops per pass: enough for `passes` passes to fill --seconds on the
    VM the rates were measured on. The work is fixed by the arguments,
    so every run with the same arguments runs and checks the same ops."""
    return max(1, round(args.seconds * cls.ops_per_second / passes))


def run_timed(cls, src, args, tmp):
    n_ops = plan_size(cls, args, 1)
    wl, plan = setup(cls, src, args.seed, tmp, n_ops)
    runner = Runner(wl, plan)
    digest = runner.run_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_raw, setup_scaled = timed_setups(cls, src, args.seed, tmp, n_ops)
    scaled, raw = runner.scaled(), runner.raw
    q = calib.tail_percentile(len(plan))
    n = len(raw)
    failed = len(runner.problems)
    metrics = {
        "setup_s": (setup_scaled, "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (calib.percentile(scaled, q) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_share": ((n - failed) / n, "share"),
    }
    context = {
        "raw": {
            "setup_s": setup_raw,
            "ops_per_s": n / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": calib.percentile(raw, q) * 1e3,
        },
        "tail": {"percentile": q, "samples": n},
        "per_kind_ms": per_kind(runner, [t * 1e3 for t in scaled]),
        "scale_per_kind": per_kind(runner, runner.factors(), statistics.fmean),
    }
    return metrics, context, [digest], runner


def run_traced(cls, src, args, tmp):
    """A traced set-up, then one untraced and one traced pass over the plan."""
    tracer = tracing.Tracer()
    mark = tracer.mark()
    wl, plan = setup(cls, src, args.seed, tmp, plan_size(cls, args, 2), tracer)
    tracer.uninstall()
    setup_ms, setup_counts = tracer.self_ms_since(mark), tracer.counts_since(mark)
    runner = Runner(wl, plan)
    digests = [runner.run_pass()]
    tracer.install()
    mark = tracer.mark()
    digests.append(runner.run_pass(tracer))
    tracer.uninstall()
    pass_ms, pass_counts = tracer.self_ms_since(mark), tracer.counts_since(mark)

    self_ms = {k: setup_ms.get(k, 0.0) + pass_ms.get(k, 0.0) for k in set(setup_ms) | set(pass_ms)}
    counts = {
        k: setup_counts.get(k, 0) + pass_counts.get(k, 0)
        for k in set(setup_counts) | set(pass_counts)
    }
    values = tracing.layer_metrics(self_ms, counts, getattr(wl, "field_nodes", {}))
    scaled, n = runner.scaled(), len(plan)
    untraced, traced = n / sum(scaled[:n]), n / sum(scaled[n:])
    values["trace.untraced_ops_per_s"] = untraced
    values["trace.traced_ops_per_s"] = traced
    values["trace.overhead_x"] = untraced / traced
    metrics = {name: (values[name], unit) for name, unit in tracing.METRICS}
    out = Path(WORK_DIR) / f"trace-{args.workload}.csv.gz"
    tracer.write(out)
    context = {"spans_file": str(out), "per_kind_ms": per_kind(runner, [t * 1e3 for t in scaled])}
    return metrics, context, digests, runner


def per_kind(runner: Runner, values: list[float], stat=statistics.median) -> dict[str, float]:
    """`stat` of per-op `values` by op kind."""
    by_kind: dict[str, list[float]] = {}
    for kind, v in zip(runner.kinds, values):
        by_kind.setdefault(kind, []).append(v)
    return {k: stat(v) for k, v in sorted(by_kind.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src")
    if not (src / "opendyn" / "__init__.py").is_file():
        print("perfbench: no src/opendyn here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    cls = workloads.WORKLOADS[args.workload]
    Path(WORK_DIR).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)).resolve()
    try:
        run = run_traced if args.trace else run_timed
        metrics, context, digests, runner = run(cls, src, args, tmp)
        fingerprint = runner.wl.fingerprint(runner.plan)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = len(runner.raw), len(runner.problems)
    for problem in runner.problems[:5]:
        print(f"perfbench: {problem}", file=sys.stderr)
    context.update(
        workload=args.workload,
        seed=args.seed,
        plan_ops=len(runner.plan),
        digest=digests[0],
        inputs_sha256=hashlib.sha256(fingerprint).hexdigest(),
        fail_share=failed / attempted,
        machine={
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "calibration_ms": statistics.median(runner.cal) * 1e3,
            "reference_ms": calib.REFERENCE_MS,
        },
    )
    result = {
        "correct": failed == 0 and len(set(digests)) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
