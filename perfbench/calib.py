"""Host-speed calibration and the summary statistics the benchmark reports.

On a shared 2-vCPU VM, speed drifts by 20-40% between runs and within a
run, with CPU time tracking wall time. A fixed, opendyn-free loop is timed
right before and right after every op, each time after an untimed settle
run of the same loop, and measures that drift. An op's scale is the
reference over the median of the before-and-after means of the ops within
`WINDOW` of it, so timings read as milliseconds on a host running the loop
in `REFERENCE_MS`. The settle run absorbs what the previous op left in the
caches, and the median keeps any one op's own chunks from setting its scale.
"""

from __future__ import annotations

import math
import statistics
import time

# Median chunk time on a 2-vCPU VM with Python 3.11. It only fixes the
# unit; any constant would do.
REFERENCE_MS = 1.8
# Ops on each side of an op whose calibration chunks set its scale. On a
# 2-vCPU VM, seven or eight runs per workload gave a standard deviation of log
# op_p50_ms of 3.5% (wire), 2.0% (simulate) and 2.4% (check) with 1, against
# 3.6%, 1.8% and 2.9% for the unsettled chunks right before and right after
# each op, and 4.2%, 2.2% and 1.5% for a median over 7 ops of the settled
# chunk before each op; op_tail_ms was as steady or steadier with 1.
WINDOW = 1


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = left
        self.right = right


def _tree(depth: int, j: int):
    if depth == 0:
        return float(j % 7) + 0.5 if j % 2 else f"v{j % 5}"
    return _Node("+-*"[j % 3], _tree(depth - 1, 2 * j), _tree(depth - 1, 2 * j + 1))


def _evaluate(e, env: dict) -> float:
    if isinstance(e, float):
        return e
    if isinstance(e, str):
        return env[e]
    a, b = _evaluate(e.left, env), _evaluate(e.right, env)
    return a + b if e.op == "+" else a - b if e.op == "-" else a * b


_TREE = _tree(7, 1)
_ENV = {f"v{j}": 0.1 * j + 0.3 for j in range(5)}


def chunk() -> float:
    """The calibration loop, none of it touching opendyn: recursive
    evaluation of a small object tree and building small ones (calls,
    isinstance dispatch, attribute access, allocation), then float
    arithmetic, string formatting, dict, tuple and sort work. On a 2-vCPU
    VM, a chunk of only the second half tracked op speed about half as well
    as one that also has the first."""
    acc = 0.0
    for _ in range(4):
        acc += _evaluate(_TREE, _ENV)
        acc += len([tuple(_tree(2, k) for k in range(4)) for _ in range(20)])
    x = 0.5
    for _ in range(1200):
        x = 3.9 * x * (1.0 - x)
        acc += x * x / (1.0 + x)
    table = {}
    for j in range(500):
        key = "k%d|%d" % (j % 37, j)
        table[key] = (j, key[::-1])
    n = 0
    for _key, (j, rev) in sorted(table.items()):
        n ^= len(rev) + j
    return acc + n


def time_chunk() -> float:
    """Seconds one calibration chunk takes now."""
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


def time_settled() -> float:
    """Seconds one calibration chunk takes after an untimed one, which
    absorbs what the last op left in the caches."""
    chunk()
    return time_chunk()


def factors(cal: list[float]) -> list[float]:
    """The scale of each op: the reference over the median of the
    calibration times of the ops within WINDOW of it, where cal[i] is the
    mean of the chunks timed before and after op i."""
    ref = REFERENCE_MS / 1e3
    return [ref / statistics.median(cal[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(cal))]


def scale_by(value: float, cal: list[float]) -> float:
    return value * (REFERENCE_MS / 1e3) / statistics.median(cal)


def tail_percentile(samples_per_pass: int) -> int:
    """The highest whole percentile that leaves at least ten of one pass's
    samples beyond it; the pooled samples then have ten per pass beyond it."""
    return max(50, math.floor(100 * (1 - 10 / samples_per_pass)))


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
