"""The benchmark's own test: a traced pass repeats exactly, and seeds matter.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
# --seconds that sizes a traced run at 12 ops per pass
SECONDS = {"check": "1.5", "simulate": "1.5", "wire": "0.4"}


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    """(context, result) of one short traced run over a 12-op plan."""
    proc = subprocess.run(
        [
            sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", SECONDS[workload], "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, context, result = proc.stdout.strip().splitlines()
    return json.loads(context)["context"], json.loads(result)


@pytest.mark.parametrize("workload", ["check", "simulate", "wire"])
def test_traced_pass_repeats_and_seed_changes_inputs(workload):
    ctx1, res1 = traced(workload, 7)
    ctx2, res2 = traced(workload, 7)
    assert res1["correct"] and res2["correct"]
    assert res1["failed"] == 0 and res1["attempted"] == 24
    assert ctx1["digest"] == ctx2["digest"]
    assert ctx1["inputs_sha256"] == ctx2["inputs_sha256"]
    counted = [n for n, m in res1["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert any(res1["metrics"][n]["value"] for n in counted)
    assert {n: res1["metrics"][n]["value"] for n in counted} == {
        n: res2["metrics"][n]["value"] for n in counted
    }
    assert res1["metrics"]["trace.overhead_x"]["value"] > 0

    ctx3, res3 = traced(workload, 8)
    assert res3["correct"]
    assert ctx3["inputs_sha256"] != ctx1["inputs_sha256"]
