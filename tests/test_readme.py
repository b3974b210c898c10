"""README's library tour runs as written.

Its `python` blocks run in order in one namespace, as a reader would paste
them: the stochastic block reads the deterministic block's `states`. So the
tour cannot name a function that the package no longer has.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_the_library_tour_runs_in_order():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 3
    namespace: dict = {}
    for n, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {n}", "exec"), namespace)
    assert namespace["check_matrix_theorem"](namespace["feedback"], namespace["latch"], k=2)
    assert namespace["traj"].times[-1] == 5.0
