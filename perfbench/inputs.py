"""Seeded input generators: project documents as plain JSON objects.

Everything here is built from an explicit `random.Random`, uses only the
standard library and never imports opendyn, so the same seed gives the same
documents and the oracles can read them back without the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Fixed-step grid for every ODE simulation: a power of two, so t1 = n * H is
# exact and the grid has exactly n + 1 rows.
H = 1.0 / 256.0


def labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k}" for k in range(n)]


def coef(rng: random.Random, lo: float = 0.2, hi: float = 1.0) -> float:
    return round(rng.uniform(lo, hi), 3)


# -- deterministic and stochastic machines ---------------------------------


def det_system(rng: random.Random, inputs, outputs, n_states: int) -> dict:
    states = labels("s", n_states)
    return {
        "kind": "deterministic",
        "states": states,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "readout": {s: rng.choice(outputs) for s in states},
        "update": {s: {i: rng.choice(states) for i in inputs} for s in states},
    }


def dist(rng: random.Random, states: list[str]) -> dict[str, str]:
    support = set(rng.sample(states, rng.randint(1, min(3, len(states)))))
    weights = {s: rng.randint(1, 3) for s in states if s in support}
    total = sum(weights.values())
    return {s: str(Fraction(w, total)) for s, w in weights.items()}


def stoch_system(rng: random.Random, inputs, outputs, n_states: int) -> dict:
    states = labels("s", n_states)
    return {
        "kind": "stochastic",
        "states": states,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "readout": {s: rng.choice(outputs) for s in states},
        "update": {s: {i: dist(rng, states) for i in inputs} for s in states},
    }


def det_lens(rng: random.Random, src_in, src_out, tgt_in, tgt_out) -> dict:
    return {
        "kind": "deterministic",
        "sourceInputs": list(src_in),
        "sourceOutputs": list(src_out),
        "targetInputs": list(tgt_in),
        "targetOutputs": list(tgt_out),
        "fwd": {o: rng.choice(tgt_out) for o in src_out},
        "bwd": {o: {i2: rng.choice(src_in) for i2 in tgt_in} for o in src_out},
    }


def ode_oscillator(rng: random.Random) -> tuple[dict, dict]:
    """A two-state damped system and a lens that feeds its output back."""
    a, c, e = coef(rng), coef(rng), coef(rng)
    system = {
        "kind": "ode",
        "stateVars": ["x", "y"],
        "outputVars": ["u"],
        "paramVars": ["p", "q"],
        "readout": {"u": f"sin(x*y) + {a}*x"},
        "field": {"x": f"p*cos(y) - {c}*x", "y": f"q*sin(x) - {e}*y"},
    }
    k = coef(rng)
    lens = {
        "kind": "ode",
        "sourceOutputVars": ["u"],
        "sourceParamVars": ["p", "q"],
        "targetOutputVars": ["v"],
        "targetParamVars": ["r"],
        "fwd": {"v": f"{k}*u"},
        "bwd": {"p": f"r + {k}*u", "q": f"r - u"},
    }
    return system, lens


def wire_projects(rng: random.Random) -> dict[str, dict]:
    """One variant of the `wire` workload's project files, by file stem.

    Sizes are fixed; the seed draws only the tables and weights, so every
    seed loads the same amount of construction and validation work.
    """
    a_in, a_out = labels("a", 3), labels("b", 3)
    c_in, c_out = labels("c", 4), labels("e", 5)
    b_in = labels("g", 2)
    t_in, t_out = labels("a", 2), labels("b", 2)

    det_doc = {
        "version": 1,
        "systems": {
            **{f"d{n}": det_system(rng, a_in, a_out, 4 + n) for n in range(4)},
            **{f"t{n}": det_system(rng, t_in, t_out, 4) for n in range(2)},
        },
        "lenses": {
            **{f"l{n}": det_lens(rng, a_in, a_out, c_in, c_out) for n in range(3)},
            "lb": det_lens(rng, b_in, a_out, c_in, c_out),
        },
    }
    stoch_doc = {
        "version": 1,
        "systems": {
            **{f"m{n}": stoch_system(rng, a_in, a_out, 4 + n) for n in range(3)},
            **{f"t{n}": stoch_system(rng, t_in, t_out, 4 + n) for n in range(2)},
        },
        "lenses": {f"l{n}": det_lens(rng, a_in, a_out, c_in, c_out) for n in range(2)},
    }
    osc, olens = ode_oscillator(rng)
    mixed_doc = {
        "version": 1,
        "systems": {
            "d": det_system(rng, a_in, a_out, 3),
            "m": stoch_system(rng, a_in, a_out, 3),
            "osc": osc,
        },
        "lenses": {"olens": olens, "dl": det_lens(rng, a_in, a_out, c_in, c_out)},
    }
    return {"det": det_doc, "stoch": stoch_doc, "mixed": mixed_doc}


# -- ODE systems for wiring depth ------------------------------------------


def ode_chain(rng: random.Random, depth: int) -> tuple[dict, list[dict]]:
    """A base system and `depth` lenses, lens j rewiring level j-1 to level j.

    Each lens renames the output and feeds it back into parameter p, so the
    composed field gains one copy of the (non-trivial) readout per level and
    its size grows linearly with depth.
    """
    a, c, e = coef(rng), coef(rng), coef(rng)
    base = {
        "kind": "ode",
        "stateVars": ["x", "y"],
        "outputVars": ["u0"],
        "paramVars": ["p0", "q0"],
        "readout": {"u0": f"sin(x*y) + {a}*x"},
        "field": {"x": f"p0*cos(y) - {c}*x", "y": f"q0*sin(x) - {e}*y"},
    }
    lenses = []
    for j in range(1, depth + 1):
        k, m = coef(rng, 0.05, 0.2), coef(rng, 0.9, 1.1)
        lenses.append(
            {
                "kind": "ode",
                "sourceOutputVars": [f"u{j - 1}"],
                "sourceParamVars": [f"p{j - 1}", f"q{j - 1}"],
                "targetOutputVars": [f"u{j}"],
                "targetParamVars": [f"p{j}", f"q{j}"],
                "fwd": {f"u{j}": f"u{j - 1}"},
                "bwd": {f"p{j - 1}": f"p{j} + {k}*u{j - 1}", f"q{j - 1}": f"{m}*q{j}"},
            }
        )
    return base, lenses
