"""Per-layer tracing from outside: wrap opendyn functions, keep spans, count.

`Tracer.install()` replaces each function in `TRACED` in every opendyn
module namespace that binds it, and the `__init__` of each class in
`CLASSES`; `uninstall()` puts the originals back, so untraced passes run
the code exactly as shipped. Every wrapped call appends one span
(name, start ns, end ns, parent span, op index) to an in-memory list, and
some record counts at the same boundary. Self time is a span's duration
minus the durations of its direct children; spans nest strictly because
the benchmark runs one thread. A recursive call of a traced function
(`expr.substitute`) is folded into its outermost span.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from collections import defaultdict

# module -> functions traced in it
TRACED = {
    "deterministic": [
        "representable_span", "chart_hom_set", "lens_to_span",
        "compose_lens_system", "check_square",
    ],
    "finset": ["apply_span_to_family", "families_isomorphic", "span_to_matrix"],
    "laws": ["lens_law_suite", "square_suite", "matrix_suite"],
    "ode": ["eval_field", "rk4_solve", "compose_lens_ode", "check_solve_functoriality"],
    "expr": ["parse", "substitute"],
    "stochastic": ["tensor_stoch", "compose_lens_stoch", "simulate_stoch"],
    "project": ["load_project", "save_project"],
    "cli": ["main"],
}
CLASSES = {"finset": ["FinSet", "FinMap"], "stochastic": ["Dist"]}

DEPTH_KINDS = ("d1", "d4", "d16")

# Every per-layer metric, in report order, with its unit. A workload that
# does not call a layer reports 0 for it.
METRICS = [
    ("deterministic.representable_span.self_ms", "ms"),
    ("deterministic.representable_span.combos_tested", "count"),
    ("deterministic.representable_span.orbits_found", "count"),
    ("deterministic.representable_span.hit_ratio", "ratio"),
    ("deterministic.chart_hom_set.labels", "count"),
    ("deterministic.lens_to_span.self_ms", "ms"),
    ("deterministic.lens_to_span.apex_elements", "count"),
    ("deterministic.compose_lens_system.self_ms", "ms"),
    ("deterministic.check_square.self_ms", "ms"),
    ("finset.FinSet.calls", "count"),
    ("finset.FinSet.elements", "count"),
    ("finset.FinSet.self_ms", "ms"),
    ("finset.FinMap.calls", "count"),
    ("finset.FinMap.self_ms", "ms"),
    ("finset.apply_span_to_family.self_ms", "ms"),
    ("finset.families_isomorphic.self_ms", "ms"),
    ("finset.span_to_matrix.cells", "count"),
    ("laws.matrix_suite.self_ms", "ms"),
    ("laws.square_suite.self_ms", "ms"),
    ("laws.lens_law_suite.self_ms", "ms"),
    ("ode.eval_field.calls", "count"),
    ("ode.eval_field.us_per_call.d1", "us"),
    ("ode.eval_field.us_per_call.d4", "us"),
    ("ode.eval_field.us_per_call.d16", "us"),
    ("ode.rk4_solve.self_ms", "ms"),
    ("ode.rk4_steps", "count"),
    ("ode.compose_lens_ode.self_ms", "ms"),
    ("ode.check_solve_functoriality.self_ms", "ms"),
    ("expr.parse.self_ms", "ms"),
    ("expr.substitute.self_ms", "ms"),
    ("expr.field_nodes.d1", "count"),
    ("expr.field_nodes.d4", "count"),
    ("expr.field_nodes.d16", "count"),
    ("stochastic.Dist.calls", "count"),
    ("stochastic.Dist.self_ms", "ms"),
    ("stochastic.tensor_stoch.self_ms", "ms"),
    ("stochastic.compose_lens_stoch.self_ms", "ms"),
    ("stochastic.simulate_stoch.self_ms", "ms"),
    ("stochastic.simulate_stoch.steps", "count"),
    ("project.load_project.self_ms", "ms"),
    ("project.load_project.bytes_in", "bytes"),
    ("project.save_project.self_ms", "ms"),
    ("project.save_project.bytes_out", "bytes"),
    ("cli.main.self_ms", "ms"),
    ("cli.out_bytes", "bytes"),
    ("cli.exit2", "count"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_x", "x"),
]


def _representable_span(c, args, result):
    rep, sys_ = args
    per_state = len(sys_.states) * len(sys_.interface.inputs) ** len(rep.interface.inputs)
    c["deterministic.representable_span.combos_tested"] += per_state ** len(rep.states)
    c["deterministic.representable_span.orbits_found"] += len(result.total)


def _chart_hom_set(c, args, result):
    c["deterministic.chart_hom_set.labels"] += len(result)


def _lens_to_span(c, args, result):
    c["deterministic.lens_to_span.apex_elements"] += len(result.apex)


def _span_to_matrix(c, args, result):
    c["finset.span_to_matrix.cells"] += len(result) * (len(result[0]) if result else 0)


def _finset_init(c, args, result):
    c["finset.FinSet.elements"] += len(args[0].elements)


def _rk4_solve(c, args, result):
    c["ode.rk4_steps"] += len(result.times) - 1


def _simulate_stoch(c, args, result):
    c["stochastic.simulate_stoch.steps"] += len(result) - 1


def _load_project(c, args, result):
    c["project.load_project.bytes_in"] += os.path.getsize(args[0])


def _save_project(c, args, result):
    c["project.save_project.bytes_out"] += os.path.getsize(args[1])


def _cli_main(c, args, result):
    c["cli.exit2"] += result == 2


# traced name -> hook(counts, positional args, result), run after the span ends
HOOKS = {
    "deterministic.representable_span": _representable_span,
    "deterministic.chart_hom_set": _chart_hom_set,
    "deterministic.lens_to_span": _lens_to_span,
    "finset.span_to_matrix": _span_to_matrix,
    "finset.FinSet": _finset_init,
    "ode.rk4_solve": _rk4_solve,
    "stochastic.simulate_stoch": _simulate_stoch,
    "project.load_project": _load_project,
    "project.save_project": _save_project,
    "cli.main": _cli_main,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = True
        self.op_index = -1
        self.kind = ""
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    def _modules(self):
        return [m for n, m in sys.modules.items() if n == "opendyn" or n.startswith("opendyn.")]

    def _wrap(self, name: str, fn):
        if name in self._wrappers:
            return self._wrappers[name]
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        tracer = self
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns
        eval_field = name == "ode.eval_field"

        def wrapper(*args, **kwargs):
            if not tracer.active or (stack and stack[-1][1] == nid):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, nid))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.op_index)
            counts[name + ".calls"] += 1
            if eval_field:
                counts[f"ode.eval_field.ns.{tracer.kind}"] += t1 - t0
                counts[f"ode.eval_field.calls.{tracer.kind}"] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        self._wrappers[name] = wrapper
        return wrapper

    def install(self) -> None:
        modules = self._modules()
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"opendyn.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for mod_name, classes in CLASSES.items():
            home = sys.modules[f"opendyn.{mod_name}"]
            for cls_name in classes:
                cls = getattr(home, cls_name)
                orig = cls.__init__
                self._patches.append((cls, "__init__", orig))
                cls.__init__ = self._wrap(f"{mod_name}.{cls_name}", orig)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    def mark(self) -> tuple[int, dict[str, int]]:
        """A point to measure from: span count and a copy of the counts."""
        return len(self.spans), dict(self.counts)

    def self_ms_since(self, mark) -> dict[str, float]:
        """Self time per traced name over the spans recorded since `mark`."""
        start = mark[0]
        spans = self.spans[start:]
        child = [0] * len(spans)
        for nid, t0, t1, parent, _op in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        for j, (nid, t0, t1, _parent, _op) in enumerate(spans):
            total[self.names[nid]] += (t1 - t0 - child[j]) / 1e6
        return total

    def counts_since(self, mark) -> dict[str, int]:
        before = mark[1]
        return {k: v - before.get(k, 0) for k, v in self.counts.items() if v != before.get(k, 0)}

    def write(self, path) -> None:
        """All spans as gzipped CSV, times relative to the first span."""
        spans = self.spans
        origin = spans[0][1] if spans else 0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("span,name,start_ns,end_ns,parent,op\n")
            for j, (nid, t0, t1, parent, op) in enumerate(spans):
                f.write(f"{j},{self.names[nid]},{t0 - origin},{t1 - origin},{parent},{op}\n")


def layer_metrics(self_ms: dict[str, float], counts: dict[str, int], field_nodes: dict[int, int]) -> dict[str, float]:
    """The per-layer metric values from self times and counts."""
    out: dict[str, float] = defaultdict(int, counts)
    for name, ms in self_ms.items():
        out[f"{name}.self_ms"] = ms
    combos = counts.get("deterministic.representable_span.combos_tested", 0)
    if combos:
        out["deterministic.representable_span.hit_ratio"] = (
            counts["deterministic.representable_span.orbits_found"] / combos
        )
    for kind in DEPTH_KINDS:
        calls = counts.get(f"ode.eval_field.calls.{kind}", 0)
        if calls:
            out[f"ode.eval_field.us_per_call.{kind}"] = counts[f"ode.eval_field.ns.{kind}"] / calls / 1e3
    for depth, nodes in field_nodes.items():
        out[f"expr.field_nodes.d{depth}"] = nodes
    return {name: out[name] for name, _unit in METRICS}
