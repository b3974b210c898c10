"""The names the benchmark's per-layer tracer looks up in opendyn still resolve.

`perfbench/tracer.py` wraps opendyn functions by name and reads their
results in its hooks, so renaming one of them, or changing what it returns,
would break a traced benchmark run without failing any other test here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from opendyn import Family, FinSet, Span, walking_cycle

from helpers import feedback_lens, fixture_path, flipflop

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_class_resolves(tracer):
    for table in (tracer.TRACED, tracer.CLASSES):
        for mod_name, names in table.items():
            module = importlib.import_module(f"opendyn.{mod_name}")
            for name in names:
                assert callable(getattr(module, name, None)), f"opendyn.{mod_name}.{name}"


def test_hooks_read_the_results_they_expect(tracer):
    det = importlib.import_module("opendyn.deterministic")
    finset = importlib.import_module("opendyn.finset")
    rep = walking_cycle(2)
    family = det.representable_span(rep, flipflop())
    charts = det.chart_hom_set(rep.interface, flipflop().interface)
    span = det.lens_to_span(feedback_lens(), rep.interface)
    matrix = finset.span_to_matrix(span)
    assert isinstance(family, Family) and isinstance(charts, FinSet)
    assert isinstance(span, Span) and isinstance(matrix, list)
    counts = {name: 0 for name, _unit in tracer.METRICS}
    tracer.HOOKS["deterministic.representable_span"](counts, (rep, flipflop()), family)
    tracer.HOOKS["deterministic.chart_hom_set"](counts, (), charts)
    tracer.HOOKS["deterministic.lens_to_span"](counts, (), span)
    tracer.HOOKS["finset.span_to_matrix"](counts, (), matrix)
    assert counts["deterministic.representable_span.orbits_found"] == len(family.total)
    assert counts["deterministic.chart_hom_set.labels"] == len(charts) == 36
    assert counts["deterministic.lens_to_span.apex_elements"] == len(span.apex) == 4
    assert counts["finset.span_to_matrix.cells"] == 36


def test_install_wraps_and_uninstall_restores(tracer):
    det = importlib.import_module("opendyn.deterministic")
    original = det.lens_to_span
    t = tracer.Tracer()
    t.install()
    try:
        assert det.lens_to_span is not original
        det.lens_to_span(feedback_lens(), walking_cycle(1).interface)
    finally:
        t.uninstall()
    assert det.lens_to_span is original
    assert t.counts["deterministic.lens_to_span.calls"] == 1
    assert t.counts["deterministic.lens_to_span.apex_elements"] == 2


def test_a_markov_simulate_runs_through_the_simulate_stoch_wrapper(tracer, tmp_path):
    cli = importlib.import_module("opendyn.cli")
    argv = ["simulate", fixture_path("stoch.json"), "--system", "chain", "--start", "a",
            "--word", "go,stay,go", "--out", str(tmp_path / "run.csv")]
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(argv)
    finally:
        t.uninstall()
    assert code == 0
    assert t.counts["stochastic.simulate_stoch.calls"] == 1
    assert t.counts["stochastic.simulate_stoch.steps"] == 3


def test_a_traced_theorem_goes_through_the_public_objects(tracer):
    det = importlib.import_module("opendyn.deterministic")
    t = tracer.Tracer()
    t.install()
    try:
        match = det.check_matrix_theorem(feedback_lens(), flipflop(), 2)
    finally:
        t.uninstall()
    assert match
    for name in (
        "finset.apply_span_to_family.calls",
        "finset.families_isomorphic.calls",
        "deterministic.lens_to_span.apex_elements",
    ):
        assert t.counts[name] > 0, name
    # the theorem counts its orbits off one walk per machine, not through
    # `representable_span`, so the tracer's orbit metrics read nothing here
    assert t.counts["deterministic.representable_span.calls"] == 0
