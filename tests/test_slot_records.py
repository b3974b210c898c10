"""The seven record classes against the dataclasses they replaced, and the
value classes that compare through `Record` too.

`DetInterface`, `SquareResult`, `Trajectory`, `ResidualResult`,
`FunctorialityResult`, `ProjectFile` and `SuiteResult` are plain
`__slots__` classes over `opendyn.record`. Built from the same arguments as
their forms in `dataclass_record_oracle`, each must construct, compare,
hash, print, test true or false, refuse assignment, copy, pickle and
replace its fields as the dataclass did, and refuse bad arguments with the
same text. Records the library itself returns must print as their
dataclass copies do.

`Machine`, `DetLens`, `DetChart`, `FinMap`, `Span`, `FamilyMatch`, `Dist`,
`OdeSystem` and `OdeLens` name their constructor's parameters as their
`_fields`, so copies, pickles and replaced copies rebuild through the
constructor and compare equal, whatever caches or thunks a value holds.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import random

import pytest

import dataclass_record_oracle as oracle
from helpers import chain, feedback_lens, fixture_path, flipflop, wired
from opendyn import laws
from opendyn.deterministic import (
    DetChart,
    DetInterface,
    DetLens,
    Machine,
    SquareResult,
    check_matrix_theorem,
    check_square,
    lens_to_span,
    walking_cycle,
)
from opendyn.finset import FamilyMatch, FinMap, FinSet, ProductSet, Span
from opendyn.stochastic import Dist
from opendyn.laws import SuiteResult
from opendyn.ode import (
    FunctorialityResult,
    OdeLens,
    OdeSystem,
    ParamSignal,
    ResidualResult,
    Trajectory,
    check_residual,
    check_solve_functoriality,
    rk4_solve,
)
from opendyn.project import ProjectFile, load_project

A, B = FinSet(["a", "b"]), FinSet(["x"])
AB = ProductSet([FinSet(["p", "q"]), FinSet(["r"])])
TIMES, VALUES = (0.0, 0.5, 1.0), ((1.0, 2.0), (1.5, 2.5), (2.0, 3.0))
OUTPUTS = ((1.0,), (2.0,), (3.0,))

# Per class: argument lists (positional, keyword) that build equal or
# unequal instances, and the fields a replace may change.
CASES = {
    "DetInterface": [
        ((A, B), {}), ((), {"inputs": A, "outputs": B}), ((FinSet(["a", "b"]), FinSet(["x"])), {}),
        ((B, A), {}), ((AB, B), {}), ((FinSet(["p|r", "q|r"]), B), {}), ((A, A), {}),
    ],
    "SquareResult": [
        ((True,), {}), ((False, ("o", None), "outputs disagree"), {}),
        ((False,), {"witness": ("o", "i"), "reason": "inputs disagree"}),
        ((), {"holds": True}), ((True, None, ""), {}), ((0,), {}),
    ],
    "Trajectory": [
        ((TIMES, VALUES, OUTPUTS), {}),
        ((), {"times": TIMES, "values": VALUES, "outputs": OUTPUTS}),
        (((), (), ()), {}), (((0.0,), ((1.0,),), ((),)), {}),
        ((TIMES[:2], VALUES[:2], OUTPUTS[:2]), {}),
    ],
    "ResidualResult": [
        ((True, 0.0, -1, 0.0, ""), {}), ((False, 0.5, 3, 0.25, "x"), {}),
        ((), {"passed": False, "max_residual": 0.5, "index": 3, "time": 0.25, "component": "x"}),
        ((True, 0, -1, 0, ""), {}),
    ],
    "FunctorialityResult": [
        ((True, 0.0, 0.0), {}), ((False, 1e-3, 2.5), {}),
        ((), {"passed": False, "max_deviation": 1e-3, "time": 2.5}), ((1, 0.0, 0.0), {}),
    ],
    "ProjectFile": [
        ((), {}), (({"ff": flipflop()},), {}), ((), {"lenses": {"fb": feedback_lens()}}),
        (({}, {}, {}), {}), (({"ff": flipflop()}, {"fb": feedback_lens()}), {}),
    ],
    "SuiteResult": [
        (("squares", True, 200), {}), (("squares", False, 3, "case 2: mutation not caught"), {}),
        ((), {"name": "squares", "passed": True, "cases": 200}), (("matrix", True, 200, ""), {}),
    ],
}
OURS = {
    "DetInterface": DetInterface, "SquareResult": SquareResult, "Trajectory": Trajectory,
    "ResidualResult": ResidualResult, "FunctorialityResult": FunctorialityResult,
    "ProjectFile": ProjectFile, "SuiteResult": SuiteResult,
}
FROZEN = {"DetInterface", "Trajectory", "ResidualResult", "FunctorialityResult"}
# a value each field may be replaced by
CHANGES = {
    "DetInterface": {"inputs": B}, "SquareResult": {"reason": "changed"},
    "Trajectory": {"times": (0.0, 0.25, 1.0)}, "ResidualResult": {"index": 7},
    "FunctorialityResult": {"time": 9.0}, "ProjectFile": {"charts": {}},
    "SuiteResult": {"detail": "changed"},
}
NAMES = sorted(OURS)


def both(name: str, args: tuple, kwargs: dict):
    return OURS[name](*args, **kwargs), getattr(oracle, name)(*args, **kwargs)


def built(name: str) -> list[tuple]:
    return [both(name, args, kwargs) for args, kwargs in CASES[name]]


def outcome(call):
    """What `call()` gives: the repr of its value, or the type and text of
    what it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc), str(exc)


def test_every_field_is_named():
    for name in NAMES:
        fields = tuple(f.name for f in dataclasses.fields(getattr(oracle, name)))
        assert OURS[name]._fields == OURS[name].__slots__ == fields


@pytest.mark.parametrize("name", NAMES)
def test_construction(name):
    for ours, theirs in built(name):
        assert type(ours) is OURS[name]
        assert ours._values() == tuple(getattr(theirs, field) for field in ours._fields)
        assert repr(ours) == repr(theirs)
        assert outcome(lambda: bool(ours)) == outcome(lambda: bool(theirs))


def test_project_sections_are_fresh_dicts():
    first, second = ProjectFile(), ProjectFile()
    for field in ProjectFile._fields:
        assert getattr(first, field) == {} and getattr(first, field) is not getattr(second, field)
    given = {"ff": flipflop()}
    assert ProjectFile(given).systems is given


@pytest.mark.parametrize("name", NAMES)
def test_bad_arguments_get_the_same_text(name):
    ours, theirs = OURS[name], getattr(oracle, name)
    first = CASES[name][0][0][:1]
    calls = [
        lambda cls: cls(), lambda cls: cls(*first), lambda cls: cls(nonesuch=1),
        lambda cls: cls(*range(9)), lambda cls: cls(*first, **{ours._fields[0]: 1}),
    ]
    for call in calls:
        assert outcome(lambda: call(ours)) == outcome(lambda: call(theirs))


@pytest.mark.parametrize("name", NAMES)
def test_equality(name):
    pairs = built(name)
    for ours, theirs in pairs:
        for other, other_theirs in pairs:
            assert (ours == other) is (theirs == other_theirs)
            assert (ours != other) is (theirs != other_theirs)
        for stranger in (None, 0, ours._values()):
            assert (ours == stranger) is (theirs == stranger) is False
            assert ours.__eq__(stranger) is theirs.__eq__(stranger) is NotImplemented
        assert ours.__eq__(theirs) is theirs.__eq__(ours) is NotImplemented
        assert ours != theirs


def test_interfaces_compare_alphabets_that_are_equal_but_not_the_same():
    assert DetInterface(A, B) == DetInterface(FinSet(A.elements), FinSet(B.elements))
    assert DetInterface(AB, B) == DetInterface(FinSet(AB), B) == DetInterface(AB, FinSet(["x"]))
    assert DetInterface(FinSet(AB), B) == DetInterface(AB, B)
    assert DetInterface(A, B) != DetInterface(A, A) and DetInterface(A, B) != DetInterface(B, B)


@pytest.mark.parametrize("name", NAMES)
def test_hash(name):
    for ours, theirs in built(name):
        assert outcome(lambda: hash(ours)) == outcome(lambda: hash(theirs))
        hashable = name in FROZEN and all(value is not AB for value in ours._values())
        assert isinstance(outcome(lambda: hash(ours)), str) is hashable


def test_results_holding_nan_print_and_hash_alike():
    nan = math.nan
    ours = ResidualResult(False, nan, 2, 0.5, "y")
    theirs = oracle.ResidualResult(False, nan, 2, 0.5, "y")
    assert repr(ours) == repr(theirs) and hash(ours) == hash(theirs) and not ours and not theirs
    ours, theirs = FunctorialityResult(False, nan, 0.0), oracle.FunctorialityResult(False, nan, 0.0)
    assert repr(ours) == repr(theirs) and hash(ours) == hash(theirs)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_refuse_assignment_and_deletion(name):
    for ours, theirs in built(name):
        before = repr(ours)
        for field in (*ours._fields, "other"):
            for change in (lambda x: setattr(x, field, 1), lambda x: delattr(x, field)):
                kind, text = outcome(lambda: change(ours))
                assert kind is AttributeError
                assert (dataclasses.FrozenInstanceError, text) == outcome(lambda: change(theirs))
        assert repr(ours) == before


@pytest.mark.parametrize("name", sorted(set(NAMES) - FROZEN))
def test_other_records_take_assignment_to_their_fields(name):
    for ours, theirs in built(name):
        for field, value in CHANGES[name].items():
            setattr(ours, field, value)
            setattr(theirs, field, value)
        assert repr(ours) == repr(theirs)
        with pytest.raises(AttributeError):  # a slot record holds its fields alone
            ours.other = 1


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles(name):
    for ours, theirs in built(name):
        shallow, shallow_theirs = copy.copy(ours), copy.copy(theirs)
        assert type(shallow) is type(ours) and shallow == ours and repr(shallow) == repr(theirs)
        for field in ours._fields:
            assert (getattr(shallow, field) is getattr(ours, field)) is (
                getattr(shallow_theirs, field) is getattr(theirs, field)
            )
        for twin in (copy.deepcopy(ours), pickle.loads(pickle.dumps(ours))):
            assert type(twin) is type(ours) and twin == ours and repr(twin) == repr(theirs)


@pytest.mark.parametrize("name", NAMES)
def test_replace(name):
    for ours, theirs in built(name):
        for changes in (CHANGES[name], {}, {"nonesuch": 1}):
            assert outcome(lambda: ours.__replace__(**changes)) == outcome(
                lambda: dataclasses.replace(theirs, **changes)
            )
            if hasattr(copy, "replace"):  # Python 3.13 and later
                assert outcome(lambda: copy.replace(ours, **changes)) == outcome(
                    lambda: copy.replace(theirs, **changes)
                )
        assert type(ours.__replace__()) is type(ours)


BAD_TRAJECTORIES = [
    ((0.0, 1.0), ((1.0,),), ((1.0,), (2.0,))),
    ((0.0, 1.0), ((1.0,), (2.0,)), ((1.0,),)),
    ((0.0, 0.0), ((1.0,), (2.0,)), ((), ())),
    ((1.0, 0.5), ((1.0,), (2.0,)), ((), ())),
    ((0.0, math.nan), ((1.0,), (2.0,)), ((), ())),
    ((0.0, 1.0), ((1.0,), (2.0, 3.0)), ((), ())),
    ((0.0, 1.0), ((1.0,), (2.0,)), ((), (1.0,))),
    ((0.0, 1.0, 1.0), ((1.0,), (2.0,)), ((), ())),
]


@pytest.mark.parametrize("args", BAD_TRAJECTORIES, ids=range(len(BAD_TRAJECTORIES)))
def test_trajectory_validation_texts(args):
    assert outcome(lambda: Trajectory(*args)) == outcome(lambda: oracle.Trajectory(*args))


def copied(record):
    """The record's dataclass copy, field for field."""
    return getattr(oracle, type(record).__name__)(*record._values())


def test_the_records_the_library_returns_print_as_dataclasses():
    latch = load_project(fixture_path("flipflop.json"))
    lv = load_project(fixture_path("lv.json"))
    system = lv.system("lotka_volterra")
    params = ParamSignal.constant((1.0, 0.5, 0.2, 0.4))
    traj = rk4_solve(system, (2.0, 1.0), params, 0.0, 1.0, 0.125)
    rng = laws._suite_rng(0, "squares")
    square = laws.random_square(rng)
    records = [
        latch, lv, traj, check_residual(system, traj, params, 1.0),
        check_residual(system, traj, params, 0.0),
        check_solve_functoriality(
            lv.lens("wiring"), lv.system("rabbit_fox"), (2.0, 1.0), params, 0.0, 1.0, 0.125, 1e-9
        ),
        square.left.source, check_square(square),
        check_square(laws.mutate_square(rng, square)[0]),
        laws.lens_law_suite(0, 3), laws.square_suite(0, 3), laws.matrix_suite(0, 3),
    ]
    for record in records:
        twin = copied(record)
        assert repr(record) == repr(twin) and bool(record) is bool(twin)


VALUE_CLASSES = [Machine, DetLens, DetChart, FinMap, Span, FamilyMatch, Dist, OdeSystem, OdeLens]


def value_records() -> list:
    """Values of each class `VALUE_CLASSES` names, some holding caches or
    unread thunks: a compiled ODE system, a theorem verdict whose witness is
    not formed yet."""
    rng = laws._suite_rng(0, "squares")
    square = laws.random_square(rng)
    latch, lens = flipflop(), feedback_lens()
    lv = load_project(fixture_path("lv.json"))
    compiled = lv.system("rabbit_fox")
    compiled.compiled()
    dist = chain().update["a"]["go"]
    span = lens_to_span(lens, walking_cycle(2).interface)
    return [
        latch, chain(), lens, square.top, square.left, latch.readout, span,
        Span(span.source, span.target, span.apex, span.left, span.right),
        check_matrix_theorem(lens, latch, 2), FamilyMatch(None, "a", (1, 0)), dist,
        lv.system("lotka_volterra"), compiled, wired(2), lv.lens("wiring"),
        laws.random_lens(random.Random(3), *(laws.random_interface(rng) for _ in range(2))),
    ]


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_fields_are_the_constructor_parameters(cls):
    assert "__eq__" not in vars(cls)
    assert tuple(inspect.signature(cls).parameters) == cls._fields


def test_value_records_copy_pickle_and_replace():
    values = value_records()
    assert {type(value) for value in values} >= {DetChart, DetLens, FamilyMatch, Span}
    for value in values:
        shown = repr(value)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)),
                     value.__replace__()):
            assert type(twin) is type(value) and twin == value and repr(twin) == shown
        for field in value._fields:
            changed = {field: copy.deepcopy(getattr(value, field))}
            assert value.__replace__(**changed) == value
            if hasattr(copy, "replace"):  # Python 3.13 and later
                assert copy.replace(value, **changed) == value
        with pytest.raises(TypeError):
            value.__replace__(nonesuch=1)


def test_a_compiled_ode_system_pickles():
    system = load_project(fixture_path("lv.json")).system("rabbit_fox")
    system.compiled()
    twin = pickle.loads(pickle.dumps(system))
    assert twin == system and twin._compiled is None
    params = (1.0, 0.5, 0.2, 0.4)
    assert twin.compiled()(*params)(2.0, 1.0) == system.compiled()(*params)(2.0, 1.0)


def test_a_theorem_verdict_pickles():
    verdict = check_matrix_theorem(feedback_lens(), flipflop(), 2)
    twin = pickle.loads(pickle.dumps(verdict))
    assert twin and twin == verdict and repr(twin) == repr(verdict)
    assert isinstance(twin.witness, FinMap)


def test_copying_a_theorem_verdict_forms_no_witness():
    """A copy shares the verdict's unread witness: neither side forms it
    until it is read, and then each forms the same one. A pickle round trip
    forms it, since the families hold closures, and still compares equal."""
    verdict = check_matrix_theorem(feedback_lens(), flipflop(), 3)
    twin = copy.copy(verdict)
    assert verdict._witness is None and twin._witness is None
    assert twin and twin.mismatch is None and twin.counts is None
    assert twin.witness == verdict.witness and isinstance(twin.witness, FinMap)
    assert pickle.loads(pickle.dumps(verdict)) == verdict == twin
    mismatch = FamilyMatch(None, "a", (1, 0))
    assert copy.copy(mismatch) == mismatch and not copy.copy(mismatch)
