"""`tensor_systems` refuses a product of more than `MAX_TENSOR_ENTRIES`
update cells, or of a Markov machine's weights, before it builds anything;
`opendyn tensor` exits 2 and leaves its output file as it was. The tests
lower the bound, so none of them builds anything large."""

from __future__ import annotations

import random

import pytest

import opendyn.deterministic as det
from opendyn import ValidationError, tensor_systems
from opendyn.cli import main
from opendyn.project import load_project

from helpers import fixture_path, random_markov_machine, random_stoch_system
from opendyn.laws import random_interface, random_system

FLIPFLOP = fixture_path("flipflop.json")
STOCH = fixture_path("stoch.json")

#: (fixture, system, its square's update cells, its square's weights): the
#: latch has 2 states and 3 inputs; the chain has 2 states, 2 inputs and
#: 2 + 1 + 2 + 1 weights.
SQUARES = {
    "deterministic": (FLIPFLOP, "flipflop", 36, 36),
    "markov": (STOCH, "chain", 16, 36),
}


def tensor_argv(project: str, system: str, out) -> list[str]:
    return ["tensor", project, "--a", system, "--b", system, "--out", str(out)]


@pytest.mark.parametrize("effect", SQUARES)
class TestTheBoundOnTheConsole:
    def test_a_product_at_the_bound_is_written(self, tmp_path, monkeypatch, capsys, effect):
        project, system, cells, weights = SQUARES[effect]
        unbounded = tmp_path / "unbounded.json"
        assert main(tensor_argv(project, system, unbounded)) == 0
        monkeypatch.setattr(det, "MAX_TENSOR_ENTRIES", max(cells, weights))
        out = tmp_path / "at.json"
        assert main(tensor_argv(project, system, out)) == 0
        assert out.read_bytes() == unbounded.read_bytes()
        capsys.readouterr()

    def test_a_product_past_the_bound_exits_2_before_the_file_is_opened(
        self, tmp_path, monkeypatch, capsys, effect
    ):
        project, system, cells, weights = SQUARES[effect]
        monkeypatch.setattr(det, "MAX_TENSOR_ENTRIES", max(cells, weights) - 1)
        out = tmp_path / "out.json"
        out.write_bytes(b"left as it was")
        assert main(tensor_argv(project, system, out)) == 2
        assert out.read_bytes() == b"left as it was"
        held = "" if cells == weights else f" holding {weights} weights"
        assert capsys.readouterr().err == (
            f"error: the tensor of a 2-state and a 2-state machine has {cells} update cells"
            f"{held}; more than MAX_TENSOR_ENTRIES = {max(cells, weights) - 1}\n"
        )
        missing = tmp_path / "missing.json"
        assert main(tensor_argv(project, system, missing)) == 2
        assert not missing.exists()


def test_a_markov_product_is_refused_on_its_weights_alone(monkeypatch):
    chain = load_project(STOCH).system("chain")
    monkeypatch.setattr(det, "MAX_TENSOR_ENTRIES", 20)
    with pytest.raises(ValidationError, match="has 16 update cells holding 36 weights; more than"):
        tensor_systems(chain, chain)


def test_the_counts_are_the_built_products(monkeypatch):
    """Both counts are exact: at their larger count the product is built, and
    it has that many cells and weights; one below, it is refused."""
    rng = random.Random(11)
    for case in range(60):
        if case % 3 == 0:
            a, b = random_system(rng, random_interface(rng, 3), 4), random_system(rng, random_interface(rng, 3), 4)
        elif case % 3 == 1:
            a, b = random_stoch_system(rng), random_stoch_system(rng)
        else:
            a = random_markov_machine(rng, random_interface(rng, 3))
            b = random_markov_machine(rng, random_interface(rng, 3))
        monkeypatch.setattr(det, "MAX_TENSOR_ENTRIES", 10**9)
        product = tensor_systems(a, b)
        cells = [cell for row in product.update.values() for cell in row.values()]
        weights = sum(len(getattr(cell, "weights", (cell,))) for cell in cells)
        monkeypatch.setattr(det, "MAX_TENSOR_ENTRIES", max(len(cells), weights))
        assert tensor_systems(a, b) == product
        monkeypatch.setattr(det, "MAX_TENSOR_ENTRIES", max(len(cells), weights) - 1)
        with pytest.raises(ValidationError, match=f"has {len(cells)} update cells"):
            tensor_systems(a, b)


def test_every_fixture_square_is_far_inside_the_bound():
    for project, system, cells, weights in SQUARES.values():
        assert 1000 * max(cells, weights) < det.MAX_TENSOR_ENTRIES
