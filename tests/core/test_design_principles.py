"""Tests for design objects and principle metrics."""

import pytest

from tussle.errors import DesignError
from tussle.core.design import Design
from tussle.core.mechanisms import Mechanism
from tussle.core.principles import isolation_score, rigidity


def entangled_design():
    design = Design("entangled")
    design.add_module("monolith")
    design.place_function("monolith", "resolve",
                          tussle_spaces=["trademark", "naming"])
    design.place_function("monolith", "cache")
    return design


def separated_design():
    design = Design("separated")
    design.add_module("directory")
    design.add_module("naming")
    design.place_function("directory", "resolve-human",
                          tussle_spaces=["trademark"])
    design.place_function("naming", "resolve-id", tussle_spaces=["naming"])
    design.connect("directory", "naming", open_=True, tussle_aware=True)
    return design


class TestDesign:
    def test_duplicate_module_rejected(self):
        design = Design()
        design.add_module("m")
        with pytest.raises(DesignError):
            design.add_module("m")

    def test_function_placed_once(self):
        design = Design()
        design.add_module("m1")
        design.add_module("m2")
        design.place_function("m1", "f")
        with pytest.raises(DesignError):
            design.place_function("m2", "f")

    def test_module_of(self):
        design = separated_design()
        assert design.module_of("resolve-human").name == "directory"
        with pytest.raises(DesignError):
            design.module_of("ghost")

    def test_self_interface_rejected(self):
        design = Design()
        design.add_module("m")
        with pytest.raises(DesignError):
            design.connect("m", "m")

    def test_tussle_space_queries(self):
        design = separated_design()
        assert design.tussle_spaces() == {"trademark", "naming"}
        assert [f.name for f in design.functions_in_space("trademark")] \
            == ["resolve-human"]
        assert [m.name for m in design.modules_touching_space("naming")] \
            == ["naming"]

    def test_interface_between(self):
        design = separated_design()
        assert design.interface_between("naming", "directory") is not None
        assert design.interface_between("naming", "ghost") is None


class TestIsolationScore:
    def test_separated_beats_entangled(self):
        assert isolation_score(separated_design()) > isolation_score(
            entangled_design())

    def test_perfectly_isolated_scores_one(self):
        assert isolation_score(separated_design()) == 1.0

    def test_uncontested_design_trivially_isolated(self):
        design = Design()
        design.add_module("m")
        design.place_function("m", "f")
        assert isolation_score(design) == 1.0

    def test_mixing_contested_and_uncontested_penalized(self):
        design = Design()
        design.add_module("m")
        design.place_function("m", "contested", tussle_spaces=["economics"])
        design.place_function("m", "plain")
        assert isolation_score(design) < 1.0


class TestRigidity:
    def test_all_exposed_is_zero(self):
        mechanisms = [Mechanism(name="m", variable="x")]
        assert rigidity(mechanisms, ["x"]) == 0.0

    def test_unexposed_variables_counted(self):
        mechanisms = [Mechanism(name="m", variable="x")]
        assert rigidity(mechanisms, ["x", "y"]) == pytest.approx(0.5)

    def test_degenerate_range_counts_as_fixed(self):
        mechanisms = [Mechanism(name="m", variable="x",
                                allowed_range=(0.5, 0.5))]
        assert rigidity(mechanisms, ["x"]) == 1.0

    def test_no_variables_zero(self):
        assert rigidity([], []) == 0.0

