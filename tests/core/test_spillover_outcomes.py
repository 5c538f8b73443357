"""Tests for spillover measurement."""

import pytest

from tussle.errors import DesignError
from tussle.core.design import Design
from tussle.core.spillover import dns_spillover, spillover_from_event
from tussle.netsim.dns import EntangledNameSystem, SeparatedNameSystem


def mixed_design():
    design = Design("mixed")
    design.add_module("shared")
    design.place_function("shared", "fight-zone", tussle_spaces=["economics"])
    design.place_function("shared", "bystander")
    design.add_module("clean")
    design.place_function("clean", "unrelated")
    return design


class TestStructuralSpillover:
    def test_collateral_counted_in_affected_modules_only(self):
        report = spillover_from_event(mixed_design(), "economics")
        assert report.direct == 1
        assert report.collateral == 1
        assert report.affected_modules == ["shared"]
        assert report.ratio == 1.0

    def test_isolated_space_has_zero_ratio(self):
        design = Design()
        design.add_module("arena")
        design.place_function("arena", "fight", tussle_spaces=["economics"])
        report = spillover_from_event(design, "economics")
        assert report.ratio == 0.0

    def test_unknown_space_rejected(self):
        with pytest.raises(DesignError):
            spillover_from_event(mixed_design(), "nonexistent")


class TestDnsSpillover:
    def test_entangled_breaks_services(self):
        result = dns_spillover(EntangledNameSystem(), n_names=10, seed=1)
        assert result.disputes == 3
        assert result.service_breakage > 0
        assert result.machine_bindings_broken > 0
        assert result.collateral_rate > 0

    def test_separated_contains_the_damage(self):
        result = dns_spillover(SeparatedNameSystem(), n_names=10, seed=1)
        assert result.service_breakage == 0
        assert result.machine_bindings_broken == 0
        # Human-name resolution is still disrupted (the fight is real).
        assert result.human_name_breakage > 0

    def test_same_seed_same_disputes(self):
        a = dns_spillover(EntangledNameSystem(), n_names=12, seed=5)
        b = dns_spillover(EntangledNameSystem(), n_names=12, seed=5)
        assert a.human_name_breakage == b.human_name_breakage
