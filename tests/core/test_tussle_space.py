"""Tests for tussle spaces."""

import pytest

from tussle.errors import TussleError
from tussle.core.mechanisms import Mechanism
from tussle.core.stakeholders import Stakeholder, StakeholderKind
from tussle.core.tussle import TussleSpace


@pytest.fixture
def space():
    arena = TussleSpace("test", initial_state={"x": 0.5, "y": 0.5})
    users = Stakeholder("users", StakeholderKind.USER)
    users.add_interest("x", target=1.0)
    users.add_interest("y", target=1.0)
    providers = Stakeholder("providers", StakeholderKind.COMMERCIAL_ISP)
    providers.add_interest("x", target=0.0)
    arena.add_stakeholder(users)
    arena.add_stakeholder(providers)
    return arena


class TestConstruction:
    def test_duplicate_stakeholder_rejected(self, space):
        with pytest.raises(TussleError):
            space.add_stakeholder(Stakeholder("users", StakeholderKind.USER))

    def test_duplicate_mechanism_rejected(self, space):
        space.add_mechanism(Mechanism(name="knob", variable="x"))
        with pytest.raises(TussleError):
            space.add_mechanism(Mechanism(name="knob", variable="y"))

    def test_mechanism_creates_missing_variable(self, space):
        space.add_mechanism(Mechanism(name="knob", variable="z"))
        assert space.state["z"] == 0.5

    def test_unknown_lookups_raise(self, space):
        with pytest.raises(TussleError):
            space.stakeholder("ghost")
        with pytest.raises(TussleError):
            space.mechanism("ghost")


class TestConflictStructure:
    def test_mechanisms_for_respects_controllers(self, space):
        space.add_mechanism(Mechanism(
            name="user-knob", variable="x",
            controllers=frozenset({StakeholderKind.USER})))
        space.add_mechanism(Mechanism(name="open-knob", variable="x"))
        user_mechanisms = space.mechanisms_for("x", StakeholderKind.USER)
        isp_mechanisms = space.mechanisms_for("x", StakeholderKind.COMMERCIAL_ISP)
        assert {m.name for m in user_mechanisms} == {"user-knob", "open-knob"}
        assert {m.name for m in isp_mechanisms} == {"open-knob"}

    def test_total_welfare(self, space):
        # users: |0.5-1|+|0.5-1| = 1.0; providers: |0.5-0| = 0.5
        assert space.total_welfare() == pytest.approx(-1.5)
