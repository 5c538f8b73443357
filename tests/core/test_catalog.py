"""The tussle machinery on the paper's three §V arenas.

Each builder assembles the stakeholders, interests and mechanisms of one
of the paper's headline tussle spaces, with variables normalized to
[0, 1]. ``flexible=False`` pins every knob at 0.5, the design that
dictates the outcome. The tests run the live space, principle and
simulator code on them: rigidity reads 0 or 1, every space is contested,
flexible arenas survive 40 rounds and rigid ones are broken.
"""

import pytest

from tussle.core.mechanisms import Mechanism
from tussle.core.principles import rigidity
from tussle.core.simulator import TussleSimulator
from tussle.core.stakeholders import Stakeholder, StakeholderKind
from tussle.core.tussle import TussleSpace


def targets(space, variable):
    """The distinct targets the stakeholders who care pull ``variable`` to."""
    return {s.interests[variable].target for s in space.stakeholders
            if s.cares_about(variable)}


def economics_space(flexible=True):
    """§V-A: price level (0 marginal cost, 1 monopoly), switching ease
    (0 locked in, 1 free to move), usage restrictions (0 none, 1 heavy).
    Consumers pull each variable one way, providers the other."""
    full = (0.0, 1.0) if flexible else (0.5, 0.5)
    space = TussleSpace("economics", initial_state={
        "price-level": 0.5,
        "switching-ease": 0.5,
        "usage-restrictions": 0.5,
    })
    space.add_mechanism(Mechanism(name="pricing", variable="price-level",
                                  allowed_range=full))
    space.add_mechanism(Mechanism(name="portability",
                                  variable="switching-ease",
                                  allowed_range=full))
    space.add_mechanism(Mechanism(name="acceptable-use",
                                  variable="usage-restrictions",
                                  allowed_range=full))

    consumers = Stakeholder("consumers", StakeholderKind.USER,
                            workaround_cost=0.1)
    consumers.add_interest("price-level", target=0.0, weight=1.0)
    consumers.add_interest("switching-ease", target=1.0, weight=0.8)
    consumers.add_interest("usage-restrictions", target=0.0, weight=0.6)
    space.add_stakeholder(consumers)

    providers = Stakeholder("providers", StakeholderKind.COMMERCIAL_ISP,
                            workaround_cost=0.1)
    providers.add_interest("price-level", target=1.0, weight=1.0)
    providers.add_interest("switching-ease", target=0.0, weight=0.8)
    providers.add_interest("usage-restrictions", target=1.0, weight=0.6)
    space.add_stakeholder(providers)
    return space


def trust_space(flexible=True):
    """§V-B: transparency (0 default-deny, 1 transparent carriage),
    anonymity (0 mandatory identity, 1 free anonymity), interception
    (0 none, 1 pervasive wiretap). Users, government and the "bad guys"
    pull anonymity three ways."""
    full = (0.0, 1.0) if flexible else (0.5, 0.5)
    space = TussleSpace("trust", initial_state={
        "transparency": 0.8,
        "anonymity": 0.8,
        "interception": 0.1,
    })
    for name, variable in (("firewalling", "transparency"),
                           ("identity-regime", "anonymity"),
                           ("lawful-intercept", "interception")):
        space.add_mechanism(Mechanism(name=name, variable=variable,
                                      allowed_range=full))

    users = Stakeholder("users", StakeholderKind.USER, workaround_cost=0.1)
    users.add_interest("transparency", target=0.6, weight=0.8)
    users.add_interest("anonymity", target=0.8, weight=0.7)
    users.add_interest("interception", target=0.0, weight=1.0)
    space.add_stakeholder(users)

    government = Stakeholder("government", StakeholderKind.GOVERNMENT,
                             workaround_cost=0.05)
    government.add_interest("anonymity", target=0.1, weight=0.9)
    government.add_interest("interception", target=0.8, weight=1.0)
    space.add_stakeholder(government)

    bad_guys = Stakeholder("bad-guys", StakeholderKind.USER,
                           workaround_cost=0.02)
    bad_guys.add_interest("transparency", target=1.0, weight=0.5)
    bad_guys.add_interest("anonymity", target=1.0, weight=1.0)
    space.add_stakeholder(bad_guys)
    return space


def openness_space(flexible=True):
    """§V-C: interface openness (0 proprietary, 1 open), vertical
    integration (0 unbundled, 1 bundled), innovation barrier (0 new
    applications deploy freely, 1 the net suits incumbents only).
    Incumbents against innovators and users."""
    full = (0.0, 1.0) if flexible else (0.5, 0.5)
    space = TussleSpace("openness", initial_state={
        "interface-openness": 0.7,
        "vertical-integration": 0.3,
        "innovation-barrier": 0.2,
    })
    for name, variable in (("interface-specs", "interface-openness"),
                           ("bundling", "vertical-integration"),
                           ("deployment-friction", "innovation-barrier")):
        space.add_mechanism(Mechanism(name=name, variable=variable,
                                      allowed_range=full))

    incumbents = Stakeholder("incumbents", StakeholderKind.COMMERCIAL_ISP,
                             workaround_cost=0.1)
    incumbents.add_interest("interface-openness", target=0.2, weight=0.8)
    incumbents.add_interest("vertical-integration", target=0.9, weight=1.0)
    incumbents.add_interest("innovation-barrier", target=0.6, weight=0.4)
    space.add_stakeholder(incumbents)

    innovators = Stakeholder("innovators", StakeholderKind.CONTENT_PROVIDER,
                             workaround_cost=0.1)
    innovators.add_interest("interface-openness", target=1.0, weight=1.0)
    innovators.add_interest("innovation-barrier", target=0.0, weight=1.0)
    space.add_stakeholder(innovators)

    users = Stakeholder("users", StakeholderKind.USER, workaround_cost=0.15)
    users.add_interest("vertical-integration", target=0.0, weight=0.6)
    users.add_interest("innovation-barrier", target=0.0, weight=0.8)
    space.add_stakeholder(users)
    return space


ALL_SPACES = [economics_space, trust_space, openness_space]


class TestConstruction:
    @pytest.mark.parametrize("factory", ALL_SPACES)
    def test_every_variable_has_a_mechanism(self, factory):
        space = factory()
        covered = {m.variable for m in space.mechanisms}
        assert covered == set(space.variables())

    @pytest.mark.parametrize("factory", ALL_SPACES)
    def test_flexible_by_default_rigid_on_request(self, factory):
        flexible = factory(flexible=True)
        rigid = factory(flexible=False)
        assert rigidity(flexible.mechanisms, flexible.variables()) == 0.0
        assert rigidity(rigid.mechanisms, rigid.variables()) == 1.0

    @pytest.mark.parametrize("factory", ALL_SPACES)
    def test_spaces_are_genuinely_contested(self, factory):
        space = factory()
        assert any(len(targets(space, v)) >= 2 for v in space.variables())

    def test_arena_names(self):
        assert economics_space().name == "economics"
        assert trust_space().name == "trust"
        assert openness_space().name == "openness"


class TestDynamics:
    @pytest.mark.parametrize("factory", ALL_SPACES)
    def test_flexible_arena_survives_the_fight(self, factory):
        outcome = TussleSimulator(factory(flexible=True)).run(40)
        assert outcome.survived
        assert outcome.total_workarounds == 0
        assert outcome.total_moves > 0

    @pytest.mark.parametrize("factory", ALL_SPACES)
    def test_rigid_arena_is_broken(self, factory):
        outcome = TussleSimulator(factory(flexible=False)).run(40)
        assert outcome.broken
        assert outcome.total_workarounds > 0

    def test_trust_space_three_way_contention(self):
        """Anonymity is pulled three ways: users, government, bad guys."""
        assert targets(trust_space(), "anonymity") == {0.8, 0.1, 1.0}

    def test_economics_contest_never_settles(self):
        outcome = TussleSimulator(economics_space()).run(40)
        assert not outcome.settled  # "no final outcome"
