"""ChaosSchedule / FaultPlan / ChaosInjector tests: determinism, order, replay."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tussle.errors import ResilienceError
from tussle.netsim.forwarding import ForwardingEngine
from tussle.netsim.packets import make_packet
from tussle.netsim.topology import Network
from tussle.resil import (
    ChaosInjector,
    ChaosSchedule,
    FaultEvent,
    FaultKind,
    FaultPlan,
    link_target,
    parse_link_target,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
rates = st.floats(min_value=0.0, max_value=2.0)


def ring_network(n=5):
    net = Network()
    names = [f"n{i}" for i in range(n)]
    for name in names:
        net.add_node(name)
    for i in range(n):
        net.add_link(names[i], names[(i + 1) % n])
    return net


def line_engine():
    net = Network()
    for name in ("a", "b", "c"):
        net.add_node(name)
    net.add_link("a", "b")
    net.add_link("b", "c")
    engine = ForwardingEngine(net)
    engine.install_shortest_path_tables()
    return engine


def schedules_strategy():
    return st.builds(
        ChaosSchedule,
        seed=seeds,
        horizon=st.floats(min_value=1.0, max_value=20.0),
        link_failure_rate=rates,
        node_crash_rate=rates,
        delay_spike_rate=rates,
        middlebox_rate=st.floats(min_value=0.0, max_value=0.5),
    )


class TestLinkTargets:
    def test_canonical_and_parseable(self):
        assert link_target("b", "a") == link_target("a", "b") == "a|b"
        assert parse_link_target("a|b") == ("a", "b")

    def test_bad_target_rejected(self):
        with pytest.raises(ResilienceError):
            parse_link_target("no-separator")


class TestFaultPlanDeterminism:
    @given(schedule=schedules_strategy())
    @settings(max_examples=40, deadline=None)
    def test_same_schedule_replans_identically(self, schedule):
        clone = replace(schedule)
        net = ring_network()
        assert clone.plan(net) == schedule.plan(net)

    @given(schedule=schedules_strategy())
    @settings(max_examples=40, deadline=None)
    def test_plan_is_pure_function_of_seed(self, schedule):
        assert schedule.plan(ring_network()) == schedule.plan(ring_network())

    def test_different_seeds_differ(self):
        a = ChaosSchedule(seed=1, horizon=50.0, link_failure_rate=1.0)
        b = ChaosSchedule(seed=2, horizon=50.0, link_failure_rate=1.0)
        net = ring_network()
        assert a.plan(net) != b.plan(net)

    def test_substream_order_pins_the_plan(self):
        """The master seed spawns link, node, loss, delay and middlebox
        substreams in that order.  No process reads "loss", but dropping
        its draw would reseed the delay and middlebox streams and change
        every plan that uses them."""
        schedule = ChaosSchedule(seed=4, horizon=3.0, link_failure_rate=0.4,
                                 node_crash_rate=0.3, delay_spike_rate=0.5,
                                 middlebox_rate=0.4)
        assert [e.sort_key for e in schedule.plan(ring_network()).events] == [
            (0.10374963485272014, "link-down", "n1|n2", "{}"),
            (0.3787987079084345, "delay-spike", "n0|n4",
             '{"duration":1.297227982048817,"factor":6.208721454027684}'),
            (1.0746919611024144, "link-up", "n1|n2", "{}"),
            (1.189992850533715, "middlebox-insert", "n0",
             '{"application":"generic","discloses":false}'),
            (1.2327959550085845, "node-crash", "n4", "{}"),
            (2.0696570380520622, "middlebox-insert", "n1",
             '{"application":"generic","discloses":false}'),
            (2.1170572928115927, "node-crash", "n1", "{}"),
            (2.5031221224362197, "delay-spike", "n1|n2",
             '{"duration":1.3891444218406155,"factor":4.33643624176406}'),
            (2.6381345107095604, "node-recover", "n4", "{}"),
            (3.5250742063027625, "node-recover", "n1", "{}"),
        ]


class TestFaultPlanOrdering:
    def test_events_sorted_and_queryable(self):
        plan = FaultPlan()
        plan.add(FaultEvent(2.0, FaultKind.LINK_UP, "a|b"))
        plan.add(FaultEvent(1.0, FaultKind.LINK_DOWN, "a|b"))
        assert [e.time for e in plan.events] == [1.0, 2.0]
        assert len(plan) == 2

    def test_insertion_order_does_not_change_equality(self):
        events = [
            FaultEvent(1.0, FaultKind.LINK_DOWN, "a|b"),
            FaultEvent(1.0, FaultKind.DELAY_SPIKE, "a|b",
                       params=(("duration", 1.0), ("factor", 2.0))),
            FaultEvent(2.0, FaultKind.LINK_UP, "a|b"),
        ]
        forward, backward = FaultPlan(), FaultPlan()
        for event in events:
            forward.add(event)
        for event in reversed(events):
            backward.add(event)
        assert forward == backward == FaultPlan(events=events[::-1])
        assert forward != FaultPlan(events=events[:2])


class TestChaosInjector:
    def test_link_flap_breaks_and_heals_delivery(self):
        engine = line_engine()
        plan = FaultPlan(events=[
            FaultEvent(1.0, FaultKind.LINK_DOWN, link_target("b", "c")),
            FaultEvent(2.0, FaultKind.LINK_UP, link_target("b", "c")),
        ])
        injector = ChaosInjector(engine, plan)
        injector.advance(0.5)
        assert engine.send(make_packet("a", "c")).delivered
        injector.advance(1.5)
        assert not engine.send(make_packet("a", "c")).delivered
        injector.advance(2.5)
        assert engine.send(make_packet("a", "c")).delivered

    def test_node_crash_downs_incident_links_and_recovers(self):
        engine = line_engine()
        plan = FaultPlan(events=[
            FaultEvent(1.0, FaultKind.NODE_CRASH, "b"),
            FaultEvent(2.0, FaultKind.NODE_RECOVER, "b"),
        ])
        injector = ChaosInjector(engine, plan)
        injector.advance(1.0)
        links = {l.key(): l.up for l in engine.network.links}
        assert links == {("a", "b"): False, ("b", "c"): False}
        injector.advance(2.0)
        assert all(l.up for l in engine.network.links)

    def test_delay_spike_scales_latency_then_restores(self):
        engine = line_engine()
        original = engine.network.link("a", "b").latency
        plan = FaultPlan(events=[
            FaultEvent(1.0, FaultKind.DELAY_SPIKE, link_target("a", "b"),
                       params=(("duration", 1.0), ("factor", 10.0))),
        ])
        injector = ChaosInjector(engine, plan)
        injector.advance(1.5)
        assert engine.network.link("a", "b").latency == pytest.approx(
            original * 10.0)
        injector.advance(2.5)
        assert engine.network.link("a", "b").latency == pytest.approx(original)

    def test_middlebox_insertion_blocks_application(self):
        engine = line_engine()
        plan = FaultPlan(events=[
            FaultEvent(1.0, FaultKind.MIDDLEBOX_INSERT, "b",
                       params=(("application", "voip"),
                               ("discloses", True))),
        ])
        injector = ChaosInjector(engine, plan)
        injector.advance(1.0)
        assert not engine.send(
            make_packet("a", "c", application="voip")).delivered
        assert engine.send(
            make_packet("a", "c", application="web")).delivered

    def test_rewind_rejected_and_events_apply_once(self):
        engine = line_engine()
        plan = FaultPlan(events=[
            FaultEvent(1.0, FaultKind.LINK_DOWN, link_target("a", "b"))])
        injector = ChaosInjector(engine, plan)
        injector.advance(2.0)
        assert len(injector.applied) == 1
        injector.advance(3.0)
        assert len(injector.applied) == 1
        with pytest.raises(ResilienceError):
            injector.advance(1.0)
