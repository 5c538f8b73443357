"""Seeded chaos: deterministic fault processes over a simulated network.

A :class:`ChaosSchedule` turns a seed plus per-kind rates into a
:class:`FaultPlan` — an explicit, canonically ordered list of
:class:`FaultEvent` records (link down/up, node crash/recover, delay
spikes, middlebox insertion) — and a :class:`ChaosInjector`
replays the plan against a
:class:`~tussle.netsim.forwarding.ForwardingEngine` as simulated time
advances.

Determinism contract: a plan is a pure function of the schedule's config
and the network's (sorted) link/node inventory.  All randomness flows
from the explicit ``seed`` (lint rule F201), targets are drawn from
sorted candidate lists (D106), and events sort by a canonical key — so
a chaos experiment can be swept and seed-checked exactly like a healthy
one.  Failure is an *input*, not an accident.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Tuple

from ..errors import ResilienceError
from ..canon import canonical_json

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "ChaosSchedule",
           "ChaosInjector", "link_target", "parse_link_target"]


class FaultKind(Enum):
    """The fault taxonomy (DESIGN.md, "Resilience")."""

    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    NODE_CRASH = "node-crash"
    NODE_RECOVER = "node-recover"
    DELAY_SPIKE = "delay-spike"
    MIDDLEBOX_INSERT = "middlebox-insert"


def link_target(a: str, b: str) -> str:
    """Canonical target label for an undirected link."""
    return "|".join(sorted((a, b)))


def parse_link_target(target: str) -> Tuple[str, str]:
    a, _, b = target.partition("|")
    if not a or not b:
        raise ResilienceError(f"malformed link target {target!r}")
    return a, b


@dataclass(frozen=True)
class FaultEvent:
    """One fault at one instant of simulated time.

    ``target`` names a link (``"a|b"``) or a node; ``params`` carries
    kind-specific scalars (durations, probabilities, factors) and must
    stay canonically JSON-serialisable.
    """

    time: float
    kind: FaultKind
    target: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.kind.value, self.target,
                canonical_json(self.param_dict))


@dataclass
class FaultPlan:
    """An ordered, replayable list of fault events.

    The canonical order is :attr:`FaultEvent.sort_key`; two plans with
    the same events are equal however they were assembled.
    """

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.sort_key)

    def add(self, event: FaultEvent) -> None:
        self.events.append(event)
        self.events.sort(key=lambda e: e.sort_key)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return ([e.sort_key for e in self.events]
                == [e.sort_key for e in other.events])


@dataclass
class ChaosSchedule:
    """Seeded fault-process generator: config in, :class:`FaultPlan` out.

    Each non-zero ``*_rate`` is the intensity of an independent Poisson
    process over ``[0, horizon)``; every sampled fault picks its target
    from the network's sorted links (or nodes) and, where applicable, a
    repair/expiry delay uniform in the configured ``(lo, hi)`` window,
    emitted as the paired recovery event.  The whole plan is a pure
    function of ``(config, seed, sorted network inventory)``.
    """

    seed: int
    horizon: float
    link_failure_rate: float = 0.0
    link_repair: Tuple[float, float] = (0.5, 2.0)
    node_crash_rate: float = 0.0
    node_repair: Tuple[float, float] = (1.0, 4.0)
    delay_spike_rate: float = 0.0
    delay_factor: Tuple[float, float] = (2.0, 10.0)
    delay_duration: Tuple[float, float] = (0.5, 2.0)
    middlebox_rate: float = 0.0
    middlebox_application: str = "generic"

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ResilienceError(
                f"chaos horizon must be positive, got {self.horizon}")
        for name in ("link_failure_rate", "node_crash_rate",
                     "delay_spike_rate", "middlebox_rate"):
            if getattr(self, name) < 0:
                raise ResilienceError(f"{name} must be >= 0")
        for name in ("link_repair", "node_repair", "delay_duration",
                     "delay_factor"):
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi:
                raise ResilienceError(
                    f"{name} window must satisfy 0 <= lo <= hi, "
                    f"got ({lo}, {hi})")

    # ------------------------------------------------------------------
    # Plan generation
    # ------------------------------------------------------------------
    def _arrivals(self, rng: random.Random, rate: float,
                  min_gap: float = 0.0) -> List[float]:
        """Poisson arrival times over [0, horizon); optional minimum gap."""
        times: List[float] = []
        t = 0.0
        while rate > 0:
            t += min_gap + rng.expovariate(rate)
            if t >= self.horizon:
                break
            times.append(t)
        return times

    def _window(self, rng: random.Random,
                window: Tuple[float, float]) -> float:
        lo, hi = window
        return lo if lo == hi else rng.uniform(lo, hi)

    def plan(self, network: Any, min_up_time: float = 0.0) -> FaultPlan:
        """Generate the deterministic plan for ``network``.

        ``network`` needs ``links`` (objects with ``a``/``b``) and
        ``node_names()`` — the :class:`~tussle.netsim.topology.Network`
        surface.  ``min_up_time`` forces a recovery gap before the same
        process strikes again, which bounds how long any single outage
        can last relative to a retry schedule.
        """
        master = random.Random(self.seed)
        # Sub-streams in a fixed order so adding one process never
        # perturbs another's draws.  No process reads "loss", but its
        # draw keeps the delay and middlebox streams on their seeds.
        streams = {name: random.Random(master.getrandbits(63))
                   for name in ("link", "node", "loss", "delay", "mbox")}
        link_labels = sorted(link_target(l.a, l.b) for l in network.links)
        node_labels = sorted(network.node_names())
        plan = FaultPlan()

        if link_labels and self.link_failure_rate > 0:
            rng = streams["link"]
            for t in self._arrivals(rng, self.link_failure_rate, min_up_time):
                target = rng.choice(link_labels)
                repair = self._window(rng, self.link_repair)
                plan.add(FaultEvent(t, FaultKind.LINK_DOWN, target))
                plan.add(FaultEvent(t + repair, FaultKind.LINK_UP, target))
        if node_labels and self.node_crash_rate > 0:
            rng = streams["node"]
            for t in self._arrivals(rng, self.node_crash_rate, min_up_time):
                target = rng.choice(node_labels)
                repair = self._window(rng, self.node_repair)
                plan.add(FaultEvent(t, FaultKind.NODE_CRASH, target))
                plan.add(FaultEvent(t + repair, FaultKind.NODE_RECOVER,
                                    target))
        if link_labels and self.delay_spike_rate > 0:
            rng = streams["delay"]
            for t in self._arrivals(rng, self.delay_spike_rate):
                target = rng.choice(link_labels)
                plan.add(FaultEvent(
                    t, FaultKind.DELAY_SPIKE, target,
                    params=(("duration",
                             self._window(rng, self.delay_duration)),
                            ("factor",
                             self._window(rng, self.delay_factor))),
                ))
        if node_labels and self.middlebox_rate > 0:
            rng = streams["mbox"]
            for t in self._arrivals(rng, self.middlebox_rate):
                target = rng.choice(node_labels)
                plan.add(FaultEvent(
                    t, FaultKind.MIDDLEBOX_INSERT, target,
                    params=(("application", self.middlebox_application),
                            ("discloses", rng.random() < 0.5)),
                ))
        return plan


class ChaosInjector:
    """Replays a :class:`FaultPlan` against a forwarding engine.

    Call :meth:`advance` with the current simulated time; every event
    whose time has arrived is applied exactly once, in canonical order.
    Node crashes take all the node's operational links down and
    recoveries bring exactly those back; delay spikes scale a link's
    latency for their duration; middlebox insertions attach a blocking
    :class:`~tussle.netsim.middlebox.PortFilterFirewall`.
    """

    def __init__(self, engine: Any, plan: FaultPlan):
        self.engine = engine
        self.plan = plan
        self.now = 0.0
        self.applied: List[FaultEvent] = []
        self._cursor = 0
        self._crashed_links: Dict[str, List[Tuple[str, str]]] = {}
        self._delay_restores: List[Tuple[float, str, float]] = []

    # -- replay ---------------------------------------------------------
    def advance(self, until: float) -> List[FaultEvent]:
        """Apply every event with ``time <= until``; returns them."""
        if until < self.now:
            raise ResilienceError(
                f"chaos cannot rewind from t={self.now} to t={until}")
        fired: List[FaultEvent] = []
        events = self.plan.events
        while self._cursor < len(events) and \
                events[self._cursor].time <= until:
            event = events[self._cursor]
            self._cursor += 1
            self._restore_delays(event.time)
            self._apply(event)
            self.applied.append(event)
            fired.append(event)
        self._restore_delays(until)
        self.now = until
        return fired

    def _restore_delays(self, now: float) -> None:
        remaining = []
        for (end, target, original) in self._delay_restores:
            if end <= now:
                a, b = parse_link_target(target)
                if self.engine.network.has_link(a, b):
                    self.engine.network.link(a, b).latency = original
            else:
                remaining.append((end, target, original))
        self._delay_restores = remaining

    def _apply(self, event: FaultEvent) -> None:
        network = self.engine.network
        kind = event.kind
        if kind is FaultKind.LINK_DOWN:
            a, b = parse_link_target(event.target)
            if network.has_link(a, b):
                network.fail_link(a, b)
        elif kind is FaultKind.LINK_UP:
            a, b = parse_link_target(event.target)
            if network.has_link(a, b):
                network.restore_link(a, b)
        elif kind is FaultKind.NODE_CRASH:
            node = event.target
            downed = []
            for link in sorted(network.links, key=lambda l: l.key()):
                if link.up and node in (link.a, link.b):
                    network.fail_link(link.a, link.b)
                    downed.append((link.a, link.b))
            self._crashed_links[node] = downed
        elif kind is FaultKind.NODE_RECOVER:
            for a, b in self._crashed_links.pop(event.target, []):
                if network.has_link(a, b):
                    network.restore_link(a, b)
        elif kind is FaultKind.DELAY_SPIKE:
            a, b = parse_link_target(event.target)
            if network.has_link(a, b):
                link = network.link(a, b)
                params = event.param_dict
                self._delay_restores.append((
                    event.time + float(params["duration"]),
                    event.target, link.latency))
                link.latency = link.latency * float(params["factor"])
        elif kind is FaultKind.MIDDLEBOX_INSERT:
            from ..netsim.middlebox import PortFilterFirewall

            params = event.param_dict
            self.engine.attach_middlebox(event.target, PortFilterFirewall(
                f"chaos-fw@{event.target}",
                blocked_applications={params["application"]},
                discloses=bool(params["discloses"]),
            ))
        else:  # pragma: no cover - exhaustive over FaultKind
            raise ResilienceError(f"unhandled fault kind {kind!r}")
