"""One parity harness for every fast backend.

Each fast backend in ``tussle.scale`` is held to its readable scalar
reference by one contract: swapping one for the other changes
*nothing* but wall time.  A :class:`BackendPair` is a name, its cases,
and a scalar and a fast *runner* that each turn one fresh case spec
into a :data:`Trace` — round records plus final per-entity state, as
plain dicts.  :func:`verify` runs both sides from two calls to the same
spec, compares every field with ``==`` (no tolerance: the backends
agree bit for bit, and any drift is a kernel bug), stops after 8
mismatches, and localizes a round-record mismatch with
:func:`~tussle.obs.diff.first_divergence`.  The pairs:

* ``market`` — ``Market`` vs ``VectorMarket`` over the 15 E01/E02/E03
  cells: every ``MarketRound``, then every consumer's final state.
* ``netsim`` — ``ForwardingEngine`` vs ``VectorForwardingEngine`` over
  12 topologies, including partitioned, failed-link, zero-capacity and
  looping ones, so every failure lane is compared: every ``NetRound``
  against the records :func:`scalar_round_records` derives from the
  scalar receipts, then every packet's final state.
* ``routing`` — ``PathVectorRouting.converge()`` vs ``converge_fast()``
  over random, generated, partitioned and valley-blocked business
  graphs: per source AS its AS paths and reachability, then per AS its
  transit load and reachability-matrix row.

``python -m tussle.scale parity`` runs every pair under every seed as
one blocking gate.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..canon import canonical_json
from ..econ.accesstech import AccessRegime, access_market_spec
from ..econ.market import Market
from ..errors import ScaleError
from ..experiments.e03_broadband import ACCESS_CELLS, scenario_facilities
from ..netsim.decision import MAX_TTL
from ..netsim.forwarding import DeliveryStatus, ForwardingEngine
from ..netsim.qos import PRIORITY_TOS, TosQosClassifier
from ..netsim.topology import (
    Network,
    Relationship,
    dumbbell_topology,
    line_topology,
    multihomed_topology,
    random_as_graph,
    star_topology,
)
from ..obs.diff import Divergence, first_divergence
from ..routing.pathvector import PathVectorRouting
from ..topogen import TopogenConfig, generate_internet
from .narrays import NetIndex, PacketArrays, packets_from_traffic, traffic_stream
from .large import (
    LOCKIN_SCENARIOS,
    VALUE_PRICING_CELLS,
    lockin_market_spec,
    lockin_switching_cost,
    value_pricing_market_spec,
)
from .vforwarding import NetRound, VectorForwardingEngine
from .vmarket import VectorMarket

__all__ = [
    "Trace",
    "ParityCase",
    "BackendPair",
    "ParityReport",
    "PARITY_SEEDS",
    "MARKET",
    "NETSIM",
    "ROUTING",
    "PAIRS",
    "scalar_round_records",
    "verify",
    "run_parity",
]

#: Seeds every case is checked under (>= 5 per the acceptance contract).
PARITY_SEEDS = (7, 11, 3, 23, 101)

#: Mismatches reported per case before truncating — one is already fatal.
_MAX_MISMATCHES = 8

#: What a runner returns: round records, then final per-entity states.
Trace = Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]


@dataclass(frozen=True)
class ParityCase:
    """One configuration of a pair; ``spec(seed)`` builds fresh inputs."""

    label: str
    spec: Callable[[int], Any]


@dataclass(frozen=True)
class BackendPair:
    """A scalar reference, its fast backend, and the cases that gate them.

    Each runner turns one ``case.spec(seed)`` into a :data:`Trace`.
    ``record`` and ``entity`` name a round record and a final state in
    mismatch lines.
    """

    name: str
    cases: Callable[[], List[ParityCase]]
    scalar: Callable[[Any], Trace]
    fast: Callable[[Any], Trace]
    entity: str
    record: str = "round"


@dataclass
class ParityReport:
    """Outcome of one (pair, case, seed) comparison.

    ``rounds`` and ``n`` count the scalar side's round records and final
    states.  ``divergence`` localizes a round-record failure: the first
    divergent record of the canonical-JSON round streams, with aligned
    context and the changed fields named.
    """

    pair: str
    label: str
    seed: int
    rounds: int
    n: int
    mismatches: List[str] = field(default_factory=list)
    divergence: Optional[Divergence] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pair": self.pair,
            "label": self.label,
            "seed": self.seed,
            "rounds": self.rounds,
            "n": self.n,
            "ok": self.ok,
            "mismatches": self.mismatches,
            "divergence": (self.divergence.to_dict()
                           if self.divergence is not None else None),
        }


def _mismatches(where: str, scalar: Dict[str, Any],
                fast: Dict[str, Any]) -> List[str]:
    return [f"{where}: {name} scalar={value!r} fast={fast.get(name)!r}"
            for name, value in scalar.items() if value != fast.get(name)]


def verify(pair: BackendPair, case: ParityCase, seed: int) -> ParityReport:
    """Run both backends of ``pair`` from one case spec; compare all."""
    scalar_rounds, scalar_finals = pair.scalar(case.spec(seed))
    fast_rounds, fast_finals = pair.fast(case.spec(seed))
    report = ParityReport(pair=pair.name, label=case.label, seed=seed,
                          rounds=len(scalar_rounds), n=len(scalar_finals))
    mismatches = report.mismatches

    def localize() -> None:
        # The same machinery as ``python -m tussle.obs diff``.
        report.divergence = first_divergence(
            [canonical_json(record) for record in scalar_rounds],
            [canonical_json(record) for record in fast_rounds])

    if len(scalar_rounds) != len(fast_rounds):
        mismatches.append(
            f"history length scalar={len(scalar_rounds)} "
            f"fast={len(fast_rounds)}")
        localize()
        return report
    for index, (scalar, fast) in enumerate(zip(scalar_rounds, fast_rounds)):
        mismatches.extend(_mismatches(f"{pair.record} {index}", scalar, fast))
        if len(mismatches) >= _MAX_MISMATCHES:
            localize()
            return report
    if mismatches:
        localize()

    if len(scalar_finals) != len(fast_finals):
        mismatches.append(
            f"{pair.entity} count scalar={len(scalar_finals)} "
            f"fast={len(fast_finals)}")
        return report
    for index, (scalar, fast) in enumerate(zip(scalar_finals, fast_finals)):
        mismatches.extend(_mismatches(f"{pair.entity} {index}", scalar, fast))
        if len(mismatches) >= _MAX_MISMATCHES:
            break
    return report


def run_parity(pairs: Optional[Sequence[BackendPair]] = None,
               seeds: Sequence[int] = PARITY_SEEDS) -> List[ParityReport]:
    """Verify every case of every pair under every seed, in that order."""
    return [verify(pair, case, seed)
            for pair in (PAIRS if pairs is None else pairs)
            for case in pair.cases()
            for seed in seeds]


# ----------------------------------------------------------------------
# market: Market vs VectorMarket
# ----------------------------------------------------------------------
def _market_spec(rounds: int, build: Callable[[int], Dict[str, object]],
                 seed: int) -> Tuple[int, Dict[str, object]]:
    return rounds, build(seed)


def _access_spec(scenario: str, regime: AccessRegime,
                 seed: int) -> Dict[str, object]:
    return access_market_spec(scenario_facilities(scenario), regime,
                              n_consumers=200, seed=seed)


def _market_cases() -> List[ParityCase]:
    """The E01/E02/E03 cells; a spec is ``(rounds, market kwargs)``."""
    cases: List[ParityCase] = []

    def add(label: str, rounds: int,
            build: Callable[[int], Dict[str, object]]) -> None:
        cases.append(ParityCase(label, partial(_market_spec, rounds, build)))

    for label, mode in LOCKIN_SCENARIOS:
        add(f"e01-{label}", 30, partial(lockin_market_spec,
                                        lockin_switching_cost(mode, 20), 120))
    for label, n_providers, can_tunnel, detects in VALUE_PRICING_CELLS:
        # The cell whose consumers tunnel undetected is named for it.
        label += "+tunnels" if can_tunnel and not detects else ""
        add(f"e02-{label}", 25, partial(value_pricing_market_spec,
                                        n_providers, can_tunnel, detects,
                                        150))
    for scenario, regime in ACCESS_CELLS:
        add(f"e03-{scenario}-{regime.value}", 30,
            partial(_access_spec, scenario, regime))
    return cases


def _run_market(spec: Tuple[int, Dict[str, object]]) -> Trace:
    rounds, kwargs = spec
    market = Market(consumers=kwargs.pop("batch").to_consumers(), **kwargs)
    market.run(rounds)
    return [asdict(market_round) for market_round in market.history], [
        {"provider": consumer.provider, "surplus": consumer.surplus,
         "switches": consumer.switches, "tunnelling": consumer.tunnelling}
        for consumer in market.consumers
    ]


def _run_vector_market(spec: Tuple[int, Dict[str, object]]) -> Trace:
    rounds, kwargs = spec
    market = VectorMarket(**kwargs)
    market.run(rounds)
    arrays = market.arrays
    return [asdict(market_round) for market_round in market.history], [
        {"provider": arrays.provider_of(i), "surplus": float(arrays.surplus[i]),
         "switches": int(arrays.switches[i]),
         "tunnelling": bool(arrays.tunnelling[i])}
        for i in range(len(arrays))
    ]


MARKET = BackendPair("market", _market_cases, _run_market,
                     _run_vector_market, entity="consumer")


# ----------------------------------------------------------------------
# netsim: ForwardingEngine vs VectorForwardingEngine
# ----------------------------------------------------------------------
#: Per-packet billing rate: every netsim case runs with QoS billing on.
_BILL = 0.75

#: A netsim spec: network, explicit tables (None: shortest paths) and
#: the ``(src, dst, tos)`` sample both backends replay.
NetSpec = Tuple[Network, Optional[Dict[str, Dict[str, str]]],
                List[Tuple[str, str, int]]]


def _ring_topology(n: int) -> Network:
    net = line_topology(n, prefix="r")
    net.add_link(f"r{n-1}", "r0", latency=0.01)
    return net


def _grid_topology(rows: int, cols: int) -> Network:
    net = Network()
    for r in range(rows):
        for c in range(cols):
            net.add_node(f"g{r}-{c}")
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                net.add_link(f"g{r}-{c}", f"g{r}-{c+1}", latency=0.01)
            if r + 1 < rows:
                net.add_link(f"g{r}-{c}", f"g{r+1}-{c}", latency=0.02)
    return net


def _tree_topology(depth: int) -> Network:
    net = Network()
    net.add_node("t1")
    for i in range(2, 2 ** depth):
        net.add_node(f"t{i}")
        net.add_link(f"t{i}", f"t{i // 2}", latency=0.005)
    return net


def _partitioned_topology() -> Network:
    net = Network()
    for i in range(4):
        net.add_node(f"a{i}")
        net.add_node(f"b{i}")
    for i in range(3):
        net.add_link(f"a{i}", f"a{i+1}", latency=0.01)
        net.add_link(f"b{i}", f"b{i+1}", latency=0.01)
    return net


def _abc_line() -> Network:
    net = Network()
    for name in ("a", "b", "c"):
        net.add_node(name)
    net.add_link("a", "b", latency=0.01)
    net.add_link("b", "c", latency=0.01)
    return net


#: Tables with a deliberate a<->b loop toward ``c`` (TTL exercise).
_LOOP_TABLES = {
    "a": {"c": "b", "b": "b"},
    "b": {"c": "a", "a": "a"},  # the loop: b sends c-bound traffic back
    "c": {"a": "b", "b": "b"},
}

#: A table whose next hop is the current node (self-loops never link).
_SELF_LOOP_TABLES = {
    "a": {"c": "a", "b": "b"},  # a's route to c points at a itself
    "b": {"c": "c", "a": "a"},
    "c": {"a": "b", "b": "b"},
}


def _shortest_spec(build: Callable[[], Network], n_packets: int,
                   seed: int) -> NetSpec:
    net = build()
    return net, None, traffic_stream(net.node_names(), n_packets, seed)


def _failed_links_spec(seed: int) -> NetSpec:
    net = star_topology(14)
    fail_rng = random.Random(seed + 7)
    for leaf in range(14):
        if fail_rng.random() < 0.25:
            net.fail_link("hub", f"leaf{leaf}")
    return net, None, traffic_stream(net.node_names(), 150, seed)


def _tables_spec(tables: Dict[str, Dict[str, str]], seed: int) -> NetSpec:
    net = _abc_line()
    return net, tables, traffic_stream(net.node_names(), 60, seed)


def _netsim_cases() -> List[ParityCase]:
    """The 12 forwarding configurations the gate checks per seed."""
    shortest = [
        ("line-8", lambda: line_topology(8), 120),
        ("star-12", lambda: star_topology(12), 150),
        ("dumbbell-6x6", lambda: dumbbell_topology(6, 6), 150),
        ("ring-10", lambda: _ring_topology(10), 120),
        ("grid-5x5", lambda: _grid_topology(5, 5), 200),
        ("tree-d4", lambda: _tree_topology(4), 150),
        ("multihomed-3", lambda: multihomed_topology(3), 80),
        ("partitioned", _partitioned_topology, 120),
    ]
    cases = [ParityCase(label, partial(_shortest_spec, build, n_packets))
             for label, build, n_packets in shortest]
    cases.append(ParityCase("star-14-failed-links", _failed_links_spec))
    cases.append(ParityCase("dumbbell-zero-capacity", partial(
        _shortest_spec,
        lambda: dumbbell_topology(5, 5, bottleneck_capacity=0.0), 150)))
    cases.append(ParityCase("loop-tables", partial(_tables_spec,
                                                   _LOOP_TABLES)))
    cases.append(ParityCase("self-loop-tables", partial(_tables_spec,
                                                        _SELF_LOOP_TABLES)))
    return cases


_RESOLVABLE = (DeliveryStatus.DELIVERED, DeliveryStatus.NO_ROUTE,
               DeliveryStatus.LINK_DOWN, DeliveryStatus.TTL_EXCEEDED)


def _resolution_round(receipt) -> int:
    """Which vector round a receipt's outcome lands in.

    DELIVERED after ``k`` moves (``len(path) == k + 1``) resolves in
    round ``k``; NO_ROUTE/LINK_DOWN fail *attempting* move ``len(path)``
    without making it; TTL_EXCEEDED always resolves at ``MAX_TTL``.
    """
    if receipt.status is DeliveryStatus.DELIVERED:
        return len(receipt.path) - 1
    if receipt.status is DeliveryStatus.TTL_EXCEEDED:
        return MAX_TTL
    return len(receipt.path)


def scalar_round_records(
    engine: ForwardingEngine,
    packets,
    classifier: TosQosClassifier,
) -> Tuple[List[NetRound], List[dict]]:
    """Run the scalar engine and derive vector-shaped round records.

    The netsim pair's reference oracle.  Returns ``(rounds,
    final_states)``: the same :class:`NetRound` stream the vector
    backend emits, plus one per-packet state dict in packet order.
    Raises :class:`~tussle.errors.ScaleError` on receipt statuses
    outside the vectorized fragment (middlebox interference, refused
    source routes) — the oracle refuses to compare apples to oranges.
    """
    prioritized_flags = [classifier.prioritize(packet) for packet in packets]
    revenue = classifier.revenue
    receipts = [engine.send(packet) for packet in packets]
    for receipt in receipts:
        if receipt.status not in _RESOLVABLE:
            raise ScaleError(
                f"scalar oracle saw {receipt.status.value!r}; the "
                f"vectorized fragment has no middleboxes or source routes")

    network = engine.network
    last_round = 0
    for receipt in receipts:
        last_round = max(last_round, _resolution_round(receipt))

    rounds: List[NetRound] = []
    in_flight = len(receipts)
    for r in range(last_round + 1):
        delivered = no_route = link_down = ttl = 0
        latency_total = 0.0
        for receipt in receipts:
            if r >= 1 and len(receipt.path) >= r + 1:
                # This packet made its r-th move: accrue that link.
                latency_total += network.link(
                    receipt.path[r - 1], receipt.path[r]).latency
            if _resolution_round(receipt) != r:
                continue
            if receipt.status is DeliveryStatus.DELIVERED:
                delivered += 1
            elif receipt.status is DeliveryStatus.NO_ROUTE:
                no_route += 1
            elif receipt.status is DeliveryStatus.LINK_DOWN:
                link_down += 1
            else:
                ttl += 1
        in_flight -= delivered + no_route + link_down + ttl
        rounds.append(NetRound(
            index=r,
            delivered=delivered,
            no_route=no_route,
            link_down=link_down,
            ttl_exceeded=ttl,
            in_flight=in_flight,
            latency=latency_total,
            prioritized=sum(1 for flag in prioritized_flags if flag)
            if r == 0 else 0,
            revenue=revenue if r == 0 else 0.0,
        ))

    finals = [
        {
            "status": receipt.status.value,
            "hops": len(receipt.path),
            "latency": receipt.latency,
            "delivered_to": receipt.delivered_to,
            "prioritized": prioritized_flags[i],
        }
        for i, receipt in enumerate(receipts)
    ]
    return rounds, finals


def _install_tables(engine, tables: Optional[Dict[str, Dict[str, str]]]
                    ) -> None:
    if tables is None:
        engine.install_shortest_path_tables()
    else:
        engine.install_tables(tables)


def _run_forwarding(spec: NetSpec) -> Trace:
    net, tables, traffic = spec
    engine = ForwardingEngine(net)
    _install_tables(engine, tables)
    classifier = TosQosClassifier(threshold=PRIORITY_TOS,
                                  bill_per_packet=_BILL)
    rounds, finals = scalar_round_records(
        engine, packets_from_traffic(traffic), classifier)
    return [record.to_dict() for record in rounds], finals


def _run_vector_forwarding(spec: NetSpec) -> Trace:
    net, tables, traffic = spec
    engine = VectorForwardingEngine(net)
    _install_tables(engine, tables)
    batch = PacketArrays.from_traffic(traffic, NetIndex.from_network(net))
    rounds = engine.send_batch(batch, tos_threshold=PRIORITY_TOS,
                               bill_per_packet=_BILL)
    return [record.to_dict() for record in rounds], [
        {
            "status": engine.status_name(batch.status[i]),
            "hops": int(batch.hops[i]),
            "latency": float(batch.latency[i]),
            "delivered_to": engine.delivered_to(batch, i),
            "prioritized": bool(batch.prioritized[i]),
        }
        for i in range(len(batch))
    ]


NETSIM = BackendPair("netsim", _netsim_cases, _run_forwarding,
                     _run_vector_forwarding, entity="packet")


# ----------------------------------------------------------------------
# routing: PathVectorRouting.converge() vs converge_fast()
# ----------------------------------------------------------------------
def _random_business_graph(seed: int) -> Network:
    return random_as_graph(n_tier1=3, n_tier2=6, n_tier3=12,
                           rng=random.Random(seed))


def _generated_internet(seed: int) -> Network:
    return generate_internet(TopogenConfig(n_ases=40, router_detail="none"),
                             seed=seed)


def _business_graph(asns: Sequence[int],
                    customer_provider: Sequence[Tuple[int, int]],
                    seed: int) -> Network:
    """A fixed graph (``seed`` unused) of customer-provider edges."""
    net = Network()
    for asn in asns:
        net.add_as(asn)
    for customer, provider in customer_provider:
        net.add_as_relationship(customer, provider,
                                Relationship.CUSTOMER_PROVIDER)
    return net


def _routing_cases() -> List[ParityCase]:
    """Random and generated graphs, plus the two unreachable-pair shapes.

    ``partitioned`` has two disconnected customer-provider pairs;
    ``valley-blocked`` has two providers of one customer, which cannot
    reach each other through it.
    """
    return [
        ParityCase("random-3x6x12", _random_business_graph),
        ParityCase("topogen-40", _generated_internet),
        ParityCase("partitioned", partial(_business_graph, (1, 2, 10, 11),
                                          ((1, 2), (10, 11)))),
        ParityCase("valley-blocked", partial(_business_graph, (1, 2, 3),
                                             ((1, 2), (1, 3)))),
    ]


def _routing_trace(protocol: PathVectorRouting) -> Trace:
    asns = [autonomous.asn for autonomous in protocol.network.ases]
    rows = [
        {"asn": src,
         "paths": [protocol.as_path(src, dst) for dst in asns],
         "reachable": [protocol.reachable(src, dst) for dst in asns]}
        for src in asns
    ]
    matrix: Dict[int, List[Tuple[int, bool]]] = {asn: [] for asn in asns}
    for (src, dst), reachable in sorted(protocol.reachability_matrix().items()):
        matrix[src].append((dst, reachable))
    return rows, [
        {"asn": asn, "transit_load": protocol.transit_load(asn),
         "reachability": matrix[asn]}
        for asn in asns
    ]


def _run_converge(net: Network) -> Trace:
    protocol = PathVectorRouting(net)
    protocol.converge()
    return _routing_trace(protocol)


def _run_converge_fast(net: Network) -> Trace:
    protocol = PathVectorRouting(net)
    protocol.converge_fast()
    return _routing_trace(protocol)


ROUTING = BackendPair("routing", _routing_cases, _run_converge,
                      _run_converge_fast, entity="AS", record="source")

#: Every pair the gate runs, in report order.
PAIRS = (MARKET, NETSIM, ROUTING)
