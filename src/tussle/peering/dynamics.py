"""The coupled money/routing fixed point: peering decisions rewrite routes.

This is the loop the tentpole exists for.  In the paper's terms, the
interconnection tussle plays out *at run time*: providers look at the
traffic the current routes deliver, strike or abandon peering
agreements accordingly, the routing substrate reconverges under the new
business graph, traffic shifts, the value of every agreement changes,
and the bargaining round runs again — until nobody wants to change
anything (a fixed point), or the market visibly oscillates.

One iteration of :class:`PeeringDynamics`:

1. **Route** — :meth:`~tussle.routing.pathvector.PathVectorRouting.converge_fast`
   recomputes the valley-free RIB for the current relationship graph
   (stub destinations only — stubs are where demand originates),
   starting from the last RIB: only the destination columns inside the
   customer cones of re-peered or depeered pairs are recomputed.
2. **Measure** — :func:`~tussle.peering.value.route_volumes` pushes the
   gravity demand matrix along the converged routes, yielding directed
   per-edge volumes (kept as they are when the graph did not change).
3. **Re-bargain** — every *existing* agreement is re-evaluated at the
   volumes its own edge actually carried (drop it if the surplus went
   non-positive), and every *candidate* pair (co-located at an IXP,
   currently unrelated, not under embargo) is bargained over its
   exclusive-cone forecast traffic (:func:`~tussle.peering.bargain.evaluate_pair`).
4. **Apply** — depeerings and new peerings rewrite the
   :class:`~tussle.netsim.topology.Network` relationships, in one batch,
   in sorted ``(min_asn, max_asn)`` order.

Pairs are always visited in that sorted total order, the traffic matrix
is a seeded substream of the master seed, and bargaining itself draws
no randomness — so the fixed point is a pure function of
``(network, seed, economics)`` and byte-identical across runs.  That is
asserted, not promised: ``tests/peering/test_determinism.py`` double-
runs the whole loop and compares canonical JSON bytes.

Reachability is preserved *by construction* through every war: peering
only ever adds or removes ``PEER_PEER`` edges, never customer/provider
edges, and the generated provider DAG plus tier-1 clique already reach
everything.  That is the paper's design-for-tussle point — the
isolation of the money tussle from the reachability invariant is a
property of where the designer drew the interface, and experiment P01
checks it rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..canon import derive_seed
from ..errors import PeeringError
from ..netsim.topology import Network, Relationship
from ..routing.pathvector import PathVectorRouting
from .bargain import PeeringAgreement, evaluate_pair
from .value import (
    AsAccount,
    PeeringEconomics,
    TrafficMatrix,
    as_accounts,
    cone_traffic,
    customer_cones,
    edge_traffic,
    route_volumes,
)

__all__ = ["IterationRecord", "FixedPointResult", "PeeringDynamics"]

Pair = Tuple[int, int]


def _pair(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class IterationRecord:
    """What one bargaining round did to the interconnection market."""

    iteration: int
    agreements: int
    peered: int
    depeered: int
    total_transit_cost: float
    total_transfers: float
    routing_levels: int

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "agreements": self.agreements,
            "peered": self.peered,
            "depeered": self.depeered,
            "total_transit_cost": round(self.total_transit_cost, 6),
            "total_transfers": round(self.total_transfers, 6),
            "routing_levels": self.routing_levels,
        }


@dataclass
class FixedPointResult:
    """Outcome of iterating the market to quiescence (or not).

    ``verdict`` is one of ``"fixed-point"`` (no side wants to change
    anything), ``"oscillation"`` (a previously seen market state
    recurred — the loop kept running to the cap so the cycle is on
    record), or ``"iteration-cap"`` (the cap stopped an unconverged
    run).  Either non-converged verdict is a structured result, never a
    hang.
    """

    converged: bool
    oscillating: bool
    iterations: int
    verdict: str
    history: List[IterationRecord] = field(default_factory=list)
    agreements: Dict[Pair, PeeringAgreement] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "oscillating": self.oscillating,
            "iterations": self.iterations,
            "verdict": self.verdict,
            "history": [h.to_dict() for h in self.history],
            "agreements": [self.agreements[p].to_dict()
                           for p in sorted(self.agreements)],
        }


class PeeringDynamics:
    """Iterate bargaining and routing to a joint fixed point.

    Owns (and mutates) its ``network``: peer edges are added and
    removed as agreements are struck and abandoned.  The gravity demand
    matrix comes from the ``"tmatrix"`` substream of ``seed``; the
    bargaining layer's own substream (``"peering"/"bargain"``, exposed
    as :attr:`bargain_seed`) seeds the repeated-game probes in the
    experiments, so adding draws to one stream can never perturb the
    other (lint flows F201/F202 watch this).

    ``refusal_memory`` is the stabiliser: once a pair's agreement is
    dropped as unprofitable, the pair is not re-bargained from its
    (optimistic) cone forecast again.  With it on, every pair changes
    state at most twice, so the loop terminates; switching it off
    exposes genuine bargaining oscillation, which the loop detects and
    reports instead of hanging.
    """

    def __init__(self, network: Network, seed: int,
                 econ: PeeringEconomics = PeeringEconomics(),
                 max_iterations: int = 16,
                 refusal_memory: bool = True):
        if max_iterations < 1:
            raise PeeringError("need at least one bargaining iteration")
        self.network = network
        self.seed = seed
        self.econ = econ
        self.max_iterations = max_iterations
        self.refusal_memory = refusal_memory
        self.traffic = TrafficMatrix.from_network(network, seed, econ)
        self.bargain_seed = derive_seed(seed, "peering", "bargain")
        self.agreements: Dict[Pair, PeeringAgreement] = {}
        self.embargo: Set[Pair] = set()
        self.refused: Set[Pair] = set()
        self._tier1 = frozenset(a.asn for a in network.ases if a.tier == 1)
        self._cones = customer_cones(network)
        self.routing: Optional[PathVectorRouting] = None
        self.volumes: Optional[np.ndarray] = None
        # pair -> (bargain inputs, agreement) of its last evaluate_existing.
        self._bargained: Dict[
            Pair, Tuple[tuple, Optional[PeeringAgreement]]] = {}

    # ------------------------------------------------------------------
    # Routing / measurement
    # ------------------------------------------------------------------
    def reconverge(self) -> PathVectorRouting:
        """Reconverge valley-free routes for the current business graph.

        The last RIB seeds the convergence, so only the columns a
        peer-edge change can reach are recomputed.  An unchanged graph
        gets that RIB back, and the volumes measured on it are kept.
        """
        previous = self.routing.fast_rib if self.routing is not None else None
        proto = PathVectorRouting(self.network)
        proto.converge_fast(destinations=tuple(self.traffic.stub_asns),
                            previous=previous)
        self.routing = proto
        if proto.fast_rib is not previous:
            self.volumes = route_volumes(proto.fast_rib, self.traffic)
        return proto

    def accounts(self) -> Dict[int, AsAccount]:
        """Per-AS accounts under the current routes and agreements."""
        if self.routing is None or self.volumes is None:
            raise PeeringError("call reconverge() before reading accounts")
        transfers: Dict[int, float] = {}
        for pair in sorted(self.agreements):
            agreement = self.agreements[pair]
            transfers[agreement.a] = transfers.get(agreement.a, 0.0) \
                - agreement.transfer
            transfers[agreement.b] = transfers.get(agreement.b, 0.0) \
                + agreement.transfer
        return as_accounts(self.network, self.routing.fast_rib, self.volumes,
                           self.traffic, self.econ, transfers)

    # ------------------------------------------------------------------
    # Bargaining
    # ------------------------------------------------------------------
    def _peer_pairs(self) -> List[Pair]:
        return sorted((autonomous.asn, peer)
                      for autonomous in self.network.ases
                      for peer in self.network.peers_of(autonomous.asn)
                      if autonomous.asn < peer)

    def _mutable(self, pair: Pair) -> bool:
        # The tier-1 clique is the substrate's reachability backbone;
        # the market neither prices nor dismantles it.
        return not (pair[0] in self._tier1 and pair[1] in self._tier1)

    def candidate_pairs(self) -> List[Pair]:
        """Unrelated pairs co-located at an IXP, in sorted total order."""
        at_ixp: Dict[str, List[int]] = {}
        for autonomous in self.network.ases:
            for ixp in sorted(autonomous.metadata.get("ixps", ())):
                at_ixp.setdefault(ixp, []).append(autonomous.asn)
        candidates: Set[Pair] = set()
        for ixp in sorted(at_ixp):
            members = sorted(at_ixp[ixp])
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    pair = (a, b)
                    if pair in self.embargo or not self._mutable(pair):
                        continue
                    if self.refusal_memory and pair in self.refused:
                        continue
                    if self.network.relationship(a, b) is not None:
                        continue
                    candidates.add(pair)
        return sorted(candidates)

    def evaluate_existing(self, pair: Pair) -> Optional[PeeringAgreement]:
        """Re-bargain a live peering at the volumes its edge carried.

        A bargain is a pure function of the economics, the edge's two
        directed volumes and whether each side pays transit.  When those
        are bit-equal to the pair's last evaluation (a peering whose
        edge volumes did not move has not changed), that evaluation's
        agreement is returned without bargaining again.
        """
        if self.routing is None or self.volumes is None:
            raise PeeringError("call reconverge() before bargaining")
        rib = self.routing.fast_rib
        ra, rb = rib.index.of(pair[0]), rib.index.of(pair[1])
        bits = self.volumes.view(np.int64)
        inputs = (self.econ, bits.item(ra, rb), bits.item(rb, ra),
                  bool(self.network.providers_of(pair[0])),
                  bool(self.network.providers_of(pair[1])))
        last = self._bargained.get(pair)
        if last is not None and last[0] == inputs:
            return last[1]
        traffic = edge_traffic(self.network, rib, self.volumes,
                               pair[0], pair[1])
        agreement = evaluate_pair(traffic, self.econ,
                                  a_pays_transit=inputs[3],
                                  b_pays_transit=inputs[4])
        self._bargained[pair] = (inputs, agreement)
        return agreement

    def evaluate_candidate(self, pair: Pair) -> Optional[PeeringAgreement]:
        """Bargain a prospective peering over exclusive-cone demand."""
        traffic = cone_traffic(self.traffic, self._cones, pair[0], pair[1])
        return evaluate_pair(
            traffic, self.econ,
            a_pays_transit=bool(self.network.providers_of(pair[0])),
            b_pays_transit=bool(self.network.providers_of(pair[1])),
        )

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def step(self, iteration: int) -> IterationRecord:
        """One route/measure/re-bargain/apply round."""
        proto = self.reconverge()
        to_drop: List[Pair] = []
        to_add: Dict[Pair, PeeringAgreement] = {}
        for pair in self._peer_pairs():
            if not self._mutable(pair):
                continue
            if pair in self.embargo:
                to_drop.append(pair)
                continue
            agreement = self.evaluate_existing(pair)
            if agreement is None:
                to_drop.append(pair)
            else:
                self.agreements[pair] = agreement
        for pair in self.candidate_pairs():
            agreement = self.evaluate_candidate(pair)
            if agreement is not None:
                to_add[pair] = agreement
        for pair in to_drop:
            self.network.remove_as_relationship(pair[0], pair[1])
            self.agreements.pop(pair, None)
            self.refused.add(pair)
        for pair in sorted(to_add):
            self.network.add_as_relationship(pair[0], pair[1],
                                             Relationship.PEER_PEER)
            self.agreements[pair] = to_add[pair]
        # Bargaining changes peer edges only, so the RIB's
        # customer/provider rows are the network's, sorted by customer,
        # then provider: the sequential sum adds them in ASN order.
        customer, provider = proto.fast_rib.edges[0], proto.fast_rib.edges[1]
        metered = np.cumsum(self.econ.transit_price
                            * self.volumes[customer, provider])
        total_transit = metered[-1] if metered.size else 0.0
        total_transfers = 0.0
        for pair in sorted(self.agreements):
            total_transfers += abs(self.agreements[pair].transfer)
        return IterationRecord(
            iteration=iteration,
            agreements=len(self.agreements),
            peered=len(to_add),
            depeered=len(to_drop),
            total_transit_cost=float(total_transit),
            total_transfers=float(total_transfers),
            routing_levels=proto.iterations_used,
        )

    def run(self) -> FixedPointResult:
        """Iterate until quiescent, oscillating, or capped — never hang."""
        history: List[IterationRecord] = []
        seen: Set[Tuple[Pair, ...]] = set()
        oscillating = False
        for iteration in range(1, self.max_iterations + 1):
            record = self.step(iteration)
            history.append(record)
            if record.peered == 0 and record.depeered == 0:
                return FixedPointResult(
                    converged=True, oscillating=oscillating,
                    iterations=iteration, verdict="fixed-point",
                    history=history, agreements=dict(self.agreements))
            signature = tuple(self._peer_pairs())
            if signature in seen:
                oscillating = True
            seen.add(signature)
        return FixedPointResult(
            converged=False, oscillating=oscillating,
            iterations=self.max_iterations,
            verdict="oscillation" if oscillating else "iteration-cap",
            history=history, agreements=dict(self.agreements))

    # ------------------------------------------------------------------
    # Dispute levers (the P01/P02 narrative hooks)
    # ------------------------------------------------------------------
    def depeer(self, a: int, b: int, embargo: bool = True) -> None:
        """Tear down a peering; with ``embargo``, refuse to re-bargain it."""
        pair = _pair(a, b)
        if not self._mutable(pair):
            raise PeeringError("the tier-1 clique cannot be depeered")
        if self.network.relationship(a, b) is not Relationship.PEER_PEER:
            raise PeeringError(f"ASes {a} and {b} are not peers")
        self.network.remove_as_relationship(a, b)
        self.agreements.pop(pair, None)
        if embargo:
            self.embargo.add(pair)

    def lift_embargo(self, a: int, b: int) -> None:
        """Allow a disputed pair back to the bargaining table."""
        pair = _pair(a, b)
        self.embargo.discard(pair)
        self.refused.discard(pair)
