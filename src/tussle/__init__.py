"""tussle: an executable reproduction of "Tussle in Cyberspace" (Clark et
al., SIGCOMM 2002 / IEEE-ACM ToN 2005).

The paper is a position paper — it proposes design principles for networks
whose stakeholders have conflicting interests, but ships no system. This
library builds the closest executable equivalent: a stakeholder
simulation framework in which every tussle scenario, principle and
post-mortem in the paper becomes a runnable experiment.

``import tussle`` loads only the error taxonomy (:mod:`tussle.errors`,
re-exported here). Each subpackage loads when it is itself imported
(``import tussle.core``, ``from tussle import obs``), and a subpackage's
module loads only when one of its names is first read
(:mod:`tussle._lazy`), so a run pays only for the machinery it uses.

Subpackages
-----------
``tussle.core``
    The paper's contribution: stakeholders, mechanisms, tussle spaces, the
    adaptation simulator, and two design principles as metrics.
``tussle.netsim``
    Network substrate: topology, packets (with encryption
    and tunnels), middleboxes, forwarding, a retrying sender, DNS, QoS,
    mail, fault reports.
``tussle.routing``
    Path-vector (Gao-Rexford), user source routing with payment, and
    overlays.
``tussle.econ``
    Markets, pricing strategies, market concentration, the
    fear-and-greed investment model, broadband facilities.
``tussle.gametheory``
    Normal-form games, zero-sum and Nash solvers, best-response
    dynamics, repeated games, Vickrey/VCG mechanisms, and the paper's
    canonical tussle games.
``tussle.actornet``
    Actor-network theory: actors, commitments, alignment, durability,
    churn, collision.
``tussle.trust``
    Identity framework, trust graphs, trust-aware firewalls, threat
    campaigns.
``tussle.topogen``
    Deterministic tiered internet generation and CAIDA loading.
``tussle.peering``
    Interconnection economics coupled to live routing: traffic value,
    peering bargains, depeering dynamics.
``tussle.scale``
    Vectorized backends for markets, forwarding and routing, parity-gated
    against their scalar references.
``tussle.resil``
    Seeded fault processes, retry/timeout/backoff, worker chaos.
``tussle.experiments``
    One module per experiment (E01-E12, L01-L02, N01, P01-P02, R01-R02,
    T01-T02, X01-X07; see DESIGN.md), each regenerating one of the
    paper's qualitative claims as a table.
``tussle.sweep``
    Parallel multi-seed/parameter sweeps with a deterministic merge.
``tussle.obs``
    Deterministic-safe observability: tracer, metrics, profiler, trace
    report CLI and benchmark record emitter. Off by default.
``tussle.lint``
    Determinism, invariant and whole-program flow lint over the package.
"""

from .errors import (
    ActorNetworkError,
    AddressingError,
    DesignError,
    ExperimentError,
    GameError,
    MarketError,
    ObservabilityError,
    RoutingError,
    SimulationError,
    TopologyError,
    TrustError,
    TussleError,
)

__version__ = "1.0.0"

__all__ = [
    "ActorNetworkError", "AddressingError", "DesignError", "ExperimentError",
    "GameError", "MarketError", "ObservabilityError", "RoutingError",
    "SimulationError", "TopologyError", "TrustError", "TussleError",
    "__version__",
]
