"""Exception hierarchy for the :mod:`tussle` framework.

All exceptions raised by the framework derive from :class:`TussleError`, so
callers can catch framework failures without masking programming errors such
as ``TypeError``.
"""

from __future__ import annotations


class TussleError(Exception):
    """Base class for every error raised by the tussle framework."""


class SimulationError(TussleError):
    """A network-substrate invariant or parameter was violated."""


class TopologyError(TussleError):
    """A topology operation referenced a missing node/link or was malformed."""


class RoutingError(TussleError):
    """Route computation or forwarding failed."""


class AddressingError(TussleError):
    """Address allocation, renumbering, or lookup failed."""


class MarketError(TussleError):
    """An economic-market operation was invalid (e.g. negative price)."""


class GameError(TussleError):
    """A game-theory object was malformed or a solver failed to converge."""


class TrustError(TussleError):
    """A trust / identity operation failed."""


class ActorNetworkError(TussleError):
    """An actor-network operation referenced unknown actors or commitments."""


class DesignError(TussleError):
    """A design object (modules, boundaries, interfaces) was malformed."""


class ExperimentError(TussleError):
    """An experiment harness was configured inconsistently."""


class LintError(TussleError):
    """The static analyzer was misconfigured or given unreadable input."""


class SweepError(TussleError):
    """A sweep specification, cache, or executor was used inconsistently."""


class ObservabilityError(TussleError):
    """A trace, metrics, or profiling operation was invalid."""


class ResilienceError(TussleError):
    """A fault plan, retry schedule, or breaker was used inconsistently."""


class ScaleError(TussleError):
    """A vectorized backend was misused or failed its parity contract."""


class PeeringError(TussleError):
    """A peering valuation, bargain, or fixed-point loop was misused."""


class TopogenError(TopologyError):
    """A topology-generation config, loader, or gate was used inconsistently.

    Also a :class:`TopologyError`, since every topogen failure is
    ultimately about producing or consuming a malformed topology.
    """
