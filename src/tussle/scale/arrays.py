"""Structure-of-arrays snapshots of market populations.

The scalar :class:`~tussle.econ.market.Market` walks Python objects; the
vectorized backend walks NumPy columns.  :class:`MarketArrays` is the
bridge: one float64/bool/int64 column per consumer attribute, a
``(consumers, providers)`` preference-noise matrix, and the mutable
per-consumer state (current provider, accumulated surplus, switch count,
tunnelling posture) that evolves round by round.

Shared randomness, not re-drawn randomness
------------------------------------------
The scalar market draws per-(consumer, provider) taste from
``random.Random(seed + 1)`` — consumer-major, providers in sorted-name
order.  :meth:`MarketArrays.taste_matrix` replays *that exact stream*
into the matrix, so the vector backend consumes the same uniform draws
the scalar backend would, in the same order.  Parity therefore holds bit
for bit instead of merely in distribution.

:class:`ConsumerBatch` is the large-N construction path: scenario
builders fill columns directly (a million-consumer population is a few
8 MB arrays) and never materialize a million ``Consumer`` dataclasses;
:meth:`ConsumerBatch.to_consumers` converts to objects when a scalar
cross-check at small N needs them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..econ.agents import Consumer
from ..econ.demand import Segment
from ..errors import ScaleError

__all__ = ["ConsumerBatch", "MarketArrays"]


@dataclass
class ConsumerBatch:
    """Column-oriented consumer population (no per-consumer objects).

    ``initial_provider`` is a single provider name shared by the whole
    batch (the E01 "everyone starts locked to the incumbent" shape) or
    ``None`` for a round-0 free choice; heterogeneous starting
    assignments go through :meth:`MarketArrays.from_consumers` instead.
    """

    wtp: np.ndarray
    server_value: np.ndarray
    values_server: np.ndarray
    switching_cost: np.ndarray
    can_tunnel: np.ndarray
    tunnel_cost: np.ndarray
    initial_provider: Optional[str] = None
    name_prefix: str = "site"

    def __post_init__(self) -> None:
        self.wtp = np.asarray(self.wtp, dtype=np.float64)
        n = self.wtp.shape[0]
        self.server_value = np.asarray(self.server_value, dtype=np.float64)
        self.values_server = np.asarray(self.values_server, dtype=bool)
        self.switching_cost = np.asarray(self.switching_cost, dtype=np.float64)
        self.can_tunnel = np.asarray(self.can_tunnel, dtype=bool)
        self.tunnel_cost = np.asarray(self.tunnel_cost, dtype=np.float64)
        for column in (self.server_value, self.values_server,
                       self.switching_cost, self.can_tunnel,
                       self.tunnel_cost):
            if column.shape != (n,):
                raise ScaleError(
                    f"batch columns must share shape ({n},), got {column.shape}")
        for name in ("wtp", "switching_cost", "server_value", "tunnel_cost"):
            if not np.isfinite(getattr(self, name)).all():
                raise ScaleError(f"batch column {name} must be finite")

    def __len__(self) -> int:
        return int(self.wtp.shape[0])

    def to_consumers(self) -> List[Consumer]:
        """Materialize scalar ``Consumer`` objects (small-N cross-checks)."""
        consumers: List[Consumer] = []
        for i in range(len(self)):
            consumers.append(Consumer(
                name=f"{self.name_prefix}{i}",
                wtp=float(self.wtp[i]),
                segment=(Segment.BUSINESS if self.values_server[i]
                         else Segment.BASIC),
                switching_cost=float(self.switching_cost[i]),
                server_value=float(self.server_value[i]),
                can_tunnel=bool(self.can_tunnel[i]),
                tunnel_cost=float(self.tunnel_cost[i]),
                provider=self.initial_provider,
            ))
        return consumers


class MarketArrays:
    """Mutable SoA state of one market's consumer side.

    Provider columns are ordered by *sorted provider name* — the order
    the scalar decision scan visits them — so column ``j`` of every
    ``(N, P)`` matrix refers to ``provider_names[j]``.
    """

    def __init__(
        self,
        wtp: np.ndarray,
        server_value: np.ndarray,
        values_server: np.ndarray,
        switching_cost: np.ndarray,
        can_tunnel: np.ndarray,
        tunnel_cost: np.ndarray,
        assignment: np.ndarray,
        taste: Optional[np.ndarray],
        provider_names: Sequence[str],
    ):
        self.wtp = wtp
        self.server_value = server_value
        self.values_server = values_server
        self.switching_cost = switching_cost
        self.can_tunnel = can_tunnel
        self.tunnel_cost = tunnel_cost
        self.assignment = assignment
        self.taste = taste
        self.provider_names = list(provider_names)
        n = wtp.shape[0]
        self.surplus = np.zeros(n, dtype=np.float64)
        self.switches = np.zeros(n, dtype=np.int64)
        self.tunnelling = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def taste_matrix(n_consumers: int, n_providers: int,
                     preference_noise: float, seed: int
                     ) -> Optional[np.ndarray]:
        """Replay the scalar market's taste stream into an (N, P) matrix.

        Draw order is consumer-major with providers in sorted-name order
        — exactly the nested loop ``Market.__init__`` runs — from
        ``random.Random(seed + 1)``, so element ``[i, j]`` is the very
        float the scalar market stores for consumer ``i`` at the ``j``-th
        sorted provider.
        """
        if preference_noise <= 0:
            return None
        noise_rng = random.Random(seed + 1)
        flat = [
            noise_rng.uniform(-preference_noise, preference_noise)
            for _ in range(n_consumers * n_providers)
        ]
        return np.array(flat, dtype=np.float64).reshape(
            n_consumers, n_providers)

    @classmethod
    def from_consumers(
        cls,
        consumers: Sequence[Consumer],
        provider_names: Sequence[str],
        preference_noise: float = 0.0,
        seed: int = 0,
    ) -> "MarketArrays":
        """Snapshot scalar ``Consumer`` objects into columns."""
        order = {name: j for j, name in enumerate(provider_names)}
        n = len(consumers)
        assignment = np.full(n, -1, dtype=np.int64)
        for i, consumer in enumerate(consumers):
            if consumer.provider is not None:
                try:
                    assignment[i] = order[consumer.provider]
                except KeyError:
                    raise ScaleError(
                        f"consumer {consumer.name!r} starts at unknown "
                        f"provider {consumer.provider!r}") from None
        return cls(
            wtp=np.array([c.wtp for c in consumers], dtype=np.float64),
            server_value=np.array([c.server_value for c in consumers],
                                  dtype=np.float64),
            values_server=np.array([c.values_server() for c in consumers],
                                   dtype=bool),
            switching_cost=np.array([c.switching_cost for c in consumers],
                                    dtype=np.float64),
            can_tunnel=np.array([c.can_tunnel for c in consumers], dtype=bool),
            tunnel_cost=np.array([c.tunnel_cost for c in consumers],
                                 dtype=np.float64),
            assignment=assignment,
            taste=cls.taste_matrix(n, len(provider_names), preference_noise,
                                   seed),
            provider_names=provider_names,
        )

    @classmethod
    def from_batch(
        cls,
        batch: ConsumerBatch,
        provider_names: Sequence[str],
        preference_noise: float = 0.0,
        seed: int = 0,
    ) -> "MarketArrays":
        """Adopt a :class:`ConsumerBatch`'s columns (no copies of statics)."""
        n = len(batch)
        assignment = np.full(n, -1, dtype=np.int64)
        if batch.initial_provider is not None:
            try:
                start = list(provider_names).index(batch.initial_provider)
            except ValueError:
                raise ScaleError(
                    f"batch starts at unknown provider "
                    f"{batch.initial_provider!r}") from None
            assignment[:] = start
        return cls(
            wtp=batch.wtp,
            server_value=batch.server_value,
            values_server=batch.values_server,
            switching_cost=batch.switching_cost,
            can_tunnel=batch.can_tunnel,
            tunnel_cost=batch.tunnel_cost,
            assignment=assignment,
            taste=cls.taste_matrix(n, len(provider_names), preference_noise,
                                   seed),
            provider_names=provider_names,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.wtp.shape[0])

    @property
    def n_providers(self) -> int:
        return len(self.provider_names)

    def nbytes(self) -> int:
        """Total bytes held by the population columns (and taste matrix)."""
        total = sum(
            column.nbytes
            for column in (self.wtp, self.server_value, self.values_server,
                           self.switching_cost, self.can_tunnel,
                           self.tunnel_cost, self.assignment, self.surplus,
                           self.switches, self.tunnelling)
        )
        if self.taste is not None:
            total += self.taste.nbytes
        return total

    def provider_of(self, index: int) -> Optional[str]:
        """Current provider name of one consumer (parity introspection)."""
        j = int(self.assignment[index])
        return None if j < 0 else self.provider_names[j]
