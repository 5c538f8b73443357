"""Addressing: provider-based address blocks, renumbering, and lock-in.

Section V-A-1 of the paper ("Provider Lock-In From IP Addressing") argues
that provider-based addressing creates a consumer–producer tussle: either a
customer is locked into its provider by provider-assigned addresses, or it
obtains provider-independent space that bloats the global routing table.

This module models exactly that trade-off:

* :class:`AddressBlock` — a contiguous range carved from a provider's
  aggregate (provider-assigned, PA) or allocated directly to the customer
  (provider-independent, PI);
* :class:`AddressRegistry` — allocates blocks, tracks aggregation, and
  reports the size of the "core forwarding table" (one entry per
  non-aggregatable block, matching the paper's concern);
* :class:`RenumberingModel` — the *cost of switching providers* as a
  function of how a site manages addresses (static vs DHCP vs DHCP+dynamic
  DNS), the consumer-side mechanisms the paper lists as pro-competition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..errors import AddressingError
from ..obs.runtime import current as _obs_current

__all__ = [
    "AddressBlock",
    "AddressRegistry",
    "AddressingMode",
    "RenumberingModel",
]

#: Size of the total address space modelled (a 32-bit-like space).
ADDRESS_SPACE = 2 ** 32


class AddressingMode(Enum):
    """How a site's hosts obtain and track addresses.

    The modes map to the mechanisms the paper names: static configuration
    (hard to renumber), DHCP (easy host renumbering), and DHCP combined with
    dynamic DNS updates (renumbering nearly free — the paper's preferred
    design point, where "addresses reflect connectivity, not identity").
    """

    STATIC = "static"
    DHCP = "dhcp"
    DHCP_DDNS = "dhcp+ddns"


@dataclass(frozen=True)
class AddressBlock:
    """A contiguous address block.

    Attributes
    ----------
    start, size:
        The covered range ``[start, start + size)``.
    owner:
        Name of the customer/site holding the block.
    provider_asn:
        The provider whose aggregate the block was carved from, or ``None``
        for provider-independent space.
    """

    start: int
    size: int
    owner: str
    provider_asn: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise AddressingError(f"block size must be positive, got {self.size}")
        if self.start < 0 or self.start + self.size > ADDRESS_SPACE:
            raise AddressingError("block out of address space")

    @property
    def provider_independent(self) -> bool:
        return self.provider_asn is None

    def contains(self, address: int) -> bool:
        return self.start <= address < self.start + self.size

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "PI" if self.provider_independent else f"PA(AS{self.provider_asn})"
        return f"[{self.start}+{self.size} {self.owner} {kind}]"


class AddressRegistry:
    """Allocates provider aggregates and customer blocks, tracks table size.

    Each provider receives one aggregate. Customer blocks carved from an
    aggregate are *covered* by the provider's single core-table entry;
    provider-independent blocks each add their own entry. The registry's
    :meth:`core_table_size` therefore quantifies the routing-table cost of
    provider-independent addressing that the paper highlights.
    """

    #: Default size of a provider aggregate.
    AGGREGATE_SIZE = 2 ** 20
    #: Default size of a customer block.
    CUSTOMER_BLOCK_SIZE = 2 ** 8

    def __init__(self) -> None:
        self._next_free = 0
        self._aggregates: Dict[int, AddressBlock] = {}
        self._customer_blocks: Dict[str, AddressBlock] = {}
        self._pi_blocks: Dict[str, AddressBlock] = {}
        self._aggregate_cursor: Dict[int, int] = {}
        # Logical clock for trace records: one tick per registry operation.
        self._op_seq = 0
        ctx = _obs_current()
        self._trace = ctx.tracer if ctx.tracer.enabled else None
        if ctx.metrics.enabled:
            scope = ctx.metrics.scope("netsim.addressing")
            self._c_assignments = scope.counter("assignments")
            self._c_pi = scope.counter("pi_assignments")
        else:
            self._c_assignments = None
            self._c_pi = None

    def _note_op(self, name: str, owner: str, pi: bool) -> None:
        self._op_seq += 1
        if self._c_assignments is not None:
            self._c_assignments.inc()
            if pi:
                self._c_pi.inc()
        if self._trace is not None:
            self._trace.event("netsim.addressing", name, float(self._op_seq),
                              owner=owner)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_aggregate(self, provider_asn: int, size: Optional[int] = None) -> AddressBlock:
        """Give a provider one aggregate block."""
        if provider_asn in self._aggregates:
            raise AddressingError(f"AS{provider_asn} already holds an aggregate")
        size = size or self.AGGREGATE_SIZE
        block = self._carve(size, owner=f"AS{provider_asn}", provider_asn=provider_asn)
        self._aggregates[provider_asn] = block
        self._aggregate_cursor[provider_asn] = block.start
        self._note_op("allocate_aggregate", block.owner, pi=False)
        return block

    def assign_customer_block(
        self, customer: str, provider_asn: int, size: Optional[int] = None
    ) -> AddressBlock:
        """Carve a provider-assigned (PA) block for a customer.

        Re-assigning a customer that already holds a PA block *renumbers*
        them: the old block is returned to the provider pool conceptually
        (we simply replace the mapping).
        """
        if provider_asn not in self._aggregates:
            raise AddressingError(f"AS{provider_asn} has no aggregate; allocate one first")
        size = size or self.CUSTOMER_BLOCK_SIZE
        agg = self._aggregates[provider_asn]
        cursor = self._aggregate_cursor[provider_asn]
        if cursor + size > agg.start + agg.size:
            raise AddressingError(f"AS{provider_asn} aggregate exhausted")
        block = AddressBlock(start=cursor, size=size, owner=customer, provider_asn=provider_asn)
        self._aggregate_cursor[provider_asn] = cursor + size
        self._customer_blocks[customer] = block
        # A PA assignment supersedes a PI block for the same customer.
        self._pi_blocks.pop(customer, None)
        self._note_op("assign_customer_block", customer, pi=False)
        return block

    def assign_provider_independent(self, customer: str, size: Optional[int] = None) -> AddressBlock:
        """Allocate provider-independent (PI) space directly to a customer."""
        size = size or self.CUSTOMER_BLOCK_SIZE
        block = self._carve(size, owner=customer, provider_asn=None)
        self._pi_blocks[customer] = block
        self._customer_blocks.pop(customer, None)
        self._note_op("assign_provider_independent", customer, pi=True)
        return block

    def _carve(self, size: int, owner: str, provider_asn: Optional[int]) -> AddressBlock:
        if self._next_free + size > ADDRESS_SPACE:
            raise AddressingError("global address space exhausted")
        block = AddressBlock(start=self._next_free, size=size, owner=owner,
                             provider_asn=provider_asn)
        self._next_free += size
        return block

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def block_of(self, customer: str) -> AddressBlock:
        """The block a customer currently holds (PA or PI)."""
        if customer in self._customer_blocks:
            return self._customer_blocks[customer]
        if customer in self._pi_blocks:
            return self._pi_blocks[customer]
        raise AddressingError(f"customer {customer!r} holds no block")

    def provider_of(self, customer: str) -> Optional[int]:
        """The provider a customer's addresses tie it to (None for PI)."""
        return self.block_of(customer).provider_asn

    def aggregates(self) -> List[AddressBlock]:
        return [self._aggregates[k] for k in sorted(self._aggregates)]

    def core_table_size(self) -> int:
        """Entries in the default-free core forwarding table.

        One entry per provider aggregate plus one per provider-independent
        block — the quantity the paper says PI addressing inflates.
        """
        return len(self._aggregates) + len(self._pi_blocks)

    def pi_fraction(self) -> float:
        """Fraction of customers holding provider-independent space."""
        total = len(self._customer_blocks) + len(self._pi_blocks)
        if total == 0:
            return 0.0
        return len(self._pi_blocks) / total


@dataclass
class RenumberingModel:
    """Cost (in abstract effort units) for a site to change providers.

    The paper: "For hosts that use static addresses, renumbering is a
    complex task" and lists DHCP and dynamic DNS as "mechanisms that favor
    the consumer in this tussle". The model makes switching cost linear in
    the number of hosts, scaled by a per-mode factor, plus a fixed
    contractual overhead.

    Attributes
    ----------
    per_host_cost:
        Effort to renumber one statically-configured host.
    contractual_cost:
        Provider-independent overhead of any switch (contracts, cutover).
    mode_factors:
        Multiplier applied to ``per_host_cost`` per addressing mode.
    """

    per_host_cost: float = 1.0
    contractual_cost: float = 2.0
    mode_factors: Dict[AddressingMode, float] = field(
        default_factory=lambda: {
            AddressingMode.STATIC: 1.0,
            AddressingMode.DHCP: 0.15,
            AddressingMode.DHCP_DDNS: 0.02,
        }
    )

    def switching_cost(self, n_hosts: int, mode: AddressingMode,
                       provider_independent: bool = False) -> float:
        """Total cost for a site of ``n_hosts`` to move to a new provider.

        Provider-independent sites pay only the contractual overhead: their
        addresses do not change (that is the point of PI space).
        """
        if n_hosts < 0:
            raise AddressingError(f"host count must be non-negative, got {n_hosts}")
        if provider_independent:
            return self.contractual_cost
        try:
            factor = self.mode_factors[mode]
        except KeyError:
            raise AddressingError(f"unknown addressing mode {mode!r}") from None
        return self.contractual_cost + factor * self.per_host_cost * n_hosts

    def lock_in_index(self, n_hosts: int, mode: AddressingMode) -> float:
        """Normalized lock-in in [0, 1]: switching cost relative to STATIC.

        0 means switching is as cheap as it can get (contract only); 1 means
        as expensive as a fully static site.
        """
        static = self.switching_cost(n_hosts, AddressingMode.STATIC)
        this = self.switching_cost(n_hosts, mode)
        if static <= self.contractual_cost:
            return 0.0
        return (this - self.contractual_cost) / (static - self.contractual_cost)
