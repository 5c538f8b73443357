"""``tussle.scale`` — vectorized population kernels for markets and nets.

The scalar :class:`~tussle.econ.market.Market` and
:class:`~tussle.netsim.forwarding.ForwardingEngine` are the readable
references; this package is the fast backend for both.

Market side: consumer populations live in NumPy structure-of-arrays
(:mod:`~tussle.scale.arrays`), each market round runs as
whole-population kernels (:mod:`~tussle.scale.kernels`), and
:class:`~tussle.scale.vmarket.VectorMarket` wraps them behind the scalar
market's interface.  :mod:`~tussle.scale.large` builds
10^4–10^6-consumer scenarios and the L01/L02 at-scale experiments on
top.

Netsim side, the same recipe one rung up the fidelity ladder (see
``DESIGN.md`` "Scale backends"): packet batches and dense link/FIB
planes in :mod:`~tussle.scale.narrays`, per-round forwarding kernels in
:mod:`~tussle.scale.nkernels`,
:class:`~tussle.scale.vforwarding.VectorForwardingEngine` as the
drop-in packet-vector backend, and :mod:`~tussle.scale.flowsim` as the
declared flow-level approximation for 10^6-flow populations.

Routing side: :mod:`~tussle.scale.vrouting` batches Gao-Rexford
valley-free route propagation over arrays so
``PathVectorRouting.converge_fast()`` reaches the scalar protocol's
fixed point on 10^3-10^4-AS graphs in seconds.

One harness, :mod:`~tussle.scale.parity` (``python -m tussle.scale
parity``), holds all three fast backends bit-for-bit equal to their
scalar references.  Nothing here exports it: its market cases load
the E03 experiment module, which only the gate needs.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".arrays": ("ConsumerBatch", "MarketArrays"),
    ".flowsim": ("FlowArrays", "FlowReport", "FlowSim", "random_flows"),
    ".narrays": ("FibArrays", "LinkArrays", "NetIndex", "PacketArrays",
                 "packets_from_traffic", "traffic_stream"),
    ".tmatrix": ("gravity_demand", "stub_content", "stub_populations",
                 "zipf_attribute"),
    ".vforwarding": ("NetRound", "VectorForwardingEngine"),
    ".vmarket": ("VectorMarket",),
    ".vrouting": ("ASIndex", "RibArrays", "converge_valley_free"),
})
