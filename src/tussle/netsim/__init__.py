"""Network substrate.

The netsim package provides everything the tussle experiments forward
packets over: topologies at node and AS granularity, a packet model
with encryption/tunnelling semantics, middleboxes, a synchronous
forwarding engine, transport flows, a name system and fault injection.
"""

from .topology import (
    ASNode,
    Link,
    Network,
    Node,
    NodeKind,
    Relationship,
    dumbbell_topology,
    line_topology,
    multihomed_topology,
    random_as_graph,
    star_topology,
)
from .addressing import (
    AddressBlock,
    AddressRegistry,
    AddressingMode,
    RenumberingModel,
)
from .packets import Header, Packet, Protocol, WELL_KNOWN_PORTS, make_packet, port_for_app
from .middlebox import (
    Action,
    BlanketFirewall,
    Cache,
    Middlebox,
    NAT,
    PortFilterFirewall,
    Redirector,
    TransparencyLedger,
    Verdict,
    Wiretap,
)
from .forwarding import DeliveryReceipt, DeliveryStatus, ForwardingEngine, PrefixFib
from .transport import (
    AIMDFlow,
    CheaterFlow,
    Flow,
    SharedBottleneck,
    fairness_index,
)
from .dns import (
    DisputeOutcome,
    EntangledNameSystem,
    NameSystem,
    SeparatedNameSystem,
    TrademarkDispute,
)
from .faults import Audience, FaultInjector, FaultReport, FaultReporter, traceroute
from .qos import (
    PRIORITY_TOS,
    PortQosClassifier,
    QosClassifier,
    QosScheduler,
    TosQosClassifier,
)
from .mail import (
    MailOutcome,
    MailServer,
    MailSystem,
    MailUser,
    build_mail_topology,
    server_market_discipline,
)

__all__ = [
    # topology
    "ASNode", "Link", "Network", "Node", "NodeKind", "Relationship",
    "dumbbell_topology", "line_topology", "multihomed_topology",
    "random_as_graph", "star_topology",
    # addressing
    "AddressBlock", "AddressRegistry", "AddressingMode", "RenumberingModel",
    # packets
    "Header", "Packet", "Protocol", "WELL_KNOWN_PORTS", "make_packet", "port_for_app",
    # middleboxes
    "Action", "BlanketFirewall", "Cache", "Middlebox", "NAT",
    "PortFilterFirewall", "Redirector", "TransparencyLedger", "Verdict", "Wiretap",
    # forwarding
    "DeliveryReceipt", "DeliveryStatus", "ForwardingEngine", "PrefixFib",
    # transport
    "AIMDFlow", "CheaterFlow", "Flow", "SharedBottleneck", "fairness_index",
    # dns
    "DisputeOutcome", "EntangledNameSystem", "NameSystem",
    "SeparatedNameSystem", "TrademarkDispute",
    # faults
    "Audience", "FaultInjector", "FaultReport", "FaultReporter", "traceroute",
    # qos
    "PRIORITY_TOS", "PortQosClassifier", "QosClassifier",
    "QosScheduler", "TosQosClassifier",
    # mail
    "MailOutcome", "MailServer", "MailSystem", "MailUser",
    "build_mail_topology", "server_market_discipline",
]
