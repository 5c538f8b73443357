"""Network substrate.

The netsim package provides everything the tussle experiments forward
packets over: topologies at node and AS granularity, a packet model
with encryption/tunnelling semantics, middleboxes, a synchronous
forwarding engine, a name system, QoS classifiers, mail and fault
reports.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".topology": ("ASNode", "Link", "Network", "Node", "NodeKind",
                  "Relationship", "dumbbell_topology", "line_topology",
                  "multihomed_topology", "random_as_graph", "star_topology"),
    ".addressing": ("AddressBlock", "AddressRegistry", "AddressingMode",
                    "RenumberingModel"),
    ".packets": ("Header", "Packet", "Protocol", "WELL_KNOWN_PORTS",
                 "make_packet", "port_for_app"),
    ".middlebox": ("Action", "BlanketFirewall", "Middlebox",
                   "PortFilterFirewall", "Redirector", "TransparencyLedger",
                   "Verdict", "Wiretap"),
    ".forwarding": ("DeliveryReceipt", "DeliveryStatus", "ForwardingEngine"),
    ".dns": ("DisputeOutcome", "EntangledNameSystem", "NameSystem",
             "SeparatedNameSystem", "TrademarkDispute"),
    ".faults": ("Audience", "FaultReport", "FaultReporter"),
    ".qos": ("PRIORITY_TOS", "PortQosClassifier", "QosClassifier",
             "QosScheduler", "TosQosClassifier"),
    ".mail": ("MailOutcome", "MailServer", "MailSystem", "MailUser",
              "build_mail_topology", "server_market_discipline"),
})
