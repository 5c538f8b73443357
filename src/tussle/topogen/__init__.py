"""tussle.topogen — internet-scale tiered topology generation.

The subsystem has four faces:

* :mod:`~tussle.topogen.generator` — deterministic tiered internets
  (tier-1 clique, regional transit, multihomed stubs, IXP peering,
  Waxman intra-AS router graphs);
* :mod:`~tussle.topogen.caida` — CAIDA as-rel file loading, so measured
  AS graphs run through the same pipeline;
* :mod:`~tussle.topogen.canonical` — the canonical JSON graph document
  (the determinism-gate currency and interchange format);
* :mod:`~tussle.topogen.presets` — the small hand-built workload
  networks experiments share.

Quickstart::

    python -m tussle.topogen gen --ases 1000 --seed 0
"""

from .caida import infer_tiers, load_caida, parse_caida
from .canonical import (GRAPH_SCHEMA, graph_from_dict, graph_from_json,
                        graph_to_dict, graph_to_json)
from .config import ROUTER_DETAIL_LEVELS, TopogenConfig
from .generator import (betweenness_centrality, core_routers,
                        generate_internet, waxman_graph)

__all__ = [
    "TopogenConfig",
    "ROUTER_DETAIL_LEVELS",
    "generate_internet",
    "waxman_graph",
    "betweenness_centrality",
    "core_routers",
    "GRAPH_SCHEMA",
    "graph_to_dict",
    "graph_to_json",
    "graph_from_dict",
    "graph_from_json",
    "parse_caida",
    "load_caida",
    "infer_tiers",
]
