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

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".caida": ("infer_tiers", "load_caida", "parse_caida"),
    ".canonical": ("GRAPH_SCHEMA", "graph_from_dict", "graph_from_json",
                   "graph_to_dict", "graph_to_json"),
    ".config": ("ROUTER_DETAIL_LEVELS", "TopogenConfig"),
    ".generator": ("betweenness_centrality", "core_routers",
                   "generate_internet", "waxman_graph"),
})
