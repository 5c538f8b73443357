"""Experiment harnesses: one module per paper claim (see DESIGN.md).

Each ``run_eNN`` returns an
:class:`~tussle.experiments.common.ExperimentResult` holding printable
tables and explicit shape checks against the paper's qualitative claims.

``ALL_EXPERIMENTS`` maps an experiment id to its ``run_*`` function and
imports that experiment's module on the first lookup; ``in``, ``len``
and iteration import nothing, so a run loads only what it names.
"""

from .._lazy import Registry, exports

#: The twelve paper-claim experiments plus extension experiments
#: (X01 multicast exercise, X02 policy-authority ablation, X03 mail
#: choice + guidelines audit, X04 dynamic isolation, X05 network collision, X06 QoS binding, X07 transparency failures)
#: the at-scale re-runs (L01 lock-in, L02 value pricing) on the
#: vectorized ``tussle.scale`` backend, the resilience experiments
#: (R01 fault-blame routing, R02 retry/breaker recovery), the
#: substrate-fidelity invariance experiment (N01), the generated-
#: topology experiments (T01 path choice, T02 blame routing) on
#: ``tussle.topogen`` internets, and the peering-economics experiments
#: (P01 paid-peering dispute, P02 depeering war) driving the
#: ``tussle.peering`` bargaining/routing fixed-point loop.
ALL_EXPERIMENTS = Registry(__name__, {
    "E01": ".e01_lockin:run_e01",
    "E02": ".e02_value_pricing:run_e02",
    "E03": ".e03_broadband:run_e03",
    "E04": ".e04_routing_control:run_e04",
    "E05": ".e05_firewalls:run_e05",
    "E06": ".e06_identity:run_e06",
    "E07": ".e07_qos:run_e07",
    "E08": ".e08_tussle_isolation:run_e08",
    "E09": ".e09_rigidity:run_e09",
    "E10": ".e10_freezing:run_e10",
    "E11": ".e11_encryption:run_e11",
    "E12": ".e12_game_taxonomy:run_e12",
    "X01": ".x01_multicast:run_x01",
    "X02": ".x02_policy_authority:run_x02",
    "X03": ".x03_mail_choice:run_x03",
    "X04": ".x04_coupled_spaces:run_x04",
    "X05": ".x05_collision:run_x05",
    "X06": ".x06_qos_binding:run_x06",
    "X07": ".x07_transparency_failures:run_x07",
    "L01": "..scale.large:run_l01",
    "L02": "..scale.large:run_l02",
    "R01": ".r01_fault_blame:run_r01",
    "R02": ".r02_retry_recovery:run_r02",
    "N01": ".n01_substrate:run_n01",
    "T01": ".t01_topo_choice:run_t01",
    "T02": ".t02_topo_blame:run_t02",
    "P01": ".p01_paid_peering:run_p01",
    "P02": ".p02_depeering_war:run_p02",
})

__getattr__, __dir__, __all__ = exports(__name__, {
    ".common": ("ExperimentResult", "ShapeCheck", "Table"),
}, ALL_EXPERIMENTS)
