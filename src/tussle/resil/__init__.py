"""Deterministic resilience layer: chaos plans, retries, crash-safe sweeps.

The paper's §VI-A — "failures of transparency will occur … design what
happens then" — makes faults a tussle space of their own.  This package
gives the reproduction a single vocabulary for them:

- :mod:`tussle.resil.chaos` — seeded :class:`ChaosSchedule` /
  :class:`FaultPlan` fault processes (link flaps, node crashes,
  loss/delay spikes, middlebox insertion) applied to a
  :class:`~tussle.netsim.forwarding.ForwardingEngine` by a
  :class:`ChaosInjector`.
- :mod:`tussle.resil.backoff` — :class:`Backoff` (seeded jitter),
  :class:`Deadline` (caller-supplied clock), :class:`CircuitBreaker`.
- :mod:`tussle.resil.workerchaos` — :class:`WorkerChaos`, deterministic
  sabotage planning for sweep workers (the chaos gate).
- :mod:`tussle.resil.failures` — :class:`FailedCell`, the structured
  record a crash-safe sweep emits instead of aborting.

Everything is a pure function of explicit seeds; no module here reads a
wall clock or an unseeded RNG.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".backoff": ("Backoff", "BreakerState", "CircuitBreaker", "Deadline"),
    ".chaos": ("ChaosInjector", "ChaosSchedule", "FaultEvent", "FaultKind",
               "FaultPlan", "link_target", "parse_link_target"),
    ".failures": ("FailedCell",),
    ".workerchaos": ("CHAOS_MODES", "WorkerChaos"),
})
