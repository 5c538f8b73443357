"""Transport: reliable delivery over a faulty network on simulated time.

:class:`ReliableSender` retries a send under a jittered backoff, a
deadline and an optional circuit breaker, and reports what it spent as a
:class:`SendOutcome`. R02 measures with it how far "try again" carries
before the remedy has to become "tell the operator" (§VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..resil.backoff import Backoff, CircuitBreaker, Deadline

__all__ = ["ReliableSender", "SendOutcome"]


@dataclass
class SendOutcome:
    """What a :class:`ReliableSender` send attempt sequence produced.

    ``gave_up`` is ``None`` on success, else one of ``"retries"``
    (backoff budget spent), ``"deadline"`` (sim-time deadline passed)
    or ``"breaker"`` (circuit open).  ``elapsed`` is total simulated
    time consumed: per-attempt path latency plus backoff waits.
    """

    delivered: bool
    attempts: int
    elapsed: float
    gave_up: Optional[str] = None
    receipts: List[object] = field(default_factory=list)

    @property
    def final_receipt(self):
        return self.receipts[-1] if self.receipts else None


class ReliableSender:
    """Retries delivery over a faulty network on *simulated* time.

    This is the in-simulation consumer of the resilience primitives: a
    :class:`~tussle.resil.Backoff` schedules jittered retry waits, a
    :class:`~tussle.resil.Deadline` bounds total simulated time, and an
    optional :class:`~tussle.resil.CircuitBreaker` stops a persistent
    fault from consuming the whole retry budget — the paper's point
    that at some moment the remedy stops being "try again" and becomes
    "tell the operator" (§VI-A).

    ``on_advance(now)`` is invoked whenever simulated time moves — this
    is where a :class:`~tussle.resil.ChaosInjector` gets to heal (or
    break) the network between attempts.  A *fresh* packet is built per
    attempt, so TTL and middlebox state never leak across retries.
    """

    def __init__(self, engine, src: str, dst: str,
                 application: str = "generic",
                 backoff: Optional[Backoff] = None,
                 timeout: float = 60.0,
                 breaker: Optional[CircuitBreaker] = None,
                 on_advance: Optional[Callable[[float], None]] = None):
        self.engine = engine
        self.src = src
        self.dst = dst
        self.application = application
        self.backoff = backoff if backoff is not None else Backoff(
            base=0.25, factor=2.0, cap=4.0, max_retries=4, jitter=0.5)
        self.timeout = float(timeout)
        self.breaker = breaker
        self.on_advance = on_advance

    def _advance(self, now: float) -> None:
        if self.on_advance is not None:
            self.on_advance(now)

    def send(self, now: float = 0.0) -> SendOutcome:
        """Attempt delivery starting at simulated time ``now``."""
        from .packets import make_packet

        clock = float(now)
        start = clock
        deadline = Deadline(clock, self.timeout)
        self.backoff.reset()
        outcome = SendOutcome(delivered=False, attempts=0, elapsed=0.0)

        while True:
            if self.breaker is not None and not self.breaker.allow(clock):
                outcome.gave_up = "breaker"
                break
            self._advance(clock)
            packet = make_packet(self.src, self.dst,
                                 application=self.application)
            receipt = self.engine.send(packet)
            outcome.attempts += 1
            outcome.receipts.append(receipt)
            clock += receipt.latency
            if receipt.delivered:
                if self.breaker is not None:
                    self.breaker.record_success()
                outcome.delivered = True
                break
            if self.breaker is not None:
                self.breaker.record_failure(clock)
            if deadline.expired(clock):
                outcome.gave_up = "deadline"
                break
            if self.backoff.exhausted:
                outcome.gave_up = "retries"
                break
            clock += deadline.clamp(clock, self.backoff.next_delay())
            if deadline.expired(clock):
                # A clamped wait lands exactly on expires_at: the budget
                # is spent, so give up now rather than firing one more
                # attempt at t == deadline.
                outcome.gave_up = "deadline"
                break

        outcome.elapsed = clock - start
        return outcome

