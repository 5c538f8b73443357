"""Retry primitives: seeded backoff, sim-time deadlines, circuit breakers.

The paper's §VI-A instruction — "failures of transparency will occur —
design what happens then" — applies to the reproduction's own machinery
as much as to the simulated network.  These three primitives are the
vocabulary every recovery site in the package shares:

:class:`Backoff`
    Exponential retry delays with *seeded* jitter.  Unseeded jitter
    would make a retrying run irreproducible, so the jitter stream is a
    ``random.Random(seed)`` like every other RNG in the package: the
    same seed always yields the same delay sequence (lint rule F201
    applies here exactly as in the simulation).
:class:`Deadline`
    A point on a caller-supplied clock.  In the simulation that clock is
    sim time, in the sweep executor it is the quarantined wall clock;
    the deadline itself never reads any clock.
:class:`CircuitBreaker`
    Closed/open/half-open failure gating so a persistent fault stops
    consuming retry budget — the paper's point that the remedy must move
    to the actor who can act (the operator), not be retried forever by
    the one who cannot (the user).
"""

from __future__ import annotations

import random
from enum import Enum
from typing import List, Optional

from ..errors import ResilienceError

__all__ = ["Backoff", "Deadline", "CircuitBreaker", "BreakerState"]


class Backoff:
    """Deterministic exponential backoff with seeded jitter.

    The *nominal* delay for retry ``n`` (0-based) is
    ``min(cap, base * factor**n)`` — monotone non-decreasing and bounded
    by ``cap``.  The *actual* delay multiplies the nominal by a jitter
    factor drawn from ``[1 - jitter, 1]``, so it never exceeds the
    nominal (and therefore never exceeds ``cap``), and the whole
    sequence is a pure function of ``seed``.

    ``max_retries`` bounds how many delays the schedule will hand out;
    :meth:`next_delay` raises :class:`~tussle.errors.ResilienceError`
    once the budget is spent, so callers cannot loop forever by
    accident.
    """

    def __init__(self, base: float = 0.25, factor: float = 2.0,
                 cap: float = 30.0, max_retries: int = 3,
                 jitter: float = 0.5, seed: int = 0):
        if base <= 0:
            raise ResilienceError(f"backoff base must be positive, got {base}")
        if factor < 1.0:
            raise ResilienceError(
                f"backoff factor must be >= 1, got {factor}")
        if cap < base:
            raise ResilienceError(
                f"backoff cap {cap} must be >= base {base}")
        if not 0.0 <= jitter <= 1.0:
            raise ResilienceError(
                f"jitter must be within [0, 1], got {jitter}")
        if max_retries < 0:
            raise ResilienceError(
                f"max_retries must be >= 0, got {max_retries}")
        self.base = float(base)
        self.factor = float(factor)
        self.cap = float(cap)
        self.max_retries = int(max_retries)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.attempt = 0

    def nominal(self, attempt: int) -> float:
        """Un-jittered delay for 0-based retry ``attempt`` (capped)."""
        if attempt < 0:
            raise ResilienceError(f"attempt must be >= 0, got {attempt}")
        return min(self.cap, self.base * self.factor ** attempt)

    @property
    def exhausted(self) -> bool:
        """Has the retry budget been spent?"""
        return self.attempt >= self.max_retries

    def next_delay(self) -> float:
        """The next jittered delay; raises once ``max_retries`` is spent."""
        if self.exhausted:
            raise ResilienceError(
                f"retry budget exhausted after {self.max_retries} retries")
        nominal = self.nominal(self.attempt)
        self.attempt += 1
        scale = 1.0 - self.jitter * self._rng.random()
        return nominal * scale

    def delays(self) -> List[float]:
        """The full remaining delay schedule (consumes the budget)."""
        out = []
        while not self.exhausted:
            out.append(self.next_delay())
        return out

    def total_bound(self) -> float:
        """Upper bound on the sum of every delay the schedule can emit."""
        return sum(self.nominal(n) for n in range(self.max_retries))

    def reset(self) -> None:
        """Restart the schedule — same seed, same sequence again."""
        self._rng = random.Random(self.seed)
        self.attempt = 0

    def spawn(self, seed: int) -> "Backoff":
        """A fresh schedule with identical policy but its own seed."""
        return Backoff(base=self.base, factor=self.factor, cap=self.cap,
                       max_retries=self.max_retries, jitter=self.jitter,
                       seed=seed)


class Deadline:
    """A point on a caller-supplied clock; never reads any clock itself.

    Sim-time consumers pass their simulated clock, the sweep executor
    passes its quarantined wall clock — the deadline is just arithmetic
    over whatever ``now`` the caller measures.
    """

    def __init__(self, now: float, timeout: float):
        if timeout <= 0:
            raise ResilienceError(
                f"deadline timeout must be positive, got {timeout}")
        self.started_at = float(now)
        self.timeout = float(timeout)
        self.expires_at = self.started_at + self.timeout

    def remaining(self, now: float) -> float:
        """Time left on the caller's clock (never negative)."""
        return max(0.0, self.expires_at - now)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def clamp(self, now: float, delay: float) -> float:
        """``delay``, shortened so it cannot overshoot the deadline."""
        return min(delay, self.remaining(now))


class BreakerState(Enum):
    """Classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Stops retrying a persistently failing dependency.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` refuses attempts until ``reset_timeout`` has
    elapsed on the caller's clock, at which point one probe is admitted
    (half-open).  A successful probe closes the circuit; a failed probe
    re-opens it for another full timeout.

    All state transitions are driven by caller-supplied ``now`` values,
    so the breaker is deterministic on sim time and usable on the
    executor's quarantined wall clock alike.
    """

    def __init__(self, failure_threshold: int = 3, reset_timeout: float = 10.0):
        if failure_threshold < 1:
            raise ResilienceError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout <= 0:
            raise ResilienceError(
                f"reset_timeout must be positive, got {reset_timeout}")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        #: attempts refused while open — the retry budget the breaker saved
        self.refusals = 0
        self.trips = 0

    def allow(self, now: float) -> bool:
        """May an attempt proceed at ``now``?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.opened_at is not None and \
                    now - self.opened_at >= self.reset_timeout:
                self.state = BreakerState.HALF_OPEN
                return True
            self.refusals += 1
            return False
        return True  # HALF_OPEN: the single probe is in flight

    def record_success(self) -> None:
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN or \
                self.consecutive_failures >= self.failure_threshold:
            if self.state is not BreakerState.OPEN:
                self.trips += 1
            self.state = BreakerState.OPEN
            self.opened_at = now
