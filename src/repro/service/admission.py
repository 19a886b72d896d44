"""Admission control: token-bucket fairness and a degradation ladder.

PR 5 shed load with one blunt instrument — a full queue raised
``ServiceOverload`` no matter who asked or what for (972 rejections at
``workers=2`` in the service benchmark report of the time).  This module
replaces that with a graded policy the service consults *before*
enqueueing:

* **Per-session token buckets** — each session refills at
  ``session_rate`` tokens/s up to ``session_burst``; a session that
  outruns its bucket is throttled with a precise ``retry_after`` (the
  time until its next token) instead of starving its neighbours.
* **Queue-depth watermarks** — below ``low_watermark`` everything is
  admitted; between the watermarks the lowest-priority sessions are
  shed first; at/above ``high_watermark`` only *cached* work is
  admitted.
* **Cached work always progresses** — a request whose translation the
  process cache already holds costs almost nothing to serve, so the
  degradation ladder admits it at every level (and it bypasses the
  token bucket): under saturation the service degrades to a warm-cache
  server rather than rejecting blanketly.

Every rejection carries the decision tag, the observed queue depth and
a ``retry_after`` hint that crosses the wire, so clients back off
instead of hammering and operators can reconstruct *why* any request
was refused from the incident log alone.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class AdmissionPolicy:
    """How the service grades admission under load."""

    #: Session token-bucket refill rate (requests/second).
    session_rate: float = 1000.0
    #: Session token-bucket capacity (burst size).
    session_burst: float = 256.0
    #: Queue fill fraction where low-priority shedding begins.
    low_watermark: float = 0.75
    #: Queue fill fraction where only cached work is admitted.  Must
    #: stay below 1.0 at defaults: the physical queue rejects at a
    #: fill of exactly 1.0 (``queue-full``, even for cached work), so
    #: the cached-only band only exists strictly below it.
    high_watermark: float = 0.9
    #: Sessions with priority below this are shed between watermarks.
    shed_below_priority: int = 1
    #: Bounds on the retry hints handed to rejected clients.
    retry_after_min_s: float = 0.002
    retry_after_max_s: float = 0.5
    #: Fraction of ``session_burst`` a *new* bucket starts with.  A
    #: freshly (re)started shard has lost its per-session bucket state;
    #: booting buckets full would hand every returning session a whole
    #: burst at once — a thundering-herd admit straight into an empty
    #: queue.  A supervisor restarts shards with a conservative
    #: fraction (< 1.0) so returning sessions are metered by the refill
    #: rate until they have re-earned their burst.
    cold_start_fraction: float = 1.0


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check."""

    admitted: bool
    #: ``ok`` | ``ok-cached`` | ``queue-full`` | ``throttled`` |
    #: ``shed-low-priority`` | ``saturated``
    decision: str
    queue_depth: int = 0
    retry_after: float = 0.0


class TokenBucket:
    """A monotonic-clock token bucket (thread-safe)."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic,
                 initial_fraction: float = 1.0) -> None:
        self.rate = max(1e-9, rate)
        self.burst = max(1.0, burst)
        self._clock = clock
        self._tokens = self.burst * min(1.0, max(0.0, initial_fraction))
        self._stamp = clock()
        self._lock = threading.Lock()

    @property
    def tokens(self) -> float:
        """Current fill (refilled to now); for tests and snapshots."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            return self._tokens

    def try_take(self, amount: float = 1.0) -> float:
        """Take *amount* tokens; returns 0.0 on success, else the
        seconds until enough tokens will have refilled."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= amount:
                self._tokens -= amount
                return 0.0
            return (amount - self._tokens) / self.rate

    def refund(self, amount: float = 1.0) -> None:
        """Return tokens whose admission was ultimately not used."""
        with self._lock:
            self._tokens = min(self.burst, self._tokens + amount)


@dataclass
class AdmissionStats:
    """Decision tag -> count, for the service stats."""

    decisions: dict[str, int] = field(default_factory=dict)

    def count(self, decision: str) -> None:
        self.decisions[decision] = self.decisions.get(decision, 0) + 1

    def uncount(self, decision: str) -> None:
        """Roll back one *decision* count (it was superseded)."""
        remaining = self.decisions.get(decision, 0) - 1
        if remaining > 0:
            self.decisions[decision] = remaining
        else:
            self.decisions.pop(decision, None)

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(self.decisions.items()))


class AdmissionController:
    """Grades every submission against the policy (see module doc)."""

    def __init__(self, policy: AdmissionPolicy, queue_depth: int,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy
        self.queue_depth = max(1, queue_depth)
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self.stats = AdmissionStats()

    def _bucket(self, session: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(session)
            if bucket is None:
                bucket = self._buckets[session] = TokenBucket(
                    self.policy.session_rate, self.policy.session_burst,
                    self._clock,
                    initial_fraction=self.policy.cold_start_fraction)
            return bucket

    def _retry_after(self, qsize: int, floor: float = 0.0) -> float:
        """Hint scaled to the backlog: a deeper queue needs a longer
        back-off before a resubmission has any chance of admission."""
        policy = self.policy
        hint = max(floor, policy.retry_after_min_s
                   * max(1, qsize))
        return round(min(policy.retry_after_max_s,
                         max(policy.retry_after_min_s, hint)), 6)

    def admit(self, session: str, priority: int, qsize: int,
              is_cached: Callable[[], bool] = lambda: False,
              queue_full: bool = False) -> AdmissionDecision:
        """Grade one submission (never raises; the caller rejects).

        *is_cached* is a lazy predicate — computing the transcache
        digest costs real analysis work, so it is consulted only when
        the ladder would otherwise reject (the only point where cached
        status changes the outcome).
        """
        policy = self.policy
        depth = self.queue_depth

        def reject(decision: str, floor: float = 0.0
                   ) -> AdmissionDecision:
            self.stats.count(decision)
            return AdmissionDecision(
                admitted=False, decision=decision, queue_depth=qsize,
                retry_after=self._retry_after(qsize, floor))

        def accept(decision: str) -> AdmissionDecision:
            self.stats.count(decision)
            return AdmissionDecision(admitted=True, decision=decision,
                                     queue_depth=qsize)

        if queue_full:
            # No physical space: even cached work cannot be enqueued.
            return reject("queue-full")
        blocked: Optional[str] = None
        floor = 0.0
        if qsize >= depth * policy.high_watermark:
            blocked = "saturated"
        elif (qsize >= depth * policy.low_watermark
                and priority < policy.shed_below_priority):
            blocked = "shed-low-priority"
        else:
            wait = self._bucket(session).try_take()
            if wait > 0.0:
                blocked, floor = "throttled", wait
        if blocked is None:
            return accept("ok")
        if is_cached():
            # The degradation ladder's promise: warm work always
            # progresses, at any watermark, outside the bucket.
            return accept("ok-cached")
        return reject(blocked, floor=floor)

    def revise_to_queue_full(self, prior: AdmissionDecision,
                             session: str,
                             qsize: int) -> AdmissionDecision:
        """Turn an already-recorded admission into a queue-full reject.

        The caller admitted but then lost the race for the last
        physical queue slot.  The request must be counted exactly once
        in the stats, so the *prior* decision's count is rolled back —
        and its bucket token refunded (``ok-cached`` bypassed the
        bucket, so only ``ok`` consumed one) — before the final
        ``queue-full`` rejection is recorded.
        """
        self.stats.uncount(prior.decision)
        if prior.decision == "ok":
            self._bucket(session).refund()
        self.stats.count("queue-full")
        return AdmissionDecision(
            admitted=False, decision="queue-full", queue_depth=qsize,
            retry_after=self._retry_after(qsize))
