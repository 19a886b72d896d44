"""``LoopClient``: the fault-tolerant network client of the service.

The client owns every transport failure mode so callers see exactly
the in-process session API — a translate/run_loop/figure call either
returns the same value the serial path computes or raises the same
typed error the service raised:

* **Deadlines** — every request carries a wall-clock budget; attempts
  (connect, send, await response) each get at most
  ``RetryPolicy.attempt_timeout_s`` of it, so a dropped response burns
  one attempt, not the whole budget.
* **Bounded retries with jittered backoff** — transport failures
  (reset, truncation, checksum mismatch, timeout) reconnect and
  resubmit with exponential backoff; the jitter is seeded, so a chaos
  campaign's retry schedule is reproducible.
* **Idempotent resubmission** — translate/run_loop requests carry the
  content-addressed transcache digest as their idempotency key; the
  service's digest dedup makes a resubmitted translation a
  cache hit, never a second execution, which is what makes blind
  retry-after-unknown-outcome safe.
* **Admission awareness** — an :class:`~repro.errors.AdmissionRejected`
  response is not a transport failure: the client honours the
  server's ``retry_after`` hint (no exponential escalation, no breaker
  penalty) and resubmits until the deadline says stop.
* **Circuit breaking** — ``breaker_threshold`` consecutive transport
  failures open the circuit; calls fail fast with
  :class:`~repro.errors.CircuitOpenError` for ``breaker_cooldown_s``,
  then one probe is let through (half-open).
* **Decode-once replies** — an ok ``translate`` reply whose exact body
  bytes the client has seen before is served from the process-wide
  :data:`REPLY_MEMO` instead of being unpickled again (the client half
  of the decode-once discipline :class:`~repro.service.net.NetServer`
  keeps for request bodies and packed replies).

Every retry and reconnect is counted in :class:`ClientStats` and
recorded as a ``net-retry`` incident, so a run that limped through a
bad network is distinguishable, after the fact, from one that sailed.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import obs
from repro.errors import (
    AdmissionRejected,
    CircuitOpenError,
    ProtocolError,
    ServiceClosed,
    TransportError,
)
from repro.resilience.incidents import record_incident
from repro.service import wire
from repro.service.net import TRANSLATE_MEMO_ENTRIES
from repro.vm.costmodel import TranslationMeter
from repro.vm.translator import TranslationResult


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the client fights the network."""

    #: Max attempts per request (first try included).
    attempts: int = 5
    #: Exponential backoff: ``base * 2**attempt``, capped at ``max``.
    base_delay_s: float = 0.02
    max_delay_s: float = 0.5
    #: Multiplicative jitter width (0.5 = uniform in [0.75x, 1.25x]).
    jitter: float = 0.5
    #: Per-attempt cap on waiting for a response (a dropped response
    #: costs one attempt, not the whole deadline).
    attempt_timeout_s: float = 10.0
    #: Consecutive transport failures that open the circuit.
    breaker_threshold: int = 8
    #: How long an open circuit fails fast before the half-open probe.
    breaker_cooldown_s: float = 1.0


@dataclass
class ClientStats:
    """What one client lifetime saw on the wire."""

    requests: int = 0
    retries: int = 0
    admission_retries: int = 0
    reconnects: int = 0
    protocol_errors: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class CircuitBreaker:
    """Consecutive-failure circuit with a half-open probe."""

    def __init__(self, threshold: int, cooldown_s: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.threshold = max(1, threshold)
        self.cooldown_s = cooldown_s
        self._clock = clock
        self.failures = 0
        self.opened_at: Optional[float] = None

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` while the circuit cools."""
        if self.opened_at is None:
            return
        remaining = self.cooldown_s - (self._clock() - self.opened_at)
        if remaining <= 0:
            return  # half-open: let one probe through
        raise CircuitOpenError(
            f"circuit open after {self.failures} consecutive transport "
            f"failures; retry in {remaining:.2f}s")

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            # (Re)start the cooldown — a failed half-open probe counts.
            self.opened_at = self._clock()

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None


class ReplyMemo:
    """Decoded ok ``translate`` replies, decoded once per repeated body.

    The key is the reply body exactly as received, after the frame's
    SHA-256/HMAC check, so a hit is a body whose exact bytes a past
    restricted decode accepted, and decoding is deterministic.  A body
    is admitted only on its *second* sighting (a bounded record of
    first-sighting hashes tracks the first), so the one-off replies of
    fresh loops are never retained; at most ``entries`` bodies are
    kept, least recently used first out.  A body that fails to decode
    is never admitted.

    Every call gets its own :class:`TranslationResult` and meter; the
    decoded image and failure are shared, as ``translate_loop`` shares
    them among in-process callers (images are never mutated once
    built).
    """

    def __init__(self, entries: int = TRANSLATE_MEMO_ENTRIES) -> None:
        self.entries = entries
        self._lock = threading.Lock()
        self._results: OrderedDict[bytes, TranslationResult] = OrderedDict()
        #: Hashes of bodies seen once, oldest first, at most four per
        #: entry; a hash collision only admits a body early, since
        #: ``_results`` keys on the bytes themselves.
        self._seen: OrderedDict[int, None] = OrderedDict()

    def decode(self, data: Optional[bytes]) -> Any:
        """``wire.unpack_body(data)``, served from the memo on a hit."""
        with self._lock:
            result = self._results.get(data)
            if result is not None:
                self._results.move_to_end(data)
        if result is not None:
            obs.inc("net.client.reply_memo.hits")
            return _own_result(result)
        obs.inc("net.client.reply_memo.misses")
        result = wire.unpack_body(data)
        if not isinstance(result, TranslationResult):
            return result
        key = hash(data)
        with self._lock:
            if key not in self._seen:
                self._seen[key] = None
                if len(self._seen) > 4 * self.entries:
                    self._seen.popitem(last=False)
                return result
            del self._seen[key]
            self._results[data] = result
            if len(self._results) > self.entries:
                self._results.popitem(last=False)
        return _own_result(result)

    def __len__(self) -> int:
        return len(self._results)

    def clear(self) -> None:
        with self._lock:
            self._results.clear()
            self._seen.clear()


def _own_result(result: TranslationResult) -> TranslationResult:
    """*result* with a meter of its own; image and failure shared."""
    meter = result.meter
    return TranslationResult(
        result.loop_name, result.image, result.failure_reason,
        TranslationMeter(dict(meter.units), meter.budget_units,
                         meter.deadline_s, _total=meter.total_units()))


#: The process-wide reply memo every :class:`LoopClient` (and so every
#: ``ClusterClient``) decodes ``translate`` replies through;
#: ``perf.clear_caches`` empties it.
REPLY_MEMO = ReplyMemo()


class LoopClient:
    """A reconnecting, retrying, deadline-bound service client."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 session: Optional[str] = None, priority: int = 1,
                 budget_units: Optional[int] = None,
                 deadline_s: float = 60.0,
                 retry: RetryPolicy = RetryPolicy(),
                 secret: Optional[str] = None,
                 seed: int = 0) -> None:
        self.host = host
        self.port = port
        #: Shared secret matching the server's ``auth_secret``; turns
        #: per-frame checksums into HMAC authentication (required to
        #: talk to any non-loopback server).
        self._key = wire.frame_key(secret)
        self.session = session or f"client-{port}"
        self.priority = priority
        self.budget_units = budget_units
        self.deadline_s = deadline_s
        self.retry = retry
        self.stats = ClientStats()
        #: The server's hello response body (session, priority, and —
        #: on a cluster shard — the shard id and shard map).
        self.server_info: dict = {}
        self._rng = random.Random(seed)
        self._sock: Optional[socket.socket] = None
        self._sock_lock = threading.Lock()
        self._closed = False
        self._req_id = 0
        self._breaker = CircuitBreaker(retry.breaker_threshold,
                                       retry.breaker_cooldown_s)

    # -- the session-shaped API -------------------------------------------

    def ping(self, deadline_s: Optional[float] = None) -> bool:
        return bool(self._call("ping", None,
                               deadline_s=deadline_s).get("pong"))

    def translate(self, loop, accelerator=None, options=None,
                  deadline_s: Optional[float] = None):
        return self._call(
            "translate", wire.translate_body(loop, accelerator, options),
            idempotency_key=self._idempotency_key(loop, accelerator,
                                                  options),
            deadline_s=deadline_s)

    def run_loop(self, loop, scalars: Optional[dict] = None,
                 seed: int = 1234,
                 deadline_s: Optional[float] = None):
        return self._call(
            "run_loop", (loop, scalars, seed),
            idempotency_key=self._idempotency_key(loop, None, None),
            deadline_s=deadline_s)

    def run_figure(self, name: str,
                   deadline_s: Optional[float] = None,
                   attempt_timeout_s: Optional[float] = None) -> str:
        return self._call("figure", name, deadline_s=deadline_s,
                          attempt_timeout_s=attempt_timeout_s)

    def call(self, op: str, body: Any = None, *,
             idempotency_key: Optional[str] = None,
             deadline_s: Optional[float] = None,
             attempt_timeout_s: Optional[float] = None,
             extra: Optional[dict] = None) -> Any:
        """Issue an arbitrary wire op with the full retry machinery.

        The cluster layer builds on this: the supervisor pushes shard
        maps (``map-update``) and scrapes shard counters (``stats``),
        and the failover client threads routing hints (*extra* envelope
        keys) through work requests.
        """
        return self._call(op, body, idempotency_key=idempotency_key,
                          deadline_s=deadline_s,
                          attempt_timeout_s=attempt_timeout_s,
                          extra=extra)

    def close(self) -> ClientStats:
        """Close the client; idempotent and safe against in-flight calls.

        The socket swap happens under a lock so a concurrent retry (or
        a second ``close``) can never double-close the descriptor, and
        an in-flight attempt interrupted by the close raises
        :class:`~repro.errors.ServiceClosed` instead of charging the
        circuit breaker with a spurious transport failure.
        """
        self._closed = True
        self._disconnect()
        return self.stats

    def __enter__(self) -> "LoopClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _idempotency_key(self, loop, accelerator, options
                         ) -> Optional[str]:
        return idempotency_key_for(loop, accelerator, options)

    # -- transport ---------------------------------------------------------

    def _call(self, op: str, body: Any,
              idempotency_key: Optional[str] = None,
              deadline_s: Optional[float] = None,
              attempt_timeout_s: Optional[float] = None,
              extra: Optional[dict] = None) -> Any:
        if self._closed:
            raise ServiceClosed(f"client closed; cannot issue {op}")
        policy = self.retry
        budget = self.deadline_s if deadline_s is None else deadline_s
        attempt_cap = (policy.attempt_timeout_s
                       if attempt_timeout_s is None else attempt_timeout_s)
        deadline = time.monotonic() + budget
        self.stats.requests += 1
        obs.inc(f"net.client.requests.{op}")
        last_error: Optional[BaseException] = None
        attempt = 0            # transport failures (bounded by policy)
        rejections = 0         # admission rejections (deadline-bounded)
        while True:
            self._breaker.check()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"{op} deadline of {budget:.1f}s expired after "
                    f"{attempt} transport attempt(s) and {rejections} "
                    f"admission rejection(s)", op=op,
                    attempts=attempt) from last_error
            try:
                response = self._attempt(op, body, idempotency_key,
                                         min(remaining, attempt_cap),
                                         remaining, extra)
            except (TransportError, OSError) as exc:
                if self._closed:
                    # A concurrent close() tore down the socket under
                    # this attempt: that is a caller decision, not a
                    # transport failure — no breaker charge, no retry.
                    raise ServiceClosed(
                        f"client closed during an in-flight {op} "
                        f"attempt") from exc
                attempt += 1
                last_error = exc
                self._transport_failure(op, attempt, exc)
                if attempt >= policy.attempts:
                    raise TransportError(
                        f"{op} failed after {attempt} attempts",
                        op=op, attempts=attempt) from exc
                self._backoff(attempt, deadline)
                continue
            if response.get("ok"):
                self._breaker.record_success()
                if op == "translate":
                    return REPLY_MEMO.decode(response.get("body"))
                return wire.unpack_body(response.get("body"))
            # A typed error envelope: the server is alive and talking.
            self._breaker.record_success()
            try:
                wire.raise_error(response)
            except AdmissionRejected as exc:
                # Not a transport failure: honour the server's hint
                # (escalating gently past it when rejections repeat)
                # until the deadline says stop.  A one-attempt policy
                # means no retries of any kind — propagate.
                if policy.attempts <= 1:
                    raise
                rejections += 1
                last_error = exc
                hint = max(getattr(exc, "retry_after", 0.0) or 0.0,
                           policy.base_delay_s)
                wait = max(hint, min(
                    policy.max_delay_s,
                    policy.base_delay_s * (2 ** min(rejections, 16))))
                if deadline - time.monotonic() <= wait:
                    raise
                self.stats.admission_retries += 1
                obs.inc("net.client.admission_retries")
                time.sleep(wait)

    def _attempt(self, op: str, body: Any,
                 idempotency_key: Optional[str],
                 attempt_timeout: float, remaining: float,
                 extra: Optional[dict] = None) -> dict:
        """One connect/send/receive cycle; returns the response dict."""
        self._ensure_connected(min(remaining, 10.0))
        self._req_id += 1
        req_id = self._req_id
        message = wire.request(op, req_id, body, session=self.session,
                               idempotency_key=idempotency_key,
                               deadline_s=round(remaining, 3),
                               **(extra or {}))
        sock = self._sock
        if sock is None:
            raise TransportError(f"connection lost before sending {op}",
                                 op=op)
        sock.settimeout(max(0.05, attempt_timeout))
        try:
            sock.sendall(wire.encode_frame(message, key=self._key))
            response = wire.read_frame_blocking(
                lambda count: self._read_exactly(sock, count),
                self._key)
        except socket.timeout:
            raise TransportError(
                f"no {op} response within {attempt_timeout:.2f}s",
                op=op) from None
        except ProtocolError:
            self.stats.protocol_errors += 1
            obs.inc("net.client.protocol_errors")
            raise
        if response is None:
            raise TransportError(
                f"server closed the connection before answering {op}",
                op=op)
        if response.get("id") not in (req_id, None):
            raise ProtocolError(
                f"response id {response.get('id')} != request id "
                f"{req_id}", reason="bad-json")
        return response

    def _transport_failure(self, op: str, attempt: int,
                           exc: BaseException) -> None:
        self._disconnect()
        self._breaker.record_failure()
        self.stats.retries += 1
        obs.inc("net.client.retries")
        record_incident(
            "net-retry", "netclient",
            f"{op} attempt {attempt}/{self.retry.attempts} failed "
            f"({type(exc).__name__}: {exc}); reconnecting",
            op=op, attempt=attempt, session=self.session,
            error=str(exc))

    def _backoff(self, attempt: int, deadline: float) -> None:
        policy = self.retry
        delay = min(policy.max_delay_s,
                    policy.base_delay_s * (2 ** (attempt - 1)))
        # Seeded jitter: uniform in [1 - j/2, 1 + j/2] x delay.
        delay *= 1.0 + policy.jitter * (self._rng.random() - 0.5)
        time.sleep(max(0.0, min(delay, deadline - time.monotonic())))

    def _ensure_connected(self, connect_timeout: float) -> None:
        if self._sock is not None:
            return
        if self._closed:
            raise ServiceClosed("client closed; refusing to reconnect")
        try:
            sock = socket.create_connection(
                (self.host, self.port),
                timeout=max(0.05, connect_timeout))
        except OSError as exc:
            raise TransportError(
                f"cannot connect to {self.host}:{self.port}: {exc}",
                op="connect") from None
        self._sock = sock
        self.stats.reconnects += 1
        obs.inc("net.client.reconnects")
        # Open (or resume) the named server-side session first, so
        # priority/budget apply before any work request.
        self._req_id += 1
        hello = wire.request(
            "hello", self._req_id,
            {"priority": self.priority,
             "budget_units": self.budget_units},
            session=self.session)
        sock.settimeout(max(0.05, connect_timeout))
        try:
            sock.sendall(wire.encode_frame(hello, key=self._key))
            response = wire.read_frame_blocking(
                lambda count: self._read_exactly(sock, count),
                self._key)
        except socket.timeout:
            self._disconnect()
            raise TransportError("hello handshake timed out",
                                 op="hello") from None
        except ProtocolError:
            self._disconnect()
            raise
        if response is None or not response.get("ok"):
            self._disconnect()
            raise TransportError("hello handshake rejected", op="hello")
        try:
            self.server_info = wire.unpack_body(
                response.get("body")) or {}
        except ProtocolError:
            self.server_info = {}

    def _read_exactly(self, sock: socket.socket, count: int) -> bytes:
        """Exactly *count* bytes; ``b""`` on clean EOF before any byte."""
        chunks: list[bytes] = []
        got = 0
        while got < count:
            chunk = sock.recv(count - got)
            if not chunk:
                if not chunks:
                    return b""
                raise ProtocolError(
                    f"connection closed {got} of {count} bytes into a "
                    f"frame", reason="truncated")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _disconnect(self) -> None:
        with self._sock_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


def idempotency_key_for(loop, accelerator=None,
                        options=None) -> Optional[str]:
    """The transcache digest a translate/run_loop request resolves to
    server-side.

    Mirrors the session defaulting (``None`` accelerator/options mean
    the session's own), so a resubmission after an unknown outcome
    dedups against the first attempt's translation — and so the
    cluster client can route a request to the shard that owns its
    digest before ever putting it on the wire.
    """
    try:
        from repro.api import _default_accelerator
        from repro.vm.translator import (TranslationOptions,
                                         translation_key)
        config = (_default_accelerator() if accelerator is None
                  else accelerator)
        opts = TranslationOptions() if options is None else options
        return translation_key(loop, config, opts)
    except Exception:  # noqa: BLE001 — unkeyable request: no key
        return None
