"""Asyncio TCP transport for :class:`~repro.service.server.LoopService`.

``NetServer`` makes the in-process service reachable over a socket:
one asyncio event loop (running on a dedicated thread, so the blocking
dispatcher/pool machinery underneath is untouched) accepts
connections, reads framed requests (:mod:`repro.service.wire`),
submits them to the wrapped ``LoopService`` and writes framed
responses back.  Everything that can go wrong on the wire is handled
without trusting the peer:

* a **protocol violation** (bad magic, checksum mismatch, truncation)
  closes the connection after a best-effort typed error frame — the
  stream can no longer be assumed frame-aligned;
* a **slow-loris client** (bytes trickling in, or none at all) is cut
  off by ``idle_timeout_s`` and recorded as a ``slow-client``
  incident;
* **admission rejections** cross the wire as typed error envelopes
  carrying the ``retry_after`` hint, so clients back off instead of
  hammering;
* **untrusted peers** never reach ``pickle``: bodies decode through
  the restricted unpickler, and a non-loopback bind is refused unless
  an ``auth_secret`` upgrades frame checksums to per-frame HMAC (see
  the :mod:`repro.service.wire` trust model);
* the seeded network chaos campaign's **wire faults**
  (:func:`repro.faults.infra.claim_net_fault`) are applied on the
  response path — abort mid-frame, corrupt, truncate, stall, drop —
  each recorded as an incident at the moment it fires.

Connections are tracked for the lifetime of the server;
``active_connections()`` must be zero after ``stop()`` (the chaos
campaign's zero-orphaned-connections assertion).
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro import obs, perf
from repro.errors import ProtocolError, ReproError, TransportError
from repro.faults import infra
from repro.resilience.incidents import record_incident
from repro.service import wire
from repro.service.server import LoopService, ServiceConfig


@dataclass(frozen=True)
class NetConfig:
    """How the TCP front end listens and protects itself."""

    host: str = "127.0.0.1"
    #: 0 = pick a free ephemeral port (read it back from ``.port``).
    port: int = 0
    #: Max seconds a connection may sit idle (or trickle bytes inside
    #: a single frame) before it is closed — the slow-loris guard.
    idle_timeout_s: float = 60.0
    #: Shared secret turning per-frame checksums into HMAC-SHA256
    #: authentication (see the :mod:`repro.service.wire` trust model).
    #: Mandatory for any non-loopback ``host``: the wire carries
    #: pickled bodies, so an unauthenticated reachable port would hand
    #: request execution to anyone who can connect.
    auth_secret: Optional[str] = None
    #: The wrapped service's configuration.
    service: ServiceConfig = field(default_factory=ServiceConfig)


#: Distinct ``translate`` bodies whose decoded payload the server
#: keeps, and distinct cache-served ``translate`` replies whose packed
#: body it keeps (each least recently used first out): a repeat of a
#: recent request skips the unpickle and reuses the loop's digest and
#: key memos, and a repeat of a recent reply skips the pickle.
TRANSLATE_MEMO_ENTRIES = 256


def is_loopback_host(host: str) -> bool:
    """Whether *host* can only be reached from this machine."""
    return (host in ("localhost", "::1", "")
            or host.startswith("127."))


def _latency_bucket_ms(elapsed_ms: float) -> int:
    """Power-of-two bucketing (matches the service latency metric)."""
    bucket = 1
    while bucket < elapsed_ms and bucket < 1 << 20:
        bucket <<= 1
    return bucket


class NetServer:
    """The loop service behind a length-framed, checksummed TCP port.

    An optional *router* (duck-typed; see
    :class:`repro.service.cluster.ShardRouter`) makes the server one
    shard of a cluster: it gets first look at every request (ownership
    checks, shard-map updates, injected shard faults) and contributes
    the shard id + map to ``hello`` responses, without this module
    importing the cluster layer.
    """

    def __init__(self, config: NetConfig = NetConfig(),
                 router=None) -> None:
        self.config = config
        self.router = router
        self.service = LoopService(config.service)
        self._key = wire.frame_key(config.auth_secret)
        self.host = config.host
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._conn_tasks: set = set()
        self._active: set[int] = set()
        self._conn_seq = 0
        self._stopped = False
        #: Raw translate body -> decoded (loop, accelerator, options);
        #: only the event-loop thread touches it.
        self._translate_memo: OrderedDict[bytes, tuple] = OrderedDict()
        #: Cache-served translate reply -> its packed body (see
        #: :meth:`_translate_reply`); event-loop thread only.
        self._reply_memo: OrderedDict[tuple, tuple] = OrderedDict()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "NetServer":
        """Bind, boot the wrapped service, serve on a daemon thread.

        Refuses a non-loopback bind without an ``auth_secret``: the
        wire carries pickled bodies, so exposure beyond this machine
        requires per-frame HMAC authentication (the trust model in
        :mod:`repro.service.wire`).
        """
        if self._thread is not None:
            return self
        if not is_loopback_host(self.config.host) and self._key is None:
            raise TransportError(
                f"refusing to bind non-loopback {self.config.host!r} "
                f"without an auth secret: set NetConfig.auth_secret "
                f"(serve --secret / REPRO_SERVICE_SECRET) or bind "
                f"loopback")
        self.service.start()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-net-server",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise TransportError("network server failed to start in 30s")
        if self._boot_error is not None:
            raise self._boot_error
        return self

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    def stop(self, drain: bool = True):
        """Close the listener and every connection, drain the service.

        Returns the wrapped service's
        :class:`~repro.service.server.ServiceStats`.  Idempotent.
        """
        if self._stopped:
            return self.service.stats
        self._stopped = True
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # event loop already closed (boot failed/crashed)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            if self._thread.is_alive():
                record_incident(
                    "service-stall", "net",
                    "network server thread still running after the "
                    "30s stop window")
        return self.service.close(drain=drain)

    def active_connections(self) -> int:
        """Open connections right now (0 after a clean ``stop()``)."""
        return len(self._active)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — reported below
            if self._ready.is_set():
                # Crashed after start() returned: nobody is waiting on
                # _boot_error any more, so the incident log is the
                # surface operators will actually read.
                obs.inc("net.server_crashes")
                record_incident(
                    "transport", "net",
                    f"network server crashed after start: "
                    f"{type(exc).__name__}: {exc}")
            else:
                self._boot_error = TransportError(
                    f"network server crashed: {exc}")
                self._ready.set()
        finally:
            # A dead thread's loop must never be poked by stop().
            self._loop = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._accept, self.config.host, self.config.port)
        except OSError as exc:
            self._boot_error = TransportError(
                f"cannot bind {self.config.host}:{self.config.port}: "
                f"{exc}")
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop_event.wait()
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)

    # -- connection handling -----------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_seq += 1
        conn = self._conn_seq
        self._active.add(conn)
        obs.inc("net.connections.opened")
        obs.set_gauge("net.connections.active", len(self._active))
        try:
            with obs.span("net.connection", component="net",
                          connection=conn):
                await self._serve_connection(conn, reader, writer)
        except asyncio.CancelledError:
            pass  # server stopping: close below
        finally:
            self._active.discard(conn)
            self._conn_tasks.discard(task)
            obs.inc("net.connections.closed")
            obs.set_gauge("net.connections.active", len(self._active))
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_connection(self, conn: int,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                message = await asyncio.wait_for(
                    wire.read_frame_async(reader, self._key),
                    timeout=self.config.idle_timeout_s)
            except asyncio.TimeoutError:
                obs.inc("net.slow_client_closed")
                record_incident(
                    "slow-client", "net",
                    f"connection {conn} made no frame progress for "
                    f"{self.config.idle_timeout_s:.1f}s; closed",
                    connection=conn)
                return
            except ProtocolError as exc:
                obs.inc("net.protocol_errors")
                record_incident(
                    "protocol", "net",
                    f"connection {conn}: {exc}", connection=conn,
                    reason=exc.reason)
                # Best-effort typed report; the stream is not
                # frame-aligned any more, so close either way.
                with contextlib.suppress(Exception):
                    writer.write(wire.encode_frame(
                        wire.error_response(None, exc), key=self._key))
                    await writer.drain()
                return
            except (ConnectionResetError, OSError):
                return
            if message is None:
                return  # clean EOF between frames
            if not await self._serve_request(conn, message, writer):
                return

    async def _serve_request(self, conn: int, message: dict,
                             writer: asyncio.StreamWriter) -> bool:
        """Dispatch one request; returns False to close the connection."""
        req_id = message.get("id")
        op = str(message.get("op", "?"))
        started = time.perf_counter()
        try:
            response = await self._dispatch(message)
        except ReproError as exc:
            obs.inc(f"net.errors.{exc.kind}")
            response = wire.error_response(req_id, exc)
        except Exception as exc:  # noqa: BLE001 — report, don't die
            obs.inc("net.errors.internal")
            response = wire.error_response(req_id, exc)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        obs.observe(f"net.latency_ms.{op}", _latency_bucket_ms(elapsed_ms))
        obs.inc("net.requests")
        return await self._send(conn, writer, response, op)

    async def _dispatch(self, message: dict) -> dict:
        if message.get("type") != "request":
            raise ProtocolError(
                f"expected a request envelope, got "
                f"{message.get('type')!r}", reason="bad-json")
        op = message.get("op")
        req_id = message.get("id")
        session_name = str(message.get("session") or "net")
        if self.router is not None:
            early = await self.router.intercept(op, message)
            if early is not None:
                return early
        if op == "ping":
            return wire.ok_response(req_id, {"pong": True})
        if op == "artifact-fetch":
            # Registry serve: a peer shard missed locally and asks for
            # our copy.  Answered right here on the asyncio thread —
            # a stats-neutral cache peek, never a translation, never a
            # dispatcher slot — so mutually-registered shards cannot
            # deadlock each other's request pipelines.
            key = wire.unpack_body(message.get("body"))
            entry = None
            if isinstance(key, str):
                entry = perf.translation_cache().peek(key)
            if entry is not None:
                obs.inc("aot.registry_serves")
            else:
                obs.inc("aot.registry_serve_misses")
            return wire.ok_response(req_id, entry)
        if op == "hello":
            opts = wire.unpack_body(message.get("body")) or {}
            session = self.service.get_or_open_session(session_name,
                                                       **opts)
            body = {"session": session.name,
                    "priority": session.priority}
            if self.router is not None:
                body["shard"] = self.router.hello_info()
            return wire.ok_response(req_id, body)
        if op == "stats":
            return wire.ok_response(req_id, self.stats_snapshot())
        session = self.service.get_or_open_session(session_name)
        if op == "translate":
            body = self._translate_payload(message.get("body"))
        else:
            body = wire.unpack_body(message.get("body"))
        with obs.span("net.request", component="net", op=op,
                      session=session_name):
            if op == "translate":
                loop, accelerator, options = body
                future = session.translate(loop, accelerator, options)
            elif op == "run_loop":
                loop, scalars, seed = body
                future = session.run_loop(loop, scalars=scalars,
                                          seed=seed)
            elif op == "figure":
                future = session.run_figure(body)
            elif op == "suite":
                config, benchmarks, annotate = body
                future = session.run_suite(config, benchmarks=benchmarks,
                                           annotate=annotate)
            else:
                raise ProtocolError(f"unknown op {op!r}",
                                    reason="bad-json")
            result = await asyncio.wrap_future(future)
        if op == "translate":
            return wire.ok_response(req_id, self._translate_reply(result))
        return wire.ok_response(req_id, result)

    def _translate_payload(self, data) -> tuple:
        """The decoded ``(loop, accelerator, options)`` of a translate
        body, decoded once per distinct body.

        The key is the body exactly as received, after the frame check,
        so a hit is a request whose bytes a past decode accepted.
        Decoding is deterministic and loops are immutable once built,
        so the shared payload is the one a fresh decode would give,
        with its digest and cache-key memos already warm.  A body that
        fails to decode or unpack is never memoised.
        """
        memo = self._translate_memo
        hit = memo.get(data) if isinstance(data, bytes) else None
        if hit is not None:
            memo.move_to_end(data)
            return hit
        loop, accelerator, options = wire.unpack_body(data)
        payload = memo[data] = (loop, accelerator, options)
        if len(memo) > TRANSLATE_MEMO_ENTRIES:
            memo.popitem(last=False)
        return payload

    def _translate_reply(self, result):
        """*result* packed for the wire, packed once per distinct
        cache-served reply.

        Only ok results with an ``image.digest`` (served through the
        translation cache) are memoised; failures, ``deadline_s``
        requests and engine-0 results carry no digest and are packed
        every time.  A cache-served image shares every field but
        ``config`` and the schedule's unit pools with the cached core
        image, so a hit requires the same loop name, digest, meter
        state and *config object*, and the same core-image objects
        (``loop``, ``dfg``, ``partition``, ``streams``, ``registers``,
        ``rotation``) by identity.  The packed bytes are then the ones
        a fresh pack would give.  A retranslated core entry (after an
        eviction or an invalidation) has fresh ``registers`` and
        ``rotation`` and is packed again; so is every result of a
        process pool, which arrives freshly unpickled.
        """
        image = result.image
        if image is None or image.digest is None:
            return result
        meter = result.meter
        key = (result.loop_name, image.digest, id(image.config),
               tuple(meter.units.items()), meter.total_units())
        shared = (image.config, image.loop, image.dfg, image.partition,
                  image.streams, image.registers, image.rotation)
        memo = self._reply_memo
        hit = memo.pop(key, None)
        if hit is not None and all(
                held is now for held, now in zip(hit[0], shared)):
            memo[key] = hit
            return hit[1]
        packed = wire.PackedBody(wire.pack_body(result))
        memo[key] = (shared, packed)
        if len(memo) > TRANSLATE_MEMO_ENTRIES:
            memo.popitem(last=False)
        return packed

    def stats_snapshot(self) -> dict:
        """Live service/admission/obs counters (the ``stats`` wire op).

        The cluster supervisor and the stats CLI scrape this from each
        shard — counters live in the shard's own process, so the wire
        is the only way to aggregate them fleet-wide (the exactly-once
        ``translator.core_runs`` accounting in the cluster chaos
        campaign depends on it).
        """
        body = {
            "service": self.service.stats.as_dict(),
            "admission": self.service._admission.stats.as_dict(),
            "counters": dict(obs.metrics_snapshot().get("counters", {})),
            "active_connections": len(self._active),
        }
        if self.router is not None:
            body["shard"] = self.router.describe()
        return body

    # -- response path (where wire faults land) ----------------------------

    async def _send(self, conn: int, writer: asyncio.StreamWriter,
                    message: dict, op: str) -> bool:
        frame = wire.encode_frame(message, key=self._key)
        spec = infra.claim_net_fault()
        if spec is not None:
            return await self._apply_net_fault(conn, spec, writer,
                                               frame, op)
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionResetError, OSError):
            return False
        return True

    async def _apply_net_fault(self, conn: int,
                               spec: infra.InfraFaultSpec,
                               writer: asyncio.StreamWriter,
                               frame: bytes, op: str) -> bool:
        """Sabotage this response per *spec*; incident at fire time."""
        mode = spec.mode
        obs.inc(f"net.fault.{mode.value}")
        record_incident(
            mode.value, "netfault",
            f"injected {mode.value} on {op} response over connection "
            f"{conn} ({spec.token})", token=spec.token, op=op,
            connection=conn)
        if mode is infra.InfraFaultMode.NET_DROP:
            return True  # response vanishes; client deadline trips
        if mode is infra.InfraFaultMode.NET_RESET:
            with contextlib.suppress(Exception):
                writer.write(frame[:max(1, len(frame) // 2)])
                await writer.drain()
                writer.transport.abort()
            return False
        if mode is infra.InfraFaultMode.NET_TRUNCATE:
            with contextlib.suppress(Exception):
                writer.write(frame[:max(1, len(frame) // 3)])
                await writer.drain()
            return False  # graceful close mid-frame
        if mode is infra.InfraFaultMode.NET_CORRUPT:
            corrupted = bytearray(frame)
            corrupted[wire.HEADER_SIZE] ^= 0xFF  # first payload byte
            with contextlib.suppress(Exception):
                writer.write(bytes(corrupted))
                await writer.drain()
            return True  # stream stays aligned; client will close
        if mode is infra.InfraFaultMode.NET_STALL:
            await asyncio.sleep(spec.delay_s or 1.0)
            with contextlib.suppress(Exception):
                writer.write(frame)
                await writer.drain()
            return True
        return True  # unknown mode: deliver normally
