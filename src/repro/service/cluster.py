"""A self-healing sharded cluster of :class:`~repro.service.net.NetServer`.

VEAL's amortization argument scales horizontally only if the shared
translation service survives its own parts failing: a fleet-sized
translation tier is many processes, and any of them can be OOM-killed
mid-request.  This module turns the single-process TCP server of PR 6
into an N-shard cluster with supervised failover:

* **Digest-routed shards** — each shard is a full ``NetServer`` in its
  own *spawned* process, and the content-addressed transcache digest
  (the idempotency key every translate/run_loop request already
  carries) is routed by **rendezvous hashing** over the live shards.
  Rendezvous (highest-random-weight) hashing means the loss of one
  shard remaps only the keys that shard owned; everyone else's cache
  stays warm — exactly the property the amortization argument needs.
* **A versioned shard map** — the supervisor owns the map, pushes it
  to every shard (``map-update`` wire op), and each shard embeds it in
  its ``hello`` responses so clients learn routing on connect.  A
  shard that receives a keyed request it does not own answers with a
  typed :class:`~repro.errors.ShardMovedError` carrying the owner's
  coordinates *and* the current map: one round trip both redirects the
  request and repairs a stale client.
* **Supervised failover** — :class:`ShardSupervisor` health-checks
  every shard with periodic wire-level pings; missed heartbeats (or a
  dead process) escalate to SIGKILL + restart with bounded exponential
  backoff, a new epoch, and a new map version.  Every death, restart
  and rebalance is an incident record (PR 3 JSONL log) and a
  ``cluster.*`` metric.
* **Exactly-once through failure** — :class:`ClusterClient` treats a
  dead shard as a retryable event: it fails over to the next-best live
  shard (telling it ``allow_any`` so the ownership check stands down),
  and because resubmission is by digest into the shard's dedup,
  translation remains exactly-once even when the original shard died
  with the request in flight.
* **One fleet cache directory** — shards are local children of one
  supervisor, so each attaches the supervisor's private ``mkdtemp``
  directory (mode 0700, removed at ``stop()``) as its disk layer: a
  translation any shard paid for is a disk hit for every sibling and
  for a restarted incarnation.

What *is* lost on a shard death: that shard's in-memory translation
cache, admission-bucket state and counters.  Correctness never depends
on any of it — results are recomputed byte-identically, and the fleet
directory still holds every translation the shard wrote through — and
restarted shards boot their admission buckets at a conservative
``cold_start_fraction`` so returning sessions cannot stampede a fresh
empty queue (see :mod:`repro.service.admission`).
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro import obs
from repro.errors import ShardMovedError, TransportError
from repro.resilience import infra
from repro.resilience.incidents import record_incident
from repro.service import wire
from repro.service.client import (
    LoopClient,
    RetryPolicy,
    idempotency_key_for,
)
from repro.service.net import NetConfig, NetServer
from repro.service.server import ServiceConfig

#: Ops that carry real work (and therefore ownership + kill faults).
_WORK_OPS = ("translate", "run_loop", "figure")
#: Ops whose routing key is the transcache digest.
_KEYED_OPS = ("translate", "run_loop")


# -- the shard map ------------------------------------------------------------

def rendezvous_score(key: str, shard_id: int) -> int:
    """Highest-random-weight score of (*key*, *shard_id*).

    SHA-256 based so every process — shards, supervisor, clients —
    computes identical routing regardless of ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256(f"{key}|{shard_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ShardInfo:
    """One shard's coordinates in the map."""

    shard_id: int
    host: str
    port: int
    #: Bumped on every restart; distinguishes incarnations at one id.
    epoch: int = 0
    #: False between a shard's death and its restart: down shards stay
    #: in the map (their identity persists) but receive no routes.
    up: bool = True

    def to_json(self) -> dict:
        return {"shard_id": self.shard_id, "host": self.host,
                "port": self.port, "epoch": self.epoch, "up": self.up}

    @staticmethod
    def from_json(data: dict) -> "ShardInfo":
        return ShardInfo(shard_id=int(data["shard_id"]),
                         host=str(data["host"]), port=int(data["port"]),
                         epoch=int(data.get("epoch", 0)),
                         up=bool(data.get("up", True)))


class ShardMap:
    """A versioned, liveness-aware rendezvous routing table."""

    def __init__(self, version: int,
                 shards: dict[int, ShardInfo]) -> None:
        self.version = version
        self.shards = dict(shards)

    def live(self) -> list[ShardInfo]:
        return [s for s in self.shards.values() if s.up]

    def candidates(self, key: str) -> list[ShardInfo]:
        """Live shards in rendezvous order (owner first) for *key*."""
        return sorted(self.live(),
                      key=lambda s: rendezvous_score(key, s.shard_id),
                      reverse=True)

    def owner(self, key: str) -> Optional[ShardInfo]:
        ranked = self.candidates(key)
        return ranked[0] if ranked else None

    def to_json(self) -> dict:
        return {"version": self.version,
                "shards": [s.to_json() for s in
                           sorted(self.shards.values(),
                                  key=lambda s: s.shard_id)]}

    @staticmethod
    def from_json(data: dict) -> "ShardMap":
        shards = {int(s["shard_id"]): ShardInfo.from_json(s)
                  for s in data.get("shards", [])}
        return ShardMap(int(data.get("version", 0)), shards)


# -- the shard-side router ----------------------------------------------------

class ShardRouter:
    """Installed into a :class:`NetServer` to make it one shard.

    Gets first look at every request (``NetServer._dispatch``): applies
    injected shard faults, absorbs ``map-update`` pushes from the
    supervisor, and enforces digest ownership — a keyed request this
    shard does not own (per its copy of the map) is answered with
    :class:`ShardMovedError` unless the client set ``allow_any`` (its
    explicit failover escape hatch when the owner is unreachable).
    """

    def __init__(self, shard_id: int, epoch: int = 0) -> None:
        self.shard_id = shard_id
        self.epoch = epoch
        self.map: Optional[ShardMap] = None
        self._hung_until = 0.0

    def hello_info(self) -> dict:
        return {"shard_id": self.shard_id, "epoch": self.epoch,
                "map": self.map.to_json() if self.map else None}

    def describe(self) -> dict:
        return {"shard_id": self.shard_id, "epoch": self.epoch,
                "map_version": self.map.version if self.map else None}

    def apply_map(self, data: Optional[dict]) -> None:
        if not data:
            return
        new = ShardMap.from_json(data)
        if self.map is None or new.version > self.map.version:
            self.map = new
            obs.set_gauge("cluster.shard.map_version", new.version)

    async def intercept(self, op: str,
                        message: dict) -> Optional[dict]:
        """First look at a request; a dict response short-circuits."""
        req_id = message.get("id")
        await self._maybe_hang_or_die(op)
        if op == "map-update":
            self.apply_map(wire.unpack_body(message.get("body")))
            obs.inc("cluster.shard.map_updates")
            return wire.ok_response(req_id, {
                "shard_id": self.shard_id,
                "map_version": self.map.version if self.map else None})
        key = message.get("idempotency_key")
        if (key and op in _KEYED_OPS and self.map is not None
                and not message.get("allow_any")):
            owner = self.map.owner(key)
            if owner is not None and owner.shard_id != self.shard_id:
                obs.inc("cluster.shard.moved")
                raise ShardMovedError(
                    f"digest {key[:12]}… is owned by shard "
                    f"{owner.shard_id} ({owner.host}:{owner.port}), "
                    f"not shard {self.shard_id}",
                    shard_id=self.shard_id, owner_id=owner.shard_id,
                    owner_host=owner.host, owner_port=owner.port,
                    shard_map=self.map.to_json())
        return None

    async def _maybe_hang_or_die(self, op: str) -> None:
        """Apply armed SHARD_HANG / SHARD_KILL faults to this request."""
        spec = infra.claim_shard_fault(infra.InfraFaultMode.SHARD_HANG,
                                       self.shard_id)
        if spec is not None:
            delay = spec.delay_s or 30.0
            self._hung_until = time.monotonic() + delay
            record_incident(
                "shard-hang", "clusterfault",
                f"injected shard-hang on shard {self.shard_id}: all "
                f"responses stalled {delay:.1f}s ({spec.token})",
                token=spec.token, shard=self.shard_id, op=op)
        if self._hung_until > time.monotonic():
            # Stall (cooperatively, per request) until the hang lapses
            # — in practice the supervisor's missed-heartbeat
            # escalation SIGKILLs this process long before that.
            await asyncio.sleep(self._hung_until - time.monotonic())
        if op in _WORK_OPS:
            spec = infra.claim_shard_fault(
                infra.InfraFaultMode.SHARD_KILL, self.shard_id)
            if spec is not None:
                record_incident(
                    "shard-kill", "clusterfault",
                    f"injected SIGKILL on shard {self.shard_id} "
                    f"mid-{op} ({spec.token})",
                    token=spec.token, shard=self.shard_id, op=op)
                os.kill(os.getpid(), signal.SIGKILL)


# -- the shard process --------------------------------------------------------

def _shard_main(shard_id: int, epoch: int, config: NetConfig,
                fleet_dir: str, conn) -> None:
    """Entry point of one spawned shard process.

    Attaches *fleet_dir* as the cache's disk layer, reports ``{"ok":
    True, "port": ...}`` (or the boot failure) back through *conn*,
    then serves until SIGTERM.  The incident-log sink and the chaos
    spec-file path arrive through the environment, so shard-side faults
    land in the same JSONL log the parent reads.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_args: stop.set())
    try:
        spec = infra.claim_shard_fault(
            infra.InfraFaultMode.SHARD_SLOW_START, shard_id)
        if spec is not None:
            delay = spec.delay_s or 1.0
            record_incident(
                "shard-slow-start", "clusterfault",
                f"injected slow start on shard {shard_id} epoch "
                f"{epoch}: bind delayed {delay:.1f}s ({spec.token})",
                token=spec.token, shard=shard_id, epoch=epoch)
            time.sleep(delay)
        from repro import perf
        perf.translation_cache().attach_disk(fleet_dir, strict=True)
        router = ShardRouter(shard_id, epoch)
        server = NetServer(config, router=router)
        server.start()
    except BaseException as exc:  # noqa: BLE001 — reported to parent
        try:
            conn.send({"ok": False,
                       "error": f"{type(exc).__name__}: {exc}"})
        finally:
            conn.close()
        return
    try:
        conn.send({"ok": True, "port": server.port,
                   "pid": os.getpid()})
    finally:
        conn.close()
    stop.wait()
    server.stop(drain=True)


# -- the supervisor -----------------------------------------------------------

@dataclass(frozen=True)
class ClusterConfig:
    """How the supervisor runs and heals its shard fleet."""

    shards: int = 2
    host: str = "127.0.0.1"
    #: Propagated to every shard (wire HMAC) and to every control
    #: connection the supervisor itself opens.
    auth_secret: Optional[str] = None
    #: Per-shard service configuration.
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Health-check cadence and per-ping response budget.
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 0.75
    #: Consecutive missed pings that escalate to SIGKILL + restart.
    missed_heartbeats: int = 3
    #: Restart backoff: ``base * 2**consecutive_restarts``, capped.
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 2.0
    #: Healthy pings that reset the consecutive-restart counter.
    healthy_streak: int = 4
    #: How long a spawned shard may take to report its port (covers
    #: injected slow starts).
    start_timeout_s: float = 60.0
    #: Admission-bucket fill fraction for *restarted* shards — the
    #: conservative cold start that prevents a thundering-herd admit
    #: after bucket state died with the old process.
    cold_start_fraction: float = 0.25


class _ShardHandle:
    """Supervisor-side state for one shard id across incarnations."""

    def __init__(self, info: ShardInfo, process) -> None:
        self.info = info
        self.process = process
        self.client: Optional[LoopClient] = None
        self.misses = 0
        self.healthy = 0
        self.consecutive_restarts = 0
        self.retry_at = 0.0  # monotonic; when a down shard may restart


class ShardSupervisor:
    """Spawns, health-checks, and restarts the shard fleet.

    The supervisor owns the shard map.  Every change — a shard marked
    down, a shard restarted at a new port/epoch — bumps the version and
    is pushed to every live shard, so ownership checks and the
    ``hello``/``shard-moved`` envelopes clients learn routing from stay
    current.  All spawns use the *spawn* start method: the supervisor
    restarts shards from its health thread, and forking a
    multi-threaded parent would inherit held locks.  The fleet cache
    directory (module docstring) lives from :meth:`start` to
    :meth:`stop`.
    """

    def __init__(self, config: ClusterConfig = ClusterConfig()) -> None:
        if config.shards < 1:
            raise ValueError(f"need at least 1 shard, got "
                             f"{config.shards}")
        self.config = config
        self._ctx = multiprocessing.get_context("spawn")
        self._shards: dict[int, _ShardHandle] = {}
        self._all_processes: list = []
        self._map_version = 0
        self._map_lock = threading.Lock()
        self._stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        #: The fleet's shared translation-cache directory.
        self.fleet_dir: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        if self._started:
            return self
        self._started = True
        self._ensure_importable()
        self.fleet_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        try:
            for shard_id in range(self.config.shards):
                info, process = self._spawn(shard_id, epoch=0, cold=False)
                self._shards[shard_id] = _ShardHandle(info, process)
        except BaseException:
            self.stop()  # reap the shards already up, drop the directory
            raise
        self._bump_and_push("cluster booted")
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-shard-supervisor",
            daemon=True)
        self._health_thread.start()
        return self

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop health-checking, terminate every shard, reap them all.

        Guarantees zero orphans: SIGTERM first (clean drain), SIGKILL
        any straggler, and join every process ever spawned — including
        long-dead incarnations — so nothing is left unreaped.  The
        fleet directory goes with the fleet.
        """
        if self._stopped:
            return
        self._stopped = True
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=30.0)
        for handle in self._shards.values():
            if handle.client is not None:
                handle.client.close()
                handle.client = None
            if handle.process.is_alive():
                handle.process.terminate()  # SIGTERM: drain and exit
        deadline = time.monotonic() + 15.0
        for process in self._all_processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        if self.fleet_dir is not None:
            shutil.rmtree(self.fleet_dir, ignore_errors=True)

    def orphan_pids(self) -> list[int]:
        """PIDs of spawned shard processes still alive (0 expected
        after ``stop()``)."""
        return [p.pid for p in self._all_processes
                if p.pid is not None and p.is_alive()]

    # -- observation -------------------------------------------------------

    @property
    def map(self) -> ShardMap:
        with self._map_lock:
            return ShardMap(self._map_version,
                            {i: h.info for i, h in self._shards.items()})

    def seed_address(self) -> tuple[str, int]:
        """(host, port) of a live shard — a client's entry point."""
        for handle in self._shards.values():
            if handle.info.up:
                return handle.info.host, handle.info.port
        raise TransportError("no live shard to connect to")

    def shard_stats(self) -> dict[int, dict]:
        """Per-shard ``stats`` snapshots (live shards only): the
        fleet-wide accounting surface :meth:`core_runs` sums."""
        snapshots: dict[int, dict] = {}
        for shard_id, handle in sorted(self._shards.items()):
            if not handle.info.up:
                continue
            # A transient client per scrape: the persistent control
            # client belongs to the health thread, and LoopClient is
            # not thread-safe.
            client = LoopClient(handle.info.host, handle.info.port,
                                session="cluster-supervisor-stats",
                                secret=self.config.auth_secret,
                                retry=RetryPolicy(attempts=2))
            try:
                snapshots[shard_id] = client.call(
                    "stats", deadline_s=10.0)
            except Exception:  # noqa: BLE001 — a dying shard: skip
                continue
            finally:
                client.close()
        return snapshots

    def core_runs(self) -> int:
        """Fleet-wide total of actual core translation runs — how the
        cluster chaos campaign and the ``shards=N`` service rows prove
        exactly-once translation."""
        return sum(
            snapshot.get("counters", {}).get("translator.core_runs", 0)
            for snapshot in self.shard_stats().values())

    def _converged(self) -> bool:
        # A shard only counts as converged when the *process* is alive,
        # not merely when the map says up: a freshly SIGKILLed shard
        # stays "up" in the map until the health loop notices.
        return all(h.info.up and h.process.is_alive()
                   for h in self._shards.values())

    def wait_converged(self, timeout_s: float = 30.0) -> bool:
        """Block until every shard is up (True) or timeout (False)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._converged():
                return True
            time.sleep(0.05)
        return self._converged()

    def kill_shard(self, shard_id: int) -> int:
        """SIGKILL one shard (campaign/test hook); returns its pid."""
        handle = self._shards[shard_id]
        pid = handle.process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    # -- spawning ----------------------------------------------------------

    def _ensure_importable(self) -> None:
        """Make ``repro`` importable in spawned children.

        Spawn re-imports the package from scratch; when the parent got
        ``repro`` from a path not on ``PYTHONPATH`` (pytest inserting
        ``src/`` into ``sys.path``), the children need the hint.
        """
        import repro
        pkg_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        existing = os.environ.get("PYTHONPATH", "")
        if pkg_root not in existing.split(os.pathsep):
            os.environ["PYTHONPATH"] = (
                pkg_root + (os.pathsep + existing if existing else ""))

    def _shard_config(self, cold: bool, port: int = 0) -> NetConfig:
        service = self.config.service
        if cold:
            service = replace(service, admission=replace(
                service.admission,
                cold_start_fraction=self.config.cold_start_fraction))
        return NetConfig(host=self.config.host, port=port,
                         auth_secret=self.config.auth_secret,
                         service=service)

    def _spawn(self, shard_id: int, epoch: int, cold: bool,
               port: int = 0) -> tuple[ShardInfo, Any]:
        """Spawn one shard incarnation; returns its info + process."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shard_main,
            args=(shard_id, epoch, self._shard_config(cold, port),
                  self.fleet_dir, child_conn),
            name=f"repro-shard-{shard_id}.{epoch}", daemon=True)
        process.start()
        child_conn.close()
        self._all_processes.append(process)
        try:
            if not parent_conn.poll(self.config.start_timeout_s):
                raise TransportError(
                    f"shard {shard_id} epoch {epoch} did not report a "
                    f"port within {self.config.start_timeout_s:.0f}s")
            report = parent_conn.recv()
        except (EOFError, OSError) as exc:
            process.kill()
            process.join(timeout=5.0)
            raise TransportError(
                f"shard {shard_id} epoch {epoch} died while booting: "
                f"{exc}") from None
        finally:
            parent_conn.close()
        if not report.get("ok"):
            process.join(timeout=5.0)
            raise TransportError(
                f"shard {shard_id} epoch {epoch} failed to boot: "
                f"{report.get('error')}")
        info = ShardInfo(shard_id=shard_id, host=self.config.host,
                         port=int(report["port"]), epoch=epoch, up=True)
        return info, process

    def _control_client(self, handle: _ShardHandle) -> LoopClient:
        """The supervisor's own connection to one shard incarnation."""
        if handle.client is None:
            handle.client = LoopClient(
                handle.info.host, handle.info.port,
                session="cluster-supervisor",
                secret=self.config.auth_secret,
                deadline_s=self.config.heartbeat_timeout_s,
                retry=RetryPolicy(
                    attempts=1,
                    attempt_timeout_s=self.config.heartbeat_timeout_s,
                    # The health loop is the escalation authority; a
                    # breaker failing pings fast would usurp it.
                    breaker_threshold=1 << 30))
        return handle.client

    # -- map management ----------------------------------------------------

    def _bump_and_push(self, why: str) -> None:
        """Bump the map version and push it to every live shard."""
        with self._map_lock:
            self._map_version += 1
            version = self._map_version
        current = self.map
        obs.set_gauge("cluster.map_version", version)
        record_incident(
            "cluster-rebalance", "cluster",
            f"shard map v{version}: {why} "
            f"({sum(1 for s in current.shards.values() if s.up)}/"
            f"{len(current.shards)} shards up)",
            map_version=version,
            up=[s.shard_id for s in current.live()])
        payload = current.to_json()
        for handle in self._shards.values():
            if not handle.info.up:
                continue
            try:
                self._control_client(handle).call(
                    "map-update", payload, deadline_s=5.0)
            except Exception:  # noqa: BLE001 — dead shard: the health
                pass           # loop will notice and re-push on restart

    # -- health checking and healing ---------------------------------------

    def _health_loop(self) -> None:
        interval = self.config.heartbeat_interval_s
        while not self._stop.wait(interval):
            for shard_id in list(self._shards):
                if self._stop.is_set():
                    return
                handle = self._shards[shard_id]
                if not handle.info.up:
                    if (time.monotonic() >= handle.retry_at
                            and not self._stop.is_set()):
                        self._restart(handle)
                    continue
                if not handle.process.is_alive():
                    self._escalate(handle, "process exited")
                    continue
                try:
                    self._control_client(handle).ping(
                        deadline_s=self.config.heartbeat_timeout_s)
                except Exception as exc:  # noqa: BLE001 — any miss
                    handle.misses += 1
                    handle.healthy = 0
                    obs.inc("cluster.heartbeat_misses")
                    if handle.misses >= self.config.missed_heartbeats:
                        self._escalate(
                            handle,
                            f"{handle.misses} consecutive missed "
                            f"heartbeats ({type(exc).__name__})")
                else:
                    handle.misses = 0
                    handle.healthy += 1
                    if handle.healthy >= self.config.healthy_streak:
                        handle.consecutive_restarts = 0

    def _escalate(self, handle: _ShardHandle, why: str) -> None:
        """A shard is dead or unresponsive: SIGKILL, mark down, push."""
        info = handle.info
        obs.inc("cluster.shard_deaths")
        record_incident(
            "shard-death", "cluster",
            f"shard {info.shard_id} epoch {info.epoch} "
            f"({info.host}:{info.port}) escalated: {why}; SIGKILL + "
            f"restart with backoff",
            shard=info.shard_id, epoch=info.epoch, reason=why)
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=10.0)
        if handle.client is not None:
            handle.client.close()
            handle.client = None
        handle.misses = 0
        handle.healthy = 0
        backoff = min(self.config.restart_backoff_max_s,
                      self.config.restart_backoff_s
                      * (2 ** handle.consecutive_restarts))
        handle.consecutive_restarts += 1
        handle.retry_at = time.monotonic() + backoff
        handle.info = replace(info, up=False)
        self._bump_and_push(
            f"shard {info.shard_id} down ({why}); restart in "
            f"{backoff:.2f}s")

    def _restart(self, handle: _ShardHandle) -> None:
        """Bring a down shard back (new epoch, cold buckets).

        The restart *reuses the shard's port*: a stranded client whose
        every known address died while it was away can reconnect to the
        same coordinates once the shard is back — a shard's address is
        part of its identity.  Only if that bind is lost (another
        process claimed the port meanwhile) does the shard move to a
        fresh port, which the map push then advertises.
        """
        shard_id = handle.info.shard_id
        epoch = handle.info.epoch + 1
        try:
            try:
                info, process = self._spawn(
                    shard_id, epoch, cold=True, port=handle.info.port)
            except TransportError:
                info, process = self._spawn(shard_id, epoch, cold=True)
        except TransportError as exc:
            backoff = min(self.config.restart_backoff_max_s,
                          self.config.restart_backoff_s
                          * (2 ** handle.consecutive_restarts))
            handle.consecutive_restarts += 1
            handle.retry_at = time.monotonic() + backoff
            record_incident(
                "shard-restart-failed", "cluster",
                f"shard {shard_id} epoch {epoch} failed to restart "
                f"({exc}); next attempt in {backoff:.2f}s",
                shard=shard_id, epoch=epoch)
            return
        handle.info = info
        handle.process = process
        obs.inc("cluster.shard_restarts")
        record_incident(
            "shard-restart", "cluster",
            f"shard {shard_id} restarted as epoch {epoch} on "
            f"{info.host}:{info.port} (admission buckets cold-started "
            f"at {self.config.cold_start_fraction:.0%})",
            shard=shard_id, epoch=epoch, port=info.port)
        self._bump_and_push(f"shard {shard_id} back up (epoch {epoch})")


# -- the failover client ------------------------------------------------------

@dataclass
class ClusterClientStats:
    """What one cluster-client lifetime saw across all shards."""

    failovers: int = 0
    moved: int = 0
    map_updates: int = 0
    map_stale_drops: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class ClusterClient:
    """A shard-map-aware, failing-over front end over ``LoopClient``.

    Routing: requests that carry a transcache digest go to the digest's
    rendezvous owner; a ``shard-moved`` answer refreshes the map and
    re-resolves; a transport failure marks the shard suspect and fails
    over to the next-best live shard with ``allow_any`` set (the
    explicit "owner is unreachable" escape hatch).  Idempotent
    resubmission by digest makes the failover exactly-once: whichever
    shard ends up serving the request dedups it by digest.

    One ``secret`` covers every shard connection the client opens —
    shards learned from the map inherit it, so wire auth is uniform
    across the fleet.
    """

    def __init__(self, host: str, port: int, *,
                 session: Optional[str] = None, priority: int = 1,
                 budget_units: Optional[int] = None,
                 deadline_s: float = 60.0,
                 secret: Optional[str] = None, seed: int = 0,
                 shard_retry: Optional[RetryPolicy] = None,
                 suspect_ttl_s: float = 2.0) -> None:
        self._seed_addr = (host, port)
        self.session = session or f"cluster-{port}"
        self.priority = priority
        self.budget_units = budget_units
        self.deadline_s = deadline_s
        self._secret = secret
        self._seed = seed
        #: Per-shard policy: fail fast and let failover do the healing
        #: (the per-shard breaker never usurps cluster-level routing).
        self.shard_retry = shard_retry or RetryPolicy(
            attempts=2, base_delay_s=0.02, max_delay_s=0.2,
            attempt_timeout_s=10.0, breaker_threshold=1 << 30)
        self.suspect_ttl_s = suspect_ttl_s
        self.stats = ClusterClientStats()
        self._map: Optional[ShardMap] = None
        self._clients: dict[tuple[str, int], LoopClient] = {}
        self._suspect: dict[int, float] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- the session-shaped API -------------------------------------------

    def ping(self, deadline_s: Optional[float] = None) -> bool:
        return bool(self._call("ping", None, key=None,
                               deadline_s=deadline_s).get("pong"))

    def translate(self, loop, accelerator=None, options=None,
                  deadline_s: Optional[float] = None):
        return self._call(
            "translate", wire.translate_body(loop, accelerator, options),
            key=idempotency_key_for(loop, accelerator, options),
            deadline_s=deadline_s)

    def run_loop(self, loop, scalars: Optional[dict] = None,
                 seed: int = 1234,
                 deadline_s: Optional[float] = None):
        return self._call(
            "run_loop", (loop, scalars, seed),
            key=idempotency_key_for(loop),
            deadline_s=deadline_s)

    def run_figure(self, name: str,
                   deadline_s: Optional[float] = None,
                   attempt_timeout_s: Optional[float] = None) -> str:
        return self._call("figure", name, key=None,
                          deadline_s=deadline_s,
                          attempt_timeout_s=attempt_timeout_s)

    def close(self) -> ClusterClientStats:
        self._closed = True
        with self._lock:
            clients, self._clients = dict(self._clients), {}
        for client in clients.values():
            client.close()
        return self.stats

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- observation -------------------------------------------------------

    @property
    def shard_map(self) -> Optional[ShardMap]:
        return self._map

    def client_stats(self) -> dict:
        """Aggregated per-shard ``ClientStats`` plus cluster counters."""
        totals = {"requests": 0, "retries": 0, "admission_retries": 0,
                  "reconnects": 0, "protocol_errors": 0}
        with self._lock:
            clients = list(self._clients.values())
        for client in clients:
            for name in totals:
                totals[name] += getattr(client.stats, name)
        totals["cluster"] = self.stats.as_dict()
        return totals

    # -- routing -----------------------------------------------------------

    def connect(self) -> "ClusterClient":
        """Learn the shard map from any reachable shard's hello."""
        self._refresh_map()
        return self

    def _client_for(self, addr: tuple[str, int]) -> LoopClient:
        with self._lock:
            client = self._clients.get(addr)
            if client is None:
                client = self._clients[addr] = LoopClient(
                    addr[0], addr[1], session=self.session,
                    priority=self.priority,
                    budget_units=self.budget_units,
                    deadline_s=self.deadline_s,
                    retry=self.shard_retry,
                    secret=self._secret, seed=self._seed)
            return client

    def _apply_map(self, data: Optional[dict]) -> None:
        if not data:
            return
        spec = infra.claim_shard_fault(infra.InfraFaultMode.MAP_STALE)
        if spec is not None:
            self.stats.map_stale_drops += 1
            obs.inc("cluster.client.map_stale")
            record_incident(
                "map-stale", "clusterfault",
                f"injected map-stale: client dropped a shard-map "
                f"update ({spec.token})", token=spec.token,
                session=self.session)
            return
        new = ShardMap.from_json(data)
        if self._map is None or new.version > self._map.version:
            self._map = new
            self.stats.map_updates += 1
            obs.inc("cluster.client.map_updates")
            obs.set_gauge("cluster.client.map_version", new.version)
            with self._lock:
                live = {(s.host, s.port) for s in new.shards.values()
                        if s.up}
                live.add(self._seed_addr)
                stale = [addr for addr in self._clients
                         if addr not in live]
                dropped = [self._clients.pop(addr) for addr in stale]
            for client in dropped:
                client.close()

    def _refresh_map(self) -> None:
        """Best-effort map learn/refresh via a hello round trip."""
        for addr in self._known_addresses():
            client = self._client_for(addr)
            try:
                info = client.call(
                    "hello",
                    {"priority": self.priority,
                     "budget_units": self.budget_units},
                    deadline_s=2.0)
            except Exception:  # noqa: BLE001 — try the next address
                continue
            shard = (info or {}).get("shard") or {}
            self._apply_map(shard.get("map"))
            return

    def _known_addresses(self) -> list[tuple[str, int]]:
        addresses = [self._seed_addr]
        if self._map is not None:
            # Live shards first, but *down* shards too: restarts keep
            # their port, so a shard that was down when this map was
            # learned may answer at the same address by now — often
            # the only way back for a client whose map went fully
            # stale while it was away.
            ranked = sorted(self._map.shards.values(),
                            key=lambda s: not s.up)
            for shard in ranked:
                addr = (shard.host, shard.port)
                if addr not in addresses:
                    addresses.append(addr)
        return addresses

    def _candidates(self, key: Optional[str]
                    ) -> list[tuple[Optional[int], tuple[str, int]]]:
        """(shard_id, address) targets in preference order."""
        if self._map is None:
            return [(None, self._seed_addr)]
        ranked = self._map.candidates(key if key is not None
                                      else self.session)
        if not ranked:
            return [(None, self._seed_addr)]
        now = time.monotonic()
        fresh = [s for s in ranked
                 if self._suspect.get(s.shard_id, 0.0) <= now]
        suspect = [s for s in ranked
                   if self._suspect.get(s.shard_id, 0.0) > now]
        return [(s.shard_id, (s.host, s.port))
                for s in fresh + suspect]

    def _call(self, op: str, body: Any, key: Optional[str],
              deadline_s: Optional[float] = None,
              attempt_timeout_s: Optional[float] = None) -> Any:
        budget = self.deadline_s if deadline_s is None else deadline_s
        deadline = time.monotonic() + budget
        if self._map is None:
            self._refresh_map()
        allow_any = False
        moves = 0
        dark_rounds = 0
        forced: Optional[tuple[Optional[int], tuple[str, int]]] = None
        last_error: Optional[BaseException] = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"cluster {op} deadline of {budget:.1f}s expired",
                    op=op) from last_error
            targets = self._candidates(key)
            if forced is not None:
                targets = ([forced]
                           + [t for t in targets if t[1] != forced[1]])
                forced = None
            rerouted = False
            for shard_id, addr in targets:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                client = self._client_for(addr)
                extra = {"allow_any": True} if allow_any else None
                try:
                    result = client.call(
                        op, body, idempotency_key=key,
                        deadline_s=remaining,
                        attempt_timeout_s=attempt_timeout_s,
                        extra=extra)
                except ShardMovedError as exc:
                    # The shard is healthy but not the owner: adopt its
                    # map and follow the redirect to the owner it
                    # names.  Redirects are bounded — disagreeing maps
                    # (a push caught mid-flight) could otherwise
                    # ping-pong a request, so past the bound the client
                    # demands service from whoever answers
                    # (``allow_any``; dedup keeps that exactly-once).
                    self.stats.moved += 1
                    obs.inc("cluster.client.shard_moved")
                    self._apply_map(exc.shard_map)
                    last_error = exc
                    moves += 1
                    if moves > 2 * max(2, len(self._map.shards)
                                       if self._map else 2):
                        allow_any = True
                    elif (exc.owner_host is not None
                            and exc.owner_port is not None):
                        forced = (exc.owner_id,
                                  (exc.owner_host, exc.owner_port))
                    rerouted = True
                    break
                except (TransportError, OSError) as exc:
                    # Dead/hung shard: suspect it, fail over to the
                    # next-best candidate.  allow_any tells the
                    # fallback shard to serve despite not owning the
                    # digest — dedup by digest keeps this exactly-once.
                    last_error = exc
                    if shard_id is not None:
                        self._suspect[shard_id] = (
                            time.monotonic() + self.suspect_ttl_s)
                    self.stats.failovers += 1
                    obs.inc("cluster.client.failovers")
                    record_incident(
                        "cluster-failover", "netclient",
                        f"{op} to shard "
                        f"{'?' if shard_id is None else shard_id} at "
                        f"{addr[0]}:{addr[1]} failed "
                        f"({type(exc).__name__}); failing over",
                        op=op, shard=shard_id, session=self.session)
                    allow_any = True
                    continue
                else:
                    if shard_id is not None:
                        self._suspect.pop(shard_id, None)
                    if self._map is None:
                        # First contact resolved without an explicit
                        # refresh: adopt the map from the connection's
                        # hello handshake.
                        shard = (client.server_info or {}).get(
                            "shard") or {}
                        self._apply_map(shard.get("map"))
                    return result
            if not rerouted:
                # Every candidate failed this round: refresh the map
                # (shards may be back — on their old port or, if the
                # bind was lost, a new one) and go again with
                # exponential backoff until the deadline says stop.
                self._refresh_map()
                dark_rounds += 1
                pause = min(1.0, 0.05 * (2 ** min(dark_rounds, 5)))
                time.sleep(min(pause, max(0.0,
                                          deadline - time.monotonic())))

