"""Synthetic multi-client load driver for the loop-acceleration service.

``python -m repro loadgen`` boots a :class:`~repro.service.server.
LoopService` per worker count, fires a fixed corpus of translation
requests at it from several client threads (every client submits the
*same* corpus, so most requests are concurrent duplicates), and
reports:

* **throughput scaling** — wall-clock and requests/s per worker count
  on a mixed workload: every client submits the shared translate
  corpus *plus* its own measured loop executions (``run_loop``), whose
  ~100ms-scale simulations are what a multi-tenant service actually
  spends its time on and what the worker pool parallelises;
* **single-flight dedup** — ``translator.core_runs`` must equal the
  number of *unique* content-addressed digests in the translate
  corpus: however many clients race, each distinct translation runs
  exactly once;
* **byte-identity** — a figure produced through the service path must
  equal the direct ``repro.api`` serial rendering bit for bit.

The translate corpus varies the accelerator *below* kernel demand
(fewer integer units / load streams than the proposed design) because
the cache key is demand-clamped: raising a unit pool past what a loop
can use projects to the same digest on purpose, and would make
"unique digests" smaller than the naive config count.
``benchmarks/results/BENCH_service.json`` records the run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs, perf
from repro.errors import (AdmissionRejected, ServiceOverload,
                          TransportError)
from repro.service.server import LoopService, ServiceConfig
from repro.vm.translator import TranslationOptions, translation_key

DEFAULT_OUTPUT = os.path.join("benchmarks", "results",
                              "BENCH_service.json")
#: Worker counts the scaling comparison runs, in order.
DEFAULT_WORKERS = (1, 2)
#: Shard counts the cluster throughput series runs, in order.
DEFAULT_SHARDS = (1, 2, 4)
DEFAULT_CLIENTS = 3
#: Measured-execution kernels per client (the heavy half of the mix).
DEFAULT_RUN_KERNELS = 6
CHECK_FIGURE = "fig2"


def request_corpus() -> list[tuple]:
    """The deterministic translate-request list every client submits.

    Suite kernels crossed with accelerator variants whose unit pools
    sit below typical kernel demand (so the demand-clamped digests
    actually differ), and whose ``max_ii`` is the untightened proposed
    value (so the exact-max-II fallback never fires and every unique
    digest costs exactly one core run).
    """
    from repro.accelerator import PROPOSED_LA
    from repro.workloads.suite import media_fp_benchmarks
    kernels = [kernel for bench in media_fp_benchmarks()
               for kernel in bench.kernels]
    variants = [
        PROPOSED_LA,
        PROPOSED_LA.with_(num_int_units=2),
        PROPOSED_LA.with_(load_streams=2, store_streams=1),
    ]
    options = TranslationOptions()
    return [(kernel, config, options)
            for kernel in kernels for config in variants]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 on empty input."""
    if not values:
        return 0.0
    ranked = sorted(values)
    rank = max(1, int(-(-q * len(ranked) // 1)))  # ceil without math
    return ranked[min(rank, len(ranked)) - 1]


class _Tally:
    """Thread-shared per-run backpressure and latency accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.rejections = 0
        self.retries = 0
        self.latencies_ms: list[float] = []

    def rejected(self) -> None:
        with self._lock:
            self.rejections += 1
            self.retries += 1

    def finished(self, started: float) -> None:
        self.latencies_ms.append(
            (time.perf_counter() - started) * 1000.0)


@dataclass
class LoadgenRun:
    """One worker-count measurement."""

    workers: int
    elapsed_s: float
    requests: int
    completed: int
    rejected_overload: int
    translated: int
    dedup_hits: int
    core_runs: int
    exact_fallbacks: int
    drained: bool
    #: Client-side backpressure: rejections seen and resubmissions made.
    rejections: int = 0
    retries: int = 0
    #: Decision tag -> count from the service's admission controller.
    admission: dict = field(default_factory=dict)
    #: End-to-end request latency percentiles (submit -> result), ms.
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s else 0.0


@dataclass
class ClusterRun:
    """One shard-count measurement against a supervised cluster."""

    shards: int
    elapsed_s: float
    requests: int
    completed: int
    #: Cluster-client routing evidence summed across all clients.
    failovers: int = 0
    moved: int = 0
    map_updates: int = 0
    converged: bool = False
    orphans: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s else 0.0


@dataclass
class LoadgenReport:
    clients: int
    requests_per_client: int
    unique_digests: int
    #: Cores the host actually grants; with one, worker processes add
    #: IPC cost but no parallelism, so the scaling series only rises
    #: when this is > 1.
    cpus: int = 1
    runs: list[LoadgenRun] = field(default_factory=list)
    #: Sharded-cluster throughput series (``shards`` counts in order).
    cluster_runs: list[ClusterRun] = field(default_factory=list)
    #: Tail-latency evidence from :func:`cluster_failover_probe`.
    failover: dict = field(default_factory=dict)
    figure_identical: bool = False
    check_figure: str = CHECK_FIGURE
    #: Degraded-but-progressing evidence from :func:`saturation_probe`.
    saturation: dict = field(default_factory=dict)
    #: Cold-start evidence from :func:`aot_cold_start_probe` (server
    #: boot + request latency with vs without an AOT artifact).
    aot: dict = field(default_factory=dict)
    #: Fleet-warm-cache evidence from :func:`cluster_registry_probe`
    #: (a restarted shard pulls instead of re-translating).
    registry: dict = field(default_factory=dict)

    @property
    def dedup_exact(self) -> bool:
        """Every run translated each unique digest exactly once."""
        return all(r.core_runs == self.unique_digests
                   and r.exact_fallbacks == 0 for r in self.runs)

    @property
    def ok(self) -> bool:
        return (self.figure_identical and self.dedup_exact
                and all(r.drained and r.completed == r.requests
                        for r in self.runs)
                and all(r.completed == r.requests and r.converged
                        and r.orphans == 0 for r in self.cluster_runs)
                and self.failover.get("ok", True)
                and self.saturation.get("ok", True)
                and self.aot.get("ok", True)
                and self.registry.get("ok", True))


def run_kernels(count: int = DEFAULT_RUN_KERNELS) -> list:
    """The measured-execution kernels each client runs (heavy half)."""
    from repro.workloads.suite import media_fp_benchmarks
    kernels = [kernel for bench in media_fp_benchmarks()
               for kernel in bench.kernels]
    stride = max(1, len(kernels) // count)
    return kernels[::stride][:count]


def _submit(futures: list, submit_one: Callable[[], object],
            tally: _Tally) -> None:
    """One submission, honouring the server's retry hints."""
    started = time.perf_counter()
    while True:
        try:
            future = submit_one()
        except AdmissionRejected as exc:
            tally.rejected()
            # The server said exactly when resubmission has a chance.
            time.sleep(exc.retry_after or 0.001)
            continue
        except ServiceOverload:
            tally.rejected()
            time.sleep(0.001)
            continue
        future.add_done_callback(
            lambda _f, t0=started: tally.finished(t0))
        futures.append(future)
        return


def _client(session, corpus: list[tuple], futures: list,
            tally: _Tally) -> None:
    """Submit the shared translate corpus (wave one)."""
    for loop, config, options in corpus:
        _submit(futures,
                lambda: session.translate(loop, config, options), tally)


def _client_heavy(session, heavy: list, seed: int, futures: list,
                  tally: _Tally) -> None:
    """Submit this client's measured executions (wave two)."""
    for kernel in heavy:
        _submit(futures, lambda: session.run_loop(kernel, seed=seed),
                tally)


def _one_run(workers: int, corpus: list[tuple], heavy: list,
             clients: int, queue_depth: int) -> LoadgenRun:
    # Each worker count starts from a cold shared cache: the dedup
    # contract is per-service-lifetime, and warm entries would turn the
    # scaling measurement into a cache benchmark.
    perf.clear_caches()
    before = obs.metrics_snapshot()
    perf_before = perf.counter_snapshot()
    service = LoopService(ServiceConfig(workers=workers,
                                        queue_depth=queue_depth)).start()
    sessions = [service.open_session(f"client-{i}")
                for i in range(clients)]
    per_client: list[list] = [[] for _ in sessions]
    tally = _Tally()
    started = time.perf_counter()
    # Wave one: every client races the shared translate corpus (the
    # single-flight dedup measurement).  Wave two: each client's own
    # measured loop executions, which reuse the translations wave one
    # just populated — the shared-code-cache amortization story.
    waves = [
        [threading.Thread(target=_client,
                          args=(session, corpus, futures, tally))
         for session, futures in zip(sessions, per_client)],
        [threading.Thread(target=_client_heavy,
                          args=(session, heavy, 1000 + index, futures,
                                tally))
         for index, (session, futures)
         in enumerate(zip(sessions, per_client))],
    ]
    for threads in waves:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for futures in per_client:
            for future in futures:
                future.result(timeout=600)
    elapsed = time.perf_counter() - started
    stats = service.close()
    delta = obs.metrics_delta(before)["counters"]
    return LoadgenRun(
        workers=workers,
        elapsed_s=elapsed,
        requests=clients * (len(corpus) + len(heavy)),
        completed=stats.completed,
        rejected_overload=stats.rejected_overload,
        translated=stats.translated,
        dedup_hits=stats.dedup_hits,
        core_runs=delta.get("translator.core_runs", 0),
        exact_fallbacks=perf.counter_delta(perf_before)["exact_fallbacks"],
        drained=stats.drained,
        rejections=tally.rejections,
        retries=tally.retries,
        admission=dict(stats.admission),
        p50_ms=round(percentile(tally.latencies_ms, 0.50), 3),
        p95_ms=round(percentile(tally.latencies_ms, 0.95), 3),
        p99_ms=round(percentile(tally.latencies_ms, 0.99), 3),
    )


def _figure_via_service(name: str) -> bool:
    """Byte-identity: the figure over TCP vs the direct api path."""
    from repro import api
    from repro.service.client import LoopClient
    from repro.service.net import NetConfig, NetServer
    perf.clear_caches()
    with NetServer(NetConfig(service=ServiceConfig(workers=1))) as server:
        with LoopClient(server.host, server.port,
                        session="figure-check") as client:
            served = client.run_figure(name, deadline_s=1800.0,
                                       attempt_timeout_s=900.0)
    perf.clear_caches()
    direct = api.run_figure(name)
    return served == direct


def saturation_probe(drivers: int = 4, queue_depth: int = 8) -> dict:
    """Prove the degradation ladder over TCP: saturate a one-worker
    server with a standing backlog of cached executions, then show
    that (a) an uncached translate is shed with a positive retry hint,
    (b) a cached translate still progresses through the saturated
    queue, and (c) a retrying client honouring the hints eventually
    lands the shed translate.  Returns the evidence dict for the JSON
    report.
    """
    from repro.accelerator import PROPOSED_LA
    from repro.service.client import LoopClient, RetryPolicy
    from repro.service.net import NetConfig, NetServer
    from repro.service.admission import AdmissionPolicy

    perf.clear_caches()
    heavy = run_kernels(drivers)
    warm_kernel = heavy[0]
    shed_kernel = heavy[-1]
    # Distinct digests per probe attempt: once a variant is admitted it
    # is cached, and cached work is *supposed* to dodge the shedding
    # this probe is trying to observe.
    shed_variants = [
        (shed_kernel, PROPOSED_LA.with_(num_int_units=units,
                                        load_streams=streams),
         TranslationOptions(priority_kind=kind))
        for kind in ("swing", "height")
        for units in (1, 2) for streams in (1, 2)]
    evidence = {"drivers": drivers, "queue_depth": queue_depth,
                "shed_seen": False, "retry_hint_s": 0.0,
                "cached_ok": False, "retried_ok": False,
                "admission_retries": 0, "admission": {}}
    # high_watermark 0.25: a couple of queued items already count as
    # saturation, so the shed window is the whole time the drivers
    # keep a backlog, not a razor-thin race on the last queue slot.
    threshold = max(1, int(queue_depth * 0.25))
    server = NetServer(NetConfig(service=ServiceConfig(
        workers=1, queue_depth=queue_depth,
        admission=AdmissionPolicy(high_watermark=0.25)))).start()
    stop = threading.Event()
    threads: list[threading.Thread] = []
    retry_thread: Optional[threading.Thread] = None
    try:
        # Pre-warm every driver kernel: driver traffic is then *cached*
        # work, admitted straight through the watermark (the ladder's
        # cached bypass), so the drivers can hold the queue saturated
        # without shedding each other.
        with LoopClient(server.host, server.port,
                        session="sat-warm") as warm:
            for kernel in heavy:
                warm.translate(kernel, deadline_s=120.0)

        def drive(index: int) -> None:
            with LoopClient(server.host, server.port,
                            session=f"sat-driver-{index}",
                            deadline_s=600.0,
                            retry=RetryPolicy(attempts=20,
                                              attempt_timeout_s=120.0)
                            ) as driver:
                seed = 4000 + index
                while not stop.is_set():
                    driver.run_loop(heavy[index % len(heavy)],
                                    seed=seed)
                    seed += drivers

        threads = [threading.Thread(target=drive, args=(i,),
                                    daemon=True)
                   for i in range(drivers)]
        for thread in threads:
            thread.start()

        probe = LoopClient(server.host, server.port, session="sat-probe",
                           deadline_s=120.0,
                           retry=RetryPolicy(attempts=1,
                                             attempt_timeout_s=60.0))
        retrier = LoopClient(server.host, server.port,
                             session="sat-retry", deadline_s=600.0,
                             retry=RetryPolicy(attempts=50,
                                               attempt_timeout_s=120.0))
        backlog = server.service._queue  # intra-package: probe timing
        cached: dict = {}
        landing: dict = {}

        def translate_cached() -> None:
            try:
                cached["result"] = probe.translate(warm_kernel,
                                                   deadline_s=60.0)
            except (ServiceOverload, TransportError):
                pass

        def retry_shed() -> None:
            try:
                landing["result"] = retrier.translate(
                    shed_work[0], shed_work[1], shed_work[2],
                    deadline_s=600.0)
            except Exception as exc:  # noqa: BLE001 — evidence, not control
                landing["error"] = f"{type(exc).__name__}: {exc}"

        # The dispatcher is parked while the ladder is probed: the
        # drivers' requests pile up to a standing backlog that no
        # scheduling luck can drain before the probes see it.
        with server.service.hold():
            deadline = time.monotonic() + 30.0
            while backlog.qsize() < threshold and \
                    time.monotonic() < deadline:
                time.sleep(0.002)
            # (a) a single-shot client (attempts=1: rejections
            # propagate) sees its uncached translate shed.
            variant = 0
            shed_work = shed_variants[0]
            while time.monotonic() < deadline and \
                    not evidence["shed_seen"]:
                shed_work = shed_variants[variant % len(shed_variants)]
                variant += 1
                try:
                    probe.translate(shed_work[0], shed_work[1],
                                    shed_work[2], deadline_s=5.0)
                except AdmissionRejected as exc:
                    evidence["shed_seen"] = True
                    evidence["retry_hint_s"] = round(exc.retry_after, 6)
                    evidence["decision"] = exc.decision
                except (ServiceOverload, TransportError):
                    pass  # transport trouble: keep probing
            # (b) cached work is admitted into the same backlog; it
            # completes once the dispatcher resumes.
            cached_thread = threading.Thread(target=translate_cached,
                                             daemon=True)
            cached_thread.start()
            # (c) a retrying client honouring the hints is rejected at
            # least once while the backlog stands ...
            retry_thread = threading.Thread(target=retry_shed, daemon=True)
            retry_thread.start()
            while (time.monotonic() < deadline
                   and retrier.stats.admission_retries < 1
                   and retry_thread.is_alive()):
                time.sleep(0.005)
            stop.set()
        # ... then the drivers stand down, the queue drains, and the
        # shed request lands.
        cached_thread.join(timeout=300.0)
        evidence["cached_ok"] = "result" in cached and cached["result"].ok
        retry_thread.join(timeout=300.0)
        # "Landed" means the request completed through the saturated
        # service; whether the translation itself schedules is the
        # kernel's business, not the transport's.
        evidence["retried_ok"] = "result" in landing
        if "error" in landing:
            evidence["retry_error"] = landing["error"]
        evidence["admission_retries"] = retrier.stats.admission_retries
        probe.close()
        retrier.close()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=300.0)
        if retry_thread is not None:
            retry_thread.join(timeout=300.0)
        stats = server.stop()
    evidence["admission"] = dict(stats.admission)
    evidence["ok"] = bool(
        evidence["shed_seen"] and evidence["retry_hint_s"] > 0.0
        and evidence["cached_ok"] and evidence["retried_ok"]
        and evidence["admission_retries"] >= 1)
    return evidence


def _cluster_retry():
    """Per-shard retry policy for benchmark cluster clients: the
    cluster layer owns failover, so the per-connection breaker must
    never latch open."""
    from repro.service.client import RetryPolicy
    return RetryPolicy(attempts=2, base_delay_s=0.02, max_delay_s=0.2,
                       attempt_timeout_s=60.0, breaker_threshold=1 << 30)


def _one_cluster_run(shards: int, corpus: list[tuple],
                     clients: int) -> ClusterRun:
    """Throughput of the translate corpus through a ``shards``-wide
    supervised cluster, one :class:`ClusterClient` per client thread.

    Requests route by transcache digest, so the corpus spreads across
    the fleet; on a single-CPU host the series measures routing and
    wire overhead, not parallel speedup (same caveat as workers).
    """
    from repro.service.cluster import ClusterClient, ClusterConfig, \
        ShardSupervisor
    perf.clear_caches()
    supervisor = ShardSupervisor(ClusterConfig(
        shards=shards, service=ServiceConfig(workers=1))).start()
    tally = _Tally()
    completed = [0] * clients
    stats_totals = {"failovers": 0, "moved": 0, "map_updates": 0}
    lock = threading.Lock()

    def drive(index: int) -> None:
        host, port = supervisor.seed_address()
        with ClusterClient(host, port, session=f"bench-{index}",
                           shard_retry=_cluster_retry()
                           ).connect() as client:
            for loop, config, options in corpus:
                started = time.perf_counter()
                client.translate(loop, config, options, deadline_s=120.0)
                tally.finished(started)
                completed[index] += 1
            stats = client.stats
            with lock:
                for name in stats_totals:
                    stats_totals[name] += getattr(stats, name)

    try:
        started = time.perf_counter()
        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        converged = supervisor.wait_converged(30.0)
    finally:
        supervisor.stop()
    return ClusterRun(
        shards=shards,
        elapsed_s=elapsed,
        requests=clients * len(corpus),
        completed=sum(completed),
        failovers=stats_totals["failovers"],
        moved=stats_totals["moved"],
        map_updates=stats_totals["map_updates"],
        converged=converged,
        orphans=len(supervisor.orphan_pids()),
        p50_ms=round(percentile(tally.latencies_ms, 0.50), 3),
        p95_ms=round(percentile(tally.latencies_ms, 0.95), 3),
        p99_ms=round(percentile(tally.latencies_ms, 0.99), 3),
    )


def cluster_failover_probe(shards: int = 2,
                           requests: int = 120) -> dict:
    """Tail latency while a shard dies under the client.

    One cluster client streams translates; mid-stream a shard is
    SIGKILLed.  The requests in the kill window pay the failover cost
    (suspect marking + re-route + idempotent resubmission) and their
    p99 is reported next to the steady-state p99 — the price of
    exactly-once through a shard death, in milliseconds.  Every
    request must still complete and the fleet must heal.
    """
    from repro.service.cluster import ClusterClient, ClusterConfig, \
        ShardSupervisor
    perf.clear_caches()
    corpus = request_corpus()
    supervisor = ShardSupervisor(ClusterConfig(
        shards=shards, service=ServiceConfig(workers=1))).start()
    kill_at = requests // 2
    window = max(10, requests // 5)
    steady: list[float] = []
    during: list[float] = []
    served = 0
    evidence: dict = {"shards": shards, "requests": requests}
    try:
        host, port = supervisor.seed_address()
        with ClusterClient(host, port, session="bench-failover",
                           shard_retry=_cluster_retry()
                           ).connect() as client:
            for index in range(requests):
                if index == kill_at:
                    evidence["killed_pid"] = supervisor.kill_shard(
                        (shards - 1) if shards > 1 else 0)
                loop, config, options = corpus[index % len(corpus)]
                started = time.perf_counter()
                client.translate(loop, config, options, deadline_s=120.0)
                latency = (time.perf_counter() - started) * 1000.0
                served += 1
                if kill_at <= index < kill_at + window:
                    during.append(latency)
                else:
                    steady.append(latency)
            stats = client.stats
        healed = supervisor.wait_converged(60.0)
    finally:
        supervisor.stop()
    evidence.update({
        "served": served,
        "failovers": stats.failovers,
        "p99_steady_ms": round(percentile(steady, 0.99), 3),
        "p99_during_kill_ms": round(percentile(during, 0.99), 3),
        "healed": healed,
        "orphans": len(supervisor.orphan_pids()),
        "ok": bool(served == requests and healed
                   and not supervisor.orphan_pids()),
    })
    return evidence


def aot_cold_start_probe() -> dict:
    """Cold-start cost with vs without an AOT translation artifact.

    Builds the default artifact corpus into a throwaway file, then
    boots the same one-worker TCP server twice: once cold (every
    translate pays a core run) and once with the artifact installed
    (zero core runs, every corpus request an artifact hit).  Reports
    boot seconds, per-request p50/p99, core runs, and artifact hits
    for both, plus byte-identity of ``CHECK_FIGURE`` rendered through
    the artifact path against a clean dynamic rendering.
    """
    import shutil
    import tempfile

    from repro import aot, api
    from repro.service.client import LoopClient
    from repro.service.net import NetConfig, NetServer

    corpus = request_corpus()
    tmpdir = tempfile.mkdtemp(prefix="repro-aot-bench-")
    path = os.path.join(tmpdir, "suite.rvaf")
    try:
        perf.clear_caches()
        build = aot.build_artifact(path)
        evidence: dict = {
            "artifact_entries": build.entries,
            "artifact_loops": build.loops,
            "build_core_runs": build.core_runs,
        }

        def one(artifact: Optional[str]) -> dict:
            perf.clear_caches()
            before = obs.metrics_snapshot()
            boot_started = time.perf_counter()
            server = NetServer(NetConfig(service=ServiceConfig(
                workers=1, artifact_path=artifact))).start()
            boot_s = time.perf_counter() - boot_started
            latencies: list[float] = []
            try:
                with LoopClient(server.host, server.port,
                                session="aot-bench") as client:
                    for loop, config, options in corpus:
                        started = time.perf_counter()
                        client.translate(loop, config, options,
                                         deadline_s=120.0)
                        latencies.append(
                            (time.perf_counter() - started) * 1000.0)
            finally:
                server.stop()
            counters = obs.metrics_delta(before)["counters"]
            return {
                "boot_s": round(boot_s, 4),
                "requests": len(latencies),
                "p50_ms": round(percentile(latencies, 0.50), 3),
                "p99_ms": round(percentile(latencies, 0.99), 3),
                "core_runs": counters.get("translator.core_runs", 0),
                "artifact_hits": counters.get("aot.artifact_hits", 0),
            }

        evidence["cold"] = one(None)
        evidence["warm"] = one(path)
        # Byte-identity through the artifact path: install the bundle
        # into a clean cache, render, and compare against a clean
        # dynamic rendering of the same figure.
        perf.clear_caches()
        aot.install(path)
        via_artifact = api.run_figure(CHECK_FIGURE)
        perf.clear_caches()
        dynamic = api.run_figure(CHECK_FIGURE)
        evidence["figure_identical"] = via_artifact == dynamic
        evidence["check_figure"] = CHECK_FIGURE
        evidence["ok"] = bool(
            evidence["warm"]["core_runs"] == 0
            and evidence["warm"]["artifact_hits"] >= len(corpus)
            and evidence["cold"]["core_runs"] > 0
            and evidence["figure_identical"])
        return evidence
    finally:
        perf.clear_caches()
        shutil.rmtree(tmpdir, ignore_errors=True)


def cluster_registry_probe(shards: int = 2) -> dict:
    """Fleet-warm cache: a restarted shard pulls instead of paying.

    Boots a cluster whose shards all install the same AOT artifact and
    register each other as artifact-registry peers, then proves the
    two warm paths end to end:

    * the whole translate corpus crosses the fleet with **zero** core
      runs (every shard adopted the artifact);
    * a key *outside* the artifact is translated (owner pays one core
      run), the owner is SIGKILLed, the key is re-translated during
      the outage (the survivor pays once — the fleet now holds the
      entry), and after the supervisor heals the fleet, the restarted
      owner serves the same key with ``translator.core_runs == 0`` and
      ``aot.registry_hits >= 1``: it pulled the entry over the wire
      instead of re-translating.
    """
    import shutil
    import tempfile

    from repro import aot
    from repro.accelerator import PROPOSED_LA
    from repro.service.client import LoopClient
    from repro.service.cluster import ClusterClient, ClusterConfig, \
        ShardSupervisor

    corpus = request_corpus()
    # A key deliberately absent from the artifact corpus: the registry
    # pull is only observable on a genuine artifact miss.
    extra_kernel = corpus[0][0]
    extra = (extra_kernel, PROPOSED_LA.with_(num_int_units=1),
             TranslationOptions())
    tmpdir = tempfile.mkdtemp(prefix="repro-aot-registry-")
    path = os.path.join(tmpdir, "suite.rvaf")
    evidence: dict = {"shards": shards}
    try:
        perf.clear_caches()
        build = aot.build_artifact(path)
        evidence["artifact_entries"] = build.entries
        perf.clear_caches()
        supervisor = ShardSupervisor(ClusterConfig(
            shards=shards,
            service=ServiceConfig(workers=1, artifact_path=path))).start()
        try:
            host, port = supervisor.seed_address()
            with ClusterClient(host, port, session="registry-probe",
                               shard_retry=_cluster_retry()
                               ).connect() as client:
                for loop, config, options in corpus:
                    client.translate(loop, config, options,
                                     deadline_s=120.0)
                fleet = supervisor.shard_stats()
                evidence["corpus_core_runs"] = sum(
                    s["counters"].get("translator.core_runs", 0)
                    for s in fleet.values())
                # Owner pays the single core run for the extra key.
                client.translate(*extra, deadline_s=120.0)
                fleet = supervisor.shard_stats()
                owners = [sid for sid, s in fleet.items()
                          if s["counters"].get("translator.core_runs", 0)]
                owner = owners[0] if owners else 0
                evidence["owner_shard"] = owner
                evidence["killed_pid"] = supervisor.kill_shard(owner)
                # Re-translate during the outage: failover routes to a
                # survivor, which pays the core run — after this, the
                # *fleet* holds the entry even though the owner's copy
                # died with it.
                client.translate(*extra, deadline_s=120.0)
            evidence["healed"] = supervisor.wait_converged(60.0)
            # Direct request to the restarted owner: it owns the key
            # again, misses locally (fresh process, key not in the
            # artifact), and must pull from its registry peer.  Retry
            # briefly: the shard accepts connections a beat before the
            # pushed shard map lands.
            info = supervisor.map.shards[owner]
            pull_ms = 0.0
            deadline = time.monotonic() + 15.0
            while True:
                try:
                    with LoopClient(info.host, info.port,
                                    session="registry-probe-direct",
                                    retry=_cluster_retry()) as direct:
                        started = time.perf_counter()
                        direct.translate(*extra, deadline_s=120.0)
                        pull_ms = (time.perf_counter() - started) * 1000.0
                    break
                except Exception:  # noqa: BLE001 — map push race
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.2)
            evidence["restart_pull_ms"] = round(pull_ms, 3)
            restarted = supervisor.shard_stats()[owner]["counters"]
            evidence["restarted_core_runs"] = restarted.get(
                "translator.core_runs", 0)
            evidence["restarted_registry_hits"] = restarted.get(
                "aot.registry_hits", 0)
        finally:
            supervisor.stop()
        evidence["orphans"] = len(supervisor.orphan_pids())
        evidence["ok"] = bool(
            evidence.get("corpus_core_runs") == 0
            and evidence.get("restarted_core_runs") == 0
            and evidence.get("restarted_registry_hits", 0) >= 1
            and evidence.get("healed")
            and evidence.get("orphans") == 0)
        return evidence
    finally:
        perf.clear_caches()
        shutil.rmtree(tmpdir, ignore_errors=True)


def run_loadgen(workers=DEFAULT_WORKERS, clients: int = DEFAULT_CLIENTS,
                run_kernel_count: int = DEFAULT_RUN_KERNELS,
                queue_depth: int = 64,
                saturation: bool = True,
                shard_counts=DEFAULT_SHARDS,
                progress: Optional[Callable[[str], None]] = None
                ) -> LoadgenReport:
    corpus = request_corpus()
    heavy = run_kernels(run_kernel_count)
    say = progress or (lambda _msg: None)
    unique = len({translation_key(loop, config, options)
                  for loop, config, options in corpus})
    report = LoadgenReport(clients=clients,
                           requests_per_client=len(corpus) + len(heavy),
                           unique_digests=unique,
                           cpus=os.cpu_count() or 1)
    for count in workers:
        say(f"loadgen: {clients} clients x {len(corpus)} translates "
            f"+ {len(heavy)} runs, workers={count}")
        report.runs.append(
            _one_run(count, corpus, heavy, clients, queue_depth))
    for count in shard_counts or ():
        say(f"loadgen: cluster series, shards={count}")
        report.cluster_runs.append(
            _one_cluster_run(count, corpus, clients))
    if shard_counts:
        probe_shards = max(2, min(shard_counts))
        say(f"loadgen: failover probe (shard kill mid-stream, "
            f"shards={probe_shards})")
        report.failover = cluster_failover_probe(shards=probe_shards)
    say("loadgen: AOT cold-start probe (artifact vs dynamic boot)")
    report.aot = aot_cold_start_probe()
    if shard_counts:
        probe_shards = max(2, min(shard_counts))
        say(f"loadgen: artifact-registry probe (restarted shard pulls, "
            f"shards={probe_shards})")
        report.registry = cluster_registry_probe(shards=probe_shards)
    say(f"loadgen: figure identity check over TCP "
        f"({report.check_figure})")
    report.figure_identical = _figure_via_service(report.check_figure)
    if saturation:
        say("loadgen: saturation probe (degraded-but-progressing)")
        report.saturation = saturation_probe()
    return report


def write_report(report: LoadgenReport, path: str = DEFAULT_OUTPUT) -> str:
    payload = {
        "bench": "service-loadgen",
        "clients": report.clients,
        "requests_per_client": report.requests_per_client,
        "unique_digests": report.unique_digests,
        "cpus": report.cpus,
        "dedup_exact": report.dedup_exact,
        "figure_identical": report.figure_identical,
        "check_figure": report.check_figure,
        "ok": report.ok,
        "saturation": report.saturation,
        "failover": report.failover,
        "aot": report.aot,
        "registry": report.registry,
        "cluster_runs": [{
            "shards": r.shards,
            "elapsed_s": round(r.elapsed_s, 4),
            "throughput_rps": round(r.throughput_rps, 2),
            "requests": r.requests,
            "completed": r.completed,
            "failovers": r.failovers,
            "moved": r.moved,
            "map_updates": r.map_updates,
            "converged": r.converged,
            "orphans": r.orphans,
            "p50_ms": r.p50_ms,
            "p95_ms": r.p95_ms,
            "p99_ms": r.p99_ms,
        } for r in report.cluster_runs],
        "runs": [{
            "workers": r.workers,
            "elapsed_s": round(r.elapsed_s, 4),
            "throughput_rps": round(r.throughput_rps, 2),
            "requests": r.requests,
            "completed": r.completed,
            "rejected_overload": r.rejected_overload,
            "rejections": r.rejections,
            "retries": r.retries,
            "admission": r.admission,
            "p50_ms": r.p50_ms,
            "p95_ms": r.p95_ms,
            "p99_ms": r.p99_ms,
            "translated": r.translated,
            "dedup_hits": r.dedup_hits,
            "core_runs": r.core_runs,
            "exact_fallbacks": r.exact_fallbacks,
            "drained": r.drained,
        } for r in report.runs],
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_loadgen(report: LoadgenReport) -> str:
    from repro.experiments.common import format_table
    rows = []
    for r in report.runs:
        rows.append((r.workers, r.requests, f"{r.elapsed_s:.2f}",
                     f"{r.throughput_rps:.1f}",
                     f"{r.p50_ms:.0f}", f"{r.p95_ms:.0f}",
                     f"{r.p99_ms:.0f}", r.rejections, r.retries,
                     r.translated, r.dedup_hits, r.core_runs,
                     "yes" if r.drained else "NO"))
    table = format_table(
        ("workers", "requests", "seconds", "req/s", "p50ms", "p95ms",
         "p99ms", "rejected", "retried", "translated", "dedup hits",
         "core runs", "drained"), rows,
        title=f"service loadgen: {report.clients} clients, "
              f"{report.unique_digests} unique digests, "
              f"{report.cpus} cpu(s)")
    lines = [table, ""]
    if report.cluster_runs:
        cluster_rows = [
            (r.shards, r.requests, f"{r.elapsed_s:.2f}",
             f"{r.throughput_rps:.1f}", f"{r.p50_ms:.0f}",
             f"{r.p95_ms:.0f}", f"{r.p99_ms:.0f}", r.failovers,
             r.moved, "yes" if r.converged else "NO", r.orphans)
            for r in report.cluster_runs]
        lines.append(format_table(
            ("shards", "requests", "seconds", "req/s", "p50ms",
             "p95ms", "p99ms", "failovers", "moved", "converged",
             "orphans"), cluster_rows,
            title="cluster series: digest-routed shards, "
                  "supervised failover"))
        lines.append("")
    if report.failover:
        fo = report.failover
        lines.append(
            f"failover probe ({fo.get('shards', '?')} shards, SIGKILL "
            f"mid-stream): served {fo.get('served', 0)}/"
            f"{fo.get('requests', 0)}, p99 steady "
            f"{fo.get('p99_steady_ms', 0.0):.0f}ms vs during kill "
            f"{fo.get('p99_during_kill_ms', 0.0):.0f}ms, failovers "
            f"{fo.get('failovers', 0)}, healed="
            f"{'yes' if fo.get('healed') else 'NO'}, orphans "
            f"{fo.get('orphans', 0)}")
    if report.aot:
        cold = report.aot.get("cold", {})
        warm = report.aot.get("warm", {})
        lines.append(
            f"aot cold-start probe: dynamic boot "
            f"{cold.get('boot_s', 0.0):.2f}s p99 "
            f"{cold.get('p99_ms', 0.0):.0f}ms "
            f"({cold.get('core_runs', 0)} core runs) vs artifact boot "
            f"{warm.get('boot_s', 0.0):.2f}s p99 "
            f"{warm.get('p99_ms', 0.0):.0f}ms "
            f"({warm.get('core_runs', 0)} core runs, "
            f"{warm.get('artifact_hits', 0)} artifact hits), figure "
            f"identical={'yes' if report.aot.get('figure_identical') else 'NO'}")
    if report.registry:
        reg = report.registry
        lines.append(
            f"artifact-registry probe ({reg.get('shards', '?')} shards): "
            f"corpus fleet core runs {reg.get('corpus_core_runs', '?')}, "
            f"restarted shard {reg.get('owner_shard', '?')} pulled in "
            f"{reg.get('restart_pull_ms', 0.0):.0f}ms with "
            f"{reg.get('restarted_core_runs', '?')} core runs and "
            f"{reg.get('restarted_registry_hits', 0)} registry hits, "
            f"healed={'yes' if reg.get('healed') else 'NO'}")
    lines.append(f"single-flight dedup exact: "
                 f"{'yes' if report.dedup_exact else 'NO'} "
                 f"(core runs == unique digests, zero exact fallbacks)")
    lines.append(f"figure {report.check_figure} via TCP identical: "
                 f"{'yes' if report.figure_identical else 'NO'}")
    if report.saturation:
        sat = report.saturation
        lines.append(
            f"saturation probe: shed={'yes' if sat.get('shed_seen') else 'NO'}"
            f" (hint {sat.get('retry_hint_s', 0.0):.3f}s, decision "
            f"{sat.get('decision', '-')}), cached progressed="
            f"{'yes' if sat.get('cached_ok') else 'NO'}, retry landed="
            f"{'yes' if sat.get('retried_ok') else 'NO'} after "
            f"{sat.get('admission_retries', 0)} hinted retries")
    if report.cpus <= 1:
        lines.append("note: single-CPU host — worker and shard "
                     "processes cannot run concurrently, so the "
                     "scaling series show dispatch/routing overhead "
                     "only")
    lines.append(f"overall: {'OK' if report.ok else 'FAILED'}")
    return "\n".join(lines)


def measure_service(workers=(), shards=(), clients: int = DEFAULT_CLIENTS,
                    run_kernel_count: int = DEFAULT_RUN_KERNELS,
                    queue_depth: int = 64,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> list[dict]:
    """The series driver for ``kind="service"`` experiment configs.

    Runs the worker-pool series (*workers*) and/or the sharded-cluster
    series (*shards*) and yields one row dict per point with the gated
    metrics (throughput, latency percentiles) plus an ``ok`` verdict —
    drained/complete for the pool, converged/orphan-free for the
    cluster.  The full probe battery (failover, AOT, saturation, ...)
    stays with :func:`run_loadgen`; this is the repeatable measurement
    core the ``repro.xp`` run store records.
    """
    corpus = request_corpus()
    heavy = run_kernels(run_kernel_count) if workers else []
    say = progress or (lambda _msg: None)
    rows: list[dict] = []
    for count in workers or ():
        say(f"service: {clients} clients x {len(corpus)} translates "
            f"+ {len(heavy)} runs, workers={count}")
        run = _one_run(count, corpus, heavy, clients, queue_depth)
        rows.append({
            "name": f"workers={count}",
            "elapsed_s": round(run.elapsed_s, 6),
            "throughput_rps": round(run.throughput_rps, 3),
            "p50_ms": run.p50_ms,
            "p95_ms": run.p95_ms,
            "p99_ms": run.p99_ms,
            "ok": run.drained and run.completed == run.requests,
        })
    for count in shards or ():
        say(f"service: cluster series, shards={count}")
        run = _one_cluster_run(count, corpus, clients)
        rows.append({
            "name": f"shards={count}",
            "elapsed_s": round(run.elapsed_s, 6),
            "throughput_rps": round(run.throughput_rps, 3),
            "p50_ms": run.p50_ms,
            "p95_ms": run.p95_ms,
            "p99_ms": run.p99_ms,
            "ok": (run.completed == run.requests and run.converged
                   and run.orphans == 0),
        })
    return rows
