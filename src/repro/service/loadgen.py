"""The service request corpus and the series driver ``repro.xp`` times.

:func:`request_corpus` is the deterministic translate-request list
every service measurement (and ``perfbench``, ``repro.aot``, the
chaos plugins and the ``serve`` smoke) submits.
:func:`measure_service` is what a ``kind="service"``
:class:`~repro.xp.config.Config` executes: the in-process row
(``workers=1``) boots a :class:`~repro.service.server.LoopService` and
fires the corpus at it from several client threads (every client
submits the *same* corpus, so most requests are duplicates), followed
by each client's own measured loop executions; per shard count it
drives the corpus through a supervised cluster.  Each point is one row
of throughput, latency percentiles and an ``ok`` verdict.

Every row is ``ok`` only if dedup was exact: ``translator.core_runs``
(summed over the fleet for a shard row) equals the number of unique
content-addressed digests in the corpus — however many clients race,
each distinct translation runs exactly once.  The in-process row also
requires a clean drain with every request completed and zero
exact-max-II fallbacks; a shard row, every request answered, a
converged fleet and no orphaned shard processes.

The translate corpus varies the accelerator *below* kernel demand
(fewer integer units / load streams than the proposed design) because
the cache key is demand-clamped: raising a unit pool past what a loop
can use projects to the same digest on purpose, and would make
"unique digests" smaller than the naive config count.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro import obs, perf
from repro.errors import AdmissionRejected, ServiceOverload
from repro.service.server import LoopService, ServiceConfig
from repro.vm.translator import TranslationOptions, translation_key


def request_corpus() -> list[tuple]:
    """The deterministic translate-request list every client submits.

    The 56 suite kernels crossed with three accelerator variants, all
    at the untightened proposed ``max_ii`` (so the exact-max-II
    fallback never fires and every unique digest costs exactly one
    core run).  The variants repeat more than they differ:
    ``num_int_units=2`` is ``PROPOSED_LA``'s own value, so the second
    variant equals the first, and the stream-limited third clamps to
    the same projection unless a kernel has more than two loads or
    more than one store.  The 168 requests name 84 distinct translation
    keys (``tests/test_service.py`` pins both counts).
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


def run_kernels(count: int) -> list:
    """The measured-execution kernels each client runs (heavy half)."""
    if count <= 0:
        return []
    from repro.workloads.suite import media_fp_benchmarks
    kernels = [kernel for bench in media_fp_benchmarks()
               for kernel in bench.kernels]
    stride = max(1, len(kernels) // count)
    return kernels[::stride][:count]


def _row(name: str, elapsed: float, requests: int,
         latencies_ms: list[float], ok: bool, **evidence) -> dict:
    """One series point: the gated metrics, the verdict, its evidence."""
    return {
        "name": name,
        "elapsed_s": round(elapsed, 6),
        "throughput_rps": round(requests / elapsed if elapsed else 0.0, 3),
        "p50_ms": round(percentile(latencies_ms, 0.50), 3),
        "p95_ms": round(percentile(latencies_ms, 0.95), 3),
        "p99_ms": round(percentile(latencies_ms, 0.99), 3),
        "ok": bool(ok),
        **evidence,
    }


def _submit(futures: list, submit_one: Callable[[], object],
            latencies_ms: list[float]) -> None:
    """One submission, honouring the server's retry hints."""
    started = time.perf_counter()
    while True:
        try:
            future = submit_one()
        except AdmissionRejected as exc:
            # The server said exactly when resubmission has a chance.
            time.sleep(exc.retry_after or 0.001)
            continue
        except ServiceOverload:
            time.sleep(0.001)
            continue
        future.add_done_callback(
            lambda _f, t0=started: latencies_ms.append(
                (time.perf_counter() - t0) * 1000.0))
        futures.append(future)
        return


def _client(session, corpus: list[tuple], futures: list,
            latencies_ms: list[float]) -> None:
    """Submit the shared translate corpus (wave one)."""
    for loop, config, options in corpus:
        _submit(futures,
                lambda: session.translate(loop, config, options),
                latencies_ms)


def _client_heavy(session, heavy: list, seed: int, futures: list,
                  latencies_ms: list[float]) -> None:
    """Submit this client's measured executions (wave two)."""
    for kernel in heavy:
        _submit(futures, lambda: session.run_loop(kernel, seed=seed),
                latencies_ms)


def _one_run(corpus: list[tuple], heavy: list, clients: int,
             queue_depth: int, unique: int) -> dict:
    # Start from a cold shared cache: the dedup contract is
    # per-service-lifetime, and warm entries would turn the
    # measurement into a cache benchmark.
    perf.clear_caches()
    before = obs.metrics_snapshot()
    perf_before = perf.counter_snapshot()
    service = LoopService(ServiceConfig(queue_depth=queue_depth)).start()
    sessions = [service.open_session(f"client-{i}")
                for i in range(clients)]
    per_client: list[list] = [[] for _ in sessions]
    latencies_ms: list[float] = []
    started = time.perf_counter()
    # Wave one: every client races the shared translate corpus (the
    # dedup measurement).  Wave two: each client's own
    # measured loop executions, which reuse the translations wave one
    # just populated — the shared-code-cache amortization story.
    waves = [
        [threading.Thread(target=_client,
                          args=(session, corpus, futures, latencies_ms))
         for session, futures in zip(sessions, per_client)],
        [threading.Thread(target=_client_heavy,
                          args=(session, heavy, 1000 + index, futures,
                                latencies_ms))
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
    requests = clients * (len(corpus) + len(heavy))
    core_runs = obs.metrics_delta(before)["counters"].get(
        "translator.core_runs", 0)
    exact_fallbacks = perf.counter_delta(perf_before)["exact_fallbacks"]
    return _row(
        "workers=1", elapsed, requests, latencies_ms,
        ok=(stats.drained and stats.completed == requests
            and core_runs == unique and exact_fallbacks == 0),
        core_runs=core_runs, unique_digests=unique,
        exact_fallbacks=exact_fallbacks)


def _cluster_retry():
    """Per-shard retry policy for benchmark cluster clients: the
    cluster layer owns failover, so the per-connection breaker must
    never latch open."""
    from repro.service.client import RetryPolicy
    return RetryPolicy(attempts=2, base_delay_s=0.02, max_delay_s=0.2,
                       attempt_timeout_s=60.0, breaker_threshold=1 << 30)


def _one_cluster_run(shards: int, corpus: list[tuple], clients: int,
                     unique: int) -> dict:
    """Throughput of the translate corpus through a ``shards``-wide
    supervised cluster, one :class:`ClusterClient` per client thread.

    Requests route by transcache digest, so the corpus spreads across
    the fleet; on a single-CPU host the series measures routing and
    wire overhead, not parallel speedup.
    """
    from repro.service.cluster import ClusterClient, ClusterConfig, \
        ShardSupervisor
    perf.clear_caches()
    supervisor = ShardSupervisor(ClusterConfig(shards=shards)).start()
    latencies_ms: list[float] = []
    completed = [0] * clients

    def drive(index: int) -> None:
        host, port = supervisor.seed_address()
        with ClusterClient(host, port, session=f"bench-{index}",
                           shard_retry=_cluster_retry()
                           ).connect() as client:
            for loop, config, options in corpus:
                started = time.perf_counter()
                client.translate(loop, config, options, deadline_s=120.0)
                latencies_ms.append(
                    (time.perf_counter() - started) * 1000.0)
                completed[index] += 1

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
        core_runs = supervisor.core_runs()
    finally:
        supervisor.stop()
    requests = clients * len(corpus)
    return _row(
        f"shards={shards}", elapsed, requests, latencies_ms,
        ok=(sum(completed) == requests and converged
            and not supervisor.orphan_pids() and core_runs == unique),
        core_runs=core_runs, unique_digests=unique)


def measure_service(workers=(), shards=(), clients: int = 3,
                    run_kernel_count: int = 6,
                    queue_depth: int = 64,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> list[dict]:
    """The series driver for ``kind="service"`` experiment configs.

    Runs the in-process row once per entry of *workers* (whose only
    valid value is 1) and the sharded-cluster series (*shards*), and
    yields one row dict per point with the gated metrics (throughput,
    latency percentiles) plus the ``ok`` verdict described in the
    module docstring.
    """
    if not workers and not shards:
        return []
    corpus = request_corpus()
    heavy = run_kernels(run_kernel_count) if workers else []
    unique = len({translation_key(*item) for item in corpus})
    say = progress or (lambda _msg: None)
    rows: list[dict] = []
    for _ in workers:
        say(f"service: {clients} clients x {len(corpus)} translates "
            f"+ {len(heavy)} runs, in process")
        rows.append(_one_run(corpus, heavy, clients, queue_depth, unique))
    for count in shards:
        say(f"service: cluster series, shards={count}")
        rows.append(_one_cluster_run(count, corpus, clients, unique))
    return rows
