"""The sharded cluster: rendezvous routing, supervised failover,
auth propagation and the cluster chaos campaign."""

from __future__ import annotations

import time

import pytest

from repro import perf
from repro.errors import TransportError
from repro.resilience import infra
from repro.resilience.incidents import incident_log
from repro.service import ServiceConfig
from repro.service.client import LoopClient, RetryPolicy, idempotency_key_for
from repro.service.cluster import (
    ClusterClient,
    ClusterConfig,
    ShardInfo,
    ShardMap,
    ShardSupervisor,
    rendezvous_score,
)
from repro.vm.translator import TranslationOptions, translate_loop
from repro.workloads import kernels as K


@pytest.fixture(autouse=True)
def _clean_slate():
    perf.clear_caches()
    incident_log().clear()
    infra.disarm()
    yield
    infra.disarm()
    perf.clear_caches()
    incident_log().clear()
    incident_log().configure_sink(None)


def _config(shards: int = 2, **kwargs) -> ClusterConfig:
    kwargs.setdefault("service", ServiceConfig(workers=1))
    return ClusterConfig(shards=shards, **kwargs)


def _retry() -> RetryPolicy:
    # The cluster layer owns failover; the per-connection breaker must
    # never latch open underneath it.
    return RetryPolicy(attempts=2, base_delay_s=0.02, max_delay_s=0.2,
                       attempt_timeout_s=30.0, breaker_threshold=1 << 30)


# -- rendezvous hashing -------------------------------------------------------

def test_rendezvous_score_is_deterministic():
    # sha256-based, so stable across processes and PYTHONHASHSEED —
    # a client and a shard must always agree on ownership.
    assert rendezvous_score("digest-a", 0) == rendezvous_score("digest-a", 0)
    assert rendezvous_score("digest-a", 0) != rendezvous_score("digest-a", 1)
    assert rendezvous_score("digest-a", 0) != rendezvous_score("digest-b", 0)


def test_rendezvous_remaps_only_the_lost_shards_keys():
    shards = {i: ShardInfo(shard_id=i, host="h", port=9000 + i, epoch=0,
                           up=True) for i in range(4)}
    full = ShardMap(1, shards)
    keys = [f"key-{n}" for n in range(200)]
    before = {key: full.owner(key).shard_id for key in keys}
    down = dict(shards)
    down[2] = ShardInfo(shard_id=2, host="h", port=9002, epoch=0,
                        up=False)
    after = {key: ShardMap(2, down).owner(key).shard_id for key in keys}
    for key in keys:
        if before[key] != 2:
            assert after[key] == before[key]  # untouched shards keep keys
        else:
            assert after[key] != 2
    # And the keyspace is actually spread, not degenerate.
    assert len(set(before.values())) == 4


def test_shard_map_json_roundtrip():
    shards = {i: ShardInfo(shard_id=i, host="127.0.0.1", port=7000 + i,
                           epoch=i, up=(i != 1)) for i in range(3)}
    original = ShardMap(7, shards)
    restored = ShardMap.from_json(original.to_json())
    assert restored.version == 7
    assert restored.shards == shards
    assert [s.shard_id for s in restored.live()] == [0, 2]
    assert restored.owner("k").up


# -- supervised fleet ---------------------------------------------------------

def test_cluster_translate_matches_direct_path():
    loop = K.fir_filter(taps=4)
    supervisor = ShardSupervisor(_config(shards=2)).start()
    try:
        host, port = supervisor.seed_address()
        with ClusterClient(host, port, session="ct",
                           shard_retry=_retry()).connect() as client:
            served = client.translate(loop)
            assert len(client.shard_map.shards) == 2
    finally:
        supervisor.stop()
    perf.clear_caches()
    from repro.accelerator import PROPOSED_LA
    direct = translate_loop(loop, PROPOSED_LA, TranslationOptions())
    assert served.ok and direct.ok
    assert served.image.schedule.times == direct.image.schedule.times
    assert supervisor.orphan_pids() == []


def test_restarted_shard_keeps_its_address():
    # A shard's port is part of its identity: a client holding a stale
    # map must be able to reach the restarted incarnation at the same
    # coordinates, or an external client could be stranded forever.
    supervisor = ShardSupervisor(_config(shards=2)).start()
    try:
        before = supervisor.map.shards[1]
        supervisor.kill_shard(1)
        # SIGKILL lands asynchronously: wait for the health loop to
        # notice the death and restart (epoch bump), then for health.
        deadline = time.monotonic() + 30.0
        while (supervisor.map.shards[1].epoch == before.epoch
               and time.monotonic() < deadline):
            time.sleep(0.02)
        assert supervisor.wait_converged(30.0)
        after = supervisor.map.shards[1]
        assert after.port == before.port
        assert after.epoch > before.epoch
        deaths = [i for i in incident_log().incidents
                  if i.kind == "shard-death"]
        restarts = [i for i in incident_log().incidents
                    if i.kind == "shard-restart"]
        assert deaths and restarts
    finally:
        supervisor.stop()
    assert supervisor.orphan_pids() == []


def test_failover_serves_through_kill_then_replay_adds_no_runs():
    corpus = [K.fir_filter(taps=taps) for taps in (3, 4, 5, 6)]
    supervisor = ShardSupervisor(_config(shards=2)).start()
    try:
        host, port = supervisor.seed_address()
        with ClusterClient(host, port, session="eo",
                           shard_retry=_retry()).connect() as client:
            for loop in corpus:
                assert client.translate(loop).ok
            # SIGKILL the owner of the first digest, then immediately
            # replay the corpus: requests to the dead shard must fail
            # over (idempotent resubmission) and still succeed.
            key = idempotency_key_for(corpus[0], None, None)
            owner = client.shard_map.owner(key).shard_id
            epoch = supervisor.map.shards[owner].epoch
            supervisor.kill_shard(owner)
            for loop in corpus:
                assert client.translate(loop).ok
            assert client.stats.failovers >= 1
            deadline = time.monotonic() + 30.0
            while (supervisor.map.shards[owner].epoch == epoch
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert supervisor.wait_converged(30.0)
            # On the healed fleet, one pass settles every digest onto
            # its current owner; a second identical pass must then add
            # zero core translation runs (single-flight dedup holds
            # across routing, failover and restart).
            for loop in corpus:
                assert client.translate(loop).ok
            baseline = supervisor.core_runs()
            for loop in corpus:
                assert client.translate(loop).ok
            assert supervisor.core_runs() == baseline
    finally:
        supervisor.stop()
    assert supervisor.orphan_pids() == []


# -- the fleet cache directory ------------------------------------------------

def test_restarted_shard_serves_a_fleet_warm_key_from_disk(tmp_path):
    """The fleet pays one core run per key, through a kill and restart.

    Every shard installs the same artifact and attaches the fleet
    directory.  The corpus crosses the fleet with zero core runs.  A key
    outside the artifact is translated: its owner pays the one core run
    and writes the entry through to the fleet directory.  The owner is
    SIGKILLed and the key translated again during the outage: the
    survivor serves it from disk.  Once the fleet heals, the restarted
    owner serves it from disk too.
    """
    import os
    import stat

    from repro import aot
    from repro.accelerator import PROPOSED_LA
    from repro.api import Settings
    from repro.workloads.suite import media_fp_benchmarks

    kernels = [kernel for bench in media_fp_benchmarks()
               for kernel in bench.kernels][:3]
    corpus = [(kernel, PROPOSED_LA, TranslationOptions())
              for kernel in kernels]
    extra = (kernels[0], PROPOSED_LA.with_(num_int_units=1),
             TranslationOptions())
    path = str(tmp_path / "suite")
    aot.build_artifact(path, corpus=corpus)
    perf.clear_caches()
    supervisor = ShardSupervisor(_config(
        shards=2, service=ServiceConfig(
            workers=1, settings=Settings(artifact_path=path)))).start()
    fleet_dir = supervisor.fleet_dir
    try:
        assert stat.S_IMODE(os.stat(fleet_dir).st_mode) == 0o700
        host, port = supervisor.seed_address()
        with ClusterClient(host, port, session="fleet-probe",
                           shard_retry=_retry()).connect() as client:
            for item in corpus:
                client.translate(*item, deadline_s=120.0)
            corpus_core_runs = supervisor.core_runs()
            client.translate(*extra, deadline_s=120.0)
            paid = {sid: s["counters"].get("translator.core_runs", 0)
                    for sid, s in supervisor.shard_stats().items()}
            owner = max(paid, key=paid.get)
            supervisor.kill_shard(owner)
            # Failover routes to the survivor, which reads the entry
            # the owner wrote through to the fleet directory.
            client.translate(*extra, deadline_s=120.0)
        healed = supervisor.wait_converged(60.0)
        # Ask the restarted owner directly: it owns the key again and
        # misses in memory.  Retry briefly: the shard accepts
        # connections a beat before the pushed shard map lands.
        info = supervisor.map.shards[owner]
        deadline = time.monotonic() + 15.0
        while True:
            try:
                with LoopClient(info.host, info.port,
                                session="fleet-probe-direct",
                                retry=_retry()) as direct:
                    direct.translate(*extra, deadline_s=120.0)
                break
            except Exception:  # noqa: BLE001 — map push race
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)
        after = {sid: s["counters"]
                 for sid, s in supervisor.shard_stats().items()}
    finally:
        supervisor.stop()
    assert healed
    assert corpus_core_runs == 0
    assert sum(paid.values()) == 1
    # After the kill no shard paid again: the fleet paid once in total.
    assert sum(c.get("translator.core_runs", 0)
               for c in after.values()) == 0
    assert after[owner].get("transcache.disk_hits", 0) >= 1
    assert supervisor.orphan_pids() == []
    assert not os.path.exists(fleet_dir)


# -- auth propagation (wire HMAC across the whole map) ------------------------

def test_auth_secret_reaches_every_shard_connection():
    corpus = [K.fir_filter(taps=taps) for taps in (3, 4, 5, 6, 7, 8)]
    supervisor = ShardSupervisor(
        _config(shards=2, auth_secret="s3cret")).start()
    try:
        host, port = supervisor.seed_address()
        with ClusterClient(host, port, session="keyed",
                           secret="s3cret",
                           shard_retry=_retry()).connect() as client:
            owners = set()
            for loop in corpus:
                assert client.translate(loop).ok
                owners.add(client.shard_map.owner(
                    idempotency_key_for(loop, None, None)).shard_id)
            # The corpus actually exercised both shards, so the secret
            # was presented on every per-shard connection, not just the
            # seed's.
            assert owners == {0, 1}

        with ClusterClient(host, port, session="unkeyed",
                           deadline_s=2.0,
                           shard_retry=RetryPolicy(
                               attempts=1, attempt_timeout_s=0.5,
                               breaker_threshold=1 << 30)) as intruder:
            with pytest.raises(TransportError):
                intruder.translate(corpus[0], deadline_s=2.0)
    finally:
        supervisor.stop()
    assert supervisor.orphan_pids() == []


# -- conservative cold start --------------------------------------------------

def test_restarted_shards_admission_starts_cold():
    config = _config(shards=1)
    supervisor = ShardSupervisor(config)
    # Boot uses a full bucket; restarts start at the configured cold
    # fraction so returning sessions cannot thundering-herd a fresh
    # process whose bucket state died with the old one.
    warm = supervisor._shard_config(cold=False)
    cold = supervisor._shard_config(cold=True)
    assert warm.service.admission.cold_start_fraction == 1.0
    assert (cold.service.admission.cold_start_fraction
            == config.cold_start_fraction == 0.25)
    assert cold.service.workers == 1  # shards never fork pools


# -- the chaos campaign -------------------------------------------------------

def test_small_seeded_cluster_campaign_passes(tmp_path):
    from repro.resilience import campaign
    from repro.resilience.clusterchaos import Cluster
    report = campaign.run(Cluster(shards=2, figure="fig2"), 4, seed=5,
                          workdir=str(tmp_path))
    text = campaign.format_report(report)
    assert report.ok, text
    assert report.injected >= 4
    assert set(report.by_family) == {
        mode.value for mode in infra.SHARD_FAULT_MODES}
    assert all(count > 0 for count in report.by_family.values())
    assert report.accounted == report.injected
    assert report.checks["exactly-once"].ok
    assert "+0 after pass 2" in report.checks["exactly-once"].shown
    assert report.checks["figure under SIGKILL"].ok
    assert report.checks["figure after campaign"].ok
    assert report.checks["fleet converged"].ok
    assert report.checks["orphaned processes"].shown == "0"
    assert report.orphaned_tmp == []
    assert "verdict: PASS" in text
