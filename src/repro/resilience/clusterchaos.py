"""Clusterchaos family plugin: the sharded LoopService cluster under faults.

``python -m repro clusterchaos`` attacks *whole shard processes* and
the shard map the failover client routes by — shards SIGKILLed
mid-request, shards that hang every response until the supervisor's
missed-heartbeat escalation puts them down, restarted shards that boot
slowly, clients that drop a shard-map update — while the engine
(:mod:`repro.resilience.campaign`) proves the cluster's guarantees:

* **Byte-identical results through failure**: every request driven
  into a dying or hung shard returns exactly the serial in-process
  result, and a figure rendered while its serving shard is SIGKILLed
  mid-sweep is byte-identical to the direct rendering;
* **Exactly-once translation**: resubmission after failover is by
  transcache digest into the shard's dedup, so a full-corpus pass
  repeated after the campaign adds *zero* core translation runs across
  the fleet (summed per-shard ``translator.core_runs``);
* **Self-healing**: every injected shard fault ends with the fleet
  converged, every death/restart/rebalance an attributable incident;
* **Full accounting and no debris**: every fired fault maps to an
  incident carrying its token, and zero shard processes or cache temp
  files survive the campaign.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import api
from repro.errors import ReproError
from repro.resilience import infra
from repro.resilience.campaign import (
    FAULT_FREE,
    Campaign,
    Plugin,
    Scenario,
)
from repro.service.client import RetryPolicy, idempotency_key_for
from repro.service.cluster import (
    ClusterClient,
    ClusterConfig,
    ShardSupervisor,
)
from repro.service.loadgen import request_corpus
from repro.service.server import ServiceConfig
from repro.vm.translator import translate_loop

#: Per-attempt response wait for the campaign client; a hung shard must
#: outlast it to force a failover.
ATTEMPT_TIMEOUT_S = 1.0
#: How long one shard death may take to heal (SIGKILL detection,
#: backoff, spawn, map push).
HEAL_TIMEOUT_S = 90.0


def _await_incident(campaign: Campaign, kind: str, shard: int) -> bool:
    """Poll the incident log for a *kind* record about *shard* in the
    current scenario."""
    deadline = time.monotonic() + HEAL_TIMEOUT_S
    while time.monotonic() < deadline:
        if any(r.get("kind") == kind
               and r.get("details", {}).get("shard") == shard
               for r in campaign.new_records()):
            return True
        time.sleep(0.1)
    return False


class Cluster(Plugin):
    name = "clusterchaos"
    title = "Cluster chaos campaign"
    guarantee = ("byte-identical results through shard failure, "
                 "exactly-once translation, fleet healed, zero orphans")
    spec_file = True

    def __init__(self, shards: int = 3, figure: str = "fig2"):
        self.shards = shards
        self.figure = figure
        self.supervisor: Optional[ShardSupervisor] = None
        self.client: Optional[ClusterClient] = None
        self.families = {"shard-kill": self._kill,
                         "shard-hang": self._hang,
                         "shard-slow-start": self._slow_start,
                         "map-stale": self._map_stale}

    def describe(self) -> str:
        return f"{self.shards} shards, figure {self.figure}"

    def setup(self, campaign: Campaign) -> None:
        campaign.note(f"baseline {self.figure} (direct serial path)")
        self.baseline = api.run_figure(self.figure)
        self.corpus = request_corpus()
        campaign.note(f"baseline translations ({len(self.corpus)} "
                      f"corpus items)")
        self.expected = [translate_loop(*item) for item in self.corpus]
        campaign.note(f"booting {self.shards}-shard cluster")
        self.supervisor = ShardSupervisor(ClusterConfig(
            shards=self.shards,
            service=ServiceConfig(workers=1))).start()
        host, port = self.supervisor.seed_address()
        self.client = ClusterClient(
            host, port, session="clusterchaos", seed=campaign.report.seed,
            deadline_s=60.0,
            shard_retry=RetryPolicy(
                attempts=2, base_delay_s=0.02, max_delay_s=0.2,
                attempt_timeout_s=ATTEMPT_TIMEOUT_S,
                breaker_threshold=1 << 30)).connect()

    # -- helpers -------------------------------------------------------------

    def _pick(self, campaign: Campaign) -> int:
        return int(campaign.rng.integers(0, len(self.corpus)))

    def _owner_of(self, item: tuple) -> int:
        owner = self.supervisor.map.owner(idempotency_key_for(*item))
        if owner is None:
            raise ReproError("no live shard owns anything — fleet down")
        return owner.shard_id

    def _translate(self, index: int):
        return self.client.translate(*self.corpus[index], deadline_s=60.0)

    def _healed(self, what: str) -> str:
        if self.supervisor.wait_converged(HEAL_TIMEOUT_S):
            return ""
        return f"{what} not restarted within {HEAL_TIMEOUT_S:.0f}s"

    def _figure(self) -> str:
        return self.client.run_figure(self.figure, deadline_s=1800.0,
                                      attempt_timeout_s=900.0)

    def _corpus_pass(self) -> list:
        return [self.client.translate(*item) for item in self.corpus]

    # -- the four families ---------------------------------------------------

    def _kill(self, campaign: Campaign) -> Scenario:
        """SIGKILL the owning shard mid-request; the client must fail
        over and still produce the serial path's exact result."""
        index = self._pick(campaign)
        target = self._owner_of(self.corpus[index])
        token = f"shard-kill-{campaign.index}"
        self.client.connect()  # route by the current map: hit the owner
        return campaign.drive(
            "shard-kill",
            f"shard {target} ({self.corpus[index][0].name})",
            [infra.InfraFaultSpec(mode=infra.InfraFaultMode.SHARD_KILL,
                                  token=token, shard_id=target)],
            lambda: self._translate(index), self.expected[index],
            check=lambda: self._healed(f"shard {target}"),
            done=f"{token}: owner died mid-translate, failed over, "
                 f"restarted")

    def _hang(self, campaign: Campaign) -> Scenario:
        """Hang the owning shard; the client's attempt timeout must fail
        the request over, and the supervisor's missed-heartbeat
        escalation must put the shard down and restart it."""
        index = self._pick(campaign)
        target = self._owner_of(self.corpus[index])
        token = f"shard-hang-{campaign.index}"
        self.client.connect()

        def escalated() -> str:
            # The hang outlasts every timeout by design; only the
            # supervisor's escalation (missed heartbeats -> SIGKILL ->
            # restart) ends it.
            died = _await_incident(campaign, "shard-death", target)
            healed = self._healed(f"shard {target}")
            return healed if died else (f"supervisor never escalated "
                                        f"hung shard {target}")

        return campaign.drive(
            "shard-hang",
            f"shard {target} ({self.corpus[index][0].name})",
            [infra.InfraFaultSpec(mode=infra.InfraFaultMode.SHARD_HANG,
                                  token=token, shard_id=target,
                                  delay_s=30.0)],
            lambda: self._translate(index), self.expected[index],
            check=escalated,
            done=f"{token}: hung shard failed over, escalated, restarted")

    def _slow_start(self, campaign: Campaign) -> Scenario:
        """SIGKILL a shard with a slow start armed against its
        *restart*; the supervisor must tolerate the delayed boot, and
        the fleet minus one shard must keep serving meanwhile."""
        target = int(campaign.rng.integers(0, self.shards))
        index = self._pick(campaign)

        def kill_then_translate():
            self.supervisor.kill_shard(target)
            return self._translate(index)

        token = f"shard-slow-start-{campaign.index}"
        return campaign.drive(
            "shard-slow-start", f"shard {target}",
            [infra.InfraFaultSpec(
                mode=infra.InfraFaultMode.SHARD_SLOW_START, token=token,
                shard_id=target, delay_s=1.5)],
            kill_then_translate, self.expected[index],
            check=lambda: self._healed(f"slow-started shard {target}"),
            done=f"{token}: restart delayed 1.5s, fleet served "
                 f"throughout")

    def _map_stale(self, campaign: Campaign) -> Scenario:
        """Make the client drop one shard-map update; requests routed by
        the stale map must still resolve correctly (shard-moved
        redirects repair the client on contact)."""
        token = f"map-stale-{campaign.index}"
        index = self._pick(campaign)

        def refresh_then_translate():
            self.client.connect()  # the refresh this triggers is dropped
            return self._translate(index)

        return campaign.drive(
            "map-stale", f"client map ({self.corpus[index][0].name})",
            [infra.InfraFaultSpec(mode=infra.InfraFaultMode.MAP_STALE,
                                  token=token)],
            refresh_then_translate, self.expected[index],
            done=f"{token}: dropped map update, request still resolved")

    def finish(self, campaign: Campaign) -> None:
        # The tentpole assertion: a figure rendered through the cluster
        # while its serving shard is SIGKILLed mid-sweep must be
        # byte-identical to the direct serial rendering — and proves
        # nothing unless the kill actually fired.
        campaign.note(f"{self.figure} via cluster with a shard "
                      f"SIGKILLed mid-sweep")
        self.supervisor.wait_converged(HEAL_TIMEOUT_S)
        token = "shard-kill-figure"
        faulted = campaign.add(campaign.drive(
            "shard-kill", f"figure:{self.figure}",
            [infra.InfraFaultSpec(mode=infra.InfraFaultMode.SHARD_KILL,
                                  token=token)],
            self._figure, self.baseline,
            check=lambda: ("" if infra.fired(campaign.state_dir, token)
                           else "the kill never fired mid-sweep"),
            done="serving shard SIGKILLed mid-figure; client failed "
                 "over and resubmitted"))

        # Exactly-once: heal, run the full corpus through the cluster,
        # then run it *again* — the second pass must add zero core
        # translation runs anywhere in the fleet (every resubmission
        # deduplicated by digest).
        campaign.note("exactly-once check: two full-corpus passes")
        self.supervisor.wait_converged(HEAL_TIMEOUT_S)
        core_runs = []
        for n in (1, 2):
            campaign.add(campaign.drive(
                FAULT_FREE, f"corpus pass {n}", [], self._corpus_pass,
                self.expected))
            core_runs.append(self.supervisor.core_runs())
        first, second = core_runs
        campaign.check("exactly-once", second == first,
                       f"{first} core runs after pass 1, "
                       f"+{second - first} after pass 2 "
                       f"({'OK' if second == first else 'VIOLATED'})")

        campaign.note(f"{self.figure} via cluster, fault-free closing "
                      f"pass")
        final = campaign.add(campaign.drive(
            FAULT_FREE, f"figure:{self.figure}", [], self._figure,
            self.baseline))
        converged = self.supervisor.wait_converged(HEAL_TIMEOUT_S)
        version = self.supervisor.map.to_json().get("version", "?")
        campaign.check("fleet converged", converged,
                       f"{'yes' if converged else 'NO'} (map v{version})")
        campaign.report.tables["cluster client"] = dict(sorted(
            self.client.client_stats().get("cluster", {}).items()))
        self.client.close()
        self.client = None
        self.supervisor.stop()
        orphans = len(self.supervisor.orphan_pids())
        self.supervisor = None
        campaign.check("orphaned processes", orphans == 0, str(orphans))
        for name, scenario in (("figure under SIGKILL", faulted),
                               ("figure after campaign", final)):
            campaign.check(name, scenario.correct,
                           "byte-identical" if scenario.correct
                           else "DIVERGED")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
