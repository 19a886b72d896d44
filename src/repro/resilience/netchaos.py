"""Netchaos family plugin: the service's network transport under faults.

``python -m repro netchaos`` attacks the *transport* between a
:class:`~repro.service.client.LoopClient` and a
:class:`~repro.service.net.NetServer` — connections reset mid-frame,
corrupted and truncated frames, stalled and dropped responses, a
slow-loris client that trickles half a header and goes silent — while
the engine (:mod:`repro.resilience.campaign`) proves the transport's
guarantees: every request driven through the faulty wire returns
exactly the serial in-process result (the per-frame checksum turns
corruption into reconnects, never wrong data), a figure rendered
through the faulty transport is byte-identical to the direct
rendering, every fired wire fault is token-accounted in the incident
log, and no connection or cache temp file is orphaned.
"""

from __future__ import annotations

import functools
import socket
import time

from repro import api
from repro.faults import infra
from repro.resilience.campaign import (
    FAULT_FREE,
    Campaign,
    Plugin,
    Scenario,
)
from repro.service import wire
from repro.service.client import LoopClient, RetryPolicy
from repro.service.loadgen import request_corpus
from repro.service.net import NetConfig, NetServer
from repro.service.server import ServiceConfig
from repro.vm.translator import translate_loop

#: Server slow-loris guard for the campaign: short, so the slow-client
#: scenario costs seconds, not the production minute.
IDLE_TIMEOUT_S = 2.0
#: Per-attempt response wait for the campaign client; stalls and drops
#: must outlast it to actually force a retry.
ATTEMPT_TIMEOUT_S = 0.6


class Transport(Plugin):
    name = "netchaos"
    title = "Network chaos campaign"
    guarantee = ("zero client-visible corruption, zero orphans, every "
                 "wire fault accounted for")
    # One proven slow-loris cutoff is enough; it costs a full idle
    # timeout per scenario.
    once = ("slow-client",)

    def __init__(self, figure: str = "fig2"):
        self.figure = figure
        self.server = None
        self.client = None
        self.families = {mode.value: functools.partial(self._wire_fault,
                                                       mode)
                         for mode in infra.NET_FAULT_MODES}
        self.families["slow-client"] = self._slowloris

    def describe(self) -> str:
        return f"figure {self.figure}"

    def setup(self, campaign: Campaign) -> None:
        campaign.note(f"baseline {self.figure} (direct serial path)")
        self.baseline = api.run_figure(self.figure)
        self.server = NetServer(NetConfig(
            idle_timeout_s=IDLE_TIMEOUT_S,
            service=ServiceConfig(workers=1))).start()
        self.client = LoopClient(
            self.server.host, self.server.port, session="netchaos",
            seed=campaign.report.seed, deadline_s=30.0,
            retry=RetryPolicy(
                attempts=6, base_delay_s=0.01, max_delay_s=0.1,
                attempt_timeout_s=ATTEMPT_TIMEOUT_S))
        self.corpus = request_corpus()

    def _figure(self) -> str:
        return self.client.run_figure(self.figure, deadline_s=1800.0,
                                      attempt_timeout_s=900.0)

    def _wire_fault(self, mode: infra.InfraFaultMode,
                    campaign: Campaign) -> Scenario:
        """Arm one wire fault against the next response, then drive a
        translate request through it and compare against the serial
        path."""
        loop, accel, options = self.corpus[
            int(campaign.rng.integers(0, len(self.corpus)))]
        token = f"{mode.value}-{campaign.index}"
        # Stalls must outlast the client's per-attempt wait or they are
        # absorbed invisibly instead of forcing a retry.
        delay = (ATTEMPT_TIMEOUT_S * 2.5
                 if mode is infra.InfraFaultMode.NET_STALL else None)
        spec = infra.InfraFaultSpec(mode=mode, token=token, delay_s=delay)
        want = translate_loop(loop, accel, options)
        return campaign.drive(
            mode.value, loop.name, [spec],
            lambda: self.client.translate(loop, accel, options,
                                          deadline_s=30.0),
            want, done=f"{token} on {loop.name}")

    def _slowloris(self, campaign: Campaign) -> Scenario:
        """Trickle half a frame header, then go silent; the server must
        cut the connection off at its idle timeout, not hold it
        forever."""
        closed = False
        started = time.monotonic()
        try:
            with socket.create_connection(
                    (self.server.host, self.server.port),
                    timeout=IDLE_TIMEOUT_S + 10.0) as sock:
                sock.sendall(wire.MAGIC[:2])  # half a magic, then nothing
                sock.settimeout(IDLE_TIMEOUT_S + 10.0)
                try:
                    closed = sock.recv(64) == b""
                except socket.timeout:
                    closed = False  # never cut off: the guard failed
                except (ConnectionResetError, OSError):
                    closed = True   # an abortive close still counts
        except OSError:
            closed = False
        waited = time.monotonic() - started
        logged = any(r.get("kind") == "slow-client"
                     for r in campaign.new_records())
        return Scenario(
            index=campaign.index, family="slow-client",
            target="raw-socket", injected=int(closed),
            accounted=int(closed and logged), correct=closed,
            detail=(f"server cut the stalled connection after "
                    f"{waited:.1f}s" if closed else
                    f"connection NOT closed within {waited:.1f}s"))

    def finish(self, campaign: Campaign) -> None:
        # The tentpole assertion: a figure rendered *through* the
        # faulty transport — a wire fault armed against its response —
        # must be byte-identical to the direct serial rendering.
        campaign.note(f"{self.figure} via client under an injected "
                      f"wire fault")
        faulted = campaign.add(campaign.drive(
            "net-truncate", f"figure:{self.figure}",
            [infra.InfraFaultSpec(mode=infra.InfraFaultMode.NET_TRUNCATE,
                                  token="net-truncate-figure")],
            self._figure, self.baseline,
            done="figure response truncated mid-frame; client "
                 "reconnected and resubmitted"))
        campaign.note(f"{self.figure} via client, fault-free closing "
                      f"pass")
        final = campaign.add(campaign.drive(
            FAULT_FREE, f"figure:{self.figure}", [], self._figure,
            self.baseline))
        campaign.report.tables["client recovery"] = dict(
            sorted(self.client.stats.as_dict().items()))
        self.client.close()
        self.client = None
        self.server.stop()
        orphans = self.server.active_connections()
        self.server = None
        campaign.check("orphaned connections", orphans == 0, str(orphans))
        for name, scenario in (("figure under faults", faulted),
                               ("figure after campaign", final)):
            campaign.check(name, scenario.correct,
                           "byte-identical" if scenario.correct
                           else "DIVERGED")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None
