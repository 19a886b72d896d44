"""Chaos family plugin: the experiment engine under infrastructure faults.

``python -m repro chaos`` is the infrastructure twin of
``python -m repro faults`` (:mod:`repro.resilience.faults`): where that
campaign flips datapath bits to prove the differential guard, this one
attacks the *machinery that regenerates figures* — corrupting and truncating on-disk
translation-cache entries and injecting I/O errors into the cache's
load and store paths — while the engine (:mod:`repro.resilience.campaign`)
proves every figure regenerated under faults byte-identical to its
fault-free baseline, zero orphaned temp files, and every fired fault
accounted for in the incident log.
"""

from __future__ import annotations

import os

from repro import api, perf
from repro.experiments.figures import SWEEP_FIGURES
from repro.resilience import infra
from repro.resilience.campaign import Campaign, Plugin, Scenario


def _cold(figure: str) -> str:
    """Render *figure* from a cold memory layer, so cache loads hit the
    (attacked) disk."""
    perf.clear_caches()
    return api.run_figure(figure)


class Sweep(Plugin):
    name = "chaos"
    title = "Chaos campaign"
    guarantee = ("byte-identical figures, zero orphans, every fault "
                 "accounted for")

    def __init__(self, figures: tuple[str, ...] = SWEEP_FIGURES):
        self.figures = tuple(figures)
        self.baseline: dict[str, str] = {}
        self.families = {"cache-corruption": self._corrupt,
                         "io-error": self._io}

    def describe(self) -> str:
        return f"figures {', '.join(self.figures)}"

    def setup(self, campaign: Campaign) -> None:
        # Fault-free baseline: establishes the byte-exact expectation
        # and populates the disk cache the corruption faults attack.
        for name in self.figures:
            campaign.note(f"baseline {name}")
            self.baseline[name] = api.run_figure(name)

    def _pick(self, campaign: Campaign) -> str:
        return self.figures[
            int(campaign.rng.integers(0, len(self.figures)))]

    def _corrupt(self, campaign: Campaign) -> Scenario:
        """Corrupt up to three on-disk entries, then regenerate the
        figure from a cold memory layer so the poisoned bytes are
        actually read."""
        figure = self._pick(campaign)
        rng = campaign.rng
        entries = sorted(name for name in os.listdir(campaign.cache_dir)
                         if name.endswith(".pkl"))
        picks = min(3, len(entries))
        chosen = [entries[int(i)] for i in
                  rng.choice(len(entries), size=picks, replace=False)] \
            if picks else []
        corrupted: dict[str, str] = {}
        for name in chosen:
            mode = infra.CORRUPTION_MODES[
                int(rng.integers(0, len(infra.CORRUPTION_MODES)))]
            path = os.path.join(campaign.cache_dir, name)
            corrupted[path] = infra.corrupt_entry(path, mode, rng)
        identical = _cold(figure) == self.baseline[figure]

        def quarantined() -> set:
            return {r.get("details", {}).get("path")
                    for r in campaign.new_records()
                    if r.get("kind") == "cache-corruption"}

        # Entries the figure happened not to re-read (no quarantine
        # incident yet) are still poisoned on disk; scrub them through
        # the normal lookup path, which must quarantine them rather
        # than crash or return wrong data.  (Any key the run *did* need
        # was read before its rebuild could store, so "no incident" ⇒
        # untouched.)
        cache = perf.translation_cache()
        undetected = []
        for path in sorted(set(corrupted) - quarantined()):
            key = os.path.basename(path)[:-len(".pkl")]
            cache._entries.pop(key, None)
            if cache.peek(key) is not None:
                undetected.append(path)  # corrupt bytes loaded
        detail = "; ".join(f"{os.path.basename(p)}: {d}"
                           for p, d in corrupted.items())
        if undetected:
            detail += " | UNDETECTED: " + ", ".join(
                os.path.basename(p) for p in undetected)
        return Scenario(
            index=campaign.index, family="cache-corruption",
            target=figure, injected=len(corrupted),
            accounted=sum(1 for p in corrupted if p in quarantined()),
            correct=identical, detail=detail)

    def _io(self, campaign: Campaign) -> Scenario:
        """Arm one-shot I/O failures on the cache's load and store
        paths; the injected error message carries the fault token."""
        figure = self._pick(campaign)
        specs = [infra.InfraFaultSpec(
            mode=infra.InfraFaultMode.IO_ERROR,
            token=f"io-{campaign.index}-{op}", io_op=op)
            for op in ("load", "store")]
        return campaign.drive(
            "io-error", figure, specs, lambda: _cold(figure),
            self.baseline[figure],
            account=lambda records, spec: any(
                r.get("kind") == "io-error"
                and spec.token in str(r.get("details", {}).get("error"))
                for r in records),
            done=", ".join(s.token for s in specs))

    def finish(self, campaign: Campaign) -> None:
        # Fault-free closing pass: the campaign must leave a healthy
        # cache behind, not merely survive while faults were flying.
        perf.clear_caches()
        intact = all(api.run_figure(name) == self.baseline[name]
                     for name in self.figures)
        campaign.check("final figures intact", intact)
