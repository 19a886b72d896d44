"""Fault injection: seeded campaigns against accelerator *and* engine.

Two injector families:

* **Datapath upsets** (:mod:`repro.faults.injector`) flip single bits
  in the register file, stream FIFOs and CCA outputs of the overlapped
  pipeline executor; campaigns (:mod:`repro.faults.campaign`,
  ``python -m repro faults``) prove the differential guard detects,
  deoptimizes and recovers every observable corruption.
* **Infrastructure faults** (:mod:`repro.faults.infra`) kill sweep
  workers mid-task, corrupt/truncate on-disk translation-cache entries,
  inject I/O errors, and attack the service's wire and shard
  processes; the chaos engine (:mod:`repro.resilience.campaign`,
  ``python -m repro chaos``/``netchaos``/``clusterchaos``) proves the
  resilience layer keeps results byte-identical through them.  The
  datapath campaign stays separate: it has no workdir, incident log or
  token accounting, and its oracle is a per-run scalar re-execution.
"""

from repro.faults.infra import (
    CORRUPTION_MODES,
    InfraFaultMode,
    InfraFaultSpec,
    corrupt_entry,
)
from repro.faults.injector import (
    FaultInjector,
    FaultSite,
    FaultSpec,
    flip_bit,
)
from repro.faults.campaign import (
    CampaignConfig,
    CampaignReport,
    InjectionRun,
    format_campaign,
    run_campaign,
)

__all__ = [
    "CORRUPTION_MODES",
    "CampaignConfig",
    "CampaignReport",
    "FaultInjector",
    "FaultSite",
    "FaultSpec",
    "InfraFaultMode",
    "InfraFaultSpec",
    "InjectionRun",
    "corrupt_entry",
    "flip_bit",
    "format_campaign",
    "run_campaign",
]
