"""Defense-in-depth: fault injection, incidents and the campaign engine.

VEAL's contract is that the VM can *always* fall back to the baseline
path when anything between translation and execution misbehaves.  The
differential guard (:mod:`repro.vm.guard`) delivers that for translated
kernels; this package proves it, and extends it to the infrastructure
the performance engine put on the hot path:

* :mod:`repro.resilience.integrity` — a framed, checksummed, versioned
  on-disk format with atomic temp-file+rename writes and a quarantine
  protocol, used by :mod:`repro.perf.transcache` so a truncated or
  corrupted cache entry is moved aside and rebuilt, never trusted;
* :mod:`repro.resilience.incidents` — structured JSONL incident records
  sharing the :mod:`repro.errors` kind-tag taxonomy, so guard deopts
  and infrastructure faults aggregate on one observability surface;
* :mod:`repro.resilience.campaign` — the one seeded fault-campaign
  engine (schedule, armed drive, token accounting, report, formatter)
  behind ``python -m repro faults``, ``chaos``, ``netchaos`` and
  ``clusterchaos``; the fault families are plugins in
  :mod:`repro.resilience.faults` (datapath bit flips and JIT live-out
  flips under the guarded runtime),
  :mod:`repro.resilience.chaos` (cache corruption and I/O errors under
  the Figure 3/4 sweeps), :mod:`repro.resilience.netchaos` (wire
  faults between client and server) and
  :mod:`repro.resilience.clusterchaos` (shard kills, hangs, slow
  restarts and stale maps), with the infrastructure injectors in
  :mod:`repro.resilience.infra`.  Each campaign asserts results
  identical to the fault-free path, no leaked temp files, connections
  or processes, and every fault accounted for in the incident log.
"""

from repro.resilience.incidents import (
    Incident,
    IncidentLog,
    incident_log,
    record_incident,
    reset_incident_log,
)
from repro.resilience.integrity import (
    FORMAT_VERSION,
    QUARANTINE_DIRNAME,
    frame,
    quarantine,
    unframe,
    write_atomic,
)

__all__ = [
    "FORMAT_VERSION",
    "Incident",
    "IncidentLog",
    "QUARANTINE_DIRNAME",
    "frame",
    "incident_log",
    "quarantine",
    "record_incident",
    "reset_incident_log",
    "unframe",
    "write_atomic",
]
