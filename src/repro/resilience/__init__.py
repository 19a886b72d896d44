"""Defense-in-depth around the experiment engine (PR 2 infrastructure).

VEAL's contract is that the VM can *always* fall back to the baseline
path when anything between translation and execution misbehaves.  PR 1
delivered that for translated kernels; this package extends it to the
infrastructure the performance engine put on the hot path:

* :mod:`repro.resilience.integrity` — a framed, checksummed, versioned
  on-disk format with atomic temp-file+rename writes and a quarantine
  protocol, used by :mod:`repro.perf.transcache` so a truncated or
  corrupted cache entry is moved aside and rebuilt, never trusted;
* :mod:`repro.resilience.supervisor` — worker supervision for
  :mod:`repro.perf.parallel`: completion heartbeats with a stall
  deadline, crashed-pool detection, bounded retry with exponential
  backoff, salvage of completed partial results, and automatic
  degradation to the serial path — all preserving deterministic merge
  order (results are merged by item index, never completion order);
* :mod:`repro.resilience.incidents` — structured JSONL incident records
  sharing the :mod:`repro.errors` kind-tag taxonomy, so guard deopts
  and infrastructure faults aggregate on one observability surface;
* :mod:`repro.resilience.campaign` — the one seeded chaos engine
  (schedule, armed drive, token accounting, report, formatter) behind
  ``python -m repro chaos``, ``netchaos`` and ``clusterchaos``; the
  fault families are plugins in :mod:`repro.resilience.chaos` (cache
  corruption, worker kills and I/O errors under the Figure 3/4
  sweeps), :mod:`repro.resilience.netchaos` (wire faults between
  client and server) and :mod:`repro.resilience.clusterchaos` (shard
  kills, hangs, slow restarts and stale maps).  Each campaign asserts
  results byte-identical to the fault-free path, no leaked temp files,
  connections or processes, and every fault accounted for in the
  incident log.
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
from repro.resilience.supervisor import SupervisorConfig, supervised_map

__all__ = [
    "FORMAT_VERSION",
    "Incident",
    "IncidentLog",
    "QUARANTINE_DIRNAME",
    "SupervisorConfig",
    "frame",
    "incident_log",
    "quarantine",
    "record_incident",
    "reset_incident_log",
    "supervised_map",
    "unframe",
    "write_atomic",
]
