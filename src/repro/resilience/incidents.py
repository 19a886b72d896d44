"""Structured incident records for infrastructure faults.

Every recovery action the resilience layer takes — a quarantined cache
entry, a failed cache I/O, a shard death and restart — is recorded as an
:class:`Incident` carrying a ``kind`` tag from the
:mod:`repro.errors` taxonomy.  Incidents accumulate in a process-wide
:class:`IncidentLog` and, when a sink path is configured (directly or
via ``REPRO_INCIDENT_LOG``), are appended to a JSONL file one object
per line:

    {"seq": 3, "ts": 1754460000.123, "kind": "cache-corruption",
     "component": "transcache", "message": "...", "details": {...}}

Child processes (cluster shards) inherit the sink path through the
environment and append to the same file; each record is a single
short ``O_APPEND`` write, so concurrent appenders interleave whole
lines.  The in-memory
list only sees the current process's incidents; the JSONL file sees
everyone's.  Recording must never be able to fail a sweep: sink I/O
errors are swallowed (the in-memory record survives).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

#: Environment variable naming the JSONL sink; inherited by child
#: processes.
INCIDENT_LOG_ENV = "REPRO_INCIDENT_LOG"


@dataclass
class Incident:
    """One recovery action taken by the resilience layer."""

    seq: int
    ts: float
    #: Stable tag from the repro.errors taxonomy (``cache-corruption``,
    #: ``io-error``, ``shard-death``, ``shard-restart``, ...).
    kind: str
    #: Which subsystem recovered (``transcache``, ``cluster``,
    #: ``chaos``).
    component: str
    message: str
    details: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "seq": self.seq, "ts": self.ts, "kind": self.kind,
            "component": self.component, "message": self.message,
            "details": self.details,
        }, sort_keys=True, default=repr)


class IncidentLog:
    """Process-wide incident recorder with an optional JSONL sink."""

    def __init__(self, sink_path: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self.incidents: list[Incident] = []
        self.sink_path = sink_path

    def configure_sink(self, path: Optional[str],
                       export_env: bool = True) -> None:
        """Point the JSONL sink at *path* (None disables it).

        With ``export_env`` the path is also placed in the environment
        so spawned child processes append to the same file.
        """
        self.sink_path = path
        if export_env:
            if path:
                os.environ[INCIDENT_LOG_ENV] = path
            else:
                os.environ.pop(INCIDENT_LOG_ENV, None)

    def _effective_sink(self) -> Optional[str]:
        return self.sink_path or os.environ.get(INCIDENT_LOG_ENV) or None

    def record(self, kind: str, component: str, message: str,
               **details: Any) -> Incident:
        from repro import obs
        obs.inc(f"incident.{kind}")
        with self._lock:
            incident = Incident(seq=len(self.incidents),
                                ts=time.time(), kind=kind,
                                component=component, message=message,
                                details=details)
            self.incidents.append(incident)
        sink = self._effective_sink()
        if sink:
            try:
                directory = os.path.dirname(sink)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                with open(sink, "a") as handle:
                    handle.write(incident.to_json() + "\n")
            except OSError:
                pass  # observability must never fail the experiment
        return incident

    def counts(self) -> dict[str, int]:
        """kind -> number of incidents recorded in this process."""
        table: dict[str, int] = {}
        for incident in self.incidents:
            table[incident.kind] = table.get(incident.kind, 0) + 1
        return dict(sorted(table.items()))

    def since(self, seq: int) -> list[Incident]:
        return [i for i in self.incidents if i.seq >= seq]

    def clear(self) -> None:
        with self._lock:
            self.incidents.clear()

    def __len__(self) -> int:
        return len(self.incidents)


_log: Optional[IncidentLog] = None


def incident_log() -> IncidentLog:
    """The process-wide incident log."""
    global _log
    if _log is None:
        _log = IncidentLog()
    return _log


def record_incident(kind: str, component: str, message: str,
                    **details: Any) -> Incident:
    """Shorthand for ``incident_log().record(...)``."""
    return incident_log().record(kind, component, message, **details)


def reset_incident_log() -> None:
    """Drop all in-memory incidents and detach the sink (tests)."""
    log = incident_log()
    log.clear()
    log.configure_sink(None)


def read_jsonl(path: str) -> list[dict]:
    """Parse a JSONL incident file, skipping torn/partial lines.

    A crash mid-append can leave a final partial line; that line is
    unparseable and dropped — exactly the lenient posture a crash-safe
    reader needs.
    """
    records: list[dict] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    except OSError:
        return []
    return records
