"""The append-only run store: one timestamped record per measurement.

Every ``xp run`` repeat writes one JSONL record — timestamped,
machine-stamped, git-SHA-stamped — into a per-invocation file under
``<results>/runs/``.  Files are opened exclusively (``"x"``) and named
with a collision-bumped suffix, so the store *never* overwrites: the
benchmark trajectory of the repo is the directory's history, not the
last run to win a write race.  Committed baselines sit next to it
under ``<results>/baselines/<config>.json``: the compare gate judges
against them, and ``skip_reference`` runs borrow the ``default``
baseline's measured reference wall clocks.

The results directory resolves through one config source,
:class:`repro.api.Settings` (``REPRO_BENCH_DIR``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Optional

#: Record schema version stamped on every line.
RECORD_SCHEMA = "repro.xp/1"
#: Baseline file schema version.
BASELINE_SCHEMA = "repro.xp-baseline/1"

RUNS_SUBDIR = "runs"
BASELINES_SUBDIR = "baselines"


def results_dir(settings=None) -> str:
    """The benchmark results root (``REPRO_BENCH_DIR`` or the repo
    default ``benchmarks/results``), holding ``runs/`` and
    ``baselines/``."""
    if settings is None:
        from repro.api import Settings
        settings = Settings.from_env()
    return settings.bench_dir or os.path.join("benchmarks", "results")


def runs_dir(directory: Optional[str] = None, settings=None) -> str:
    return os.path.join(directory or results_dir(settings), RUNS_SUBDIR)


def baseline_path(config_name: str, directory: Optional[str] = None,
                  settings=None) -> str:
    return os.path.join(directory or results_dir(settings),
                        BASELINES_SUBDIR, f"{config_name}.json")


def git_sha() -> str:
    """The repo HEAD this run measured (``<sha>`` or ``<sha>-dirty``);
    ``"unknown"`` outside a git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip()
        if not sha:
            return "unknown"
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], capture_output=True,
            text=True, timeout=10).stdout.strip()
        return f"{sha}-dirty" if dirty else sha
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine_stamp() -> dict:
    """Who measured: the fields the compare gate matches baselines on."""
    return {
        "host": platform.node(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _unique_path(directory: str, base: str) -> str:
    """First non-existing ``<base>[.N].jsonl`` path under *directory*."""
    candidate = os.path.join(directory, f"{base}.jsonl")
    bump = 0
    while os.path.exists(candidate):
        bump += 1
        candidate = os.path.join(directory, f"{base}.{bump}.jsonl")
    return candidate


class RunWriter:
    """Exclusive-create JSONL writer for one ``xp run`` invocation."""

    def __init__(self, config, directory: Optional[str] = None,
                 settings=None, stamp: Optional[str] = None) -> None:
        from repro.xp.config import config_digest
        self.config = config
        self.digest = config_digest(config)
        target = runs_dir(directory, settings)
        os.makedirs(target, exist_ok=True)
        stamp = stamp or time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        base = f"{stamp}-{config.name}-{self.digest[:8]}"
        self.path = _unique_path(target, base)
        self.run_id = os.path.splitext(os.path.basename(self.path))[0]
        # "x": exclusive create — a raced duplicate raises instead of
        # truncating someone else's records.
        self._handle = open(self.path, "x")
        self.records_written = 0

    def record(self, payload: dict) -> dict:
        """Append one record line (schema/run-id stamps added here)."""
        payload = dict(payload)
        payload.setdefault("schema", RECORD_SCHEMA)
        payload.setdefault("run_id", self.run_id)
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()
        self.records_written += 1
        return payload

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_records(config_name: Optional[str] = None,
                 config_digest: Optional[str] = None,
                 directory: Optional[str] = None,
                 settings=None) -> list[dict]:
    """Every parseable record in the store, oldest first.

    Filters by config name and/or digest when given.  Unreadable lines
    are skipped, never fatal: the store is an append-only ledger that
    may span schema generations.
    """
    target = runs_dir(directory, settings)
    records: list[dict] = []
    try:
        names = sorted(os.listdir(target))
    except OSError:
        return records
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        try:
            with open(os.path.join(target, name)) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if not isinstance(record, dict):
                        continue
                    if (config_name is not None
                            and record.get("config_name") != config_name):
                        continue
                    if (config_digest is not None
                            and record.get("config_digest")
                            != config_digest):
                        continue
                    records.append(record)
        except OSError:
            continue
    records.sort(key=lambda r: (r.get("started_utc", ""),
                                r.get("run_id", ""),
                                r.get("repeat_index", 0)))
    return records


def latest_run_records(records: list[dict]) -> list[dict]:
    """The records of the most recent run (same ``run_id``) — what the
    compare gate judges, so one fresh invocation is diffed against the
    committed baseline, not against the whole history."""
    if not records:
        return []
    last = records[-1].get("run_id")
    return [r for r in records if r.get("run_id") == last]


def load_baseline(config_name: str, directory: Optional[str] = None,
                  path: Optional[str] = None,
                  settings=None) -> Optional[dict]:
    """The committed baseline payload for *config_name*, or None."""
    target = path or baseline_path(config_name, directory, settings)
    try:
        with open(target) as handle:
            payload = json.load(handle)
        return payload if isinstance(payload, dict) else None
    except (OSError, ValueError):
        return None
