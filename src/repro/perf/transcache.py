"""Content-addressed cache of translation products.

Keys are digests of (loop DFG structure, the *schedule-relevant
projection* of the :class:`~repro.accelerator.config.LAConfig`, and the
:class:`~repro.vm.translator.TranslationOptions`); values are
:class:`CoreEntry` records holding everything the translation pipeline
produced *before* the register-capacity check (see
``repro.vm.translator`` for why capacities are factored out of the key:
register files only gate the final ``fits`` comparison, so one cached
schedule serves every point of a register sweep).

Two layers:

* in-memory dict — shared by every ``VirtualMachine`` in the process,
  so one figure pass translates each loop once;
* optional on-disk files under ``benchmarks/results/.cache/`` (or
  ``REPRO_CACHE_DIR``) — shared across processes and CLI invocations;
  AOT artifacts and a cluster's fleet directory are such directories.

The disk layer treats its own files as untrusted (DESIGN.md, "Failure
model & recovery"): every entry is framed with a format version and a
sha256 checksum (:mod:`repro.resilience.integrity`), written via
atomic temp-file+rename, and any entry that fails validation — torn,
truncated, bit-rotted, or written by an older format — is *quarantined*
(moved aside with an incident record) and the lookup degrades to a
miss, so the entry is transparently rebuilt.  Disk I/O failures are
never fatal; the cache degrades to memory-only and records the
incident.  The one loud failure is an explicitly configured
``REPRO_CACHE_DIR`` that cannot be used, which raises
:class:`~repro.errors.CacheConfigError` at attach time.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro import obs
from repro.errors import CacheConfigError, CacheIntegrityError
from repro.perf.codecache import CacheStats, CodeCache
from repro.perf.memo import RuntimeMemos

DEFAULT_DISK_DIR = os.path.join("benchmarks", "results", ".cache")

#: Environment override for the disk layer's location, validated
#: strictly at attach time (a mistyped path the user asked for by name
#: must fail loudly, not silently degrade).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Disk-layer size budget in bytes (``REPRO_CACHE_BUDGET`` overrides).
DEFAULT_GC_BUDGET = 256 * 1024 * 1024
CACHE_BUDGET_ENV = "REPRO_CACHE_BUDGET"

#: The version-stamp file the GC sweep keys on.  Digests bake
#: ``DIGEST_VERSION`` into the *pre-hash*, so a filename cannot reveal
#: which version wrote it — without this stamp, entries stranded by a
#: version bump (``veal-perf-1`` -> ``veal-perf-2``) are
#: indistinguishable from live ones and accumulate as dead files
#: forever.
STAMP_NAME = "digest.version"

#: Every entry is one ``<digest>.pkl`` file in the cache directory.
ENTRY_SUFFIX = ".pkl"

#: Entries the memory layer keeps, least recently used first out.  All
#: figures from cold caches store 2,648 (fig3a/3b/4a/4b alone 1,541).
TRANSLATION_CACHE_ENTRIES = 4096

_gc_budget_override: Optional[int] = None


def set_gc_budget(budget: Optional[int]) -> None:
    """Process-wide disk-budget override (None restores env/default)."""
    global _gc_budget_override
    _gc_budget_override = None if budget is None else max(0, int(budget))


def effective_gc_budget() -> int:
    if _gc_budget_override is not None:
        return _gc_budget_override
    raw = os.environ.get(CACHE_BUDGET_ENV)
    if raw:
        # Permissive on purpose: Settings.from_env rejects loudly.
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return DEFAULT_GC_BUDGET


def default_disk_dir() -> str:
    """The disk layer's default location (``REPRO_CACHE_DIR`` wins)."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_DISK_DIR


def read_stamp(path: str) -> Optional[str]:
    """The digest version cache directory *path* is stamped with."""
    try:
        with open(os.path.join(path, STAMP_NAME)) as handle:
            return handle.read().strip()
    except OSError:
        return None


def gc_disk_dir(path: str, budget: Optional[int] = None) -> dict:
    """Version-stale + size-budget sweep of one cache directory.

    Two passes, both counted in ``cache.gc.*`` metrics and summarised
    in the returned dict:

    * **stale** — when the directory's :data:`STAMP_NAME` stamp names
      a different ``DIGEST_VERSION`` than this process, every entry is
      unreachable dead weight (keys embed the version pre-hash) and is
      removed; the stamp is then rewritten.  A missing stamp (a
      pre-GC-era directory) is adopted as-is: the stamp is written and
      only the size budget applies.
    * **evicted** — remaining entries beyond *budget* bytes are removed
      oldest-``mtime``-first.

    ``quarantine/`` is never touched (quarantined entries are
    diagnostic evidence), and ``.tmp`` orphans are left for the chaos
    campaign's crash-evidence scan.  I/O failures degrade silently —
    GC is best-effort hygiene, never a correctness dependency.
    """
    from repro.perf.digest import DIGEST_VERSION
    from repro.resilience import integrity
    if budget is None:
        budget = effective_gc_budget()
    summary = {"dir": path, "stale": 0, "evicted": 0, "bytes_freed": 0,
               "kept": 0, "kept_bytes": 0, "budget_bytes": budget}
    try:
        names = os.listdir(path)
    except OSError:
        return summary
    stamped = read_stamp(path)
    entries = []
    for name in names:
        if not name.endswith(ENTRY_SUFFIX):
            continue  # quarantine/, .tmp orphans, the stamp: all kept
        full = os.path.join(path, name)
        try:
            status = os.stat(full)
        except OSError:
            continue
        entries.append((status.st_mtime, status.st_size, full))
    if stamped is not None and stamped != DIGEST_VERSION:
        for _mtime, size, full in entries:
            try:
                os.unlink(full)
            except OSError:
                continue
            summary["stale"] += 1
            summary["bytes_freed"] += size
        entries = []
    if stamped != DIGEST_VERSION:
        try:
            integrity.write_atomic(
                os.path.join(path, STAMP_NAME),
                (DIGEST_VERSION + "\n").encode("utf-8"),
                fsync=False)
        except OSError:
            pass
    entries.sort()  # oldest mtime first: evict the coldest entries
    total = sum(size for _mtime, size, _full in entries)
    while entries and total > budget:
        _mtime, size, full = entries.pop(0)
        try:
            os.unlink(full)
        except OSError:
            continue
        total -= size
        summary["evicted"] += 1
        summary["bytes_freed"] += size
    summary["kept"] = len(entries)
    summary["kept_bytes"] = total
    if summary["stale"]:
        obs.inc("cache.gc.stale", summary["stale"])
    if summary["evicted"]:
        obs.inc("cache.gc.evicted", summary["evicted"])
    if summary["bytes_freed"]:
        obs.inc("cache.gc.bytes_freed", summary["bytes_freed"])
    if summary["stale"] or summary["evicted"]:
        from repro.resilience.incidents import record_incident
        record_incident(
            "cache-gc", "transcache",
            f"disk cache sweep of {path}: {summary['stale']} "
            f"version-stale + {summary['evicted']} over-budget "
            f"entries removed ({summary['bytes_freed']} bytes)",
            **{k: v for k, v in summary.items() if k != "dir"},
            path=path)
    return summary


def validate_cache_dir(path: str) -> None:
    """Prove *path* is a usable cache directory or raise
    :class:`CacheConfigError` with a clear, actionable message."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CacheConfigError(
            f"cache directory {path!r} cannot be created: {exc}",
            path=path) from exc
    if not os.path.isdir(path):
        raise CacheConfigError(
            f"cache path {path!r} exists but is not a directory",
            path=path)
    try:
        fd, probe = tempfile.mkstemp(dir=path, suffix=".probe")
        os.close(fd)
        os.unlink(probe)
    except OSError as exc:
        raise CacheConfigError(
            f"cache directory {path!r} is not writable: {exc}",
            path=path) from exc


@dataclass
class MeterSnapshot:
    """Immutable copy of a TranslationMeter's charge state."""

    units: dict[str, int]
    total: int

    @staticmethod
    def of(meter) -> "MeterSnapshot":
        return MeterSnapshot(units=dict(meter.units),
                             total=meter.total_units())

    def restore(self):
        """A fresh TranslationMeter carrying these charges."""
        from repro.vm.costmodel import TranslationMeter
        meter = TranslationMeter()
        meter.units = dict(self.units)
        meter._total = self.total
        return meter


@dataclass
class CoreEntry(RuntimeMemos):
    """One cached capacity-independent translation outcome.

    Exactly one of (``image``, ``failure``) is set... with one
    exception: a translation-budget failure *after* register
    requirements were computed keeps ``requirements`` populated so the
    finalisation step can reproduce the reference pipeline's
    check order (capacity check before the rotation charge).
    """

    loop_name: str
    #: Register demand, present when the pipeline reached regalloc.
    requirements: Optional[object] = None
    #: Meter state just after requirements (before rotation charges) —
    #: what a capacity failure reports.
    meter_at_requirements: Optional[MeterSnapshot] = None
    #: Successful kernel image (its ``config`` is rebound per caller).
    image: Optional[object] = None
    #: Typed terminal failure raised before/independent of capacities.
    failure: Optional[Exception] = None
    #: True when the failure came from the modulo scheduler exhausting
    #: the (possibly clamped) II search — the one outcome that must be
    #: re-derived exactly when the true max II is larger than the clamp.
    ii_exhausted: bool = False
    meter_final: MeterSnapshot = field(
        default_factory=lambda: MeterSnapshot({}, 0))


def decode_entry(blob: bytes, path: str) -> CoreEntry:
    """The one entry loader (disk layer and AOT artifacts): frame check,
    allowlisted unpickle (:func:`repro.resilience.integrity.load_payload`),
    type check; raises :class:`CacheIntegrityError`."""
    from repro.resilience import integrity
    payload = integrity.unframe(blob, path=path)
    try:
        entry = integrity.load_payload(payload)
    except integrity.RefusedPayload as exc:
        # Checksum-valid bytes that do not load: a planted payload
        # (``forbidden-global``) or an incompatible code revision under
        # the same format version (``unpickle``).  Quarantined alike.
        raise CacheIntegrityError(str(exc), path=path,
                                  reason=exc.reason) from None
    if not isinstance(entry, CoreEntry):
        raise CacheIntegrityError(f"payload is {type(entry).__name__}",
                                  path=path, reason="wrong-type")
    return entry


@dataclass
class TransCacheStats(CacheStats):
    disk_hits: int = 0
    stores: int = 0
    #: Times a clamped-key failure forced an exact-key retranslation.
    exact_fallbacks: int = 0
    #: Corrupt/stale disk entries moved aside (each is an incident).
    quarantined: int = 0
    #: Disk I/O failures survived by degrading (each is an incident).
    disk_errors: int = 0


class TranslationCache:
    """Memory + optional-disk store of :class:`CoreEntry` by digest."""

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        self._entries: CodeCache[str, CoreEntry] = CodeCache(
            TRANSLATION_CACHE_ENTRIES, "transcache.evictions", self._evicted)
        self.disk_dir: Optional[str] = None
        self.stats = TransCacheStats()
        #: Keys seeded from an AOT artifact, so hits on them can be
        #: attributed (``aot.artifact_hits``) separately from entries
        #: this process translated or pulled from disk.
        self._artifact_keys: set[str] = set()
        if disk_dir is not None:
            self.attach_disk(disk_dir)

    # -- disk layer --------------------------------------------------------

    def attach_disk(self, path: Optional[str] = None,
                    strict: Optional[bool] = None) -> str:
        """Attach the on-disk layer.

        With no *path*, the location comes from ``REPRO_CACHE_DIR`` or
        the default; an env-provided location is validated strictly
        (the user named it — a typo must raise
        :class:`~repro.errors.CacheConfigError`, not silently degrade).
        Pass ``strict=True`` to get the same loud validation for an
        explicit *path*.
        """
        if strict is None:
            strict = path is None and bool(os.environ.get(CACHE_DIR_ENV))
        self.disk_dir = path or default_disk_dir()
        try:
            validate_cache_dir(self.disk_dir)
        except CacheConfigError:
            if strict:
                self.disk_dir = None
                raise
            self.disk_dir = None
        if self.disk_dir is not None:
            # Lifecycle sweep at attach: drop entries stranded by a
            # DIGEST_VERSION bump and enforce the size budget.
            gc_disk_dir(self.disk_dir)
        return self.disk_dir or ""

    def detach_disk(self) -> None:
        self.disk_dir = None

    def _disk_path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, key + ENTRY_SUFFIX)

    def _io_incident(self, op: str, path: str, exc: Exception) -> None:
        from repro.resilience.incidents import record_incident
        self.stats.disk_errors += 1
        record_incident(
            "io-error", "transcache",
            f"disk {op} failed, degrading to memory-only for this "
            f"entry: {exc}", op=op, path=path,
            error=f"{type(exc).__name__}: {exc}")

    def _quarantine(self, path: str, reason: str, detail: str
                    ) -> None:
        from repro.resilience import integrity
        from repro.resilience.incidents import record_incident
        moved = integrity.quarantine(path, reason)
        self.stats.quarantined += 1
        record_incident(
            "cache-corruption", "transcache",
            f"quarantined cache entry ({reason}): {detail}",
            path=path, reason=reason, quarantined_to=moved)

    def _disk_load(self, key: str) -> Optional[CoreEntry]:
        """Load + validate one entry; any failure is a miss, never an
        exception — corruption is quarantined, I/O errors recorded."""
        if self.disk_dir is None:
            return None
        from repro.resilience import infra
        path = self._disk_path(key)
        try:
            infra.check_io("load", path)
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return None  # a plain miss, not an incident
        except OSError as exc:
            self._io_incident("load", path, exc)
            return None
        try:
            return decode_entry(blob, path)
        except CacheIntegrityError as exc:
            self._quarantine(path, exc.reason or "invalid", exc.message)
            return None

    def _disk_store(self, key: str, entry: CoreEntry) -> None:
        if self.disk_dir is None:
            return
        from repro.resilience import infra
        from repro.resilience import integrity
        path = self._disk_path(key)
        try:
            payload = pickle.dumps(entry,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, TypeError) as exc:
            self._io_incident("store", path, exc)
            return
        try:
            infra.check_io("store", path)
            integrity.write_atomic(path, integrity.frame(payload))
        except OSError as exc:
            self._io_incident("store", path, exc)

    def _evicted(self, key: str) -> None:
        self.stats.evictions += 1
        self._artifact_keys.discard(key)

    # -- artifact layer ----------------------------------------------------

    def adopt_artifact(self, entries: Mapping[str, CoreEntry]) -> int:
        """Seed AOT-artifact entries, statistics-untouched.

        First-writer-wins — an entry this process already translated
        is authoritative over the artifact's copy (they are
        byte-identical by construction, but the live one has already
        been handed out).  Returns the number adopted.
        """
        adopted = 0
        for key, entry in entries.items():
            if key not in self._entries:
                self._entries.insert(key, entry)
                self._artifact_keys.add(key)
                adopted += 1
        obs.set_gauge("aot.artifact_entries", len(self._artifact_keys))
        return adopted

    def persist(self, key: str) -> None:
        """Write *key*'s memory entry to the disk layer unless its file
        exists (``aot build`` ships warm entries this way)."""
        entry = self._entries.peek(key)
        if entry is not None and self.disk_dir is not None and \
                not os.path.exists(self._disk_path(key)):
            self._disk_store(key, entry)

    # -- lookup/insert -----------------------------------------------------

    def get(self, key: str, count_miss: bool = True
            ) -> Optional[CoreEntry]:
        """Counted lookup, memory then disk; with ``count_miss=False`` the
        caller classifies a miss via :meth:`count_lookup`."""
        entry = self._entries.lookup(key)
        if entry is not None:
            self.count_lookup(hit=True)
            if key in self._artifact_keys:
                obs.inc("aot.artifact_hits")
            return entry
        entry = self._disk_load(key)
        if entry is not None:
            self._entries.insert(key, entry)
            self.count_lookup(hit=True)
            self.stats.disk_hits += 1
            obs.inc("transcache.disk_hits")
            return entry
        if count_miss:
            self.count_lookup(hit=False)
        return None

    def count_lookup(self, hit: bool) -> None:
        """Record one lookup outcome in ``stats`` and the obs counters
        alike, so the two ledgers never disagree."""
        if hit:
            self.stats.hits += 1
            obs.inc("transcache.hits")
        else:
            self.stats.misses += 1
            obs.inc("transcache.misses")

    def peek(self, key: str) -> Optional[CoreEntry]:
        """Lookup that leaves the hit/miss statistics untouched.

        Used for secondary probes (the max-II canonical alias), where
        the primary key already recorded the access; disk entries are
        still promoted into memory.
        """
        entry = self._entries.peek(key)
        if entry is None:
            entry = self._disk_load(key)
            if entry is not None:
                self._entries.insert(key, entry)
        return entry

    def put(self, key: str, entry: CoreEntry) -> None:
        self._entries.insert(key, entry)
        self.stats.stores += 1
        obs.inc("transcache.stores")
        self._disk_store(key, entry)

    def invalidate(self, key: str) -> bool:
        """Deoptimisation support: drop one translation everywhere."""
        found = self._entries.invalidate(key)
        self._artifact_keys.discard(key)
        if self.disk_dir is not None:
            try:
                os.unlink(self._disk_path(key))
                found = True
            except OSError:
                pass
        if found:
            self.stats.invalidations += 1
            obs.inc("transcache.invalidations")
        return found

    def clear(self) -> None:
        """Drop the in-memory layer (disk files are left in place)."""
        self._entries.clear()
        self._artifact_keys.clear()
        self.stats = TransCacheStats()

    def __len__(self) -> int:
        return len(self._entries)
