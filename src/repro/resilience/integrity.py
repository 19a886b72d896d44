"""Crash-safe on-disk entry format: framing, checksums, quarantine.

A persistent code cache shared by concurrently crashing processes must
treat every byte it reads as hostile (cf. the Valgrind binary-cache
corruption reports): a write can be torn by a kill, a file can be
truncated by a full disk, a stale entry can outlive a format change.
Four mechanisms close those holes:

* **Framing** — every entry is ``MAGIC | version | payload-length |
  sha256(payload) | payload``.  :func:`unframe` re-derives the checksum
  and rejects anything short, long, stale or altered with a typed
  :class:`~repro.errors.CacheIntegrityError` naming the reason.
* **Atomic writes** — :func:`write_atomic` writes to a ``mkstemp`` temp
  file in the *same directory*, fsyncs, then ``os.replace``s onto the
  final name.  Readers see either the old entry or the new one, never a
  prefix; a crash mid-write leaves only a temp file that the next
  campaign sweep detects as an orphan.
* **Quarantine** — :func:`quarantine` moves a failed entry into a
  ``quarantine/`` subdirectory (name suffixed with the failure reason)
  instead of deleting it, so corruption is diagnosable after the fact
  while the lookup path degrades to a clean miss-and-rebuild.
* **One loader** — payloads are pickles and the checksum is unkeyed,
  so :func:`load_payload`, the one place untrusted bytes are unpickled
  (entry files and service frame bodies alike), resolves only
  :data:`VALUE_CLASSES` and the ``ReproError`` subclasses, refusing
  any other global before import.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import os
import pickle
import struct
import tempfile
from typing import Any, Optional

from repro.errors import ERROR_CLASSES, CacheIntegrityError

#: Bumped whenever the pickled payload layout changes; readers
#: quarantine any entry written under a different version.
FORMAT_VERSION = 1

MAGIC = b"RVTC"
_HEADER = struct.Struct("<4sIQ32s")  # magic, version, length, sha256
HEADER_SIZE = _HEADER.size

QUARANTINE_DIRNAME = "quarantine"
TMP_SUFFIX = ".tmp"


def frame(payload: bytes, version: int = FORMAT_VERSION) -> bytes:
    """Wrap *payload* in the integrity header."""
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(MAGIC, version, len(payload), digest) + payload


def unframe(blob: bytes, path: Optional[str] = None,
            version: int = FORMAT_VERSION) -> bytes:
    """Validate and strip the header; raises :class:`CacheIntegrityError`.

    The checks run cheapest-first so a torn header fails before the
    checksum is computed.
    """
    def bad(reason: str, detail: str) -> CacheIntegrityError:
        return CacheIntegrityError(
            f"cache entry {path or '<bytes>'}: {detail}",
            path=path, reason=reason)

    if len(blob) < HEADER_SIZE:
        raise bad("truncated",
                  f"only {len(blob)} bytes, header needs {HEADER_SIZE}")
    magic, found_version, length, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise bad("bad-magic", f"magic {magic!r} != {MAGIC!r}")
    if found_version != version:
        raise bad("version-mismatch",
                  f"format version {found_version} != {version}")
    payload = blob[HEADER_SIZE:]
    if len(payload) != length:
        raise bad("truncated",
                  f"payload {len(payload)} bytes, header promised {length}")
    if hashlib.sha256(payload).digest() != digest:
        raise bad("checksum-mismatch", "sha256 mismatch")
    return payload


def write_atomic(path: str, data: bytes, fsync: bool = True) -> None:
    """Write *data* to *path* so readers never observe a partial file.

    The temp file lives in the destination directory (``os.replace``
    must not cross filesystems) with a unique ``mkstemp`` name, so any
    number of processes can race on the same key: last replace wins,
    and every intermediate state is a complete, valid entry.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=TMP_SUFFIX)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def quarantine_dir(directory: str) -> str:
    return os.path.join(directory, QUARANTINE_DIRNAME)


def quarantine(path: str, reason: str) -> Optional[str]:
    """Move a failed entry aside; returns its new path (None if gone).

    ``os.replace`` keeps the move atomic, so two processes tripping
    over the same corrupt entry race benignly: one wins the move, the
    other finds the file gone and treats that as already-quarantined.
    """
    directory = os.path.dirname(path) or "."
    qdir = quarantine_dir(directory)
    target = os.path.join(
        qdir, f"{os.path.basename(path)}.{reason}")
    try:
        os.makedirs(qdir, exist_ok=True)
        os.replace(path, target)
    except FileNotFoundError:
        return None
    except OSError:
        # Can't move it (read-only dir?): delete as a last resort so
        # the poisoned bytes are never re-read.
        try:
            os.unlink(path)
        except OSError:
            pass
        return None
    return target


def orphaned_temp_files(directory: str) -> list[str]:
    """Leftover ``.tmp`` files under *directory* (crash evidence).

    The chaos campaign's zero-orphans assertion scans with this; the
    quarantine subdirectory is excluded (quarantined entries are
    intentional).
    """
    orphans: list[str] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        if name == QUARANTINE_DIRNAME:
            continue
        full = os.path.join(directory, name)
        if name.endswith(TMP_SUFFIX) and os.path.isfile(full):
            orphans.append(full)
    return sorted(orphans)


# -- the one loader for untrusted pickles ------------------------------------

#: ``(module, name)`` of every class a translate/run_loop body, its
#: reply or a ``CoreEntry`` file may name (and the builtin containers
#: older pickle protocols name).  List only plain values: building one
#: must run no code with effects.  ``tests/test_loader_property.py``
#: fails if a legitimate payload names a class missing here.
VALUE_CLASSES = frozenset((module, name) for module, names in {
    "builtins": ("bytearray", "complex", "frozenset", "set"),
    "repro.accelerator.config": ("LAConfig",),
    "repro.accelerator.machine": ("KernelImage",),
    "repro.analysis.linexpr": ("LinExpr",),
    "repro.analysis.partition": ("LoopPartition",),
    "repro.analysis.streams": ("StreamAnalysis", "StreamPattern"),
    "repro.cca.model": ("CCAConfig",),
    "repro.ir.dfg": ("DataflowGraph", "Edge"),
    "repro.ir.loop": ("ArrayDecl", "Loop"),
    "repro.ir.opcodes": ("LatencyModel", "Opcode"),
    "repro.ir.ops": ("Imm", "Operation", "Reg"),
    "repro.perf.transcache": ("CoreEntry", "MeterSnapshot"),
    "repro.scheduler.mii": ("MIIResult",),
    "repro.scheduler.regalloc": ("RegisterAssignment",),
    "repro.scheduler.rotation": ("LiveRange", "PhysicalAssignment"),
    "repro.scheduler.schedule": ("ModuloSchedule",),
    "repro.scheduler.sms": ("ScheduleFailure",),
    "repro.vm.costmodel": ("TranslationMeter",),
    "repro.vm.runtime": ("LoopOutcome",),
    "repro.vm.translator": ("TranslationOptions", "TranslationResult"),
}.items() for name in names)

#: Allowed ``(module, name)`` -> its class: errors up front, each
#: value class imported on first use.
_resolved: dict[tuple[str, str], type] = {
    (cls.__module__, cls.__qualname__): cls
    for cls in ERROR_CLASSES.values()}


class RefusedPayload(ValueError):
    """:func:`load_payload` refused the bytes; ``reason`` is
    ``forbidden-global`` or ``unpickle`` (any other load failure)."""

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class _ValueUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        cls = _resolved.get((module, name))
        if cls is None:
            if (module, name) not in VALUE_CLASSES:
                raise RefusedPayload(f"payload references forbidden "
                                     f"global {module}.{name}",
                                     "forbidden-global")
            cls = _resolved[module, name] = getattr(
                importlib.import_module(module), name)
        return cls


def load_payload(payload: bytes) -> Any:
    """Unpickle untrusted *payload*, resolving only allowed classes;
    every failure is a :class:`RefusedPayload`."""
    try:
        return _ValueUnpickler(io.BytesIO(payload)).load()
    except RefusedPayload:
        raise
    except Exception as exc:  # noqa: BLE001 — any failure is a refusal
        raise RefusedPayload(f"{type(exc).__name__}: {exc}",
                             "unpickle") from None
