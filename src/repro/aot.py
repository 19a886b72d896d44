"""Ahead-of-time translation artifacts (``python -m repro aot``).

Section 4 of the paper moves most translation cost to static compile
time.  An artifact is a workload suite translated once at build time,
as a translation-cache directory: ``aot build`` attaches it as the
disk layer of :mod:`repro.perf.transcache`, so every entry (alias keys
included) lands by write-through as its own framed file next to the
``digest.version`` stamp.  A later process adopts it instead of paying
cold translation.  Entry files are untrusted input, read by the disk
layer's own loader: a corrupt one is quarantined on its own, a missing
or stale stamp adopts nothing, and the run falls back to dynamic
translation with byte-identical results.  Serving never writes into
the artifact.  A named path that does not exist is the one loud
failure (:class:`~repro.errors.ArtifactError`).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.errors import ArtifactError, CacheConfigError, CacheIntegrityError

DEFAULT_ARTIFACT = os.path.join("benchmarks", "results", "aot")


@dataclass
class Artifact:
    """A loaded artifact: manifest facts + the entries it adopts."""

    path: str
    digest_version: str
    #: sha256 over the sorted (file name, bytes) pairs of the entries.
    content_sha256: str
    entries: dict = field(default_factory=dict)
    #: loop name -> entry count.
    loops: dict = field(default_factory=dict)


@dataclass
class BuildReport:
    """What one ``aot build`` produced."""

    path: str
    entries: int
    loops: int
    corpus: int
    content_sha256: str
    #: Core translation runs the build paid (none for warm entries).
    core_runs: int


def build_artifact(path: str, corpus: Optional[list] = None,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> BuildReport:
    """Translate *corpus* (default: the service request corpus, which
    the serve smoke drives) into the artifact directory *path*.

    Cold translations reach *path* by write-through; entries this
    process had already translated are written out without a re-run.
    """
    from repro import perf
    from repro.vm.translator import translate_loop, translation_keys
    if corpus is None:
        from repro.service.loadgen import request_corpus
        corpus = request_corpus()
    cache = perf.translation_cache()
    previous = cache.disk_dir
    try:
        cache.attach_disk(path, strict=True)
    except CacheConfigError as exc:
        raise ArtifactError(str(exc), path=path) from exc
    before = obs.metrics_snapshot()
    try:
        for index, (loop, config, options) in enumerate(corpus):
            translate_loop(loop, config, options)
            for key in translation_keys(loop, config, options):
                cache.persist(key)
            if progress is not None:
                progress(f"aot: [{index + 1}/{len(corpus)}] {loop.name}")
    finally:
        cache.disk_dir = previous
    core_runs = obs.metrics_delta(before)["counters"].get(
        "translator.core_runs", 0)
    artifact = load_artifact(path)
    obs.inc("aot.builds")
    return BuildReport(
        path=path, entries=len(artifact.entries), loops=len(artifact.loops),
        corpus=len(corpus), content_sha256=artifact.content_sha256,
        core_runs=core_runs)


def _reject(path: str, reason: str, detail: str, move: bool) -> None:
    """Incident for an untrusted entry file (*move*: quarantine it) or
    a refused directory."""
    from repro.resilience import integrity
    from repro.resilience.incidents import record_incident
    moved = integrity.quarantine(path, reason) if move else None
    obs.inc("aot.quarantined")
    record_incident(
        "cache-corruption", "aot",
        f"rejected AOT artifact {'entry' if move else 'directory'} "
        f"({reason}): {detail}; falling back to dynamic translation",
        path=path, reason=reason, quarantined_to=moved)


def load_artifact(path: str) -> Optional[Artifact]:
    """Load and validate one artifact directory; ``None`` when its
    stamp is missing or stale.  Each invalid entry file is quarantined
    and left out."""
    from repro.perf.digest import DIGEST_VERSION
    from repro.perf.transcache import ENTRY_SUFFIX, decode_entry, read_stamp
    if not os.path.isdir(path):
        raise ArtifactError(f"AOT artifact directory {path!r} does not "
                            f"exist (build one with 'python -m repro aot "
                            f"build')", path=path)
    stamped = read_stamp(path)
    if stamped != DIGEST_VERSION:
        _reject(path, "digest-stale", f"artifact digest version "
                f"{stamped!r} != {DIGEST_VERSION!r}", move=False)
        return None
    content = hashlib.sha256()
    entries: dict = {}
    loops: dict[str, int] = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(ENTRY_SUFFIX):
            continue  # the stamp, quarantine/, .tmp orphans
        full = os.path.join(path, name)
        try:
            with open(full, "rb") as handle:
                blob = handle.read()
            entry = decode_entry(blob, full)
        except OSError as exc:
            _reject(full, "unreadable", str(exc), move=False)
            continue
        except CacheIntegrityError as exc:
            _reject(full, exc.reason or "invalid", exc.message, move=True)
            continue
        entries[name[:-len(ENTRY_SUFFIX)]] = entry
        loops[entry.loop_name] = loops.get(entry.loop_name, 0) + 1
        content.update(b"%s\0%d\0" % (name.encode(), len(blob)) + blob)
    obs.inc("aot.artifact_loads")
    return Artifact(path, stamped, content.hexdigest(), entries, loops)


def install(path: str) -> int:
    """Load *path* into the process translation cache; returns the
    entries adopted (stats-neutral, first-writer-wins)."""
    from repro import perf
    artifact = load_artifact(path)
    if artifact is None:
        return 0
    adopted = perf.translation_cache().adopt_artifact(artifact.entries)
    obs.inc("aot.entries_adopted", adopted)
    return adopted


def format_artifact(artifact: Artifact) -> str:
    lines = [f"artifact {artifact.path}",
             f"  digest version {artifact.digest_version}  "
             f"sha256 {artifact.content_sha256[:16]}…",
             f"  {len(artifact.entries)} entries across "
             f"{len(artifact.loops)} loops"]
    lines += [f"    {name:20s} {count} entries"
              for name, count in sorted(artifact.loops.items())]
    return "\n".join(lines)


def format_build(report: BuildReport) -> str:
    return (f"artifact written to {report.path}\n"
            f"  {report.entries} entries ({report.loops} loops) from a "
            f"{report.corpus}-item corpus\n"
            f"  {report.core_runs} core translation runs paid at build "
            f"time\n"
            f"  sha256 {report.content_sha256[:16]}…")
