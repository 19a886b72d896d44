"""Ahead-of-time translation artifacts (``python -m repro aot``).

The paper's Section 4 headline is that most of the translation cost
(CCA identification + priority computation, ~69 %) can be hoisted to
static compile time, turning the dynamic-vs-static tradeoff into a
deployment decision.  This module is that deployment artifact: a whole
workload suite translated *once*, at build time, into a single
versioned, content-addressed file that any later process — a CLI
figure run, a cold service worker, a freshly restarted cluster shard —
loads into its translation cache instead of paying cold translation.

The file format reuses the disk cache's integrity framing
(:mod:`repro.resilience.integrity`): ``magic | format version |
payload length | sha256 | payload``, written atomically
(mkstemp + fsync + ``os.replace``).  The payload is a pickled bundle
carrying

* the :data:`~repro.perf.digest.DIGEST_VERSION` that keyed its
  entries — digests bake the version into the *pre-hash* (filenames
  and keys do not reveal it), so the explicit stamp is the only way a
  reader can tell an artifact built under an older digest scheme from
  a current one; and
* ``{transcache digest -> CoreEntry}`` — exactly what the disk cache
  stores per entry, batched.

Trust model: artifacts are *untrusted input* like any cache file.  A
truncated, bit-flipped, wrong-magic, checksum-failing, unpicklable or
digest-stale artifact is **quarantined** (moved aside with an incident
record) and the run transparently falls back to dynamic translation —
results stay byte-identical either way.  The one loud failure is an
artifact the user named that does not exist
(:class:`~repro.errors.ArtifactError`), mirroring the
``REPRO_CACHE_DIR`` contract.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro import obs
from repro.errors import ArtifactError, CacheIntegrityError

#: Bumped when the *bundle* layout changes (the outer frame version is
#: :data:`repro.resilience.integrity.FORMAT_VERSION`, shared with the
#: disk cache).
BUNDLE_VERSION = 1

#: Environment override every entry point honours (Settings.from_env):
#: load this artifact into the process translation cache at startup.
ARTIFACT_ENV = "REPRO_ARTIFACT"

DEFAULT_ARTIFACT = os.path.join("benchmarks", "results", "suite.rvaf")


@dataclass
class Artifact:
    """A loaded (validated) artifact: manifest facts + entries."""

    path: str
    digest_version: str
    #: sha256 hex of the framed payload — the artifact's content
    #: address, straight from the integrity header.
    content_sha256: str
    entries: dict = field(default_factory=dict)
    #: loop name -> entry count, for ``aot inspect``.
    loops: dict = field(default_factory=dict)

    @property
    def entry_count(self) -> int:
        return len(self.entries)


@dataclass
class BuildReport:
    """What one ``aot build`` produced."""

    path: str
    entries: int
    loops: int
    corpus: int
    content_sha256: str
    #: Core translation runs the build itself paid (== entries on a
    #: cold cache; fewer when the process cache was already warm).
    core_runs: int


def default_corpus() -> list[tuple]:
    """The workload suite an artifact precompiles by default.

    The service translate corpus: suite kernels crossed with the
    demand-clamped accelerator variants.  The serve smoke drives the
    same corpus, so an artifact built from it makes a cold
    ``serve --artifact`` boot answer every translate with **zero**
    ``translator.core_runs`` — the aot-smoke CI gate.
    """
    from repro.service.loadgen import request_corpus
    return request_corpus()


# -- building -----------------------------------------------------------------

def build_artifact(path: str, corpus: Optional[list] = None,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> BuildReport:
    """Translate *corpus* and write the artifact bundle to *path*.

    Translations run through the normal pipeline against the process
    cache (warm entries are reused, not re-run); the bundle then
    snapshots the entry for every corpus digest *plus* any alias
    entries the pipeline stored alongside (the max-II canonical keys),
    so serving the same corpus later needs no translation at all.
    """
    import hashlib

    from repro import perf
    from repro.perf.digest import DIGEST_VERSION
    from repro.resilience import integrity
    from repro.vm.translator import translate_loop, translation_key

    say = progress or (lambda _msg: None)
    if corpus is None:
        corpus = default_corpus()
    cache = perf.translation_cache()
    before_keys = set(cache._entries)
    before = obs.metrics_snapshot()
    entries: dict = {}
    loops: dict[str, int] = {}
    for index, (loop, config, options) in enumerate(corpus):
        key = translation_key(loop, config, options)
        if key in entries:
            continue
        translate_loop(loop, config, options)
        entry = cache.peek(key)
        if entry is None:
            continue  # unkeyable outcome: nothing cacheable to ship
        entries[key] = entry
        loops[loop.name] = loops.get(loop.name, 0) + 1
        say(f"aot: [{index + 1}/{len(corpus)}] {loop.name}")
    # Alias entries (e.g. the canonical max-II key) ride along so a
    # served lookup path never degrades to a re-translation.
    for key in set(cache._entries) - before_keys:
        entries.setdefault(key, cache._entries[key])
    payload = pickle.dumps(
        {"bundle_version": BUNDLE_VERSION,
         "digest_version": DIGEST_VERSION,
         "entries": entries, "loops": loops},
        protocol=pickle.HIGHEST_PROTOCOL)
    directory = os.path.dirname(path)
    if directory:
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ArtifactError(
                f"artifact directory {directory!r} cannot be created: "
                f"{exc}", path=path) from exc
    try:
        integrity.write_atomic(path, integrity.frame(payload))
    except OSError as exc:
        raise ArtifactError(
            f"artifact {path!r} cannot be written: {exc}",
            path=path) from exc
    delta = obs.metrics_delta(before)["counters"]
    report = BuildReport(
        path=path, entries=len(entries), loops=len(loops),
        corpus=len(corpus),
        content_sha256=hashlib.sha256(payload).hexdigest(),
        core_runs=delta.get("translator.core_runs", 0))
    obs.inc("aot.builds")
    return report


# -- loading ------------------------------------------------------------------

def _quarantine(path: str, reason: str, detail: str) -> None:
    from repro.resilience import integrity
    from repro.resilience.incidents import record_incident
    moved = integrity.quarantine(path, reason)
    obs.inc("aot.quarantined")
    record_incident(
        "cache-corruption", "aot",
        f"quarantined AOT artifact ({reason}): {detail}; falling back "
        f"to dynamic translation", path=path, reason=reason,
        quarantined_to=moved)


def load_artifact(path: str) -> Optional[Artifact]:
    """Load and validate one artifact file.

    Returns ``None`` when the artifact cannot be trusted — corrupt,
    unpicklable, or stamped with a different ``DIGEST_VERSION`` — after
    quarantining it with an incident record: the caller simply
    proceeds without AOT entries and dynamic translation rebuilds
    everything byte-identically.  A *missing* file is the one loud
    failure (:class:`~repro.errors.ArtifactError`): the artifact was
    configured by name, so a typo must not silently disable AOT.
    """
    import hashlib

    from repro.perf.digest import DIGEST_VERSION
    from repro.perf.transcache import CoreEntry
    from repro.resilience import integrity
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise ArtifactError(
            f"AOT artifact {path!r} does not exist (build one with "
            f"'python -m repro aot build')", path=path) from None
    except OSError as exc:
        raise ArtifactError(
            f"AOT artifact {path!r} cannot be read: {exc}",
            path=path) from exc
    try:
        payload = integrity.unframe(blob, path=path)
    except CacheIntegrityError as exc:
        _quarantine(path, exc.reason or "invalid", exc.message)
        return None
    try:
        bundle = pickle.loads(payload)
    except (pickle.PickleError, EOFError, AttributeError, ImportError,
            IndexError, TypeError, ValueError) as exc:
        _quarantine(path, "unpickle", f"{type(exc).__name__}: {exc}")
        return None
    if (not isinstance(bundle, dict)
            or not isinstance(bundle.get("entries"), dict)):
        _quarantine(path, "wrong-type",
                    f"bundle is {type(bundle).__name__}")
        return None
    if bundle.get("bundle_version") != BUNDLE_VERSION:
        _quarantine(path, "bundle-version",
                    f"bundle version {bundle.get('bundle_version')!r} "
                    f"!= {BUNDLE_VERSION}")
        return None
    stamped = bundle.get("digest_version")
    if stamped != DIGEST_VERSION:
        # The stale-artifact case the digest scheme hides: keys bake
        # the version into the pre-hash, so only this stamp reveals
        # that every entry in the bundle is unreachable dead weight
        # (or worse, a hash collision waiting to be trusted).
        _quarantine(path, "digest-stale",
                    f"artifact digest version {stamped!r} != "
                    f"{DIGEST_VERSION!r}")
        return None
    entries = {}
    for key, entry in bundle["entries"].items():
        if not isinstance(key, str) or not isinstance(entry, CoreEntry):
            _quarantine(path, "wrong-type",
                        f"entry {key!r} is "
                        f"{type(entry).__name__}")
            return None
        entries[key] = entry
    obs.inc("aot.artifact_loads")
    return Artifact(
        path=path, digest_version=stamped,
        content_sha256=hashlib.sha256(payload).hexdigest(),
        entries=entries, loops=dict(bundle.get("loops") or {}))


def install(path: str) -> int:
    """Load *path* and seed the process translation cache.

    Returns the number of entries adopted (0 when the artifact was
    quarantined — the transparent-fallback path).  Adoption is
    stats-neutral first-writer-wins, so figures stay byte-identical
    through the artifact path.
    """
    from repro import perf
    artifact = load_artifact(path)
    if artifact is None:
        return 0
    adopted = perf.translation_cache().adopt_artifact(artifact.entries)
    obs.inc("aot.entries_adopted", adopted)
    return adopted


def install_from_env(environ: Optional[Mapping[str, str]] = None) -> int:
    """Honour ``REPRO_ARTIFACT`` if set; returns entries adopted."""
    env = os.environ if environ is None else environ
    path = env.get(ARTIFACT_ENV)
    if not path:
        return 0
    return install(path)


# -- inspection ----------------------------------------------------------------

def format_artifact(artifact: Artifact) -> str:
    lines = [
        f"artifact {artifact.path}",
        f"  digest version {artifact.digest_version}  "
        f"sha256 {artifact.content_sha256[:16]}…",
        f"  {artifact.entry_count} entries across "
        f"{len(artifact.loops)} loops",
    ]
    for name in sorted(artifact.loops):
        lines.append(f"    {name:20s} {artifact.loops[name]} "
                     f"translation(s)")
    return "\n".join(lines)


def format_build(report: BuildReport) -> str:
    return (
        f"artifact written to {report.path}\n"
        f"  {report.entries} entries ({report.loops} loops) from a "
        f"{report.corpus}-item corpus\n"
        f"  {report.core_runs} core translation runs paid at build "
        f"time\n"
        f"  sha256 {report.content_sha256[:16]}…")
