"""The performance engine: switches and shared caches.

Two layers make the experiment pipeline fast without changing any
result bit (see DESIGN.md, "Performance engineering"):

1. content-addressed memoisation of translation products and scalar
   timing (:mod:`repro.perf.transcache`, :mod:`repro.perf.digest`),
2. specialized whole-array kernels (:mod:`repro.accelerator.jit`).

Every figure pass runs in one process, so one set of caches serves
every sweep point.  This module owns the global switch those layers
consult — the engine *level* (``REPRO_ENGINE``: ``0`` = reference
paths only, ``1`` = translation cache and memos, ``2`` = plus the
specialized kernels; ``engine_at(0)`` reverts every hot path to the
reference implementation) — and the process-wide cache instances with their
aggregate statistics.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.perf.codecache import CodeCache

#: Highest engine tier (and the default): specialized kernels.
MAX_ENGINE_LEVEL = 2


def parse_engine_level(value: Union[str, bool, int, None]) -> int:
    """Normalise an engine switch to a level in [0, MAX_ENGINE_LEVEL].

    Accepts the historical boolean spellings (``"0"``/``"false"``/
    ``"off"`` disable everything; ``"true"``/``"on"`` mean the full
    engine) alongside the numeric tiers.  Raises ValueError on junk,
    including a level outside 0..MAX_ENGINE_LEVEL.
    """
    if value is None:
        return MAX_ENGINE_LEVEL
    if isinstance(value, bool):
        return MAX_ENGINE_LEVEL if value else 0
    if not isinstance(value, int):
        text = str(value).strip().lower()
        if text in ("", "true", "on"):
            return MAX_ENGINE_LEVEL
        if text in ("false", "off"):
            return 0
        value = int(text)
    if not 0 <= value <= MAX_ENGINE_LEVEL:
        raise ValueError(f"engine level {value} is outside "
                         f"0..{MAX_ENGINE_LEVEL}")
    return value


def _level_from_env() -> int:
    # Permissive on purpose: a malformed value must not blow up
    # `import repro`; Settings.from_env rejects it loudly.
    try:
        return parse_engine_level(os.environ.get("REPRO_ENGINE"))
    except ValueError:
        return MAX_ENGINE_LEVEL


_engine_level = _level_from_env()


def engine_level() -> int:
    """The active engine tier (0 reference, 1 cached, 2 specialized)."""
    return _engine_level


def set_engine_level(level: Union[int, bool]) -> None:
    global _engine_level
    _engine_level = parse_engine_level(level)


def engine_enabled() -> bool:
    """Whether the cached fast paths are active (level >= 1)."""
    return _engine_level >= 1


@contextmanager
def engine_at(level: int) -> Iterator[None]:
    """Run a block at a specific engine tier (bench pass isolation)."""
    global _engine_level
    previous = _engine_level
    _engine_level = parse_engine_level(level)
    try:
        yield
    finally:
        _engine_level = previous


# -- process-wide caches ------------------------------------------------------

_translation_cache = None
#: Entries :data:`cycles_cache` and :data:`analysis_cache` keep: all
#: figures from cold caches fill 487 and 676 of them.
CYCLES_CACHE_ENTRIES = 1024
ANALYSIS_CACHE_ENTRIES = 1024
#: (cpu digest, loop digest, kind, extra) -> float cycle counts from the
#: in-order pipeline model; keyed by content so every VirtualMachine
#: instance in the process (and every sweep point) shares one simulation.
cycles_cache: CodeCache[tuple, float] = CodeCache(
    CYCLES_CACHE_ENTRIES, "perf.cycles_cache.evictions")
#: suite digest -> (baseline runs, infinite-speedup map) for the
#: design-space sweeps' fraction-of-infinite normalisation.
baseline_cache: dict[str, tuple] = {}
#: Content key -> one memo dict per DFG, filled through
#: :func:`repro.ir.work.memoised`: the front end's ``"identify"`` and
#: ``"partition"`` steps (loop, latency model, speculation), or a CCA
#: mapping's ``"cca"`` and ``"partition"`` steps (plus the CCA shape and
#: static-mapping mode), each beside that DFG's RecMII, priority orders
#: and register analyses.  Shared across every sweep point that
#: translates the same loop, and only consulted when no translation
#: budget/deadline is active (a bulk charge would move a mid-phase
#: abort).  ``cache_stats()["analysis_entries"]`` counts the dicts.
analysis_cache: CodeCache[str, dict] = CodeCache(
    ANALYSIS_CACHE_ENTRIES, "perf.analysis_cache.evictions")


def translation_cache():
    """The process-wide content-addressed translation cache."""
    global _translation_cache
    if _translation_cache is None:
        from repro.perf.transcache import TranslationCache
        _translation_cache = TranslationCache()
    return _translation_cache


def enable_disk_cache(path: Optional[str] = None) -> str:
    """Attach the on-disk layer (default ``benchmarks/results/.cache``)."""
    cache = translation_cache()
    return cache.attach_disk(path)


def clear_caches() -> None:
    """Drop every memoised product (used between bench passes)."""
    translation_cache().clear()
    from repro.perf import digest
    digest._options_digests.clear()
    cycles_cache.clear()
    baseline_cache.clear()
    analysis_cache.clear()
    from repro.accelerator import jit
    jit.clear_code_cache()
    from repro.workloads import suite
    suite._fission_cache.clear()
    suite._suite_cache.clear()
    # A process that never loaded the service client has no reply memo.
    client = sys.modules.get("repro.service.client")
    if client is not None:
        client.REPLY_MEMO.clear()


#: The translation-cache counters :func:`counter_snapshot` reports;
#: :func:`counter_delta` gives one measured run's increments (the
#: ``loadgen`` service series uses it).
COUNTER_FIELDS = ("hits", "misses", "disk_hits", "stores",
                  "exact_fallbacks", "quarantined", "disk_errors")


def counter_snapshot() -> dict:
    """Current values of the translation-cache counters."""
    stats = translation_cache().stats
    return {name: getattr(stats, name) for name in COUNTER_FIELDS}


def counter_delta(before: dict) -> dict:
    """Counter increments since *before* (a :func:`counter_snapshot`)."""
    now = counter_snapshot()
    return {name: now[name] - before.get(name, 0)
            for name in COUNTER_FIELDS}


def cache_stats() -> dict:
    """Aggregate cache statistics (stamped on every figure run record)."""
    from repro.accelerator import jit
    from repro.resilience.incidents import incident_log
    t = translation_cache().stats
    return {
        "translation": {
            "hits": t.hits, "misses": t.misses,
            "disk_hits": t.disk_hits, "stores": t.stores,
            "exact_fallbacks": t.exact_fallbacks,
            "hit_rate": t.hit_rate,
            "quarantined": t.quarantined,
            "disk_errors": t.disk_errors,
            "evictions": t.evictions,
        },
        "cycles_entries": len(cycles_cache),
        "cycles_evictions": cycles_cache.stats.evictions,
        "baseline_entries": len(baseline_cache),
        "analysis_entries": len(analysis_cache),
        "analysis_evictions": analysis_cache.stats.evictions,
        "specialized": jit.code_cache_stats(),
        #: kind -> count of resilience-layer recoveries this process
        #: took (quarantines, I/O errors, ...).
        "incidents": incident_log().counts(),
    }
