"""The performance engine: switches, shared caches, parallelism.

Three layers make the experiment pipeline fast without changing any
result bit (see DESIGN.md, "Performance engineering"):

1. a compiled interpreter fast path (:mod:`repro.cpu.compiled`),
2. content-addressed memoisation of translation products and scalar
   timing (:mod:`repro.perf.transcache`, :mod:`repro.perf.digest`),
3. process-parallel experiment fan-out (:mod:`repro.perf.parallel`).

This module owns the global switches those layers consult: the engine
*level* (``REPRO_ENGINE``: ``0`` = reference interpreter only, ``1`` =
compiled per-op closures and caching, ``2`` = specialized kernels from
:mod:`repro.accelerator.jit`; ``engine_at(0)`` reverts every hot
path to the reference implementation), how many worker processes sweeps
may use (``--jobs`` / ``REPRO_JOBS``), and the process-wide cache
instances with their aggregate statistics.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Union

#: Highest engine tier (and the default): specialized kernels.
MAX_ENGINE_LEVEL = 2


def parse_engine_level(value: Union[str, bool, int, None]) -> int:
    """Normalise an engine switch to a level in [0, MAX_ENGINE_LEVEL].

    Accepts the historical boolean spellings (``"0"``/``"false"``/
    ``"off"`` disable everything; ``"true"``/``"on"`` mean the full
    engine) alongside the numeric tiers.  Raises ValueError on junk.
    """
    if value is None:
        return MAX_ENGINE_LEVEL
    if isinstance(value, bool):
        return MAX_ENGINE_LEVEL if value else 0
    if isinstance(value, int):
        return max(0, min(MAX_ENGINE_LEVEL, value))
    text = str(value).strip().lower()
    if text in ("", "true", "on"):
        return MAX_ENGINE_LEVEL
    if text in ("false", "off"):
        return 0
    return max(0, min(MAX_ENGINE_LEVEL, int(text)))


def _level_from_env() -> int:
    # Permissive on purpose (like REPRO_JOBS below): a malformed value
    # must not blow up `import repro`; Settings.from_env rejects loudly.
    try:
        return parse_engine_level(os.environ.get("REPRO_ENGINE"))
    except ValueError:
        return MAX_ENGINE_LEVEL


_engine_level = _level_from_env()


def _jobs_from_env() -> int:
    # Permissive on purpose: a malformed REPRO_JOBS must not blow up
    # `import repro`.  The loud, validated rejection happens in
    # repro.api.Settings.from_env, which every entry point runs.
    try:
        return int(os.environ.get("REPRO_JOBS", "1") or "1")
    except ValueError:
        return 1


_jobs = _jobs_from_env()

#: Set in worker processes so nested parallel_map calls stay serial.
IN_WORKER_ENV = "REPRO_IN_WORKER"


def engine_level() -> int:
    """The active engine tier (0 reference, 1 compiled, 2 specialized)."""
    return _engine_level


def set_engine_level(level: Union[int, bool]) -> None:
    global _engine_level
    _engine_level = parse_engine_level(level)


def engine_enabled() -> bool:
    """Whether the compiled/cached fast paths are active (level >= 1)."""
    return _engine_level >= 1


def set_engine_enabled(value: Union[bool, int]) -> None:
    """Back-compat boolean switch: False -> level 0, True -> full engine."""
    set_engine_level(value)


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


def get_jobs() -> int:
    """Worker processes experiment fan-out may use (1 = serial)."""
    if os.environ.get(IN_WORKER_ENV):
        return 1
    return max(1, _jobs)


def set_jobs(jobs: Optional[int]) -> None:
    global _jobs
    if jobs is not None:
        _jobs = max(1, int(jobs))


# -- process-wide caches ------------------------------------------------------

_translation_cache = None
#: (cpu digest, loop digest, kind, extra) -> float cycle counts from the
#: in-order pipeline model; keyed by content so every VirtualMachine
#: instance in the process (and every sweep point) shares one simulation.
cycles_cache: dict[tuple, float] = {}
#: suite digest -> (baseline runs, infinite-speedup map) for the
#: design-space sweeps' fraction-of-infinite normalisation.
baseline_cache: dict[str, tuple] = {}
#: Config-independent translation front-end products (DFG +
#: schedulability + partition, and CCA mapping results) keyed by loop
#: content — shared across every sweep point that translates the same
#: loop, with the meter charges replayed exactly.  Only consulted when
#: no translation budget/deadline is active (bulk charge replay would
#: move a mid-phase budget abort).
analysis_cache: dict[tuple, tuple] = {}


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
    cycles_cache.clear()
    baseline_cache.clear()
    analysis_cache.clear()
    from repro.accelerator import jit
    jit.clear_code_cache()
    from repro.workloads import suite
    suite._fission_cache.clear()
    suite._suite_cache.clear()


#: The translation-cache counters that worker processes report back to
#: the parent (see :func:`repro.perf.parallel.parallel_map`): cache
#: *entries* stay worker-local, but the aggregate hit/miss accounting
#: must describe the whole run, whatever the job count.
COUNTER_FIELDS = ("hits", "misses", "disk_hits", "stores",
                  "exact_fallbacks", "quarantined", "disk_errors")


def counter_snapshot() -> dict:
    """Current values of the mergeable translation-cache counters."""
    stats = translation_cache().stats
    return {name: getattr(stats, name) for name in COUNTER_FIELDS}


def counter_delta(before: dict) -> dict:
    """Counter increments since *before* (a :func:`counter_snapshot`)."""
    now = counter_snapshot()
    return {name: now[name] - before.get(name, 0)
            for name in COUNTER_FIELDS}


def merge_counters(delta: dict) -> None:
    """Fold a worker's counter increments into this process's stats."""
    stats = translation_cache().stats
    for name in COUNTER_FIELDS:
        setattr(stats, name, getattr(stats, name) + delta.get(name, 0))


def _specialized_stats() -> dict:
    from repro.accelerator import jit
    return jit.code_cache_stats()


def cache_stats() -> dict:
    """Aggregate cache statistics (stamped on every figure run record)."""
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
        },
        "cycles_entries": len(cycles_cache),
        "baseline_entries": len(baseline_cache),
        "analysis_entries": len(analysis_cache),
        "specialized": _specialized_stats(),
        #: kind -> count of resilience-layer recoveries this process
        #: took (quarantines, worker losses, serial fallbacks, ...).
        "incidents": incident_log().counts(),
    }
