"""Crash-safety of the on-disk translation cache.

Covers the tentpole's first pillar: the framed entry format (magic,
version, checksum), atomic writes, quarantine-instead-of-crash on
every corruption shape a torn write or stale format can produce, the
``REPRO_CACHE_DIR`` override with strict validation, and the incident
records each recovery emits.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro import perf
from repro.errors import CacheConfigError, CacheIntegrityError
from repro.resilience import infra
from repro.perf.transcache import (
    CACHE_DIR_ENV,
    CoreEntry,
    TranslationCache,
    default_disk_dir,
)
from repro.resilience import integrity
from repro.resilience.incidents import incident_log, read_jsonl
from repro.vm.translator import translate_loop
from repro.workloads.suite import media_fp_benchmarks
from repro.accelerator.config import PROPOSED_LA


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    monkeypatch.delenv(infra.CHAOS_SPEC_ENV, raising=False)
    perf.clear_caches()
    perf.translation_cache().detach_disk()
    incident_log().clear()
    yield
    perf.clear_caches()
    perf.translation_cache().detach_disk()
    incident_log().clear()
    incident_log().configure_sink(None)


def _suite_loop():
    return media_fp_benchmarks()[0].kernels[0]


def _entry(name="loop"):
    return CoreEntry(loop_name=name)


# -- framing ------------------------------------------------------------------

def test_frame_round_trips():
    payload = b"x" * 257
    assert integrity.unframe(integrity.frame(payload)) == payload


@pytest.mark.parametrize("mangle,reason", [
    (lambda b: b[: len(b) // 2], "truncated"),
    (lambda b: b[: integrity.HEADER_SIZE - 4], "truncated"),
    (lambda b: b"", "truncated"),
    (lambda b: b"XXXX" + b[4:], "bad-magic"),
    (lambda b: b[:integrity.HEADER_SIZE]
        + bytes([b[integrity.HEADER_SIZE] ^ 0xFF])
        + b[integrity.HEADER_SIZE + 1:], "checksum-mismatch"),
    (lambda b: b + b"trailing-garbage", "truncated"),
])
def test_unframe_rejects_every_corruption_shape(mangle, reason):
    blob = integrity.frame(b"payload bytes here")
    with pytest.raises(CacheIntegrityError) as info:
        integrity.unframe(mangle(blob))
    assert info.value.reason == reason
    assert info.value.kind == "cache-corruption"


def test_unframe_rejects_version_mismatch():
    blob = integrity.frame(b"payload", version=integrity.FORMAT_VERSION + 1)
    with pytest.raises(CacheIntegrityError) as info:
        integrity.unframe(blob)
    assert info.value.reason == "version-mismatch"


# -- quarantine-instead-of-crash ----------------------------------------------

def _store_one(cache, key="k"):
    cache.put(key, _entry())
    path = os.path.join(cache.disk_dir, f"{key}.pkl")
    assert os.path.exists(path)
    return path


@pytest.mark.parametrize("mode", infra.CORRUPTION_MODES)
def test_corrupted_entry_quarantines_and_misses(tmp_path, mode):
    """Loading any hand-corrupted entry must quarantine + miss — never
    raise, never return wrong data."""
    cache = TranslationCache(disk_dir=str(tmp_path))
    path = _store_one(cache)
    infra.corrupt_entry(path, mode)
    cache.clear()  # drop the memory layer; the disk copy is poison
    assert cache.get("k") is None  # a miss, not an exception
    assert not os.path.exists(path)  # moved aside, not left to re-read
    qdir = integrity.quarantine_dir(str(tmp_path))
    assert os.listdir(qdir), "corrupt entry must be preserved aside"
    assert cache.stats.quarantined == 1
    kinds = [i.kind for i in incident_log().incidents]
    assert "cache-corruption" in kinds


def test_partially_written_entry_is_a_quarantined_miss(tmp_path):
    """A torn write (simulated: half the framed bytes) must never be
    trusted."""
    cache = TranslationCache(disk_dir=str(tmp_path))
    path = _store_one(cache)
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 3])
    cache.clear()
    assert cache.get("k") is None
    assert cache.stats.quarantined == 1


def test_stale_format_version_is_a_quarantined_miss(tmp_path):
    cache = TranslationCache(disk_dir=str(tmp_path))
    path = _store_one(cache)
    payload = integrity.unframe(open(path, "rb").read())
    with open(path, "wb") as handle:
        handle.write(integrity.frame(payload,
                                     version=integrity.FORMAT_VERSION + 7))
    cache.clear()
    assert cache.get("k") is None
    incident = incident_log().incidents[-1]
    assert incident.kind == "cache-corruption"
    assert incident.details["reason"] == "version-mismatch"


def test_valid_frame_with_garbage_payload_quarantines(tmp_path):
    """Checksum-valid bytes that do not unpickle (stale code revision
    under the same format version) are stale, not torn — quarantined
    all the same."""
    cache = TranslationCache(disk_dir=str(tmp_path))
    path = _store_one(cache)
    with open(path, "wb") as handle:
        handle.write(integrity.frame(b"not a pickle at all"))
    cache.clear()
    assert cache.get("k") is None
    assert incident_log().incidents[-1].details["reason"] == "unpickle"


def test_wrong_type_payload_quarantines(tmp_path):
    cache = TranslationCache(disk_dir=str(tmp_path))
    path = _store_one(cache)
    with open(path, "wb") as handle:
        handle.write(integrity.frame(pickle.dumps({"not": "a CoreEntry"})))
    cache.clear()
    assert cache.get("k") is None
    assert incident_log().incidents[-1].details["reason"] == "wrong-type"


def test_corruption_never_crashes_a_real_translation(tmp_path):
    """End-to-end: corrupt the real entry behind translate_loop; the
    next lookup quarantines and transparently rebuilds."""
    cache = perf.translation_cache()
    cache.attach_disk(str(tmp_path))
    loop = _suite_loop()
    warm = translate_loop(loop, PROPOSED_LA)
    files = [f for f in os.listdir(tmp_path) if f.endswith(".pkl")]
    assert files
    for name in files:
        infra.corrupt_entry(os.path.join(tmp_path, name),
                            infra.InfraFaultMode.CACHE_TRUNCATE)
    cache.clear()
    cache.attach_disk(str(tmp_path))
    rebuilt = translate_loop(loop, PROPOSED_LA)  # must not raise
    assert rebuilt.ok == warm.ok
    assert rebuilt.meter.units == warm.meter.units
    assert cache.stats.quarantined >= 1
    # The rebuild re-stored a valid entry over the quarantined key.
    cache.clear()
    cache.attach_disk(str(tmp_path))
    assert translate_loop(loop, PROPOSED_LA).ok == warm.ok
    assert cache.stats.quarantined == 0


# -- atomic writes ------------------------------------------------------------

def test_store_leaves_no_temp_files(tmp_path):
    cache = TranslationCache(disk_dir=str(tmp_path))
    for i in range(8):
        cache.put(f"k{i}", _entry())
    assert integrity.orphaned_temp_files(str(tmp_path)) == []


def test_write_atomic_cleans_up_on_failure(tmp_path, monkeypatch):
    target = str(tmp_path / "entry.pkl")

    class Boom(OSError):
        pass

    def exploding_replace(src, dst):
        raise Boom("disk full")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(Boom):
        integrity.write_atomic(target, b"data")
    monkeypatch.undo()
    assert not os.path.exists(target)
    assert integrity.orphaned_temp_files(str(tmp_path)) == []


# -- injected I/O errors ------------------------------------------------------

def test_injected_io_errors_degrade_with_incidents(tmp_path, monkeypatch):
    cache = TranslationCache(disk_dir=str(tmp_path))
    state = tmp_path / "state"
    infra.arm([
        infra.InfraFaultSpec(mode=infra.InfraFaultMode.IO_ERROR,
                             token="t-store", io_op="store"),
        infra.InfraFaultSpec(mode=infra.InfraFaultMode.IO_ERROR,
                             token="t-load", io_op="load"),
    ], str(state))
    try:
        cache.put("k", _entry())  # store fails, memory layer survives
        assert cache.get("k") is not None
        assert cache.stats.disk_errors == 1
        cache.put("k2", _entry())  # fault is one-shot: this store lands
        cache.clear()
        assert cache.get("k2") is None  # load fault fires: miss
        assert cache.get("k2") is not None  # then reads fine
    finally:
        infra.disarm()
    kinds = [i.kind for i in incident_log().incidents]
    assert kinds.count("io-error") == 2


# -- REPRO_CACHE_DIR ----------------------------------------------------------

def test_cache_dir_env_overrides_default(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "mycache"))
    assert default_disk_dir() == str(tmp_path / "mycache")
    cache = TranslationCache()
    assert cache.attach_disk() == str(tmp_path / "mycache")
    cache.put("k", _entry())
    assert os.path.exists(tmp_path / "mycache" / "k.pkl")


def test_invalid_cache_dir_env_fails_loudly(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    monkeypatch.setenv(CACHE_DIR_ENV, str(blocker / "cache"))
    cache = TranslationCache()
    with pytest.raises(CacheConfigError) as info:
        cache.attach_disk()
    assert cache.disk_dir is None
    assert info.value.kind == "cache-config"
    assert str(blocker / "cache") in info.value.message


def test_unusable_default_dir_degrades_silently(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    cache = TranslationCache()
    assert cache.attach_disk(str(blocker / "cache")) == ""
    assert cache.disk_dir is None  # memory-only, no exception


def test_explicit_strict_attach_raises(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    with pytest.raises(CacheConfigError):
        TranslationCache().attach_disk(str(blocker / "cache"), strict=True)


# -- incident JSONL sink ------------------------------------------------------

def test_incidents_append_to_jsonl_sink(tmp_path):
    log = incident_log()
    sink = str(tmp_path / "incidents.jsonl")
    log.configure_sink(sink, export_env=False)
    try:
        log.record("cache-corruption", "transcache", "one", path="/p")
        log.record("io-error", "transcache", "two")
    finally:
        log.configure_sink(None, export_env=False)
    records = read_jsonl(sink)
    assert [r["kind"] for r in records] == ["cache-corruption", "io-error"]
    assert records[0]["details"]["path"] == "/p"
    assert records[0]["component"] == "transcache"


def test_jsonl_reader_skips_torn_lines(tmp_path):
    sink = tmp_path / "incidents.jsonl"
    sink.write_text('{"kind": "io-error", "seq": 0}\n{"kind": "trunc')
    records = read_jsonl(str(sink))
    assert len(records) == 1 and records[0]["kind"] == "io-error"
