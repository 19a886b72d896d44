"""The one loader for untrusted bytes
(:func:`repro.resilience.integrity.load_payload`) against everything
the service and the disk cache legitimately carry.

Generated loops drive translate bodies, translation results (ok ones
and every failure kind the Figure 3/4 sweep configs produce), loop
outcomes and ``CoreEntry`` files through the loader: each must come
back equal to the original (it re-pickles to the same bytes), and each
class its pickle names must be on the allowlist, so the list cannot
drift behind the types silently.
"""

from __future__ import annotations

import io
import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.accelerator import PROPOSED_LA
from repro.accelerator.config import INFINITE_LA
from repro.cpu.pipeline import ARM11
from repro.errors import ERROR_CLASSES
from repro.perf.transcache import ENTRY_SUFFIX, decode_entry
from repro.resilience import integrity
from repro.service import wire
from repro.vm.runtime import VMConfig, VirtualMachine
from repro.vm.translator import TranslationOptions, translate_loop
from repro.workloads.generator import GeneratorSpec, generate_loop
from repro.workloads.suite import all_benchmarks

ALLOWED = integrity.VALUE_CLASSES | {
    (cls.__module__, cls.__qualname__) for cls in ERROR_CLASSES.values()}

#: One point from each Figure 3/4 sweep axis, at its tight end.
SWEEP_CONFIGS = [
    PROPOSED_LA,
    INFINITE_LA.with_(num_int_units=1, num_ccas=0),
    INFINITE_LA.with_(num_fp_units=0),
    INFINITE_LA.with_(num_int_regs=4),
    INFINITE_LA.with_(num_fp_regs=2),
    INFINITE_LA.with_(load_streams=1),
    INFINITE_LA.with_(store_streams=0),
    INFINITE_LA.with_(max_ii=1),
]

#: Every failure kind the sweeps above produce over the suite.
SWEEP_FAILURE_KINDS = {"register-pressure", "stream-limit", "scheduling",
                       "resource-class", "schedulability"}


@pytest.fixture(autouse=True)
def _clean_caches():
    perf.clear_caches()
    yield
    perf.translation_cache().detach_disk()
    perf.clear_caches()


class _Recorder(pickle.Unpickler):
    """A trusted-bytes unpickler that notes every global it resolves."""

    def __init__(self, data: bytes) -> None:
        super().__init__(io.BytesIO(data))
        self.named: set[tuple[str, str]] = set()

    def find_class(self, module: str, name: str):
        self.named.add((module, name))
        return super().find_class(module, name)


def _canon(obj, memo: dict):
    """*obj* as nested tuples of plain values, built from the same
    reduction pickle uses, so two objects are equal exactly when they
    carry the same state.  (Re-pickled bytes are no measure: a load
    interns some strings the original did not share.)"""
    if isinstance(obj, float):
        return ("float", repr(obj))
    if obj is None or isinstance(obj, (str, bytes, int)):
        return obj
    if isinstance(obj, type) or callable(obj) and hasattr(obj, "__qualname__"):
        return ("global", obj.__module__, obj.__qualname__)
    key = id(obj)
    if key in memo:
        return memo[key][1]
    # The memo holds *obj* too, so no id is reused while it lives.
    memo[key] = (obj, ("cycle",))
    if isinstance(obj, (list, tuple)):
        out = (type(obj).__name__, tuple(_canon(x, memo) for x in obj))
    elif isinstance(obj, dict):
        out = ("dict", tuple((_canon(k, memo), _canon(v, memo))
                             for k, v in obj.items()))
    elif isinstance(obj, (set, frozenset)):
        out = (type(obj).__name__, frozenset(_canon(x, memo) for x in obj))
    else:
        reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        parts = [_canon(part, memo) for part in reduced[1:3]]
        for items in reduced[3:5]:
            parts.append(None if items is None
                         else _canon(list(items), memo))
        out = ("object", _canon(reduced[0], memo), tuple(parts))
    memo[key] = (obj, out)
    return out


def _assert_round_trips(value) -> None:
    data = wire.pack_body(value)
    recorder = _Recorder(data)
    recorder.load()
    assert recorder.named <= ALLOWED, recorder.named - ALLOWED
    assert _canon(integrity.load_payload(data), {}) == _canon(value, {})


specs = st.builds(
    GeneratorSpec,
    n_ops=st.integers(4, 22),
    n_load_streams=st.integers(1, 3),
    n_store_streams=st.integers(0, 1),
    n_recurrences=st.integers(0, 2),
    recurrence_length=st.integers(1, 3),
    fp_fraction=st.sampled_from([0.0, 0.2, 0.4]),
    use_predication=st.booleans(),
    trip_count=st.integers(4, 32),
    seed=st.integers(0, 10_000),
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs, config=st.sampled_from(SWEEP_CONFIGS))
def test_generated_bodies_results_and_outcomes_round_trip(spec, config):
    loop = generate_loop(spec)
    options = TranslationOptions()
    _assert_round_trips((loop, config, options))
    _assert_round_trips(translate_loop(loop, config, options))
    vm = VirtualMachine(VMConfig(cpu=ARM11, accelerator=config,
                                 options=options))
    _assert_round_trips(vm.run_loop(loop, seed=spec.seed))


def test_every_sweep_failure_kind_round_trips():
    failures = {}
    for bench in all_benchmarks():
        for loop in bench.kernels:
            for config in SWEEP_CONFIGS:
                result = translate_loop(loop, config)
                if not result.ok:
                    failures.setdefault(result.failure_kind, result)
    assert set(failures) == SWEEP_FAILURE_KINDS
    for result in failures.values():
        _assert_round_trips(result)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(spec=specs)
def test_generated_cache_entry_files_round_trip(spec, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("entries"))
    perf.clear_caches()
    cache = perf.translation_cache()
    cache.attach_disk(directory, strict=True)
    try:
        loop = generate_loop(spec)
        for config in SWEEP_CONFIGS:
            translate_loop(loop, config)
    finally:
        cache.detach_disk()
    names = [n for n in os.listdir(directory) if n.endswith(ENTRY_SUFFIX)]
    assert names
    for name in names:
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            blob = handle.read()
        stored = cache.peek(name[:-len(ENTRY_SUFFIX)])
        assert stored is not None
        assert _canon(decode_entry(blob, path), {}) == _canon(stored, {})
        _assert_round_trips(stored)
