"""Golden table of fresh-loop translation meters.

About 60 generated loops, each translated for ``PROPOSED_LA`` three
ways: at engine 0 (every analysis runs, no memo), at engine 1 from
cold caches (every memo misses) and at engine 1 again with only the
translation cache dropped (every per-DFG memo hits).  Each way records
``[ok or failure kind, II, ordered meter units]``.  The table pins the
work units a fresh translation charges: a host-side speed-up of an
analysis must leave every unit, and the order in which phases first
charge, where it was.

Regenerate (only when a change *means* to move the meter) with::

    PYTHONPATH=src python -m tests.fresh_meter_golden
"""

from __future__ import annotations

import json
import os

from repro import perf
from repro.accelerator import PROPOSED_LA
from repro.vm import translate_loop
from repro.workloads.generator import GeneratorSpec, generate_loop

TABLE_PATH = os.path.join(os.path.dirname(__file__), "data",
                          "fresh_meter_units.json")

#: The generated-kernel shapes of the ``kernels`` benchmark workload.
SHAPES = (
    dict(n_ops=8, n_load_streams=2, n_store_streams=1, n_recurrences=1,
         recurrence_length=2, fp_fraction=0.0, use_predication=True),
    dict(n_ops=16, n_load_streams=2, n_store_streams=1, n_recurrences=0,
         fp_fraction=0.0, use_predication=False),
    dict(n_ops=22, n_load_streams=3, n_store_streams=1, n_recurrences=1,
         recurrence_length=3, fp_fraction=0.0, use_predication=True),
    dict(n_ops=14, n_load_streams=2, n_store_streams=1, n_recurrences=0,
         fp_fraction=0.4, use_predication=False),
    dict(n_ops=10, n_load_streams=1, n_store_streams=1, n_recurrences=2,
         recurrence_length=4, fp_fraction=0.0, use_predication=True),
    dict(n_ops=18, n_load_streams=3, n_store_streams=0, n_recurrences=1,
         recurrence_length=2, fp_fraction=0.2, use_predication=False),
)

TRIPS = (64, 128, 256, 512)

#: Integer-only shapes with long compute chains: many CCA candidates,
#: so the subgraph grower and checker do most of the work.
CCA_HEAVY = (
    dict(n_ops=32, n_load_streams=2, n_store_streams=1, n_recurrences=2,
         recurrence_length=3, fp_fraction=0.0, use_predication=True),
    dict(n_ops=40, n_load_streams=3, n_store_streams=2, n_recurrences=1,
         recurrence_length=2, fp_fraction=0.0, use_predication=False),
)


def specs():
    """(label, spec) for every loop in the table."""
    for s, shape in enumerate(SHAPES):
        for t, trips in enumerate(TRIPS):
            for k in range(2):
                seed = 91000 + 100 * s + 10 * t + k
                yield (f"shape{s}_t{trips}_{seed}",
                       GeneratorSpec(trip_count=trips, seed=seed, **shape))
    for c, shape in enumerate(CCA_HEAVY):
        for k in range(6):
            seed = 92000 + 100 * c + k
            yield (f"cca{c}_{seed}",
                   GeneratorSpec(trip_count=128, seed=seed, **shape))


def record(result) -> list:
    """One translation's outcome as a JSON-able list."""
    image = result.image
    return ["ok" if result.ok else result.failure_kind,
            image.schedule.ii if image is not None else None,
            [[phase, units] for phase, units in result.meter.units.items()]]


def record_loop(spec: GeneratorSpec) -> dict:
    """The engine-0, cold engine-1 and warm engine-1 records of *spec*."""
    loop = generate_loop(spec)
    with perf.engine_at(0):
        reference = record(translate_loop(loop, PROPOSED_LA))
    with perf.engine_at(1):
        perf.clear_caches()
        cold = record(translate_loop(loop, PROPOSED_LA))
        # Drop only the translated entry: the per-DFG memos stay, so
        # this core run takes every memoised step as a hit.
        perf.translation_cache().clear()
        warm = record(translate_loop(loop, PROPOSED_LA))
    perf.clear_caches()
    return {"engine0": reference, "cold": cold, "warm": warm}


def build_table() -> dict:
    return {label: record_loop(spec) for label, spec in specs()}


def main() -> None:
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(build_table(), handle, indent=None, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
