"""Golden table of translation budget aborts.

For a fixed set of loops, translate at about 30 evenly spaced
``work_budget`` values across each loop's unbudgeted total and record
where the translation stopped: ``(failure_kind, phase, spent_units,
sorted meter units)``, once through the translation cache and once with
a never-firing ``deadline_s`` (the cache-bypass path).  The table pins
the meter's charge-then-check order: moving any charge in the pipeline
moves some abort.

Regenerate (only when a change *means* to move the meter) with::

    PYTHONPATH=src python -m tests.budget_golden
"""

from __future__ import annotations

import json
import os

from repro.accelerator import PROPOSED_LA
from repro.vm import TranslationOptions, translate_loop
from repro.workloads import kernels as K
from repro.workloads.generator import GeneratorSpec, generate_loop

TABLE_PATH = os.path.join(os.path.dirname(__file__), "data",
                          "budget_aborts.json")

#: Budget points per loop (plus the zero budget).
POINTS = 30

KERNELS = ("iir_biquad", "adpcm_decode", "dct_butterfly", "viterbi_acs",
           "mgrid_resid", "mesa_transform", "tomcatv_residual",
           "color_convert")

GENERATED = (
    GeneratorSpec(n_ops=16, seed=1),
    GeneratorSpec(n_ops=28, n_load_streams=3, n_recurrences=2, seed=2),
    GeneratorSpec(n_ops=40, n_load_streams=4, n_store_streams=2,
                  n_recurrences=2, recurrence_length=3, fp_fraction=0.3,
                  seed=3),
    GeneratorSpec(n_ops=24, n_recurrences=0, use_predication=False, seed=4),
)


def loops():
    """(label, loop) for every case in the table."""
    for name in KERNELS:
        yield name, getattr(K, name)()
    for spec in GENERATED:
        yield f"gen_{spec.seed}", generate_loop(spec)


def record(loop, budget: int, bypass: bool) -> list:
    """Where a translation under *budget* stopped, as a JSON-able list."""
    options = TranslationOptions(work_budget=budget,
                                 deadline_s=1e9 if bypass else None)
    result = translate_loop(loop, PROPOSED_LA, options)
    reason = result.failure_reason
    return [result.failure_kind,
            getattr(reason, "phase", None),
            getattr(reason, "spent_units", None),
            sorted([phase, units]
                   for phase, units in result.meter.units.items())]


def build_table() -> dict:
    table = {}
    for label, loop in loops():
        total = translate_loop(loop, PROPOSED_LA).meter.total_units()
        budgets = sorted({total * k // POINTS for k in range(POINTS + 1)})
        table[label] = {
            "total": total,
            "points": [[budget, record(loop, budget, False),
                        record(loop, budget, True)] for budget in budgets],
        }
    return table


def main() -> None:
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(build_table(), handle, indent=None, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
