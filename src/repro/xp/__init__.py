"""``repro.xp`` — the experiment manager.

The single way the repo measures itself: named hashable
configurations (:mod:`~repro.xp.config`), the runner that times them
(:mod:`~repro.xp.runner`: engine-tier figure passes and the service
worker/shard series), an append-only timestamped run store
(:mod:`~repro.xp.store`), multi-repeat statistical aggregation
(:mod:`~repro.xp.aggregate`), and a regression gate against committed
baselines (:mod:`~repro.xp.compare`).  Driven from the CLI as
``python -m repro xp run|report|compare|baseline|list``;
programmatically via :func:`repro.api.benchmark` /
:func:`repro.api.compare` or the pieces re-exported here.
"""

from repro.xp.aggregate import (Aggregate, MetricStats,
                                aggregate_records, format_aggregate)
from repro.xp.compare import (DEFAULT_THRESHOLD, CompareResult,
                              baseline_payload, compare_aggregate,
                              write_baseline)
from repro.xp.config import (DEFAULT_FIGURES, DEFAULT_PRESET, PRESETS,
                             SWEEP_FIGURES, Config, config_digest,
                             preset, register_preset, validate)
from repro.xp.runner import (XpRun, baseline_references,
                             measure_figures, run_config)
from repro.xp.store import (RunWriter, baseline_path,
                            latest_run_records, load_baseline,
                            load_records, results_dir, runs_dir)

__all__ = [
    "Aggregate", "CompareResult", "Config", "DEFAULT_FIGURES",
    "DEFAULT_PRESET", "DEFAULT_THRESHOLD", "MetricStats", "PRESETS",
    "RunWriter", "SWEEP_FIGURES", "XpRun", "aggregate_records",
    "baseline_path", "baseline_payload", "baseline_references",
    "compare_aggregate", "config_digest", "format_aggregate",
    "latest_run_records", "load_baseline", "load_records",
    "measure_figures", "preset", "register_preset", "results_dir",
    "run_config", "runs_dir", "validate", "write_baseline",
]
