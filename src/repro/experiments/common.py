"""Shared infrastructure for the paper-reproduction experiments.

Every experiment module exposes a ``run_*`` function returning plain
data (dicts / dataclasses) plus a ``format_*`` function rendering the
same rows/series the paper's figure or table reports.  The benchmark
harness under ``benchmarks/`` simply calls these and prints the output.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from repro.accelerator.config import LAConfig
from repro.cpu.pipeline import ARM11
from repro.errors import WorkerTaskError
from repro.isa.annotations import annotate_for_veal
from repro.vm.runtime import AppRun, VMConfig, VirtualMachine
from repro.vm.translator import TranslationOptions
from repro.workloads.suite import Benchmark, media_fp_benchmarks


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= max(v, 1e-12)
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def annotate_benchmark(benchmark: Benchmark) -> Benchmark:
    """A copy of *benchmark* whose kernels carry the static VEAL
    annotations (Figure 9): CCA subgraphs + scheduling priority."""
    annotated = [annotate_for_veal(k) for k in benchmark.kernels]
    return replace(benchmark, kernels=annotated,
                   _arm11_loop_cycles=None)


def suite_digest(benchmarks: Sequence[Benchmark]) -> str:
    """Content digest of a benchmark list.

    Two suite objects with identical contents (names, kernel loops,
    scalars, seeds, acyclic fractions) digest identically no matter
    when or where they were constructed — the key under which
    baseline/infinite runs are shared across sweep series (unlike an
    ``id()``-based key, which a garbage collector can reuse for a
    different list).
    """
    from repro.perf.digest import digest_of, loop_digest
    parts = []
    for b in benchmarks:
        parts.append((
            b.name, b.suite,
            tuple(loop_digest(k) for k in b.kernels),
            b.acyclic_fraction, b.scalars, b.data_seed,
            tuple(loop_digest(k) for k in (b.untransformed_kernels or ())),
        ))
    return digest_of("suite", parts)


@contextmanager
def sweep_point(point: str, index: int) -> Iterator[None]:
    """Re-raise a failure inside one sweep point as a typed
    :class:`~repro.errors.WorkerTaskError` labelled *point*.

    Nested points chain: a benchmark failing inside sweep point x=8
    raises ``"IEx[x=8]"`` around ``"benchmark epic"``, so the
    ``__cause__`` chain reads like a stack of sweep coordinates down to
    the real exception, whose own ``kind`` survives on the innermost
    link.
    """
    try:
        yield
    except Exception as exc:
        kind = getattr(exc, "kind", type(exc).__name__)
        raise WorkerTaskError(
            f"sweep task failed at {point}: [{kind}] {exc}",
            item_index=index, point=point) from exc


def _run_suite(config: VMConfig,
               benchmarks: Optional[list[Benchmark]] = None,
               annotate: bool = False) -> dict[str, AppRun]:
    """Run every benchmark under *config*, each on a fresh VM; returns
    runs by name, in benchmark order."""
    benches = media_fp_benchmarks() if benchmarks is None else benchmarks
    runs: dict[str, AppRun] = {}
    for index, bench in enumerate(benches):
        with sweep_point(f"benchmark {bench.name}", index):
            if annotate:
                bench = annotate_benchmark(bench)
            runs[bench.name] = VirtualMachine(config).run_benchmark(bench)
    return runs


def baseline_runs(benchmarks: Optional[list[Benchmark]] = None
                  ) -> dict[str, AppRun]:
    """The ARM11-without-accelerator baseline every speedup divides by."""
    return _run_suite(VMConfig(cpu=ARM11, accelerator=None),
                      benchmarks=benchmarks)


def speedups(base: dict[str, AppRun], runs: dict[str, AppRun]
             ) -> dict[str, float]:
    return {name: base[name].total_cycles / runs[name].total_cycles
            for name in runs}


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width ASCII table used by every experiment report."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"
