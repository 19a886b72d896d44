"""One-shot full reproduction report.

Runs every experiment in the figure registry
(:data:`repro.experiments.figures.FIGURES`) that carries a report
section title and concatenates the formatted outputs into a single
document — the programmatic equivalent of ``pytest benchmarks/
--benchmark-only -s``, usable as a library call or via
``python -m repro all``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.experiments import figures


def full_report(progress: Optional[Callable[[str], None]] = None) -> str:
    """Run every experiment and return one formatted document.

    *progress* gets each section's title as it starts and, once done,
    the title with its elapsed seconds; the document itself carries no
    timing, so two runs return identical text.
    """
    banner = ("VEAL: Virtualized Execution Accelerator for Loops "
              "(ISCA 2008) — full reproduction report")
    parts = [banner, "=" * len(banner)]
    for figure in figures.FIGURES.values():
        title = figure.section
        if title is None:
            continue
        if progress is not None:
            progress(title)
        started = time.time()
        body = figure.fn()
        if progress is not None:
            progress(f"{title}  [{time.time() - started:.1f}s]")
        rule = "-" * 72
        parts.append(f"{rule}\n{title}\n{rule}\n{body}")
    return "\n\n".join(parts) + "\n"
