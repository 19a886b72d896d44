"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures, prints
the same rows/series the paper reports, and saves them under
``benchmarks/results/``.  Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS.mkdir(exist_ok=True)
    return RESULTS


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a figure's reproduction and persist it."""
    print("\n" + text + "\n")
    (results_dir / f"{name}.txt").write_text(text + "\n")
