"""Shared fixtures and helpers for the VEAL reproduction tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import PROPOSED_LA
from repro.cpu import Interpreter, Memory, standard_live_ins
from repro.workloads.suite import DEFAULT_SCALARS


@pytest.fixture
def proposed_la():
    return PROPOSED_LA


@pytest.fixture(autouse=True)
def _reset_observability():
    """Isolate every test from leaked trace sinks and metric counts.

    Clears the process-global metrics registry and drops any tracer
    (including a ``REPRO_TRACE`` env leak from a prior test) both
    before and after each test.
    """
    from repro import obs
    obs.reset_metrics()
    obs.reset_tracing()
    yield
    obs.reset_metrics()
    obs.reset_tracing()


def seeded_memory(loop, seed=7, int_range=(-100, 100), fp_range=(-8.0, 8.0)):
    """Fresh memory with arrays allocated and filled deterministically."""
    return Memory.seeded(loop.arrays, np.random.default_rng(seed),
                         int_range, fp_range)


def run_reference(loop, seed=7, scalars=None):
    """Run *loop* on the interpreter; returns (result, memory)."""
    memory = seeded_memory(loop, seed)
    interp = Interpreter(memory)
    live = standard_live_ins(loop, memory,
                             scalars if scalars is not None
                             else DEFAULT_SCALARS)
    result = interp.run_loop(loop, live)
    return result, memory


class _Diverged:
    """A verdict that fails whatever the two executions produced."""

    ok = False
    mismatches = []

    @staticmethod
    def describe():
        return "forced divergence (test)"


def force_divergence(monkeypatch) -> list:
    """Make every differential check the guarded executor runs diverge;
    returns the list of checks run, appended to as they happen."""
    from repro.vm import guard as guard_mod
    real = guard_mod.differential_check
    checks: list = []

    def diverged(*args, **kwargs):
        outcome = real(*args, **kwargs)
        outcome.verdict = _Diverged
        checks.append(outcome)
        return outcome

    monkeypatch.setattr(guard_mod, "differential_check", diverged)
    return checks
