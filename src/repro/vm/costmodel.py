"""Translation cost accounting.

Figure 8 of the paper reports the measured translation penalty per loop
(in x86 instructions, via OProfile), broken into phases: on average
~99,716 instructions per loop, 69% in priority calculation, 20% in CCA
mapping, with ResMII+RecMII around 1,250 and scheduling + register
assignment about 9,650.

We cannot count x86 instructions, so each translation phase charges
*algorithmic work units* (nodes visited, edges relaxed, MRT slots
probed, set elements scanned) into a :class:`TranslationMeter`.  A
per-phase weight converts work units into modelled instructions; the
weights are calibrated once (see ``DEFAULT_WEIGHTS``) so the suite-wide
*distribution* matches Figure 8.  Because the unit counts come from the
real algorithms, the distribution emerges mechanistically: the Swing
ordering's per-SCC RecMII searches and reachability sweeps naturally
dwarf the single list-scheduling pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TranslationBudgetExceeded

#: Phase names, in pipeline order.
PHASES = (
    "identify",       # loop identification + schedulability checks
    "partition",      # control/memory stream separation
    "cca",            # CCA subgraph identification
    "resmii",         # resource-constrained MII
    "recmii",         # recurrence-constrained MII
    "priority",       # scheduling priority computation
    "scheduling",     # list scheduling into the MRT
    "regalloc",       # register assignment
)

#: Modelled instructions per work unit, per phase.  Calibrated against
#: Figure 8's distribution on the reproduction workload suite (see
#: EXPERIMENTS.md for the calibration numbers).
DEFAULT_WEIGHTS: dict[str, float] = {
    "identify": 2.0,
    "partition": 2.0,
    "cca": 72.0,
    "resmii": 17.0,
    "recmii": 17.0,
    "priority": 149.0,
    "scheduling": 48.0,
    "regalloc": 131.0,
}


@dataclass
class TranslationMeter:
    """Accumulates per-phase work during one loop translation.

    When ``budget_units`` is set the meter doubles as the translation
    *budget* enforcer: the moment the charged total passes the budget,
    :meth:`charge` raises
    :class:`~repro.errors.TranslationBudgetExceeded`, aborting the
    translation mid-phase.  The translator catches it and falls back to
    scalar execution — a pathological loop (e.g. an SMS backtracking
    blow-up over a huge body) costs a bounded amount of VM time instead
    of hanging a sweep.  ``deadline_s`` adds an optional wall-clock
    guard checked on the same path (coarse, since it only triggers on a
    charge, and a hot loop's unit ticks arrive as one :meth:`charge_run`
    per pass or attempt).  Every unit arrives through :meth:`charge`,
    a memoised analysis's hit included (:func:`repro.ir.work.memoised`
    charges its total in one call, so the translator keeps that memo
    off whenever a budget or deadline is set).
    """

    units: dict[str, int] = field(default_factory=dict)
    budget_units: Optional[int] = None
    deadline_s: Optional[float] = None
    _total: int = 0
    _started_at: float = field(default_factory=time.monotonic)

    def total_units(self) -> int:
        return self._total

    def charge(self, phase: str, amount: int = 1) -> None:
        if phase not in PHASES:
            raise KeyError(f"unknown translation phase {phase!r}")
        self.units[phase] = self.units.get(phase, 0) + amount
        self._total += amount
        self._enforce(phase)

    def charge_run(self, phase: str, n: int) -> None:
        """Charge *n* unit work items in one call.

        Leaves the meter exactly as ``n`` calls of ``charge(phase, 1)``
        would: past ``budget_units`` only the units up to the one that
        crosses the budget are recorded, and a deadline that has already
        passed trips on the first unit.  ``charge(phase, n)`` is the
        other shape — one item worth *n* units, all recorded before the
        check.
        """
        if n <= 0:
            return
        if self.deadline_s is not None and \
                time.monotonic() - self._started_at > self.deadline_s:
            n = 1
        elif self.budget_units is not None and \
                self._total + n > self.budget_units:
            n = max(self.budget_units + 1 - self._total, 1)
        self.charge(phase, n)

    def _enforce(self, phase: str) -> None:
        """Charge-then-check limit enforcement.

        :meth:`charge` records the units *first* and enforces *after*,
        so an aborted translation's meter still reports everything it
        spent.
        """
        if self.budget_units is not None and self._total > self.budget_units:
            raise TranslationBudgetExceeded(
                f"translation budget of {self.budget_units} work units "
                f"exceeded during the {phase!r} phase "
                f"({self._total} units charged)",
                budget_units=self.budget_units, spent_units=self._total,
                phase=phase)
        if self.deadline_s is not None and \
                time.monotonic() - self._started_at > self.deadline_s:
            raise TranslationBudgetExceeded(
                f"translation wall-clock deadline of {self.deadline_s}s "
                f"exceeded during the {phase!r} phase",
                budget_units=self.budget_units or 0,
                spent_units=self._total, phase=phase)

    def charger(self, phase: str) -> "PhaseCharger":
        """A work callback bound to *phase*, in the shape analyses expect."""
        return PhaseCharger(self, phase)

    def instructions(self, weights: dict[str, float] | None = None
                     ) -> dict[str, float]:
        """Modelled instruction count per phase."""
        w = DEFAULT_WEIGHTS if weights is None else weights
        return {phase: self.units.get(phase, 0) * w.get(phase, 1.0)
                for phase in PHASES}

    def total_instructions(self, weights: dict[str, float] | None = None
                           ) -> float:
        return sum(self.instructions(weights).values())

    def __getstate__(self) -> dict:
        """Pickle without ``_started_at``: a monotonic reading means
        nothing in another process, and leaving it out makes equal
        meters pickle to equal bytes."""
        return {k: v for k, v in self.__dict__.items()
                if k != "_started_at"}

    def __setstate__(self, state: dict) -> None:
        # The deadline clock restarts on this side of the boundary.
        self.__dict__.update(state)
        self._started_at = time.monotonic()


class PhaseCharger:
    """The work callback an analysis receives for one phase.

    ``charger(n)`` is :meth:`TranslationMeter.charge`; ``charger.run(n)``
    is :meth:`TranslationMeter.charge_run`, which
    :func:`repro.ir.work.charge_run` uses for a hot loop's unit ticks.
    """

    __slots__ = ("meter", "phase")

    def __init__(self, meter: TranslationMeter, phase: str) -> None:
        self.meter = meter
        self.phase = phase

    def __call__(self, amount: int) -> None:
        self.meter.charge(self.phase, amount)

    def run(self, n: int) -> None:
        self.meter.charge_run(self.phase, n)


def translation_cycles(instructions: float, cpi: float = 1.0) -> float:
    """Cycles the host core spends translating.

    The translator runs on the scalar core; a CPI of 1 on the modelled
    single-issue baseline turns instruction counts into cycles directly.
    """
    return instructions * cpi
