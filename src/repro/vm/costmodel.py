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
from typing import Callable, Optional

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
    charge, but every phase charges per unit of work).
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
        self._enforce(phase, check_deadline=True)

    def _enforce(self, phase: str, check_deadline: bool) -> None:
        """Charge-then-check limit enforcement, in one place.

        Every path that adds units (:meth:`charge`, :meth:`replay`,
        :meth:`merge`) records the units *first* and enforces *after*,
        so an aborted translation's meter still reports everything it
        spent.  ``check_deadline=False`` is the replay/merge exemption:
        units reconstructed from a cache hit (or folded in from another
        meter) consumed no wall clock *now*, and a meter rebuilt for
        replay carries a fresh ``_started_at``, so letting them trip
        ``deadline_s`` would turn a cache hit into a spurious timeout.
        """
        if self.budget_units is not None and self._total > self.budget_units:
            raise TranslationBudgetExceeded(
                f"translation budget of {self.budget_units} work units "
                f"exceeded during the {phase!r} phase "
                f"({self._total} units charged)",
                budget_units=self.budget_units, spent_units=self._total,
                phase=phase)
        if check_deadline and self.deadline_s is not None and \
                time.monotonic() - self._started_at > self.deadline_s:
            raise TranslationBudgetExceeded(
                f"translation wall-clock deadline of {self.deadline_s}s "
                f"exceeded during the {phase!r} phase",
                budget_units=self.budget_units or 0,
                spent_units=self._total, phase=phase)

    def replay(self, charges: dict[str, int]) -> None:
        """Re-apply cached per-phase *charges* exactly.

        Used by the analysis-cache hit paths to reconstruct the meter
        state a cache miss would have produced.  The work budget is
        still enforced (replayed work counts against it identically),
        but the wall-clock deadline is not: the replayed units were
        charged in a previous translation's time, and this meter's
        ``_started_at`` says nothing about when that happened.
        """
        for phase in charges:
            if phase not in PHASES:
                raise KeyError(f"unknown translation phase {phase!r}")
        for phase in PHASES:
            if phase not in charges:
                continue
            amount = charges[phase]
            self.units[phase] = self.units.get(phase, 0) + amount
            self._total += amount
            self._enforce(phase, check_deadline=False)

    def charger(self, phase: str) -> Callable[[int], None]:
        """A callback bound to *phase*, in the shape analyses expect."""
        def _charge(amount: int) -> None:
            self.charge(phase, amount)
        return _charge

    def instructions(self, weights: dict[str, float] | None = None
                     ) -> dict[str, float]:
        """Modelled instruction count per phase."""
        w = DEFAULT_WEIGHTS if weights is None else weights
        return {phase: self.units.get(phase, 0) * w.get(phase, 1.0)
                for phase in PHASES}

    def total_instructions(self, weights: dict[str, float] | None = None
                           ) -> float:
        return sum(self.instructions(weights).values())

    def merge(self, other: "TranslationMeter") -> None:
        """Fold *other*'s charges into this meter.

        Validates phases and enforces ``budget_units`` exactly as
        :meth:`charge` does — a merged meter must not silently exceed
        the budget the charge path enforces, nor carry unknown phases
        that :meth:`instructions` would then silently drop.  Phases
        fold in ``PHASES`` order, so the budget abort (charge-then-
        check: the crossing phase's units are already recorded) is
        deterministic regardless of *other*'s insertion order.  The
        wall-clock deadline is not consulted: the merged units were
        charged against another meter's clock.
        """
        unknown = sorted(set(other.units) - set(PHASES))
        if unknown:
            raise KeyError(
                f"cannot merge meter with unknown translation phase"
                f"{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(p) for p in unknown)}")
        for phase in PHASES:
            if phase not in other.units:
                continue
            units = other.units[phase]
            self.units[phase] = self.units.get(phase, 0) + units
            self._total += units
            self._enforce(phase, check_deadline=False)

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


def translation_cycles(instructions: float, cpi: float = 1.0) -> float:
    """Cycles the host core spends translating.

    The translator runs on the scalar core; a CPI of 1 on the modelled
    single-issue baseline turns instruction counts into cycles directly.
    """
    return instructions * cpi
