"""Work callbacks: how metered analyses report their cost.

Every metered analysis takes ``work: Optional[Callable[[int], None]]``
(the translator passes :meth:`~repro.vm.costmodel.TranslationMeter.charger`).
``work(n)`` is one charge worth *n* units.  A hot loop that ticks one
unit per edge or visit counts its ticks and reports them with
:func:`charge_run` instead of calling ``work(1)`` per tick.

An analysis whose result depends only on its inputs can be memoised
with :func:`memoised`, which charges the memoised total on a hit.  It
is the one way a memo hit reaches a meter: the translator's front end,
CCA mapping and per-DFG analyses all go through it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, TypeVar

T = TypeVar("T")


def charge_run(work: Optional[Callable[[int], None]], n: int) -> None:
    """Report *n* unit ticks through *work*, as if by ``n`` ``work(1)`` calls.

    A meter charger takes the whole run in one call (its ``run``
    method clamps at the budget exactly as the unit calls would); any
    other callable gets the ``n`` calls.
    """
    if work is None or n <= 0:
        return
    run = getattr(work, "run", None)
    if run is not None:
        run(n)
        return
    for _ in range(n):
        work(1)


class WorkTally:
    """A work callback that forwards to *work* and totals the charge.

    ``units`` stays None until a charge arrives; a ``work(0)`` call
    counts as one, since it records its phase on a meter.  One later
    ``work(units)`` call then leaves a meter with no budget or deadline
    exactly as the tallied calls left it.
    """

    __slots__ = ("work", "units")

    def __init__(self, work: Optional[Callable[[int], None]]) -> None:
        self.work = work
        self.units: Optional[int] = None

    def __call__(self, n: int) -> None:
        if self.work is not None:
            self.work(n)
        self.units = (self.units or 0) + n

    def run(self, n: int) -> None:
        if n <= 0:
            return
        charge_run(self.work, n)
        self.units = (self.units or 0) + n


def memoised(memo: Optional[dict], key: Hashable,
             work: Optional[Callable[[int], None]],
             compute: Callable[[Optional[Callable[[int], None]]], T]) -> T:
    """``compute(work)``, or its memoised value with its charge repeated.

    *memo* maps *key* to ``(value, units)``.  A miss runs *compute*
    through a :class:`WorkTally` and stores what it charged; a hit
    charges that total to *work* in one call.  One bulk charge equals
    the fresh run's only when no charge can abort part-way (no work
    budget and no deadline), so callers pass ``memo=None`` then and
    *compute* runs as it always did.  *compute* must not raise for an
    outcome that should be memoised: return it (a rejection as its
    report, "unchanged" as None) and act on it after the call.
    """
    if memo is None:
        return compute(work)
    hit = memo.get(key)
    if hit is None:
        tally = WorkTally(work)
        value = compute(tally)
        memo[key] = (value, tally.units)
        return value
    value, units = hit
    if units is not None and work is not None:
        work(units)
    return value
