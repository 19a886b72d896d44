"""Work callbacks: how metered analyses report their cost.

Every metered analysis takes ``work: Optional[Callable[[int], None]]``
(the translator passes :meth:`~repro.vm.costmodel.TranslationMeter.charger`).
``work(n)`` is one charge worth *n* units.  A hot loop that ticks one
unit per edge or visit counts its ticks and reports them with
:func:`charge_run` instead of calling ``work(1)`` per tick.

An analysis whose result depends only on its inputs can be memoised
with :func:`memoised`.  A miss runs it into a local :class:`WorkTally`
and charges the total in one call; a hit charges the stored total the
same way.  It is the one way a memoised step reaches a meter: the
translator's front end, CCA mapping and per-DFG analyses all go
through it.
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
    """A work callback that only totals what it is charged.

    ``units`` stays None until a charge arrives; a ``work(0)`` call
    counts as one, since it records its phase on a meter.  One later
    ``work(units)`` call then leaves a meter with no budget or deadline
    exactly as the tallied calls would have left it: the phase's units
    and total are sums, and nothing can abort part-way.
    """

    __slots__ = ("units",)

    def __init__(self) -> None:
        self.units: Optional[int] = None

    def __call__(self, n: int) -> None:
        self.units = (self.units or 0) + n

    def run(self, n: int) -> None:
        if n > 0:
            self.units = (self.units or 0) + n


def memoised(memo: Optional[dict], key: Hashable,
             work: Optional[Callable[[int], None]],
             compute: Callable[[Optional[Callable[[int], None]]], T]) -> T:
    """``compute(work)``, or its memoised value with its charge repeated.

    *memo* maps *key* to ``(value, units)``.  A miss runs *compute*
    into a :class:`WorkTally`, stores what it charged and charges that
    total to *work* in one call; a hit charges the stored total the
    same way, so a miss and a hit leave the meter alike.  One bulk
    charge equals the unit-by-unit run's only when no charge can abort
    part-way (no work budget and no deadline), so callers pass
    ``memo=None`` then and *compute* charges *work* as it goes.
    *compute* must not raise for an outcome that should be memoised:
    return it (a rejection as its report, "unchanged" as None) and act
    on it after the call.
    """
    if memo is None:
        return compute(work)
    hit = memo.get(key)
    if hit is None:
        tally = WorkTally()
        value = compute(tally)
        hit = memo[key] = (value, tally.units)
    value, units = hit
    if units is not None and work is not None:
        work(units)
    return value
