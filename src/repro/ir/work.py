"""Work callbacks: how metered analyses report their cost.

Every metered analysis takes ``work: Optional[Callable[[int], None]]``
(the translator passes :meth:`~repro.vm.costmodel.TranslationMeter.charger`).
``work(n)`` is one charge worth *n* units.  A hot loop that ticks one
unit per edge or visit counts its ticks and reports them with
:func:`charge_run` instead of calling ``work(1)`` per tick.
"""

from __future__ import annotations

from typing import Callable, Optional


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
