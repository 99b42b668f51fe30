"""The one owner of the cyclic garbage collector during a run.

A finished run is freed by reference counting alone (see
:meth:`Scheduler.release <repro.sim.scheduler.Scheduler.release>`), and a
live attempt is freed the same way when ``validation.finish`` releases it,
so nothing cyclic piles up while the collector sleeps.  What it would do
if left on is walk the objects a run keeps alive — the loaded database
above all — again and again: set-up allocates one container per row and
triggers hundreds of young-generation passes and a few full ones, and the
event loop's allocation churn keeps triggering more.  :func:`paused`
turns it off from build to teardown.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def paused() -> Iterator[None]:
    """Keep the cyclic collector off for the ``with`` body.

    An entry that finds the collector already off — nested inside another
    :func:`paused`, or under a caller that switched it off itself — does
    nothing, and leaves restoring it to whoever switched it off.  On the
    outermost exit, everything still alive (the result's database, say) is
    moved to the oldest generation without a traversal, so the first young
    pass after the run does not walk it; a caller's frozen set
    (``gc.freeze``) is left frozen, and then nothing is moved.
    """
    if not gc.isenabled():
        yield
        return
    caller_frozen = gc.get_freeze_count()
    gc.disable()
    try:
        yield
    finally:
        if not caller_frozen:
            gc.freeze()
            gc.unfreeze()
        gc.enable()
