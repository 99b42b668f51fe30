"""Directives yielded by concurrency-control executors to the simulator.

A CC executor (`repro.core.executor`, `repro.cc.two_pl`, ...) is written as
a Python generator.  It *yields* directives and the scheduler interprets
them:

* :class:`Cost` — consume a span of simulated time (an access, a validation
  step, a backoff interval ...).
* :class:`WaitFor` — block until a predicate over other transactions'
  progress becomes true (the paper's wait actions, dependency-commit waits
  and lock waits).

Directive objects are allocated on the hot path, so they are ``__slots__``
classes with no behaviour beyond carrying data.
"""

from __future__ import annotations

from typing import (Callable, FrozenSet, Iterable, Optional, Tuple,
                    TYPE_CHECKING)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.context import TxnContext


class WaitKind:
    """What a :class:`WaitFor` is waiting on — determines cycle handling."""

    #: execution-time wait action (§4.3); on a cycle/timeout the waiter may
    #: simply proceed (the wait is a performance hint, not correctness).
    PROGRESS = "progress"
    #: commit-phase wait for dependent transactions to finish committing
    #: (§4.4 step 1); on a cycle the waiter must abort.
    COMMIT_DEPS = "commit_deps"
    #: waiting for a record lock (commit phase or native 2PL); on a cycle
    #: the waiter must abort.
    LOCK = "lock"
    #: an idle open-loop worker parked on an empty admission queue waiting
    #: for the next arrival (:mod:`repro.frontend`).  Not a conflict wait:
    #: it never aborts on a break and takes no part in cycle detection.
    ARRIVAL = "arrival"


class CostKind:
    """What a :class:`Cost` span was spent on — time-accounting category."""

    #: transaction work (accesses, validation, commit/abort bookkeeping);
    #: attributed to useful or wasted time once the attempt's fate is known
    WORK = "work"
    #: retry backoff between attempts
    BACKOFF = "backoff"


class Cost:
    """Consume ``ticks`` of simulated time.

    ``kind`` tags the span for the per-worker time accountant
    (:mod:`repro.obs.profile`); executors leave it at the default.
    """

    __slots__ = ("ticks", "kind")

    def __init__(self, ticks: float, kind: str = CostKind.WORK) -> None:
        self.ticks = ticks
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cost({self.ticks})"


class WaitFor:
    """Block until ``condition()`` is true.

    Attributes:
        condition: zero-argument predicate.  The scheduler subscribes the
            parked worker on every ``dep_ctxs`` member (and every
            ``wake_keys`` entry), and re-evaluates the predicate when one of
            those is notified via ``Scheduler.notify``.  A wait that
            declares neither
            ``dep_ctxs`` nor ``wake_keys`` cannot be woken; the scheduler
            refuses to park on it.
        kind: a :class:`WaitKind` value.
        dep_ctxs: the transactions being waited on when the wait was made —
            the scheduler's subscription keys and the trace's dependency
            attribution.
        abort_on_break: if a cycle or timeout breaks the wait, ``True`` means
            the waiter aborts (correctness waits), ``False`` means it simply
            proceeds (performance waits).
        wake_keys: extra hashable subscription keys beyond ``dep_ctxs``
            (e.g. the :class:`~repro.storage.record.Record` whose commit
            lock is awaited, or a :meth:`LockTable.wake_key
            <repro.storage.locks.LockTable.wake_key>`).
        holders: set on lock waits only: a zero-argument callable returning
            the lock's *current* holders other than the requester.

    The wait's edges in the scheduler's wait-for graph are :meth:`edges`:
    a lock wait's are live — read through ``holders`` whenever the graph
    is searched, because holders granted after the park block the waiter
    as much as the ones it saw — and a commit / progress wait's are its
    ``dep_ctxs``, which change only by terminating.
    """

    __slots__ = ("condition", "kind", "dep_ctxs", "abort_on_break",
                 "wake_keys", "holders")

    def __init__(self, condition: Callable[[], bool], kind: str,
                 dep_ctxs: Optional[Iterable["TxnContext"]] = None,
                 abort_on_break: Optional[bool] = None,
                 wake_keys: Iterable[object] = (),
                 holders: Optional[Callable[[], Iterable["TxnContext"]]]
                 = None) -> None:
        self.condition = condition
        self.kind = kind
        self.dep_ctxs: FrozenSet["TxnContext"] = frozenset(dep_ctxs or ())
        if abort_on_break is None:
            abort_on_break = kind != WaitKind.PROGRESS
        self.abort_on_break = abort_on_break
        self.wake_keys: Tuple[object, ...] = tuple(wake_keys)
        self.holders = holders

    def edges(self) -> Iterable["TxnContext"]:
        """The transactions this wait blocks on now (terminal ones
        included; the scheduler skips them)."""
        holders = self.holders
        return self.dep_ctxs if holders is None else holders()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WaitFor(kind={self.kind}, deps={len(self.dep_ctxs)})"
