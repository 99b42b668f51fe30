"""Record locking with WAIT-DIE for the native 2PL baseline (§7.1).

The paper implements 2PL in Silo's codebase "with an optimized WAIT-DIE
mechanism.  The optimization avoids aborts if locks are acquired following a
global order, as is the case with our TPC-C and microbenchmark."  We mirror
both behaviours:

* plain WAIT-DIE: an older requester (smaller priority number) waits for a
  younger holder; a younger requester dies (aborts);
* ordered mode (``assume_ordered=True``): every requester waits — safe when
  the workload acquires locks in a global order, because no deadlock can
  form.

Lock modes are shared (S) / exclusive (X) with upgrade support.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple, TYPE_CHECKING

from ..obs.tracing import EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.context import TxnContext


class LockMode:
    SHARED = "S"
    EXCLUSIVE = "X"


class LockRequestOutcome:
    """Result of a lock request."""

    GRANTED = "granted"
    MUST_WAIT = "wait"
    MUST_DIE = "die"


class _LockState:
    __slots__ = ("holders", "mode")

    def __init__(self) -> None:
        self.holders: Set["TxnContext"] = set()
        self.mode: Optional[str] = None  # None when free

    def compatible(self, ctx: "TxnContext", mode: str) -> bool:
        if not self.holders:
            return True
        if self.holders == {ctx}:
            return True  # re-entrant or upgrade by sole holder
        if ctx in self.holders and mode == LockMode.SHARED:
            return True  # already held at least S
        return self.mode == LockMode.SHARED and mode == LockMode.SHARED


class LockTable:
    """Per-(table, key) S/X locks with WAIT-DIE conflict resolution.

    Priorities are transaction *first-start* timestamps: a transaction keeps
    its priority across retries, the standard WAIT-DIE liveness trick.
    """

    __slots__ = ("assume_ordered", "_locks")

    def __init__(self, assume_ordered: bool = False) -> None:
        self.assume_ordered = assume_ordered
        self._locks: Dict[Tuple[str, tuple], _LockState] = {}

    def _state(self, table: str, key: tuple) -> _LockState:
        lock_key = (table, key)
        state = self._locks.get(lock_key)
        if state is None:
            state = _LockState()
            self._locks[lock_key] = state
        return state

    def request(self, ctx: "TxnContext", table: str, key: tuple, mode: str) -> str:
        """Try to acquire; returns a :class:`LockRequestOutcome` value.

        On ``GRANTED`` the lock is held.  On ``MUST_WAIT`` the caller should
        block and re-request.  On ``MUST_DIE`` the caller must abort.
        """
        state = self._state(table, key)
        if state.compatible(ctx, mode):
            state.holders.add(ctx)
            if mode == LockMode.EXCLUSIVE or state.mode is None:
                state.mode = mode if state.mode != LockMode.EXCLUSIVE else state.mode
            if mode == LockMode.EXCLUSIVE:
                state.mode = LockMode.EXCLUSIVE
            return LockRequestOutcome.GRANTED
        if self.assume_ordered:
            self._trace_blocked(ctx, table, key, mode,
                                LockRequestOutcome.MUST_WAIT, state)
            return LockRequestOutcome.MUST_WAIT
        # WAIT-DIE: wait only if older (smaller priority) than every holder.
        my_priority = ctx.priority
        if all(my_priority < holder.priority for holder in state.holders):
            self._trace_blocked(ctx, table, key, mode,
                                LockRequestOutcome.MUST_WAIT, state)
            return LockRequestOutcome.MUST_WAIT
        self._trace_blocked(ctx, table, key, mode,
                            LockRequestOutcome.MUST_DIE, state)
        return LockRequestOutcome.MUST_DIE

    @staticmethod
    def _trace_blocked(ctx: "TxnContext", table: str, key: tuple, mode: str,
                       outcome: str, state: _LockState) -> None:
        """Emit a LOCK trace event for a blocked or dying request (granted
        requests are the hot path and stay silent)."""
        worker = ctx.worker
        if worker is None or not worker.trace.enabled:
            return
        worker.trace.emit(TraceEvent(
            worker.scheduler.now, EventKind.LOCK, worker.worker_id,
            ctx.txn_id, ctx.type_name,
            {"table": table, "key": repr(key), "mode": mode,
             "outcome": outcome, "n_holders": len(state.holders)}))

    @staticmethod
    def wake_key(table: str, key: tuple) -> Tuple[str, str, tuple]:
        """Hashable scheduler-subscription key for the (table, key) lock —
        passed as a ``WaitFor.wake_keys`` entry so lock waiters are woken
        by :meth:`release_all`'s ``on_release`` callback."""
        return ("lock", table, key)

    def holders(self, table: str, key: tuple) -> Set["TxnContext"]:
        """Current holders of the (table, key) lock (possibly empty)."""
        state = self._locks.get((table, key))
        return set(state.holders) if state else set()

    def is_free_for(self, ctx: "TxnContext", table: str, key: tuple, mode: str) -> bool:
        """Would a request by ``ctx`` be granted right now?"""
        state = self._locks.get((table, key))
        return state is None or state.compatible(ctx, mode)

    def release_all(self, ctx: "TxnContext",
                    on_release: Optional[Callable[[tuple], None]] = None) -> int:
        """Release every lock held by ``ctx``; returns the count released.

        ``on_release`` (if given) is called with :meth:`wake_key` of every
        released lock — the scheduler's ``notify``, waking waiters
        subscribed on it."""
        released = 0
        dead_keys = []
        for lock_key, state in self._locks.items():
            if ctx in state.holders:
                state.holders.discard(ctx)
                released += 1
                if not state.holders:
                    state.mode = None
                    dead_keys.append(lock_key)
                elif state.mode == LockMode.EXCLUSIVE:
                    # the exclusive holder left; remaining holders are readers
                    state.mode = LockMode.SHARED
                if on_release is not None:
                    on_release(self.wake_key(*lock_key))
        for lock_key in dead_keys:
            del self._locks[lock_key]
        return released

    def held_count(self) -> int:
        """Total number of (txn, lock) holdings — used by tests."""
        return sum(len(s.holders) for s in self._locks.values())
