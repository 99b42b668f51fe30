"""The discrete-event scheduler.

The scheduler owns simulated time.  It keeps a heap of (time, event) pairs;
events are either worker wake-ups or arbitrary callbacks (used for policy
switches and wait timeouts).  Workers blocked on a :class:`WaitFor` are held
in a parked map, one :class:`_Park` record each (the wait, when it parked,
the wake keys it is subscribed under); the map's insertion order is the
park order.

Every park arms a ``wait_timeout`` timer, and most parks end long before
it is due.  The timers wait in one arm-ordered queue, and only its head is
on the heap, under the (deadline, seq) its own callback would have had.
Arm order is deadline order — ``now`` never decreases and ``wait_timeout``
is one constant per run — so when the head fires, the timers behind it
whose park already ended are dropped (each would have fired as a no-op;
a park's generation is never reused), the next live one goes on the heap,
and every timer that does fire fires at its own place in the event order.
Dead timers thus neither sit on the heap nor count in
:attr:`Scheduler.events_processed`.

Wake-ups are *event-driven* (subscription-based): when a worker parks, it
is registered on a wake index keyed by every transaction in the wait's
``dep_ctxs`` (plus its own in-flight context, and any extra ``wake_keys``
such as the record whose commit lock it awaits).  The code that mutates
shared state — progress advances, version exposure, piece validation,
commit/abort termination, lock releases — calls :meth:`Scheduler.notify`,
which flags the subscribed workers; at the end of the current worker
advance (the only point at which shared state can have changed) only the
flagged workers re-check their condition, in park order — the
deterministic tie-break.  A wait that declares neither dependencies nor
wake keys could only ever end by timeout, so parking on one is a
:class:`~repro.errors.SchedulerError`.

Another worker is aborted through one of two verbs.
:meth:`Scheduler.interrupt` is deferred: the exception is delivered at the
worker's next advance — at once (scheduled at ``now``) if it is parked, at
its natural wake-up if it sleeps — and only to an attempt still active
then.  :meth:`Scheduler.abort_parked` is immediate, for callbacks: a
parked worker is unparked and advanced with the exception right away.

Wait-for cycles (mutual dependency deadlocks) are detected when a worker
parks — the only moment a cycle can close, since every other new edge
points at a running worker (a lock granted, a lock changing hands).  The
graph has one definition, :meth:`WaitFor.edges`, read by the cycle search
and the watchdog's diagnostics alike: a lock wait's edges are the lock's
*current* holders other than the requester, a commit / progress wait's its
active ``dep_ctxs``.  If the park closes a cycle through a correctness wait
(commit-phase dependency waits and lock waits), the *youngest* transaction
in the cycle is aborted — it has the fewest transactions depending on it,
so the cascade it seeds is smallest.  One park can close several cycles:
when the youngest is another worker, it is aborted at its own wait and the
search runs again from the parker, until the parker lies on no cycle or is
itself the victim.  Performance waits (the paper's execution-time wait
actions, which are hints) simply proceed.  A wait timeout provides a
second-line safety valve.

The search is skipped when the subscription index proves no edge enters
the parker.  That shortcut is exact only for dependency edges (a commit /
progress waiter subscribes on each of its ``dep_ctxs``); lock edges are
read live, so it applies only while no other lock waiter is parked.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from operator import attrgetter
from typing import (Callable, Dict, List, Optional, Sequence,  # noqa: F401
                    Set, Tuple, TYPE_CHECKING)

from ..config import SimConfig
from ..core.context import TxnStatus
from ..errors import (AbortReason, LivelockError, SchedulerError,
                      TransactionAborted)
from ..obs.tracing import EventKind, NULL_SINK, TraceEvent, TraceSink
from .events import Cost, CostKind, WaitFor
from .worker import Worker

if TYPE_CHECKING:
    from ..obs.profile import TimeAccountant
    from ..obs.timeline import TimelineSampler

_KIND_WORKER = 0
_KIND_CALLBACK = 1

#: bound once: _schedule_worker runs once per simulated event
_heappush = heapq.heappush

_ACTIVE = TxnStatus.ACTIVE
_WORKER_ID = attrgetter("worker_id")


class _Park:
    """One parked worker: its wait, when it parked (advanced to ``now``
    when :meth:`Scheduler.finish_accounting` charges the tail) and the
    wake-index keys it is subscribed under."""

    __slots__ = ("wait", "start", "keys")

    def __init__(self, wait: WaitFor, start: float,
                 keys: List[object]) -> None:
        self.wait = wait
        self.start = start
        self.keys = keys


class RunLayer:
    """An opt-in subsystem of one run — the cluster runtime, durability,
    the open-loop frontend, the fault injector.  The bench runner builds
    the layers a run's config and fault plan ask for and drives each
    through the same steps, in install order: :meth:`install` after the
    workers are added, :meth:`finalize` once the run is closed, then
    :meth:`check_invariants` and :meth:`install_metrics`."""

    #: violations the layer's own oracle recorded while the run went;
    #: reported even when the caller skips the end-of-run checks
    violations: Sequence[str] = ()

    def install(self, scheduler: "Scheduler") -> None:
        """Attach to the scheduler slot the hot path reads and schedule
        the layer's first callbacks."""
        raise NotImplementedError

    def finalize(self, now: float) -> None:
        """End-of-run bookkeeping at the horizon ``now``."""

    def check_invariants(self) -> List[str]:
        """The layer's end-of-run audit (after :meth:`finalize`)."""
        return list(self.violations)

    def install_metrics(self, registry, **labels: str) -> None:
        """Write the layer's end-of-run metrics into ``registry``."""


class Scheduler:
    """Event loop for one simulated run."""

    def __init__(self, config: SimConfig,
                 trace: Optional[TraceSink] = None,
                 accountant: Optional[TimeAccountant] = None,
                 timeline: Optional[TimelineSampler] = None) -> None:
        self.config = config
        self.now = 0.0
        #: structured event sink; the default no-op sink has
        #: ``enabled == False``, so every emission site below short-circuits
        self.trace: TraceSink = trace if trace is not None else NULL_SINK
        #: optional per-worker time accountant (``repro.obs.profile``)
        self.accountant = accountant
        #: optional windowed run-insight sampler; ``None`` keeps the
        #: timeline hooks to one falsy attribute check per site (same
        #: contract as the tracer)
        self.timeline = timeline
        # the opt-in layers' slots, each set by that layer's install();
        # ``None`` keeps the layer's hooks to one falsy attribute check
        #: :class:`~repro.faults.FaultInjector`
        self.faults = None
        #: :class:`~repro.durability.DurabilityManager`
        self.durability = None
        #: :class:`~repro.frontend.Frontend`; ``None`` is a closed loop
        self.frontend = None
        #: :class:`~repro.cluster.ClusterRuntime`; ``None`` is one node
        self.cluster = None
        self._heap: List[Tuple[float, int, int, object]] = []
        #: events scheduled *at the current instant* bypass the heap: they
        #: are appended here and drained FIFO.  The deque is sorted by
        #: (time, seq) by construction — ``now`` never decreases and seq is
        #: monotonic — so merging it with the heap head by tuple comparison
        #: preserves the exact global event order while skipping the
        #: O(log n) heap churn on the dominant schedule-at-now path.
        self._ready: deque = deque()
        #: armed wait timeouts, ``(deadline, seq, worker, generation)`` in
        #: arm order — also (deadline, seq) order, because ``now`` never
        #: decreases and ``wait_timeout`` is one constant per run.  Only
        #: the head is on the heap (see :meth:`_fire_timeout`).
        self._timeouts: deque = deque()
        self._wait_timeout = config.cost.wait_timeout
        self._seq = itertools.count()
        self._workers: List[Worker] = []
        #: parked worker -> its park record; insertion order is park order
        #: (a worker is popped on unpark), the wake-up tie-break
        self._parked: Dict[Worker, _Park] = {}
        #: parked workers whose wait has live lock edges (WaitFor.holders):
        #: the subscription index does not cover those edges
        self._lock_waiters = 0
        #: wake index: subscription key (TxnContext / Record / lock key) ->
        #: subscribed parked workers (dict used as an ordered set)
        self._subs: Dict[object, Dict[Worker, None]] = {}
        #: subscribed workers flagged by notify() since the last flush
        self._dirty: Set[Worker] = set()
        #: exception to throw into a worker at its next advance, if its
        #: attempt is still active then (see :meth:`interrupt`)
        self._pending_exc: Dict[Worker, BaseException] = {}
        #: horizon-clipped (cost kind, Cost remainder) per sleeping worker:
        #: charged to the accountant when the deferred wake fires in a
        #: later run()
        self._deferred_cost: Dict[Worker, Tuple[str, float]] = {}
        #: (charged span end, cost kind) of each sleeping worker's current
        #: cost; tracked only in durability mode so a node crash can refund
        #: the pre-charged span beyond the crash instant
        self._sleep_charge: Dict[Worker, Tuple[float, str]] = {}
        self._run_until = 0.0
        #: heap events popped by run() — the simulator-throughput numerator
        #: (events/sec)
        self.events_processed = 0
        #: statistics of safety-valve firings (exposed for tests/analysis)
        self.cycle_breaks = 0
        self.timeout_breaks = 0
        #: simulated time of the most recent commit (progress watchdog)
        self.last_commit_time = 0.0
        #: how many livelock windows the watchdog has declared
        self.livelock_fires = 0
        self._watchdog_armed = False
        #: accumulated parked simulated time per WaitKind (wait profiling)
        self.wait_time_by_kind: Dict[str, float] = {}
        self.wait_count_by_kind: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # registration

    def add_worker(self, worker: Worker, start_time: float = 0.0) -> None:
        self._workers.append(worker)
        self._schedule_worker(worker, start_time)

    def schedule_callback(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at simulated ``time`` (>= now)."""
        if time < self.now:
            raise SchedulerError(f"callback scheduled in the past: {time} < {self.now}")
        event = (time, next(self._seq), _KIND_CALLBACK, fn)
        if time == self.now:
            self._ready.append(event)
        else:
            heapq.heappush(self._heap, event)

    def _schedule_worker(self, worker: Worker, time: float) -> None:
        worker.generation += 1
        event = (time, next(self._seq), _KIND_WORKER,
                 (worker, worker.generation))
        if time == self.now:
            self._ready.append(event)
        else:
            _heappush(self._heap, event)

    # ------------------------------------------------------------------ #
    # main loop

    def run(self, until: float) -> None:
        """Advance simulated time to ``until``, processing all events."""
        if until < self.now:
            raise SchedulerError("cannot run backwards in time")
        self._run_until = until
        if self.config.watchdog_window is not None and not self._watchdog_armed:
            self._watchdog_armed = True
            self.schedule_callback(self.now + self.config.watchdog_window,
                                   self._watchdog_fire)
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        advance = self._advance
        events = 0
        try:
            while True:
                # drain the ready deque and the heap in merged (time, seq)
                # order; ready entries are always <= until (their time is a
                # past value of ``now``) and heap ties at the same time carry
                # smaller seqs, so the tuple comparison settles every race
                if ready:
                    if heap and heap[0] < ready[0]:
                        time, _, kind, payload = heappop(heap)
                    else:
                        time, _, kind, payload = ready.popleft()
                elif heap and heap[0][0] <= until:
                    time, _, kind, payload = heappop(heap)
                else:
                    break
                self.now = time
                events += 1
                if kind == _KIND_CALLBACK:
                    payload()
                    continue
                worker, generation = payload
                if generation != worker.generation or worker.finished:
                    continue  # stale wake-up
                advance(worker)
        finally:
            # flushed here (not per event) so an escaping LivelockError or
            # watchdog abort still leaves an exact count behind
            self.events_processed += events
        self.now = until

    # ------------------------------------------------------------------ #
    # worker driving

    def _advance(self, worker: Worker,
                 initial_exc: Optional[BaseException] = None) -> None:
        """Resume ``worker`` until it sleeps, parks or finishes."""
        exc = initial_exc
        if self._sleep_charge:
            # the sleep completed normally; nothing left to refund on crash
            self._sleep_charge.pop(worker, None)
        if self._deferred_cost:
            # the worker's sleep crossed a previous run() horizon: the wake
            # has now fired, so the clipped remainder is simulated after all
            # — charge it (satellite fix: segmented-run accounting identity)
            deferred = self._deferred_cost.pop(worker, None)
            if deferred is not None and self.accountant is not None:
                self.accountant.on_cost(worker.worker_id, *deferred)
        if exc is None and self._pending_exc:
            exc = self._pending_exc.pop(worker, None)
            ctx = worker.current_ctx
            if ctx is None or not ctx.is_active():
                # the attempt ended meanwhile: a committed one is merely a
                # late commit (SLO miss), an aborted one needs no abort
                exc = None
        if exc is None and self.faults is not None \
                and self.faults.has_pending(worker.worker_id):
            exc, downtime = self.faults.consume_pending(worker)
            if exc is None and downtime > 0.0:
                # crashed between transactions: stay down, then retry
                self._schedule_worker(worker, self.now + downtime)
                return
        gen = worker._gen
        while True:
            try:
                directive = gen.send(None) if exc is None else gen.throw(exc)
            except StopIteration:
                worker.finished = True
                directive = None
            exc = None
            if directive is None:
                break  # worker finished
            if isinstance(directive, Cost):
                ticks = directive.ticks
                if self.faults is not None and directive.kind == CostKind.WORK:
                    ticks, fault_exc = self.faults.on_work_cost(worker, ticks)
                    if fault_exc is not None:
                        exc = fault_exc
                        continue
                if ticks <= 0:
                    continue
                if self.accountant is not None:
                    # charge only the span inside the run horizon now; the
                    # remainder is deferred and charged if/when the wake
                    # fires in a later run() segment (it may never fire, in
                    # which case the remainder is never simulated)
                    horizon = max(0.0, self._run_until - self.now)
                    if ticks > horizon:
                        self._deferred_cost[worker] = (directive.kind,
                                                       ticks - horizon)
                        charge = horizon
                    else:
                        charge = ticks
                    if charge > 0.0:
                        self.accountant.on_cost(worker.worker_id,
                                                directive.kind, charge)
                        if self.durability is not None:
                            self._sleep_charge[worker] = (self.now + charge,
                                                          directive.kind)
                # _schedule_worker inlined, one call less per event: the
                # wake is ``ticks > 0`` ahead, so it belongs on the heap,
                # never on the ready deque
                worker.generation += 1
                _heappush(self._heap, (self.now + ticks, next(self._seq),
                                       _KIND_WORKER,
                                       (worker, worker.generation)))
                break
            # WaitFor
            wait = directive
            if wait.condition():
                continue
            worker.generation += 1  # invalidate any in-flight wake-ups
            self._park(worker, wait)
            self.wait_count_by_kind[wait.kind] = \
                self.wait_count_by_kind.get(wait.kind, 0) + 1
            if self.trace.enabled:
                ctx = worker.current_ctx
                attrs = {"wait_kind": wait.kind,
                         "n_deps": len(wait.dep_ctxs)}
                if wait.dep_ctxs:
                    # dependency *types*, for conflict attribution — the
                    # txn-type-pair key of repro.obs.insight
                    attrs["deps"] = sorted(
                        {d.type_name for d in wait.dep_ctxs})
                self.trace.emit(TraceEvent(
                    self.now, EventKind.WAIT_BEGIN, worker.worker_id,
                    ctx.txn_id if ctx is not None else None,
                    ctx.type_name if ctx is not None else None,
                    attrs))
            # break every cycle the park closed: abort the youngest member
            # of each, and search again while the parker itself survives
            cycle = self._find_cycle(worker)
            while cycle is not None:
                self.cycle_breaks += 1
                if not wait.abort_on_break:
                    # performance wait: the waiter just proceeds
                    self._unpark(worker, outcome="cycle")
                    self._exempt_wait(worker, wait)
                    break
                victim = self._pick_cycle_victim(cycle)
                if victim is worker:
                    self._unpark(worker, outcome="cycle")
                    exc = TransactionAborted(AbortReason.WAIT_CYCLE)
                    break
                # abort the victim at its own wait: unparked, its edges
                # leave the graph, so this cycle is gone
                self.interrupt(victim, TransactionAborted(
                    AbortReason.WAIT_CYCLE), outcome="cycle")
                cycle = self._find_cycle(worker)
            else:
                # on no cycle any more: the parker stays parked
                self._arm_timeout(worker, worker.generation)
                break
        if self._dirty:
            self.wake_parked()

    def _park(self, worker: Worker, wait: WaitFor) -> None:
        """Register ``worker`` as parked on ``wait`` and subscribe it on the
        wait's wake keys.  A wait that declares neither ``dep_ctxs`` nor
        ``wake_keys`` is refused: nothing would ever notify for it."""
        if not wait.dep_ctxs and not wait.wake_keys:
            raise SchedulerError(
                f"{wait.kind} wait declares neither dep_ctxs nor wake_keys: "
                "nothing could wake it before its timeout")
        if wait.holders is not None:
            self._lock_waiters += 1
        ctx = worker.current_ctx
        keys: List[object] = []
        own = () if ctx is None else (ctx,)
        for key in itertools.chain(wait.dep_ctxs, wait.wake_keys, own):
            subs = self._subs.get(key)
            if subs is None:
                subs = self._subs[key] = {}
            if worker not in subs:
                subs[worker] = None
                keys.append(key)
        self._parked[worker] = _Park(wait, self.now, keys)

    # ------------------------------------------------------------------ #
    # wake-up notification

    def notify(self, key: object) -> None:
        """Flag workers subscribed on ``key`` for a condition re-check at
        the end of the current advance.  Called by the code that changes
        a transaction's observable wait state (progress advances, version
        exposure / piece validation, commit/abort termination, dooming) or
        releases a lock wake key (a record whose commit lock was released,
        a :meth:`LockTable.wake_key <repro.storage.locks.LockTable.
        wake_key>`, a frontend view that received work)."""
        subs = self._subs.get(key)
        if subs:
            self._dirty.update(subs)

    def wake_parked(self) -> None:
        """Wake every parked worker whose condition has become true:
        re-check only the workers flagged by :meth:`notify`, in park order
        (so wake order, and every downstream tie-break, is deterministic).
        Every worker advance ends in this re-check; a callback that creates
        work — the frontend's arrival enqueue — calls it itself."""
        dirty = self._dirty
        if not dirty:
            return
        ready = [worker for worker, park in self._parked.items()
                 if worker in dirty and park.wait.condition()]
        dirty.clear()
        for worker in ready:
            self._unpark(worker)
            self._schedule_worker(worker, self.now)

    def _unpark(self, worker: Worker, outcome: str = "satisfied") -> None:
        park = self._parked.pop(worker)
        wait = park.wait
        if wait.holders is not None:
            self._lock_waiters -= 1
        for key in park.keys:
            subs = self._subs.get(key)
            if subs is not None:
                subs.pop(worker, None)
                if not subs:
                    del self._subs[key]
        self._dirty.discard(worker)
        waited = self.now - park.start
        self.wait_time_by_kind[wait.kind] = \
            self.wait_time_by_kind.get(wait.kind, 0.0) + waited
        if self.accountant is not None:
            self.accountant.on_wait(worker.worker_id, wait.kind, waited)
        if self.timeline is not None:
            self.timeline.on_wait(self.now, wait.kind, waited)
        if self.trace.enabled:
            ctx = worker.current_ctx
            self.trace.emit(TraceEvent(
                self.now, EventKind.WAIT_END, worker.worker_id,
                ctx.txn_id if ctx is not None else None,
                ctx.type_name if ctx is not None else None,
                {"wait_kind": wait.kind, "waited": waited,
                 "outcome": outcome}))

    def finish_accounting(self) -> None:
        """Charge wait time of workers still parked when the run horizon is
        reached, so parked tails show up as waits, not idle time.  Safe to
        call more than once (the park start is advanced to ``now``)."""
        if self.accountant is None and self.timeline is None:
            return
        for worker, park in self._parked.items():
            waited = self.now - park.start
            if waited > 0.0:
                kind = park.wait.kind
                if self.accountant is not None:
                    self.accountant.on_wait(worker.worker_id, kind, waited)
                if self.timeline is not None:
                    self.timeline.on_wait(self.now, kind, waited)
                park.start = self.now

    def close(self) -> None:
        """Tear down all workers in worker-id order, unwinding in-flight
        attempts through their cleanup paths.  Without this, generators are
        finalised by garbage collection in reference-drop order, and the
        teardown's abort cascade (scrubs, dooms, trace events) would vary
        from run to run."""
        for worker in self._workers:
            if not worker.finished:
                worker.close()

    def release(self) -> None:
        """Let go of the run's world, the last step of a run: close every
        worker (a no-op but for its in-flight context once it finished;
        a teardown in worker-id order if an exception escaped the run),
        then drop the queued events and timers, park records, wake index,
        per-worker deferrals, the workers and the attached layers.  Each
        of those points back at the scheduler, so without this a finished
        run — its database included — is one reference cycle only the
        cyclic collector could free.  The counters and wait profiles stay
        readable."""
        for worker in self._workers:
            worker.close()
        for container in (self._heap, self._ready, self._timeouts,
                          self._parked, self._subs, self._dirty,
                          self._pending_exc, self._deferred_cost,
                          self._sleep_charge, self._workers):
            container.clear()
        self.cluster = self.durability = self.frontend = None
        self.faults = self.timeline = None

    # ------------------------------------------------------------------ #
    # deadlock handling

    def _successors(self, worker: Worker) -> List[Worker]:
        park = self._parked.get(worker)
        if park is None:
            return []
        result = []
        for ctx in park.wait.edges():
            if ctx.status != _ACTIVE:
                continue
            dep_worker = ctx.worker
            if dep_worker is not None:
                result.append(dep_worker)
        # edges come from (frozen)sets whose iteration order depends on
        # object hashes; the DFS below picks *which* cycle is reported (and
        # hence the victim), so the walk must be deterministic
        if len(result) > 1:
            result.sort(key=_WORKER_ID)
        return result

    def _find_cycle(self, start: Worker) -> Optional[List[Worker]]:
        """If parking ``start`` created a wait-for cycle through it, return
        the cycle's members (path from ``start`` back to ``start``).

        A cycle through ``start`` needs some other parked worker waiting on
        ``start``'s in-flight context.  A commit / progress waiter is
        subscribed on each of its ``dep_ctxs``, so the subscription index
        answers "who dependency-waits on this context" exactly; lock edges
        are read live, and a lock waiter's subscriptions (the holders it
        saw at park time) miss holders granted since.  So the DFS is skipped
        only when no *other* lock waiter is parked and nobody but ``start``
        itself is subscribed on ``start.current_ctx``."""
        ctx = start.current_ctx
        if ctx is None:
            return None
        other_lock_waiters = self._lock_waiters
        if self._parked[start].wait.holders is not None:
            other_lock_waiters -= 1
        if not other_lock_waiters:
            subs = self._subs.get(ctx)
            if not subs or (len(subs) == 1 and start in subs):
                return None
        path: List[Worker] = []
        if self._search_back_to(start, start, set(), path):
            path.reverse()
            return [start] + [w for w in path if w is not start]
        return None

    def _search_back_to(self, target: Worker, worker: Worker, seen: set,
                        path: List[Worker]) -> bool:
        """Depth-first walk of the wait-for graph from ``worker`` for an
        edge back to ``target``, appending the workers on it to ``path``
        innermost first.  A method, not a closure inside
        :meth:`_find_cycle`: a recursive closure names itself through its
        own cell, and every search would leave that reference cycle behind
        for the paused collector."""
        for successor in self._successors(worker):
            if successor is target:
                path.append(worker)
                return True
            if successor in seen:
                continue
            seen.add(successor)
            if self._search_back_to(target, successor, seen, path):
                path.append(worker)
                return True
        return False

    @staticmethod
    def _pick_cycle_victim(cycle: List[Worker]) -> Worker:
        """Abort the youngest transaction in the cycle: it has the fewest
        transactions depending on it, so the cascade it seeds is smallest.
        Ties (e.g. workers with no in-flight context) break on worker id so
        the choice is deterministic regardless of cycle traversal order."""
        def age(worker: Worker):
            ctx = worker.current_ctx
            priority = ctx.priority if ctx is not None else (float("-inf"), 0)
            return (priority, worker.worker_id)
        return max(cycle, key=age)

    @staticmethod
    def _exempt_wait(worker: Worker, wait: WaitFor) -> None:
        """After breaking a performance wait, stop the transaction from
        re-creating the same doomed wait at its next access."""
        ctx = worker.current_ctx
        if ctx is not None:
            ctx.wait_exempt.update(wait.dep_ctxs)

    def _arm_timeout(self, worker: Worker, generation: int) -> None:
        """Break ``worker``'s wait if it is still parked on it after
        ``wait_timeout``: the park's ``generation`` identifies the wait
        (every park and every wake-up bumps it).  The timer joins the
        arm-ordered queue under the ``seq`` a callback scheduled here would
        draw; only the queue's head sits on the heap.  The entry must not
        hold the park record — it would keep the wait's transactions alive
        for the whole timeout."""
        entry = (self.now + self._wait_timeout, next(self._seq), worker,
                 generation)
        timeouts = self._timeouts
        timeouts.append(entry)
        if len(timeouts) == 1:
            self._push_timeout(entry)

    def _push_timeout(self, entry: Tuple[float, int, Worker, int]) -> None:
        """Put the timer queue's head on the heap under its own (deadline,
        seq), so it fires exactly where its own callback would have."""
        _heappush(self._heap, (entry[0], entry[1], _KIND_CALLBACK,
                               self._fire_timeout))

    def _fire_timeout(self) -> None:
        """The queue's head is due: pop it and every timer behind it whose
        park already ended (it would have fired as a no-op), put the next
        live timer on the heap, then break the head's wait if it is still
        parked on it."""
        timeouts = self._timeouts
        _, _, worker, generation = timeouts.popleft()
        parked = self._parked
        while timeouts:
            _, _, waiter, armed = head = timeouts[0]
            if waiter in parked and waiter.generation == armed:
                self._push_timeout(head)
                break
            timeouts.popleft()
        park = parked.get(worker)
        if park is None or worker.generation != generation:
            return  # no longer parked on that wait
        self.timeout_breaks += 1
        if park.wait.abort_on_break:
            self.abort_parked(worker, TransactionAborted(
                AbortReason.WAIT_TIMEOUT), outcome="timeout")
        else:
            self._unpark(worker, outcome="timeout")
            self._exempt_wait(worker, park.wait)
            self._advance(worker)

    # ------------------------------------------------------------------ #
    # aborting another worker

    def interrupt(self, worker: Worker, exc: BaseException,
                  outcome: str) -> None:
        """Abort ``worker``'s attempt at its next advance (deferred): a
        parked worker is unparked with ``outcome`` and scheduled at
        ``now``, after the events already queued for this instant; a
        sleeping one aborts at its natural wake-up, so the charged cost
        span stays consistent with time.  Dropped if the attempt is no
        longer active by then."""
        self._pending_exc[worker] = exc
        if worker in self._parked:
            self._unpark(worker, outcome=outcome)
            self._schedule_worker(worker, self.now)

    def abort_parked(self, worker: Worker, exc: BaseException,
                     outcome: str) -> bool:
        """If ``worker`` is parked, unpark it with ``outcome`` and throw
        ``exc`` at its wait right now (from a callback, before anything
        else at this instant).  Returns whether it was parked."""
        if worker not in self._parked:
            return False
        self._unpark(worker, outcome=outcome)
        self._advance(worker, exc)
        return True

    # ------------------------------------------------------------------ #
    # deadline enforcement (repro.frontend)

    def arm_deadline(self, worker: Worker, deadline: float,
                     token: int) -> None:
        """Schedule a deadline abort for ``worker``'s current invocation at
        ``deadline``.  ``token`` is the worker's ``deadline_token`` at arm
        time; the callback is a no-op if the worker has moved on.  A parked
        worker is aborted at once; a sleeping one at its next advance, and
        only if the attempt is still active then — an already-committed
        transaction just becomes a late commit (SLO miss)."""

        def fire() -> None:
            if worker.finished or worker.deadline_token != token:
                return  # the invocation already completed
            exc = TransactionAborted(AbortReason.DEADLINE,
                                     "invocation deadline passed")
            if not self.abort_parked(worker, exc, outcome="deadline"):
                self.interrupt(worker, exc, outcome="deadline")

        self.schedule_callback(deadline, fire)

    # ------------------------------------------------------------------ #
    # crash support (repro.durability, repro.cluster)

    def crash_workers(self, workers, outcome: str = "node_crash") -> int:
        """Tear down ``workers`` at the current instant (every worker for a
        whole-node crash, one shard's pinned workers for a shard crash).
        Parked workers are unparked (their wait time is charged), sleeping
        workers get the pre-charged span beyond ``now`` refunded, and each
        generator is closed in the given order so in-flight attempts abort
        through their normal cleanup paths.  Survivors keep their sleep
        charges, dirty flags and pending aborts.  Returns the number of
        in-flight transaction attempts lost."""
        lost_inflight = 0
        for worker in workers:
            if worker.finished:
                continue
            if worker in self._parked:
                self._unpark(worker, outcome=outcome)
            else:
                sleep = self._sleep_charge.pop(worker, None)
                if sleep is not None and self.accountant is not None:
                    end, kind = sleep
                    refund = end - self.now
                    if refund > 0.0:
                        # the crash cut the sleep short: the span beyond
                        # now was charged but never simulated
                        self.accountant.on_cost(worker.worker_id, kind,
                                                -refund)
            self._deferred_cost.pop(worker, None)
            self._pending_exc.pop(worker, None)
            ctx = worker.current_ctx
            had_active = ctx is not None and ctx.is_active()
            worker.close()
            if had_active:
                lost_inflight += 1
                if self.accountant is not None:
                    self.accountant.on_attempt_end(worker.worker_id,
                                                   committed=False)
        return lost_inflight

    def replace_workers(self, workers: List[Worker],
                        start_time: float) -> None:
        """Swap fresh workers in *by id* (every worker after a node's
        recovery, a crashed shard's workers at rejoin) and schedule each
        at ``start_time``.  The workers they replace must already be
        finished (their stale heap events are skipped via the generation
        guard); the rest of the worker list is untouched."""
        for worker in workers:
            self._workers[worker.worker_id] = worker
            self._schedule_worker(worker, start_time)

    # ------------------------------------------------------------------ #
    # progress watchdog

    def _watchdog_fire(self) -> None:
        window = self.config.watchdog_window
        if window is None:  # pragma: no cover - config cannot change mid-run
            return
        deadline = self.last_commit_time + window
        if self.now < deadline:
            # a commit happened inside the window; re-arm at its horizon
            self.schedule_callback(deadline, self._watchdog_fire)
            return
        if all(worker.finished for worker in self._workers):
            return  # drained: nothing left that could commit
        if self.frontend is not None and self.frontend.idle():
            # open-loop starvation, not livelock: the admission queue is
            # empty and nothing is in flight, so "no commits" just means
            # offered load is (currently) zero.  Restart the window.
            self.last_commit_time = self.now
            self.schedule_callback(self.now + window, self._watchdog_fire)
            return
        diagnostics = self._livelock_diagnostics(window)
        self.livelock_fires += 1
        if self.trace.enabled:
            self.trace.emit(TraceEvent(
                self.now, EventKind.LIVELOCK, -1, attrs=diagnostics))
        if self.config.watchdog_action == "raise":
            raise LivelockError(
                f"no commit for {window} ticks (now={self.now}, "
                f"last commit at {self.last_commit_time})", diagnostics)
        victim = self._watchdog_victim()
        if victim is not None:
            self.abort_parked(victim, TransactionAborted(
                AbortReason.LIVELOCK, "progress watchdog"),
                outcome="livelock")
        # restart the window so one stall is reported (and acted on) once
        self.last_commit_time = self.now
        self.schedule_callback(self.now + window, self._watchdog_fire)

    def _watchdog_victim(self) -> Optional[Worker]:
        """The oldest blocked transaction: aborting it releases whatever the
        rest of the pile-up is queued behind."""
        best = None
        best_key = None
        for worker in self._parked:
            ctx = worker.current_ctx
            if ctx is None or not ctx.is_active():
                continue
            key = (ctx.priority, worker.worker_id)
            if best_key is None or key < best_key:
                best, best_key = worker, key
        return best

    def _livelock_diagnostics(self, window: float) -> dict:
        parked = []
        for worker, park in self._parked.items():
            ctx = worker.current_ctx
            parked.append({
                "worker": worker.worker_id,
                "wait_kind": park.wait.kind,
                "txn": ctx.txn_id if ctx is not None else None,
                "parked_for": self.now - park.start,
            })
        wait_edges = [[worker.worker_id, successor.worker_id]
                      for worker in self._parked
                      for successor in self._successors(worker)]
        return {"window": window, "action": self.config.watchdog_action,
                "last_commit_time": self.last_commit_time,
                "parked": parked, "wait_edges": wait_edges,
                "on_cycle": self.parked_on_cycle()}

    def parked_on_cycle(self) -> List[int]:
        """Sorted ids of the abort-on-break parked workers that lie on a
        live wait-for cycle — the liveness oracle's question.  A park
        breaks every cycle it closes, so this is empty in a correct run."""
        return sorted(worker.worker_id
                      for worker, park in self._parked.items()
                      if park.wait.abort_on_break
                      and self._find_cycle(worker) is not None)

    # ------------------------------------------------------------------ #

    @property
    def parked_count(self) -> int:
        return len(self._parked)
