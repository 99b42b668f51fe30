"""Simulated worker threads.

A worker mirrors one database worker thread from the paper: it takes a
transaction invocation, executes it through the installed
concurrency-control protocol, and on abort backs off (§4.5) and retries the
*same* invocation until it commits (§7.1's retry-until-success methodology,
which keeps the committed mix at the workload's specified ratios).

One loop serves both client models; they differ only in where the next
invocation comes from.  A closed-loop worker draws it from the workload the
moment the previous one finishes, and retries up to ``config.max_retries``
(unbounded by default) under its protocol's backoff manager.  An open-loop
worker pulls it from its shard's admission queue (:mod:`repro.frontend`),
parking on an arrival wait while the queue is empty; the invocation's
deadline and the frontend's retry budget can end its retries early, its
pause comes from :meth:`~repro.frontend.Frontend.make_backoff`, and its
fate is reported back through :meth:`~repro.frontend.Frontend.note_done`.

The worker body is a Python generator; it yields :class:`~repro.sim.events.Cost`
and :class:`~repro.sim.events.WaitFor` directives that the scheduler
interprets.  Abort is signalled by :class:`~repro.errors.TransactionAborted`
propagating out of the CC executor (possibly *thrown in* by the scheduler on
a wait-for cycle or timeout).
"""

from __future__ import annotations

import random
from typing import Generator, Iterable, List, Optional, TYPE_CHECKING, Union

from ..errors import AbortReason, TransactionAborted
from ..obs.tracing import EventKind, TraceEvent
from ..rng import spawn_rng
from .events import Cost, CostKind, WaitFor, WaitKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SimConfig
    from ..core.context import TxnContext
    from .scheduler import Scheduler
    from .stats import RunStats

Directive = Union[Cost, WaitFor]


class Worker:
    """One simulated worker thread."""

    __slots__ = ("worker_id", "scheduler", "cc", "workload", "stats", "config",
                 "rng", "generation", "finished", "current_ctx",
                 "trace", "faults", "deadline", "deadline_token", "_gen")

    def __init__(self, worker_id: int, scheduler: "Scheduler", cc, workload,
                 stats: "RunStats", config: "SimConfig",
                 rng: random.Random) -> None:
        self.worker_id = worker_id
        self.scheduler = scheduler
        self.cc = cc
        self.workload = workload
        self.stats = stats
        self.config = config
        self.rng = rng
        #: the scheduler's trace sink (cached: one attribute hop on the
        #: hot path instead of two)
        self.trace = scheduler.trace
        #: the scheduler's fault injector, cached for the same reason when
        #: the run first advances the worker (layers install after the
        #: workers are added)
        self.faults = None
        #: bumped on every (re)schedule and park; stale heap events are skipped
        self.generation = 0
        self.finished = False
        #: context of the in-flight attempt (for wait-graph edges)
        self.current_ctx: Optional["TxnContext"] = None
        #: absolute deadline of the current open-loop invocation (``None``
        #: in closed-loop mode or when deadlines are off); captured into
        #: the durability log so deferred acks can detect SLO misses
        self.deadline: Optional[float] = None
        #: bumped per open-loop invocation; guards armed deadline callbacks
        self.deadline_token = 0
        self._gen: Generator[Directive, None, None] = self._main()

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Terminate the worker generator deterministically.  Raises
        ``GeneratorExit`` at its current yield point, so an in-flight
        attempt unwinds through the executor's cleanup (scrub + doom
        cascade) instead of at whatever moment garbage collection would
        have fired it.  The aborted attempt's context is let go too: it
        names the worker back, and a crashed worker outlives its run's
        worker list."""
        self._gen.close()
        self.finished = True
        self.current_ctx = None

    # ------------------------------------------------------------------ #

    def _main(self) -> Generator[Directive, None, None]:
        scheduler = self.scheduler
        self.faults = scheduler.faults
        frontend = scheduler.frontend
        trace = self.trace
        accountant = scheduler.accountant
        durability = scheduler.durability
        item = deadline = None
        if frontend is None:
            backoff = self.cc.make_backoff(self)
            limit = self.config.max_retries
        else:
            backoff = frontend.make_backoff(self)
            limit = frontend.fc.retry_budget
            view = frontend.view_for(self.worker_id)
            arrival_wait = WaitFor(view.has_work, WaitKind.ARRIVAL,
                                   abort_on_break=False, wake_keys=(view,))
        while True:
            if frontend is None:
                invocation = self.workload.next_invocation(self.rng,
                                                           self.worker_id)
                if invocation is None:
                    return  # workload exhausted (trace replay mode)
                first_start = scheduler.now
            else:
                item = frontend.next_item(view.shard)
                if item is None:
                    yield arrival_wait
                    continue
                invocation = item.invocation
                first_start = item.arrival_time
                deadline = self.deadline = item.deadline
                self.deadline_token += 1
                if deadline is not None:
                    scheduler.arm_deadline(self, deadline,
                                           self.deadline_token)
            attempt = 0
            outcome = None
            try:
                while True:
                    if deadline is not None and scheduler.now >= deadline:
                        # the deadline passed between attempts (e.g. during
                        # a retry backoff): no retry can make the SLO
                        outcome = "deadline_inflight"
                        break
                    if trace.enabled:
                        trace.emit(TraceEvent(
                            scheduler.now, EventKind.TX_START,
                            self.worker_id, txn_type=invocation.type_name,
                            attrs={"attempt": attempt}))
                    try:
                        yield from self.cc.run_transaction(
                            self, invocation, attempt, first_start)
                    except TransactionAborted as exc:
                        self.current_ctx = None
                        now = scheduler.now
                        self.stats.record_abort(invocation.type_name, now,
                                                exc.reason)
                        if accountant is not None:
                            accountant.on_attempt_end(self.worker_id,
                                                      committed=False)
                        if trace.enabled:
                            attrs = {"reason": exc.reason, "attempt": attempt}
                            site = getattr(exc, "site", None)
                            if site is not None:
                                attrs["table"] = site[0]
                                attrs["key"] = list(site[1])
                            trace.emit(TraceEvent(
                                now, EventKind.ABORT, self.worker_id,
                                txn_type=invocation.type_name, attrs=attrs))
                        attempt += 1
                        if exc.reject_reason is not None:
                            # permanent rejection (its target shard is
                            # down): retrying cannot succeed until the
                            # cluster heals, so give the invocation up
                            # under the exception's reason
                            outcome = exc.reject_reason
                            break
                        if deadline is not None and (
                                exc.reason == AbortReason.DEADLINE
                                or now >= deadline):
                            outcome = "deadline_inflight"
                            break
                        if limit is not None and attempt > limit:
                            outcome = "retry_budget"
                            break
                        pause = backoff.on_abort(invocation.type_index,
                                                 attempt)
                        if self.faults is not None:
                            # a crash keeps the worker down for its restart
                            # delay on top of the ordinary retry backoff
                            pause += self.faults.take_restart_delay(
                                self.worker_id)
                        if pause > 0:
                            self.stats.record_backoff(pause, now)
                            if trace.enabled:
                                # ``level`` has a meaning per client model:
                                # the manager's level in closed loop, the
                                # attempt count in open loop
                                level = (attempt if frontend is not None
                                         else backoff.current(
                                             invocation.type_index))
                                trace.emit(TraceEvent(
                                    scheduler.now, EventKind.BACKOFF,
                                    self.worker_id,
                                    txn_type=invocation.type_name,
                                    attrs={"pause": pause, "level": level}))
                            yield Cost(pause, CostKind.BACKOFF)
                        continue
                    self.current_ctx = None
                    now = scheduler.now
                    scheduler.last_commit_time = now
                    backoff.on_commit(invocation.type_index, attempt)
                    if durability is None:
                        self.stats.record_commit(invocation.type_name, now,
                                                 now - first_start,
                                                 deadline=deadline)
                    if accountant is not None:
                        accountant.on_attempt_end(self.worker_id,
                                                  committed=True)
                    log_cost = 0.0
                    if durability is not None:
                        # group commit: the ack (and its SLO verdict) waits
                        # for this epoch's flush; the worker only pays its
                        # buffered log-append cost here
                        log_cost = durability.consume_log_cost(
                            self.worker_id)
                    if trace.enabled:
                        attrs = {"attempts": attempt + 1,
                                 "latency": now - first_start}
                        if deadline is not None:
                            attrs["deadline_met"] = now <= deadline
                        if durability is not None:
                            attrs["log_cost"] = log_cost
                        trace.emit(TraceEvent(
                            now, EventKind.COMMIT, self.worker_id,
                            txn_type=invocation.type_name, attrs=attrs))
                    outcome = "commit"
                    if log_cost > 0.0:
                        yield Cost(log_cost)
                    break
            finally:
                if item is not None:
                    self.deadline = None
                    self.deadline_token += 1  # disarm any deadline fire
                    frontend.note_done(item, outcome)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Worker({self.worker_id})"


def spawn_workers(scheduler: "Scheduler", cc, workload, stats: "RunStats",
                  worker_ids: Iterable[int], *salts: int) -> List[Worker]:
    """The workers ``worker_ids`` of one run, each on its own RNG stream
    ``spawn_rng(seed, worker_id, *salts)`` — the run's first cohort (no
    salt) or a restart cohort after a crash."""
    config = scheduler.config
    return [Worker(worker_id, scheduler, cc, workload, stats, config,
                   spawn_rng(config.seed, worker_id, *salts))
            for worker_id in worker_ids]
