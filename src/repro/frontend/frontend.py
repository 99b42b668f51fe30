"""The open-loop frontend: Poisson arrivals, bursts, and the overload oracle.

One :class:`Frontend` per run.  It owns the arrival process (a dedicated
RNG stream seeded from the run seed and :data:`ARRIVAL_RNG_SALT`), one
bounded :class:`~repro.frontend.admission.AdmissionQueue` per shard — a
single-node run is the 1-shard case — and the run's admission accounting.
Each arrival is routed to its client's **home shard** queue: cluster
workload adapters draw a client's transactions from that client's
shard-local id ranges (``client * n_shards // n_clients`` — the same
contiguous-block formula that pins workers to shards).  Workers in
open-loop mode pull invocations from their own shard's queue through its
:class:`ShardView` and report every outcome back via
:meth:`Frontend.note_done`, so the frontend can verify conservation at the
end of the run: every arrival is admitted or shed, every admitted
invocation is dequeued, evicted, expired or still queued, and every
dequeued invocation commits, is permanently rejected, or was abandoned at
teardown.  Nothing is lost and nothing is double-counted.

The conservation ledger is **global** — arrivals, admissions, sheds,
dequeues and outcomes are counted across shards, so the overload oracle's
invariants are the same at any shard count — while ``queue_cap`` bounds
each shard's queue individually (N shards have N slot pools, not one).

Arrival scheduling is lazy: each arrival draws the gap to the next one
from the rate in force *now*, so scripted bursts (from
``FrontendConfig.bursts`` or a fault plan's ``burst`` events) take effect
from the next draw after their window opens.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import SimConfig
from ..core.backoff import ExponentialBackoffManager
from ..obs.tracing import EventKind, TraceEvent
from ..rng import spawn_rng
from ..sim.scheduler import RunLayer
from .admission import (AdmissionQueue, QueuedInvocation,
                        SHED_DEADLINE_INFLIGHT, SHED_DEADLINE_QUEUE,
                        SHED_EVICTED, SHED_RETRY_BUDGET, SHED_SHARD_DOWN)

#: salt for the arrival RNG stream: distinct from worker ids (small ints),
#: ``FAULT_RNG_SALT`` and ``EVAL_RNG_SALT``, so open-loop arrivals never
#: correlate with any other seeded stream
ARRIVAL_RNG_SALT = 0x41525256  # "ARRV"

#: fraction of each open-loop retry pause randomised away, unless the run's
#: backoff policy carries its own ``jitter``
RETRY_JITTER = 0.1


class ShardView:
    """One shard's queue as its workers see it: wait predicate, shard
    index for :meth:`Frontend.next_item`, and the wake key idle workers
    park on — so an arrival wakes only workers of the shard it landed on.
    It holds no reference back to the frontend, so a finished run's
    frontend is freed by reference counting."""

    __slots__ = ("shard", "queue")

    def __init__(self, shard: int, queue: AdmissionQueue) -> None:
        self.shard = shard
        self.queue = queue

    def has_work(self) -> bool:
        """Wait predicate for idle workers (see ``WaitKind.ARRIVAL``)."""
        return self.queue.has_work()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardView({self.shard})"


class Frontend(RunLayer):
    """Seeded open-loop arrival process, per-shard admission queues and
    the global admission ledger."""

    def __init__(self, config: SimConfig, workload, stats,
                 backoff_policy=None, runtime=None) -> None:
        """``backoff_policy`` (a :class:`~repro.core.backoff.BackoffPolicy`)
        may carry deployment bounds for :meth:`make_backoff`: its ``cap``
        tightens the retry cap and its ``jitter`` overrides
        :data:`RETRY_JITTER`.
        ``runtime`` (the run's :class:`~repro.cluster.ClusterRuntime`)
        makes the frontend shard-aware; without it there is one shard."""
        fc = config.frontend
        if fc is None:
            raise ValueError("Frontend requires config.frontend to be set")
        self.config = config
        self.fc = fc
        self.workload = workload
        self.stats = stats
        self.runtime = runtime
        self.rng = spawn_rng(config.seed, ARRIVAL_RNG_SALT)
        self.n_shards = 1 if runtime is None else runtime.n_shards
        self.queues = [AdmissionQueue(fc.queue_cap, fc.shed_policy,
                                      dict(fc.priorities))
                       for _ in range(self.n_shards)]
        self._views = [ShardView(shard, queue)
                       for shard, queue in enumerate(self.queues)]
        self.scheduler = None
        self.n_clients = fc.n_clients or config.n_workers
        self._retry_cap = None
        self._retry_jitter = RETRY_JITTER
        if backoff_policy is not None:
            self._retry_cap = backoff_policy.cap
            if backoff_policy.jitter is not None:
                self._retry_jitter = backoff_policy.jitter
        #: scripted + fault-injected burst windows: (start, end, factor)
        self._bursts: List[Tuple[float, float, float]] = [
            (start, start + duration, factor)
            for start, duration, factor in fc.bursts]
        # --- conservation counters (the overload oracle's ledger) -------- #
        self.arrivals = 0
        self.admitted = 0
        self.rejected_arrivals = 0      # shed at admission (queue_full)
        self.evicted = 0                # shed from queue to make room
        self.expired_queue = 0          # deadline passed while queued
        self.dequeued = 0
        self.committed = 0
        self.rejected_inflight = {SHED_DEADLINE_INFLIGHT: 0,
                                  SHED_RETRY_BUDGET: 0,
                                  SHED_SHARD_DOWN: 0}
        self.abandoned = 0              # torn down mid-flight (horizon/crash)
        self.queued_at_end = 0
        self.inflight = 0               # dequeued but not yet done

    # ------------------------------------------------------------------ #
    # wiring

    def install(self, scheduler) -> None:
        """Attach to ``scheduler`` and schedule the first arrival.  Runs
        before the fault injector's install: scripted burst events
        validate against ``scheduler.frontend``."""
        self.scheduler = scheduler
        scheduler.frontend = self
        self.stats.open_loop = True
        self._schedule_next_arrival()

    def view_for(self, worker_id: int) -> ShardView:
        """The queue handle worker ``worker_id`` pulls from and parks on:
        its home shard's view."""
        if self.runtime is None:
            return self._views[0]
        return self._views[self.runtime.shard_of_worker(worker_id)]

    def idle(self) -> bool:
        """True when there is nothing the workers could be committing:
        every queue is empty and no dequeued invocation is in flight.  The
        progress watchdog treats this as starvation, not livelock."""
        return self.inflight == 0 and not any(
            queue.has_work() for queue in self.queues)

    def _depth(self) -> int:
        """Entries queued right now, over all shards."""
        return sum(map(len, self.queues))

    # ------------------------------------------------------------------ #
    # arrival process

    def rate_at(self, now: float) -> float:
        """Arrivals per tick in force at ``now`` (base rate times every
        open burst window's factor; overlapping bursts multiply)."""
        rate = self.fc.arrivals_per_tick
        for start, end, factor in self._bursts:
            if start <= now < end:
                rate *= factor
        return rate

    def apply_burst(self, factor: float, duration: float) -> None:
        """Open a burst window at the current instant (fault injector's
        scripted ``burst`` event).  Takes effect from the next gap draw."""
        now = self.scheduler.now
        self._bursts.append((now, now + duration, factor))

    def _schedule_next_arrival(self) -> None:
        now = self.scheduler.now
        gap = self.rng.expovariate(self.rate_at(now))
        self.scheduler.schedule_callback(now + gap, self._on_arrival)

    def _on_arrival(self) -> None:
        scheduler = self.scheduler
        now = scheduler.now
        self.arrivals += 1
        client = (self.arrivals - 1) % self.n_clients
        invocation = self.workload.next_invocation(self.rng, client)
        if invocation is None:
            return  # workload exhausted (replay mode): arrivals stop
        runtime = self.runtime
        shard = client * self.n_shards // self.n_clients  # the home shard
        queue = self.queues[shard]
        deadline = None if self.fc.deadline is None else now + self.fc.deadline
        item = QueuedInvocation(invocation, now, deadline, self.arrivals,
                                queue.priority_of(invocation.type_name))
        if runtime is not None and runtime.any_down \
                and runtime.shard_down[shard]:
            # degraded mode: the home shard is down, so no worker could
            # ever serve this arrival — shed at admission instead of
            # letting it rot in the queue (the RNG draw above already
            # happened, so the arrival stream is unperturbed)
            admitted, evicted, reason = False, (), SHED_SHARD_DOWN
        else:
            admitted, evicted, reason = queue.offer(item)
        for victim in evicted:
            self.evicted += 1
            self._record_shed(victim, SHED_EVICTED, now)
        if admitted:
            self.admitted += 1
        else:
            self.rejected_arrivals += 1
            self._record_shed(item, reason, now)
        depth = self._depth()
        trace = scheduler.trace
        if trace.enabled:
            attrs = {"seq": item.seq, "admitted": admitted, "depth": depth}
            if runtime is not None:
                attrs["shard"] = shard
            trace.emit(TraceEvent(
                now, EventKind.ARRIVAL, -1,
                txn_type=invocation.type_name, attrs=attrs))
        timeline = scheduler.timeline
        if timeline is not None:
            timeline.on_queue_depth(now, depth)
        if admitted:
            # the run loop executes callbacks without a condition re-check,
            # so wake the idle workers parked on this shard's view
            scheduler.notify(self._views[shard])
            scheduler.wake_parked()
        self._schedule_next_arrival()

    # ------------------------------------------------------------------ #
    # worker side

    def next_item(self, shard: int = 0) -> Optional[QueuedInvocation]:
        """Dequeue ``shard``'s oldest live invocation (or ``None`` if its
        queue is empty / holds only expired entries).  Expired entries
        passed over are counted as ``deadline_queue`` sheds."""
        now = self.scheduler.now
        item, expired = self.queues[shard].pop_live(now)
        for victim in expired:
            self.expired_queue += 1
            self._record_shed(victim, SHED_DEADLINE_QUEUE, now)
        timeline = self.scheduler.timeline
        if (expired or item is not None) and timeline is not None:
            timeline.on_queue_depth(now, self._depth())
        if item is None:
            return None
        self.dequeued += 1
        self.inflight += 1
        self.stats.record_queue_wait(now - item.arrival_time, now)
        return item

    def make_backoff(self, worker) -> ExponentialBackoffManager:
        """The retry backoff of open-loop ``worker``: Silo's exponential
        backoff under the backoff policy's cap, jittered from the worker's
        own RNG."""
        return ExponentialBackoffManager(self.config.cost, self._retry_cap,
                                         self._retry_jitter, rng=worker.rng)

    def note_done(self, item: QueuedInvocation,
                  outcome: Optional[str]) -> None:
        """Record the fate of a dequeued invocation.  ``outcome`` is
        ``"commit"``, a permanent-rejection shed reason
        (``deadline_inflight`` / ``retry_budget`` / ``shard_down``), or
        ``None`` when the worker was torn down mid-flight (run horizon
        or node crash)."""
        self.inflight -= 1
        if outcome == "commit":
            self.committed += 1
        elif outcome is None:
            self.abandoned += 1
        else:
            self.rejected_inflight[outcome] += 1
            self._record_shed(item, outcome, self.scheduler.now)

    # ------------------------------------------------------------------ #
    # accounting

    def _record_shed(self, item: QueuedInvocation, reason: str,
                     now: float) -> None:
        self.stats.record_shed(reason, item.invocation.type_name, now)
        trace = self.scheduler.trace
        if trace.enabled:
            trace.emit(TraceEvent(
                now, EventKind.SHED, -1,
                txn_type=item.invocation.type_name,
                attrs={"reason": reason, "seq": item.seq,
                       "queued": now - item.arrival_time}))
        timeline = self.scheduler.timeline
        if timeline is not None:
            timeline.on_shed(now)

    def finalize(self, now: float) -> None:
        """End-of-run sweep: classify everything still queued.  Entries
        whose deadline has passed are deadline_queue sheds; live ones are
        censored (``queued_at_end``), not shed."""
        for queue in self.queues:
            for item in queue.drain():
                if item.expired(now):
                    self.expired_queue += 1
                    self._record_shed(item, SHED_DEADLINE_QUEUE, now)
                else:
                    self.queued_at_end += 1

    @property
    def depth_max(self) -> int:
        """Deepest any single shard queue got (the cap is per shard)."""
        return max(queue.depth_max for queue in self.queues)

    def shed_total(self) -> int:
        return (self.rejected_arrivals + self.evicted + self.expired_queue
                + sum(self.rejected_inflight.values()))

    def check_invariants(self) -> List[str]:
        """The overload oracle's conservation checks.  Call after the run
        is closed and :meth:`finalize` has swept the queue."""
        violations: List[str] = []
        if self.depth_max > self.fc.queue_cap:
            violations.append(
                f"overload: queue depth {self.depth_max} exceeded cap "
                f"{self.fc.queue_cap}")
        if self.arrivals != self.admitted + self.rejected_arrivals:
            violations.append(
                f"overload: arrivals {self.arrivals} != admitted "
                f"{self.admitted} + rejected {self.rejected_arrivals}")
        accounted = (self.dequeued + self.evicted + self.expired_queue
                     + self.queued_at_end)
        if self.admitted != accounted:
            violations.append(
                f"overload: admitted {self.admitted} != dequeued "
                f"{self.dequeued} + evicted {self.evicted} + expired "
                f"{self.expired_queue} + queued_at_end {self.queued_at_end}")
        resolved = (self.committed + sum(self.rejected_inflight.values())
                    + self.abandoned)
        if self.dequeued != resolved:
            violations.append(
                f"overload: dequeued {self.dequeued} != committed "
                f"{self.committed} + rejected "
                f"{dict(self.rejected_inflight)} + abandoned "
                f"{self.abandoned}")
        if self.inflight != 0:
            violations.append(
                f"overload: {self.inflight} invocations still marked "
                "in flight after teardown")
        return violations

    def install_metrics(self, registry, **labels: str) -> None:
        stats = self.stats
        registry.gauge("frontend_goodput_tps", **labels).set(stats.goodput())
        registry.gauge("frontend_slo_attainment",
                       **labels).set(stats.slo_attainment())
        registry.counter("frontend_arrivals_total",
                         **labels).inc(self.arrivals)
        registry.counter("frontend_admitted_total",
                         **labels).inc(self.admitted)
        for reason, count in sorted(stats.shed.items()):
            registry.counter("frontend_shed_total", reason=reason,
                             **labels).inc(count)
        registry.gauge("frontend_queue_depth_max",
                       **labels).set(self.depth_max)
        if stats.queue_wait.count:
            registry.gauge("frontend_queue_wait_p99_us",
                           **labels).set(stats.queue_wait.pct(0.99))


class ShardedFrontend(Frontend):
    """``repro.cluster.ShardedFrontend``: never instantiated, only
    benchmarks/harness/child.py's import needs the name."""
