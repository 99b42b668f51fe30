"""The fault injector: deterministic perturbation of a simulated run.

One :class:`FaultInjector` is attached to a scheduler per run.  All of its
randomness comes from a dedicated :class:`random.Random` spawned from the
run's root seed, and all of its decision points sit on deterministic
simulator events (work-cost directives, executor accesses, scripted
callbacks), so the same (seed, plan) pair always produces the identical
sequence of fault firings — chaos runs are replayable bit for bit.

Injection sites and safety:

* **work costs** (``Scheduler._advance``): rate-drawn stalls, aborts and
  crashes fire only while the worker has an *active* in-flight transaction,
  and always at a directive boundary — never mid-sleep — so the
  time-accounting identity is preserved and the generator is never killed
  by throwing into its abort path.
* **accesses** (``PolicyExecutor._execute_op``): rate-drawn force-dooms,
  exercising the §4.3 doom/cascade machinery.
* **scripted events**: scheduler callbacks at exact simulated times.  A
  parked worker is interrupted immediately (its wait is cancelled and the
  abort is thrown at the ``WaitFor`` yield); a sleeping worker, or an idle
  one parked on an empty admission queue, is interrupted at its next
  wake-up.

Every fired fault is emitted as a typed ``EventKind.FAULT`` trace event and
counted in :attr:`FaultInjector.fired`, which
:meth:`FaultInjector.install_metrics` writes into the metrics registry
(``run_faults_injected_total``).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, TYPE_CHECKING, Tuple

from ..errors import AbortReason, TransactionAborted
from ..obs.tracing import EventKind, TraceEvent
from ..sim.scheduler import RunLayer
from .plan import FaultPlan, ScriptedFault, validate_event_against_run

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.context import TxnContext
    from ..core.policy import CCPolicy
    from ..sim.scheduler import Scheduler
    from ..sim.worker import Worker

#: salt mixed into the root seed for the injector's private RNG stream
#: (far outside the worker-id salt range)
FAULT_RNG_SALT = 715_517


class FaultInjector(RunLayer):
    """Applies a :class:`FaultPlan` to one simulated run."""

    def __init__(self, plan: FaultPlan, rng: random.Random) -> None:
        plan.validate()
        self.plan = plan
        self.rng = rng
        self.scheduler: Optional["Scheduler"] = None
        #: count of applied faults by kind (exposed to metrics / chaos)
        self.fired: Dict[str, int] = {}
        #: count of faults that found no eligible target
        self.skipped: Dict[str, int] = {}
        #: total worker downtime injected by crashes (ticks), exported as
        #: the ``run_crash_downtime_total`` metric
        self.downtime_injected = 0.0
        # per-worker pending state
        self._pending_abort: Dict[int, str] = {}
        self._pending_stall: Dict[int, float] = {}
        self._restart_delay: Dict[int, float] = {}
        self._slow: Dict[int, Tuple[float, Optional[float]]] = {}

    # ------------------------------------------------------------------ #
    # wiring

    def install(self, scheduler: "Scheduler") -> None:
        """Attach to a scheduler and schedule the plan's scripted events.
        Must be called after all workers are registered and every other
        layer is installed: events validate against the run's workers,
        shards, durability and frontend, and schedule after their
        callbacks (the same-tick tie-break)."""
        self.scheduler = scheduler
        scheduler.faults = self
        cluster = scheduler.cluster
        for index, event in enumerate(self.plan.events):
            validate_event_against_run(
                event, index, n_workers=len(scheduler._workers),
                n_shards=cluster.n_shards if cluster is not None else None,
                has_durability=scheduler.durability is not None,
                has_frontend=scheduler.frontend is not None)
            scheduler.schedule_callback(
                event.time, lambda e=event: self._fire_scripted(e))
        if self.plan.scripts_crash:
            # validated above: a crash event needs durability
            scheduler.durability.keep_recovery_state()

    def install_metrics(self, registry, **labels: str) -> None:
        for kind, count in self.fired.items():
            registry.counter("run_faults_injected_total", kind=kind,
                             **labels).inc(count)
        if self.downtime_injected:
            registry.counter("run_crash_downtime_total",
                             **labels).inc(self.downtime_injected)

    # ------------------------------------------------------------------ #
    # hooks called by the simulator

    def has_pending(self, worker_id: int) -> bool:
        return worker_id in self._pending_abort

    def consume_pending(self, worker: "Worker"):
        """Resolve a pending injected interrupt at the worker's wake-up.
        Returns ``(exc, extra_delay)``: an exception to throw into the
        worker (its in-flight transaction aborts cleanly), or a pure
        downtime delay when nothing is in flight."""
        detail = self._pending_abort.pop(worker.worker_id, None)
        if detail is None:
            return None, 0.0
        ctx = worker.current_ctx
        if ctx is not None and ctx.is_active():
            return TransactionAborted(AbortReason.FAULT, detail), 0.0
        # nothing in flight: the worker just stays down for its restart delay
        return None, self.take_restart_delay(worker.worker_id)

    def on_work_cost(self, worker: "Worker", ticks: float):
        """Adjust one WORK cost directive and optionally kill the attempt.
        Returns ``(ticks, exc)``; a non-``None`` ``exc`` is thrown into the
        worker at the current yield (the cost is never paid)."""
        worker_id = worker.worker_id
        slow = self._slow.get(worker_id)
        if slow is not None:
            factor, until = slow
            if until is not None and self.scheduler.now >= until:
                del self._slow[worker_id]
            else:
                ticks *= factor
        pending_stall = self._pending_stall.pop(worker_id, 0.0)
        if pending_stall:
            ticks += pending_stall
        ctx = worker.current_ctx
        if not self.plan.any_work_rate or ctx is None or not ctx.is_active():
            return ticks, None
        draw = self.rng.random()
        threshold = self.plan.rate("stall")
        if draw < threshold:
            lo, hi = self.plan.stall_ticks
            extra = self.rng.uniform(lo, hi)
            self._record("stall", worker_id, ctx, "rate", ticks=extra)
            return ticks + extra, None
        threshold += self.plan.rate("abort")
        if draw < threshold:
            self._record("abort", worker_id, ctx, "rate")
            return ticks, TransactionAborted(AbortReason.FAULT,
                                             "injected abort")
        threshold += self.plan.rate("crash")
        if draw < threshold:
            downtime = self.plan.crash_downtime
            self._restart_delay[worker_id] = \
                self._restart_delay.get(worker_id, 0.0) + downtime
            self.downtime_injected += downtime
            self._record("crash", worker_id, ctx, "rate", downtime=downtime)
            return ticks, TransactionAborted(AbortReason.FAULT,
                                             "worker crash")
        threshold += self.plan.rate("slow")
        if draw < threshold:
            self._slow[worker_id] = (self.plan.slow_factor,
                                     self.scheduler.now +
                                     self.plan.slow_duration)
            self._record("slow", worker_id, ctx, "rate",
                         factor=self.plan.slow_factor,
                         duration=self.plan.slow_duration)
            return ticks, None
        return ticks, None

    def on_access(self, ctx: "TxnContext") -> None:
        """Rate-drawn force-doom, called by the policy executor before every
        access of an active transaction."""
        rate = self.plan.rate("doom")
        if rate <= 0.0 or ctx.doomed:
            return
        if self.rng.random() < rate:
            ctx.doomed = True
            worker = ctx.worker
            self._record("doom", worker.worker_id if worker else -1, ctx,
                         "rate")

    def take_restart_delay(self, worker_id: int) -> float:
        """Consume the accumulated post-crash downtime for a worker (the
        worker's abort path charges it as backoff)."""
        return self._restart_delay.pop(worker_id, 0.0)

    def on_node_crash(self) -> None:
        """Drop all per-worker pending state: the workers it targeted died
        with the node, and their replacements start clean."""
        self._pending_abort.clear()
        self._pending_stall.clear()
        self._restart_delay.clear()
        self._slow.clear()

    def on_shard_crash(self, worker_ids) -> None:
        """Drop pending state for the crashed shard's workers only — the
        survivors keep theirs (a partial crash perturbs nobody else)."""
        for worker_id in worker_ids:
            self._pending_abort.pop(worker_id, None)
            self._pending_stall.pop(worker_id, None)
            self._restart_delay.pop(worker_id, None)
            self._slow.pop(worker_id, None)

    # ------------------------------------------------------------------ #
    # scripted events

    def _fire_scripted(self, event: ScriptedFault) -> None:
        scheduler = self.scheduler
        if event.kind == "node_crash":
            # whole-node crash: every worker dies at once; the durability
            # manager truncates the log to the persistent epoch, runs
            # checkpoint-plus-replay recovery and restarts the workers
            self._record("node_crash", -1, None, "scripted")
            scheduler.durability.node_crash()
            return
        if event.kind == "shard_crash":
            # partial failure: one shard halts while the rest keep running.
            # Fire-time guards (vs install-time validation): a shard that
            # is already down, or the last live shard, cannot crash —
            # the event is counted as skipped, like a dead worker target
            cluster = scheduler.cluster
            shard = event.worker
            if cluster.shard_down[shard] \
                    or sum(1 for down in cluster.shard_down if not down) <= 1:
                self.skipped["shard_crash"] = \
                    self.skipped.get("shard_crash", 0) + 1
                return
            self._record("shard_crash", shard, None, "scripted",
                         downtime=event.downtime)
            scheduler.durability.shard_crash(shard, event.downtime)
            return
        if event.kind == "burst":
            # overload chaos: multiply the arrival rate for a window; the
            # frontend applies it from its next inter-arrival draw
            self._record("burst", -1, None, "scripted",
                         factor=event.factor, duration=event.duration)
            scheduler.frontend.apply_burst(event.factor, event.duration)
            return
        if event.kind in ("net_partition", "net_delay", "net_dup"):
            # network chaos: open a fault window on the cluster's
            # interconnect (remote accesses / 2PC messages react to it)
            network = scheduler.cluster.network
            now = scheduler.now
            if event.kind == "net_partition":
                network.add_partition(event.worker, now,
                                      now + event.duration)
                self._record("net_partition", event.worker, None,
                             "scripted", duration=event.duration)
            elif event.kind == "net_delay":
                network.add_slow(event.factor, now, now + event.duration)
                self._record("net_delay", -1, None, "scripted",
                             factor=event.factor, duration=event.duration)
            else:
                network.add_dup(now, now + event.duration)
                self._record("net_dup", -1, None, "scripted",
                             duration=event.duration)
            return
        worker = scheduler._workers[event.worker]
        if worker.finished:
            self.skipped[event.kind] = self.skipped.get(event.kind, 0) + 1
            return
        ctx = worker.current_ctx
        active = ctx is not None and ctx.is_active()
        if event.kind == "slow":
            until = (scheduler.now + event.duration
                     if event.duration > 0 else None)
            self._slow[event.worker] = (event.factor, until)
            self._record("slow", event.worker, ctx, "scripted",
                         factor=event.factor, duration=event.duration)
            return
        if event.kind == "stall":
            # applied to the worker's next work cost (a directive boundary,
            # which keeps the time accounting exact)
            self._pending_stall[event.worker] = \
                self._pending_stall.get(event.worker, 0.0) + event.ticks
            self._record("stall", event.worker, ctx, "scripted",
                         ticks=event.ticks)
            return
        if event.kind == "doom":
            if not active:
                self.skipped["doom"] = self.skipped.get("doom", 0) + 1
                return
            ctx.doomed = True
            # the target may be parked on a wait whose condition
            # short-circuits on ctx.doomed ("wake up to die")
            scheduler.notify(ctx)
            self._record("doom", event.worker, ctx, "scripted")
            return
        # abort / crash: kill the in-flight attempt
        detail = "worker crash" if event.kind == "crash" else "injected abort"
        if event.kind == "crash":
            self._restart_delay[event.worker] = \
                self._restart_delay.get(event.worker, 0.0) + event.downtime
            self.downtime_injected += event.downtime
            self._record("crash", event.worker, ctx, "scripted",
                         downtime=event.downtime)
        else:
            self._record("abort", event.worker, ctx, "scripted")
        if not (active and scheduler.abort_parked(
                worker, TransactionAborted(AbortReason.FAULT, detail),
                outcome="fault")):
            # sleeping on a cost: interrupt at its next wake-up so the
            # charged cost span stays consistent with simulated time.  An
            # idle worker (parked on an empty admission queue) has no
            # attempt to abort: a crash keeps it down when next woken
            self._pending_abort[event.worker] = detail

    # ------------------------------------------------------------------ #

    def _record(self, kind: str, worker_id: int,
                ctx: Optional["TxnContext"], origin: str, **attrs) -> None:
        self.fired[kind] = self.fired.get(kind, 0) + 1
        trace = self.scheduler.trace if self.scheduler is not None else None
        if trace is not None and trace.enabled:
            detail = {"fault": kind, "origin": origin}
            detail.update(attrs)
            trace.emit(TraceEvent(
                self.scheduler.now, EventKind.FAULT, worker_id,
                ctx.txn_id if ctx is not None else None,
                ctx.type_name if ctx is not None else None, detail))

    @property
    def total_fired(self) -> int:
        return sum(self.fired.values())


def corrupt_policy_cell(policy: "CCPolicy", rng: random.Random) -> str:
    """Overwrite one random policy cell with an illegal value, in place.

    Models a corrupted policy artifact reaching the loader; the caller is
    expected to run ``policy.validate()`` afterwards and surface the
    resulting :class:`~repro.errors.PolicyValueError` gracefully.  Returns
    a description of the corruption for diagnostics."""
    row_index = rng.randrange(len(policy.rows))
    row = policy.rows[row_index]
    field = rng.choice(["wait", "read_dirty", "write_public",
                        "early_validate"])
    if field == "wait":
        dep = rng.randrange(len(row.wait))
        row.wait[dep] = 10_000_000
        return f"row {row_index}: wait[{dep}] overwritten with 10000000"
    setattr(row, field, 7)
    return f"row {row_index}: {field} overwritten with 7"
