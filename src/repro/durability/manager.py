"""Epoch-based group-commit durability: logging, checkpoints, crash, recovery.

This is the simulated equivalent of Silo's epoch group commit plus SiloR's
logging/checkpoint/recovery pipeline, driven entirely by scheduler events:

* **logging** — :meth:`DurabilityManager.log_commit` is called from
  ``validation.finish`` at *install* time (the single commit point shared
  by every protocol).  It assigns the commit a global sequence number and
  the current epoch, and appends a :class:`~repro.durability.log.LogRecord`
  to the committing worker's log buffer.  The worker then pays
  ``log_write`` ticks per written image (:meth:`consume_log_cost`).
* **group commit** — at every ``epoch_length`` boundary the per-worker
  buffers for the closing epoch are merged (seqno order) and handed to the
  serial log device; the flush completes ``log_flush`` ticks after the
  device is free.  When it completes, the *persistent epoch* advances and
  the epoch's transactions are **acked**: only then does
  ``RunStats.record_commit`` run, so reported commits/latency are of
  durable transactions, exactly like Silo's client-visible commits.
* **checkpoints** — :class:`Database` snapshots tagged with the last
  assigned seqno, taken at t=0, every ``checkpoint_interval`` ticks, and
  after each recovery.  Charged no simulated time (SiloR checkpoints on
  spare threads).  The t=0 image is captured once, in :meth:`install`,
  and shared: it is checkpoint 0 *and* the immutable base of the
  :class:`~repro.durability.view.DurableView` the recovery oracle
  compares against.
* **node crash** — the scripted ``node_crash`` fault calls
  :meth:`node_crash`: every worker is torn down (in-flight attempts abort
  through their normal cleanup, pre-charged sleep time is refunded), the
  log is truncated to the persistent epoch, and recovery rebuilds a fresh
  database from the newest usable checkpoint plus log replay in seqno
  order.  Workers restart after ``recovery_base + replay_per_record * n``
  ticks of downtime, charged as a ``wait:recovery`` span.

The durable log prefix is **dependency-closed**: the commit-phase
dependency wait guarantees a dependency installs (and receives its seqno
and epoch) before any dependent, so epochs are nondecreasing in seqno and
truncating to the persistent epoch can never keep a transaction while
dropping one it read from.  That is what makes both recovery-by-replay and
the filtered serializability check (:mod:`repro.durability.oracle`) sound.

Determinism: everything here keys off scheduler callbacks at exact
simulated times and off install order; restarted workers draw their RNGs
from ``spawn_rng(seed, worker_id, RESTART_RNG_SALT + crash_number)``, so a
crashed-and-recovered run is replayable bit for bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, TYPE_CHECKING

from ..config import SimConfig
from ..errors import ReproError
from ..obs.tracing import EventKind, TraceEvent
from ..rng import spawn_rng
from ..storage.database import Database, Snapshot
from .log import LogRecord, WriteImage, apply_record
from .oracle import verify_recovery
from .view import DurableView

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random
    from ..core.context import TxnContext
    from ..sim.scheduler import Scheduler
    from ..sim.stats import RunStats
    from ..sim.worker import Worker

#: salt mixed into restarted workers' RNG seeds (plus the crash number), so
#: post-recovery workers draw fresh, deterministic streams distinct from
#: the original workers' and from any other component's
RESTART_RNG_SALT = 0x52455354  # "REST"


class Checkpoint:
    """One database checkpoint: a committed-state snapshot tagged with the
    last seqno it covers (every install with ``seqno <= last_seqno`` is in
    the snapshot, and no later one is)."""

    __slots__ = ("time", "last_seqno", "snapshot")

    def __init__(self, time: float, last_seqno: int,
                 snapshot: Snapshot) -> None:
        self.time = time
        self.last_seqno = last_seqno
        self.snapshot = snapshot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Checkpoint(t={self.time}, last_seqno={self.last_seqno})"


class RecoveryReport:
    """Everything one node-crash recovery did, for tests and the CLI."""

    __slots__ = ("time", "restart_time", "persistent_epoch", "durable_seqno",
                 "checkpoint_seqno", "replayed", "lost_inflight",
                 "lost_unflushed", "recovery_ticks", "violations",
                 "recovered_snapshot")

    def __init__(self, time: float, restart_time: float,
                 persistent_epoch: int, durable_seqno: int,
                 checkpoint_seqno: int, replayed: int, lost_inflight: int,
                 lost_unflushed: int, recovery_ticks: float,
                 violations: List[str],
                 recovered_snapshot: Snapshot) -> None:
        self.time = time
        self.restart_time = restart_time
        self.persistent_epoch = persistent_epoch
        self.durable_seqno = durable_seqno
        self.checkpoint_seqno = checkpoint_seqno
        self.replayed = replayed
        self.lost_inflight = lost_inflight
        self.lost_unflushed = lost_unflushed
        self.recovery_ticks = recovery_ticks
        #: durability-oracle failures found during this recovery ([] = OK)
        self.violations = violations
        #: deep snapshot of the recovered database (determinism tests
        #: pickle this and compare byte-for-byte across repeated recoveries)
        self.recovered_snapshot = recovered_snapshot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RecoveryReport(t={self.time}, epoch={self.persistent_epoch},"
                f" replayed={self.replayed}, lost={self.lost_unflushed}+"
                f"{self.lost_inflight})")


class DurabilityManager:
    """Owns the simulated WAL, the epoch clock, checkpoints and recovery
    for one run.  Created by the bench runner when ``config.durability``
    is set and attached to the scheduler as ``scheduler.durability``."""

    def __init__(self, config: SimConfig, db: Database, workload, cc,
                 stats: "RunStats") -> None:
        if config.durability is None:
            raise ReproError("DurabilityManager requires config.durability")
        self.config = config
        self.dc = config.durability
        self.db = db
        self.workload = workload
        self.cc = cc
        self.stats = stats
        self.scheduler: Optional["Scheduler"] = None
        self._worker_factory: Optional[Callable[[int, "random.Random"],
                                                "Worker"]] = None
        # -- log state -------------------------------------------------- #
        #: last assigned global commit sequence number (0 = none yet)
        self.seqno = 0
        #: epoch currently receiving commits (epochs are 1-based)
        self.current_epoch = 1
        #: latest epoch whose group flush has completed (0 = none yet)
        self.persistent_epoch = 0
        #: per-worker log buffers for the current epoch
        self._buffers: Dict[int, List[LogRecord]] = {}
        #: log-write cost owed by each worker at its next commit yield
        self._pending_cost: Dict[int, float] = {}
        #: group flushes handed to the device but not yet completed
        #: (truncated on crash: their epochs are not persistent)
        self._inflight: Dict[int, List[LogRecord]] = {}
        #: simulated time at which the serial log device becomes free
        self._flush_free_at = 0.0
        #: the durable log: flushed records in seqno order
        self.durable_log: List[LogRecord] = []
        #: committed state implied by the durable log (recovery oracle's
        #: expected state; folded forward as flushes complete).  Built by
        #: :meth:`install` over the t=0 image it shares with checkpoint 0
        self.durable_view: Optional[DurableView] = None
        #: version ids made durable so far (oracle: nothing else may
        #: surface in a recovered database)
        self._durable_vids: Set[tuple] = set()
        #: highest seqno acked to a client (oracle: must stay durable)
        self.max_acked_seqno = 0
        # -- checkpoints ------------------------------------------------ #
        self.checkpoints: List[Checkpoint] = []
        self.checkpoints_taken = 0
        # -- counters --------------------------------------------------- #
        self.log_records_total = 0
        self.log_bytes_total = 0
        self.flushes = 0
        self.flush_stalls = 0
        self.acked_commits = 0
        self.max_epoch_lag = 0
        self.crash_count = 0
        self.lost_inflight_total = 0
        self.lost_unflushed_total = 0
        self.recovery_ticks_total = 0.0
        #: txn ids of committed-but-lost transactions across all crashes
        #: (the serializability checker filters these out; the lost set is
        #: dependency-closed, see the module docstring)
        self.lost_txn_ids: Set[int] = set()
        self.recoveries: List[RecoveryReport] = []
        #: durability-oracle violations across the run ([] = all clean)
        self.violations: List[str] = []
        #: invalidates scheduled epoch/flush/checkpoint callbacks on crash
        self._crash_generation = 0

    # ------------------------------------------------------------------ #
    # wiring

    def install(self, scheduler: "Scheduler",
                worker_factory: Callable[[int, "random.Random"],
                                         "Worker"]) -> None:
        """Attach to the scheduler: capture the t=0 image once — it is
        both checkpoint 0 and the durable view's base — and start the
        epoch (and optional checkpoint) clocks.  ``worker_factory``
        builds replacement workers after a node crash."""
        self.scheduler = scheduler
        self._worker_factory = worker_factory
        self._take_checkpoint()
        self.durable_view = DurableView(self.checkpoints[0].snapshot)
        generation = self._crash_generation
        scheduler.schedule_callback(
            self.dc.epoch_length,
            lambda: self._on_epoch_boundary(generation))
        if self.dc.checkpoint_interval > 0:
            scheduler.schedule_callback(
                self.dc.checkpoint_interval,
                lambda: self._on_checkpoint(generation))

    # ------------------------------------------------------------------ #
    # logging (hot path: called once per commit)

    def log_commit(self, ctx: "TxnContext") -> None:
        """Append one committed transaction to its worker's log buffer.
        Called from ``validation.finish`` at install time, so append order
        (the assigned seqno) is exactly the commit-lock install order."""
        self.seqno += 1
        worker = ctx.worker
        worker_id = worker.worker_id if worker is not None else -1
        writes = [
            WriteImage(entry.table, entry.key, entry.value,
                       entry.installed_vid)
            for entry in sorted(ctx.wset.values(), key=lambda e: e.order)
            if entry.installed_vid is not None
        ]
        record = LogRecord(self.seqno, self.current_epoch, ctx.txn_id,
                           worker_id, ctx.type_name, ctx.priority[0],
                           self.scheduler.now, writes,
                           deadline=worker.deadline
                           if worker is not None else None)
        self._buffers.setdefault(worker_id, []).append(record)
        self._pending_cost[worker_id] = (
            self._pending_cost.get(worker_id, 0.0)
            + self.dc.log_write * (1 + len(writes)))

    def consume_log_cost(self, worker_id: int) -> float:
        """Ticks the committing worker owes for its buffered log append
        (one header plus one image per write); paid at the commit yield."""
        return self._pending_cost.pop(worker_id, 0.0)

    # ------------------------------------------------------------------ #
    # the epoch clock and the serial flush device

    def _on_epoch_boundary(self, generation: int) -> None:
        if generation != self._crash_generation:
            return  # scheduled before a crash that superseded this clock
        scheduler = self.scheduler
        now = scheduler.now
        closing = self.current_epoch
        self.current_epoch += 1
        scheduler.schedule_callback(
            now + self.dc.epoch_length,
            lambda: self._on_epoch_boundary(generation))
        lag = closing - self.persistent_epoch
        if lag > self.max_epoch_lag:
            self.max_epoch_lag = lag
        records: List[LogRecord] = []
        for worker_id in sorted(self._buffers):
            records.extend(self._buffers[worker_id])
        self._buffers.clear()
        records.sort(key=lambda r: r.seqno)
        # one serial log device: a flush starts when the device is free and
        # the boundary has passed, so slow flushes queue and stall acks
        start = max(now, self._flush_free_at)
        if records:
            self.flushes += 1
            if start > now:
                self.flush_stalls += 1
            # getattr: durability unit tests drive stub schedulers that
            # predate the timeline attribute
            timeline = getattr(scheduler, "timeline", None)
            if timeline is not None:
                timeline.on_flush(now, stalled=start > now)
            completion = start + self.dc.log_flush
        else:
            completion = start  # empty epoch: a free marker, still ordered
        self._flush_free_at = completion
        self._inflight[closing] = records
        if completion <= now:
            self._complete_flush(closing, generation)
        else:
            scheduler.schedule_callback(
                completion, lambda: self._complete_flush(closing, generation))

    def _complete_flush(self, epoch: int, generation: int) -> None:
        if generation != self._crash_generation:
            return  # the crash already truncated this in-flight flush
        records = self._inflight.pop(epoch, [])
        self.persistent_epoch = epoch
        scheduler = self.scheduler
        now = scheduler.now
        nbytes = 0
        #: per-type [count, total ack latency] — built only for the trace,
        #: consumed by the latency critical path's epoch_flush component
        acks = {} if scheduler.trace.enabled else None
        for record in records:
            self.durable_log.append(record)
            for image in record.writes:
                self._durable_vids.add(image.vid)
            nbytes += record.nbytes
            # the client ack: the transaction is durable, so *now* it
            # counts as committed (group-commit latency included)
            self.stats.record_commit(record.type_name, now,
                                     now - record.first_start,
                                     deadline=record.deadline)
            if acks is not None:
                stat = acks.setdefault(record.type_name, [0, 0.0])
                stat[0] += 1
                stat[1] += now - record.first_start
            self.acked_commits += 1
            self.max_acked_seqno = record.seqno
        view = self.durable_view
        for record in records:
            view.apply(record)
        self.log_records_total += len(records)
        self.log_bytes_total += nbytes
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                now, EventKind.EPOCH, -1,
                attrs={"epoch": epoch, "records": len(records),
                       "bytes": nbytes, "acks": acks}))
        self._prune_checkpoints()

    # ------------------------------------------------------------------ #
    # checkpoints

    def _take_checkpoint(self) -> None:
        self.checkpoints.append(Checkpoint(
            self.scheduler.now, self.seqno, self.db.snapshot()))
        self.checkpoints_taken += 1

    def _on_checkpoint(self, generation: int) -> None:
        if generation != self._crash_generation:
            return
        self._take_checkpoint()
        self.scheduler.schedule_callback(
            self.scheduler.now + self.dc.checkpoint_interval,
            lambda: self._on_checkpoint(generation))

    def _durable_seqno(self) -> int:
        return self.durable_log[-1].seqno if self.durable_log else 0

    def _usable_checkpoint(self) -> Checkpoint:
        """Newest checkpoint that contains only durable installs.  The
        t=0 checkpoint (last_seqno 0) always qualifies."""
        durable = self._durable_seqno()
        best = self.checkpoints[0]
        for checkpoint in self.checkpoints:
            if checkpoint.last_seqno <= durable:
                best = checkpoint
        return best

    def _prune_checkpoints(self) -> None:
        """Drop checkpoints superseded by a newer usable one (keep the
        newest usable plus any not-yet-usable ones taken after it)."""
        best = self._usable_checkpoint()
        self.checkpoints = [c for c in self.checkpoints
                            if c is best or c.last_seqno > best.last_seqno]

    # ------------------------------------------------------------------ #
    # whole-node crash and recovery

    def node_crash(self) -> RecoveryReport:
        """Crash the whole node at the current simulated time, truncate the
        log to the persistent epoch, recover, and restart every worker
        after the recovery downtime.  Called by the fault injector's
        scripted ``node_crash`` event."""
        scheduler = self.scheduler
        now = scheduler.now
        self.crash_count += 1
        self._crash_generation += 1
        # -- truncate: unflushed buffers and in-flight flushes are gone -- #
        lost_records: List[LogRecord] = []
        for worker_id in sorted(self._buffers):
            lost_records.extend(self._buffers[worker_id])
        for epoch in sorted(self._inflight):
            lost_records.extend(self._inflight[epoch])
        self._buffers.clear()
        self._inflight.clear()
        self._pending_cost.clear()
        self._flush_free_at = 0.0
        lost_unflushed = len(lost_records)
        self.lost_txn_ids.update(r.txn_id for r in lost_records)
        self.lost_unflushed_total += lost_unflushed
        # -- kill every worker (aborts in-flight work, refunds pre-charged
        #    sleep spans so the time-accounting identity survives) ------- #
        lost_inflight = scheduler.crash_all_workers()
        self.lost_inflight_total += lost_inflight
        if scheduler.faults is not None:
            scheduler.faults.on_node_crash()
        # -- recover: checkpoint + log replay in commit (seqno) order ---- #
        durable_seqno = self._durable_seqno()
        checkpoint = self._usable_checkpoint()
        allocator_seq = self.db.allocator._next_seq
        new_db = Database.from_snapshot(checkpoint.snapshot,
                                        allocator_seq=allocator_seq)
        replayed = 0
        for record in self.durable_log:
            if record.seqno > checkpoint.last_seqno:
                apply_record(new_db, record)
                replayed += 1
        recovered_snapshot = new_db.snapshot()
        # -- durability oracle ------------------------------------------ #
        violations = verify_recovery(
            self.durable_view, recovered_snapshot, self.max_acked_seqno,
            durable_seqno, self._durable_vids)
        self.violations.extend(
            f"durability(crash #{self.crash_count} @ {now}): {v}"
            for v in violations)
        # -- downtime, database swap, worker restart --------------------- #
        recovery_ticks = (self.dc.recovery_base
                          + self.dc.replay_per_record * replayed)
        self.recovery_ticks_total += recovery_ticks
        restart = now + recovery_ticks
        self.db = new_db
        self.workload.db = new_db
        self.cc.on_node_recovery(new_db)
        charged_until = min(restart, self.config.duration)
        if scheduler.accountant is not None and charged_until > now:
            for worker_id in range(self.config.n_workers):
                scheduler.accountant.on_wait(worker_id, "recovery",
                                             charged_until - now)
        timeline = getattr(scheduler, "timeline", None)
        if timeline is not None:
            timeline.on_recovery(now, charged_until, self.config.n_workers)
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                now, EventKind.NODE_CRASH, -1,
                attrs={"persistent_epoch": self.persistent_epoch,
                       "durable_seqno": durable_seqno,
                       "lost_inflight": lost_inflight,
                       "lost_unflushed": lost_unflushed}))
            scheduler.trace.emit(TraceEvent(
                now, EventKind.RECOVERY, -1,
                attrs={"checkpoint_seqno": checkpoint.last_seqno,
                       "replayed": replayed,
                       "recovery_ticks": recovery_ticks,
                       "restart": restart}))
        new_workers = [
            self._worker_factory(
                worker_id,
                spawn_rng(self.config.seed, worker_id,
                          RESTART_RNG_SALT + self.crash_count))
            for worker_id in range(self.config.n_workers)
        ]
        scheduler.replace_workers(new_workers, restart)
        # a fresh watchdog window: downtime is not a livelock
        scheduler.last_commit_time = max(scheduler.last_commit_time, restart)
        # -- restart the epoch/checkpoint clocks ------------------------- #
        # lost epochs' numbers are reused: the durable log only contains
        # epochs <= persistent_epoch, so numbering stays nondecreasing
        self.current_epoch = self.persistent_epoch + 1
        generation = self._crash_generation
        scheduler.schedule_callback(
            restart + self.dc.epoch_length,
            lambda: self._on_epoch_boundary(generation))
        # the recovered state is durable by construction: checkpoint it so
        # a later crash need not replay this prefix again
        self.checkpoints.append(Checkpoint(restart, durable_seqno,
                                           recovered_snapshot))
        self.checkpoints_taken += 1
        self._prune_checkpoints()
        if self.dc.checkpoint_interval > 0:
            scheduler.schedule_callback(
                restart + self.dc.checkpoint_interval,
                lambda: self._on_checkpoint(generation))
        report = RecoveryReport(
            now, restart, self.persistent_epoch, durable_seqno,
            checkpoint.last_seqno, replayed, lost_inflight, lost_unflushed,
            recovery_ticks, violations, recovered_snapshot)
        self.recoveries.append(report)
        return report

    # ------------------------------------------------------------------ #

    def finalize(self) -> None:
        """End-of-run bookkeeping: record the final persistent-epoch lag.
        Commits still buffered or mid-flush at the horizon were never
        acked, exactly like a run that ends between group commits."""
        lag = self.current_epoch - 1 - self.persistent_epoch
        if lag > self.max_epoch_lag:
            self.max_epoch_lag = lag

    @property
    def unflushed_records(self) -> int:
        """Committed records not yet durable (buffers + in-flight flush)."""
        return (sum(len(buf) for buf in self._buffers.values())
                + sum(len(records) for records in self._inflight.values()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DurabilityManager(epoch={self.current_epoch}, "
                f"persistent={self.persistent_epoch}, seqno={self.seqno}, "
                f"crashes={self.crash_count})")
