"""Epoch-based group-commit durability: logging, checkpoints, crash, recovery.

This is the simulated equivalent of Silo's epoch group commit plus SiloR's
logging/checkpoint/recovery pipeline, driven entirely by scheduler events.
:class:`DurabilityManager` is the one owner of the log state and the one
definition of the epoch boundary, flush completion, the watermark, the ack
and the whole-node crash — for N shards, where a single node is N = 1.
The cluster's 2PC layer (:mod:`repro.cluster.durability`) subclasses it
for what has no one-shard meaning and reaches in through a few hooks.

* **logging** — :meth:`DurabilityManager.log_commit` is called from
  ``validation.finish`` at *install* time (the single commit point shared
  by every protocol).  It assigns the commit a global sequence number and
  the current epoch, and appends a :class:`~repro.durability.log.LogRecord`
  to the owning shard's log buffer.  The worker then pays ``log_write``
  ticks per record header and written image (:meth:`consume_log_cost`).
* **group commit** — one epoch clock closes every shard's epoch together;
  at every ``epoch_length`` boundary each shard hands its buffer (already
  in seqno order — appends happen under the install lock) to its own
  serial log device, and the flush completes ``log_flush`` ticks after
  the device is free.  The *persistent epoch* is the watermark — the min
  over live shards of the latest epoch each has flushed; when it advances
  the covered epochs' transactions are **acked**, in seqno order: only
  then does ``RunStats.record_commit`` run, so reported commits/latency
  are of durable transactions, exactly like Silo's client-visible commits.
* **checkpoints** — :class:`Database` snapshots tagged with the last
  assigned seqno, taken at t=0, every ``checkpoint_interval`` ticks, and
  after each recovery.  Charged no simulated time (SiloR checkpoints on
  spare threads).  The t=0 image is captured once, by
  :meth:`keep_recovery_state`, and shared: it is checkpoint 0 *and* the
  immutable base of the :class:`~repro.durability.view.DurableView` the
  recovery oracle compares against.
* **recovery-only state** — the checkpoint copies, the durable view and
  the durable-vid set are read by nothing but :meth:`node_crash` and the
  cluster layer's ``shard_crash``, and only a scripted fault calls those
  (rate-drawn faults cannot crash a node or a shard).  So that state is
  built only when the fault injector's install finds that the run's plan
  :attr:`~repro.faults.plan.FaultPlan.scripts_crash`; otherwise every
  checkpoint is still counted (``checkpoints_taken``) but never copied,
  and the view stays ``None``.  The log's images and read sets are
  recovery-only state too: without the view each record keeps its
  identity fields and the byte size its images would have had, and no
  image is copied.  Seqnos, epochs, sizes, flushes, acks and the charged
  ``log_write`` are the same either way.
* **node crash** — the scripted ``node_crash`` fault calls
  :meth:`node_crash`: every worker is torn down (in-flight attempts abort
  through their normal cleanup, pre-charged sleep time is refunded),
  every shard's log is truncated to the watermark (epochs flushed on only
  some shards go too), and recovery rebuilds a fresh database from the
  newest usable checkpoint plus log replay in seqno order.  Workers
  restart after ``recovery_base + replay_per_record * n`` ticks of
  downtime, charged as a ``wait:recovery`` span.

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

from typing import (Dict, Iterable, Iterator, List, Optional, Set, Tuple,
                    TYPE_CHECKING)

from ..config import SimConfig
from ..errors import ReproError
from ..obs.tracing import EventKind, TraceEvent
from ..sim.scheduler import RunLayer
from ..sim.worker import spawn_workers
from ..storage.database import Database, Snapshot
from .log import (RECORD_HEADER_BYTES, LogRecord, WriteImage, apply_record,
                  image_nbytes, lost_txns)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .view import DurableView
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


class DurabilityManager(RunLayer):
    """Owns the simulated WAL — one log, flush device and persistent epoch
    per shard, a single shard unless a cluster runtime says otherwise —
    plus the epoch clock, the watermark, checkpoints and recovery for one
    run.  Created by the bench runner when ``config.durability`` is set
    and attached to the scheduler as ``scheduler.durability``."""

    def __init__(self, config: SimConfig, db: Database, workload, cc,
                 stats: "RunStats", n_shards: int = 1) -> None:
        if config.durability is None:
            raise ReproError("DurabilityManager requires config.durability")
        self.config = config
        self.dc = config.durability
        self.db = db
        self.workload = workload
        self.cc = cc
        self.stats = stats
        self.n_shards = n_shards
        self.scheduler: Optional["Scheduler"] = None
        # -- log state -------------------------------------------------- #
        #: last assigned global commit sequence number (0 = none yet)
        self.seqno = 0
        #: epoch currently receiving commits (epochs are 1-based); one
        #: clock closes every shard's epoch together
        self.current_epoch = 1
        #: the watermark: latest epoch whose group flush has completed on
        #: every live shard (0 = none yet).  Only covered epochs are acked
        self.persistent_epoch = 0
        #: log-write cost owed by each worker at its next commit yield
        self._pending_cost: Dict[int, float] = {}
        # -- per-shard log state ---------------------------------------- #
        #: current-epoch buffers (append order = seqno order: every append
        #: takes a fresh global seqno under the install lock)
        self._shard_buffers: List[List[LogRecord]] = [
            [] for _ in range(n_shards)]
        #: simulated time at which each serial log device becomes free
        self._shard_flush_free: List[float] = [0.0] * n_shards
        #: group flushes handed to a device but not yet completed, epoch ->
        #: records (truncated on crash: their epochs are not persistent)
        self._shard_inflight: List[Dict[int, List[LogRecord]]] = [
            {} for _ in range(n_shards)]
        #: latest epoch flushed on each shard
        self._shard_persistent: List[int] = [0] * n_shards
        #: bumped when a shard's log truncates, so the flush completions
        #: (and rejoin) scheduled for the dead device die
        self._shard_generation: List[int] = [0] * n_shards
        #: shards that neither flush nor hold the watermark back (fed only
        #: by the cluster layer, which aliases the runtime's flags here)
        self._shard_down: List[bool] = [False] * n_shards
        #: flushed records awaiting watermark coverage: epoch -> shard ->
        #: records (durable on their own shard, not yet committed)
        self._awaiting: Dict[int, Dict[int, List[LogRecord]]] = {}
        #: the durable per-shard logs (watermark-covered, seqno order)
        self.shard_logs: List[List[LogRecord]] = [
            [] for _ in range(n_shards)]
        #: the durable log: every shard's covered records merged in seqno
        #: order (what recovery replays)
        self.durable_log: List[LogRecord] = []
        #: committed state implied by the durable log (recovery oracle's
        #: expected state; folded forward as epochs are acked).  Built by
        #: :meth:`install` over the t=0 image it shares with checkpoint 0,
        #: and only when the fault plan can crash: ``None`` marks a run
        #: that keeps no recovery-only state
        self.durable_view: Optional[DurableView] = None
        #: version ids made durable so far (oracle: nothing else may
        #: surface in a recovered database); fed alongside the view
        self._durable_vids: Set[tuple] = set()
        #: highest seqno acked to a client (oracle: must stay durable)
        self.max_acked_seqno = 0
        #: txn ids voided after they were logged (fed only by the cluster
        #: layer's shard crashes): their durable records stay in the logs
        #: as residue but are never acked, never folded into the durable
        #: view and skipped by replay
        self._void_txns: Set[int] = set()
        # -- checkpoints ------------------------------------------------ #
        #: the copies recovery may restore (empty without the view)
        self.checkpoints: List[Checkpoint] = []
        #: modelled checkpoints, copied or not (the metric counts these)
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
        #: invalidates scheduled epoch/checkpoint callbacks (and the
        #: cluster layer's in-flight decision messages) on a node crash
        self._crash_generation = 0

    # ------------------------------------------------------------------ #
    # wiring

    def install(self, scheduler: "Scheduler") -> None:
        """Attach to the scheduler: take checkpoint 0 and start the epoch
        (and optional checkpoint) clocks.  Checkpoint 0 is only counted
        here; :meth:`keep_recovery_state` copies it for a run that can
        crash."""
        self.scheduler = scheduler
        scheduler.durability = self
        self.checkpoints_taken += 1
        self._start_clocks(0.0)

    def keep_recovery_state(self) -> None:
        """Copy the t=0 image once — it is both checkpoint 0 and the
        durable view's base.  The fault injector calls this from its
        install, before the first event, when its plan scripts a node or
        shard crash: the recovery oracle is installed with the crash it
        audits."""
        from .view import DurableView
        image = self.db.snapshot()
        self.checkpoints.append(Checkpoint(self.scheduler.now, self.seqno,
                                           image))
        self.durable_view = DurableView(image)

    def _start_clocks(self, origin: float) -> None:
        generation = self._crash_generation
        self.scheduler.schedule_callback(
            origin + self.dc.epoch_length,
            lambda: self._on_epoch_boundary(generation))
        if self.dc.checkpoint_interval > 0:
            self.scheduler.schedule_callback(
                origin + self.dc.checkpoint_interval,
                lambda: self._on_checkpoint(generation))

    def _spawn_workers(self, worker_ids, salt: int) -> List["Worker"]:
        """Replacement workers for a restart, on fresh deterministic RNG
        streams (``salt`` names the restart cohort)."""
        return spawn_workers(self.scheduler, self.cc, self.workload,
                             self.stats, worker_ids, salt)

    # ------------------------------------------------------------------ #
    # logging (hot path: called once per commit)

    def log_commit(self, ctx: "TxnContext") -> None:
        """Append one committed transaction to the log buffer.  Called
        from ``validation.finish`` at install time, so append order (the
        assigned seqno) is exactly the commit-lock install order.  The
        cluster layer overrides this — splitting the writes by owning
        shard and collecting the read set is cluster-only work — but
        appends and charges through the same :meth:`_append_records`."""
        entries = [
            entry
            for entry in sorted(ctx.wset.values(), key=lambda e: e.order)
            if entry.installed_vid is not None
        ]
        self._append_records(ctx, [(0, LogRecord, entries, {})])

    def _append_records(self, ctx: "TxnContext", parts, reads=()) -> None:
        """The one place a commit reaches the log.  ``parts`` lists the
        records to write as (shard, record class, installed write-set
        entries, extra fields); each takes the next seqno in the open
        epoch, and the committing worker is charged ``log_write`` per
        record header and per image, once for the whole commit.  Each
        record is sized from its entries; only a run that keeps recovery
        state (:attr:`durable_view`) also copies them into
        :class:`WriteImage` s, which nothing but recovery reads."""
        worker = ctx.worker
        worker_id = worker.worker_id if worker is not None else -1
        deadline = worker.deadline if worker is not None else None
        now = self.scheduler.now
        keep_images = self.durable_view is not None
        n_images = 0
        for shard, record_cls, entries, fields in parts:
            self.seqno += 1
            writes = [WriteImage(entry.table, entry.key, entry.value,
                                 entry.installed_vid)
                      for entry in entries] if keep_images else ()
            nbytes = RECORD_HEADER_BYTES + sum(
                image_nbytes(entry.table, entry.key, entry.value)
                for entry in entries)
            self._shard_buffers[shard].append(record_cls(
                self.seqno, self.current_epoch, ctx.txn_id, worker_id,
                ctx.type_name, ctx.priority[0], now, writes,
                deadline=deadline, reads=reads, nbytes=nbytes, **fields))
            n_images += len(entries)
        self._pending_cost[worker_id] = (
            self._pending_cost.get(worker_id, 0.0)
            + self.dc.log_write * (len(parts) + n_images))

    def consume_log_cost(self, worker_id: int) -> float:
        """Ticks the committing worker owes for its buffered log append
        (one header plus one image per write); paid at the commit yield."""
        return self._pending_cost.pop(worker_id, 0.0)

    # ------------------------------------------------------------------ #
    # the epoch clock over the per-shard serial flush devices

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
        timeline = scheduler.timeline
        for shard in range(self.n_shards):
            if self._shard_down[shard]:
                # a down shard neither buffers nor flushes; it rejoins
                # behind the watermark with its clock jumped forward
                continue
            records = self._shard_buffers[shard]
            self._shard_buffers[shard] = []
            # a serial log device: a flush starts when the device is free
            # and the boundary has passed, so slow flushes queue and stall
            start = max(now, self._shard_flush_free[shard])
            if records:
                self.flushes += 1
                if start > now:
                    self.flush_stalls += 1
                if timeline is not None:
                    timeline.on_flush(now, stalled=start > now)
                completion = start + self.dc.log_flush
            else:
                completion = start  # empty epoch: a free marker, still ordered
            self._shard_flush_free[shard] = completion
            self._shard_inflight[shard][closing] = records
            shard_generation = self._shard_generation[shard]
            if completion <= now:
                self._complete_shard_flush(shard, closing, shard_generation)
            else:
                scheduler.schedule_callback(
                    completion, lambda s=shard, g=shard_generation:
                        self._complete_shard_flush(s, closing, g))

    def _complete_shard_flush(self, shard: int, epoch: int,
                              shard_generation: int) -> None:
        if shard_generation != self._shard_generation[shard]:
            return  # a crash already truncated this in-flight flush
        records = self._shard_inflight[shard].pop(epoch, [])
        self._shard_persistent[shard] = epoch
        self._awaiting.setdefault(epoch, {})[shard] = records
        watermark = min(
            persistent for persistent, down
            in zip(self._shard_persistent, self._shard_down) if not down)
        while self.persistent_epoch < watermark:
            next_epoch = self.persistent_epoch + 1
            self._ack_epoch(next_epoch)
            self.persistent_epoch = next_epoch

    def _ack_epoch(self, epoch: int) -> None:
        """The watermark reached ``epoch``: its flush completed on every
        live shard, so its records are committed.  Append them to the
        durable logs, ack the client-visible commits in seqno order, fold
        them into the durable view."""
        by_shard = self._awaiting.pop(epoch, {})
        merged: List[LogRecord] = []
        for shard in sorted(by_shard):
            self.shard_logs[shard].extend(by_shard[shard])
            merged.extend(by_shard[shard])
        merged.sort(key=lambda r: r.seqno)
        self.durable_log.extend(merged)
        nbytes = sum(record.nbytes for record in merged)
        void = self._void_txns
        live = ([r for r in merged if r.txn_id not in void] if void
                else merged)
        scheduler = self.scheduler
        now = scheduler.now
        #: per-type [count, total ack latency] — built only for the trace,
        #: consumed by the latency critical path's epoch_flush component
        acks = {} if scheduler.trace.enabled else None
        view = self.durable_view
        for record in live:
            if view is not None:
                for image in record.writes:
                    self._durable_vids.add(image.vid)
                view.apply(record)
            if not record.acks:
                continue
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
        self.log_records_total += len(merged)
        self.log_bytes_total += nbytes
        extra_attrs = self._epoch_acked(live, by_shard)
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                now, EventKind.EPOCH, -1,
                attrs={"epoch": epoch, "records": len(merged),
                       "bytes": nbytes, "acks": acks, **extra_attrs}))
        if view is not None:
            self._prune_checkpoints()

    def _staged_records(self) -> Iterator[LogRecord]:
        """Every record not yet committed, in deterministic order:
        current buffers, in-flight flushes, and flushed epochs awaiting
        the watermark."""
        for shard in range(self.n_shards):
            yield from self._shard_buffers[shard]
            inflight = self._shard_inflight[shard]
            for epoch in sorted(inflight):
                yield from inflight[epoch]
        for epoch in sorted(self._awaiting):
            by_shard = self._awaiting[epoch]
            for shard in sorted(by_shard):
                yield from by_shard[shard]

    def _truncate_shard(self, shard: int) -> List[LogRecord]:
        """One shard's log device dies: drop (and return) its open buffer
        and its in-flight flushes, leaving the shard at its own persistent
        epoch with a free device; scheduled completions go stale."""
        self._shard_generation[shard] += 1
        lost = self._shard_buffers[shard]
        self._shard_buffers[shard] = []
        inflight = self._shard_inflight[shard]
        for epoch in sorted(inflight):
            lost.extend(inflight[epoch])
        inflight.clear()
        self._shard_flush_free[shard] = 0.0
        return lost

    # ------------------------------------------------------------------ #
    # what the 2PC layer (repro.cluster.durability) adds; idle on one node

    def _epoch_acked(self, records: List[LogRecord], by_shard) -> dict:
        """``records`` (the epoch's non-voided records, seqno order) were
        just committed.  Returns extra EPOCH trace attrs."""
        return {}

    def _before_truncation(self) -> None:
        """A whole-node crash is about to truncate every shard: drop the
        partial-failure state it supersedes."""

    def _replayable(self) -> Tuple[Iterable[LogRecord], dict]:
        """The durable records recovery may replay, in seqno order, and
        extra NODE_CRASH trace attrs."""
        return self.durable_log, {}

    def _on_recovered(self, new_db: Database, now: float,
                      charged_until: float) -> None:
        """``new_db`` is about to go live and every worker has been
        charged recovery downtime over ``[now, charged_until)``."""

    def metrics_rows(self) -> list:
        """Extra (name, value) gauges for the metrics file."""
        return []

    # ------------------------------------------------------------------ #
    # checkpoints

    def _on_checkpoint(self, generation: int) -> None:
        if generation != self._crash_generation:
            return
        self.checkpoints_taken += 1
        if self.durable_view is not None:  # only a crash restores a copy
            self.checkpoints.append(Checkpoint(
                self.scheduler.now, self.seqno, self.db.snapshot()))
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

    def _require_recovery_state(self, fault: str) -> None:
        """A crash restores a checkpoint and checks or reads the durable
        view, which :meth:`install` builds only for a crash-capable plan."""
        if self.durable_view is None:
            raise ReproError(
                f"{fault} on a run installed without recovery state: "
                f"checkpoints and the durable view are kept only when the "
                f"fault plan scripts a node_crash or shard_crash")

    def node_crash(self) -> RecoveryReport:
        """Crash the whole node — every shard at once — at the current
        simulated time: truncate every shard, drop what awaited the
        watermark, recover from checkpoint + replay, and restart every
        worker after the recovery downtime.  Called by the fault
        injector's scripted ``node_crash`` event."""
        self._require_recovery_state("node_crash")
        scheduler = self.scheduler
        now = scheduler.now
        self.crash_count += 1
        self._crash_generation += 1
        self._before_truncation()
        # -- truncate every shard to the watermark ----------------------- #
        # Epochs flushed on only some shards (_awaiting) are discarded too:
        # an epoch is committed only when durable everywhere, which is what
        # keeps cross-shard commits atomic under failure.
        lost_records: List[LogRecord] = list(self._staged_records())
        for shard in range(self.n_shards):
            self._truncate_shard(shard)
        self._awaiting.clear()
        self._pending_cost.clear()
        lost_unflushed = len(lost_records)
        self.lost_txn_ids.update(lost_txns(lost_records))
        self.lost_unflushed_total += lost_unflushed
        # -- kill every worker (aborts in-flight work, refunds pre-charged
        #    sleep spans so the time-accounting identity survives) ------- #
        lost_inflight = scheduler.crash_workers(scheduler._workers)
        self.lost_inflight_total += lost_inflight
        if scheduler.faults is not None:
            scheduler.faults.on_node_crash()
        # -- recover: checkpoint + log replay in commit (seqno) order ---- #
        replayable, crash_attrs = self._replayable()
        durable_seqno = self._durable_seqno()
        checkpoint = self._usable_checkpoint()
        new_db = Database.from_snapshot(
            checkpoint.snapshot, allocator_seq=self.db.allocator._next_seq)
        void = self._void_txns
        replayed = 0
        for record in replayable:
            if record.seqno > checkpoint.last_seqno \
                    and record.txn_id not in void:
                apply_record(new_db, record)
                replayed += 1
        recovered_snapshot = new_db.snapshot()
        # -- durability oracle ------------------------------------------ #
        from .oracle import verify_recovery
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
        n_workers = self.config.n_workers
        charged_until = min(restart, self.config.duration)
        if scheduler.accountant is not None and charged_until > now:
            for worker_id in range(n_workers):
                scheduler.accountant.on_wait(worker_id, "recovery",
                                             charged_until - now)
        self.db = new_db
        self.workload.db = new_db
        self._on_recovered(new_db, now, charged_until)
        self.cc.on_node_recovery(new_db)
        if scheduler.timeline is not None:
            scheduler.timeline.on_recovery(now, charged_until, n_workers)
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                now, EventKind.NODE_CRASH, -1,
                attrs={"persistent_epoch": self.persistent_epoch,
                       "durable_seqno": durable_seqno,
                       "lost_inflight": lost_inflight,
                       "lost_unflushed": lost_unflushed, **crash_attrs}))
            scheduler.trace.emit(TraceEvent(
                now, EventKind.RECOVERY, -1,
                attrs={"checkpoint_seqno": checkpoint.last_seqno,
                       "replayed": replayed,
                       "recovery_ticks": recovery_ticks,
                       "restart": restart}))
        scheduler.replace_workers(
            self._spawn_workers(range(n_workers),
                                RESTART_RNG_SALT + self.crash_count),
            restart)
        # a fresh watchdog window: downtime is not a livelock
        scheduler.last_commit_time = max(scheduler.last_commit_time, restart)
        # -- restart the clocks at the watermark ------------------------- #
        # lost epochs' numbers are reused: the durable log only contains
        # epochs <= persistent_epoch, so numbering stays nondecreasing
        self.current_epoch = self.persistent_epoch + 1
        self._shard_persistent = [self.persistent_epoch] * self.n_shards
        # the recovered state is durable by construction: checkpoint it so
        # a later crash need not replay this prefix again
        self.checkpoints.append(Checkpoint(restart, durable_seqno,
                                           recovered_snapshot))
        self.checkpoints_taken += 1
        self._prune_checkpoints()
        self._start_clocks(restart)
        report = RecoveryReport(
            now, restart, self.persistent_epoch, durable_seqno,
            checkpoint.last_seqno, replayed, lost_inflight, lost_unflushed,
            recovery_ticks, violations, recovered_snapshot)
        self.recoveries.append(report)
        return report

    # ------------------------------------------------------------------ #

    def finalize(self, now: float) -> None:
        """End-of-run bookkeeping: record the final persistent-epoch lag.
        Commits still buffered or mid-flush at the horizon were never
        acked, exactly like a run that ends between group commits."""
        lag = self.current_epoch - 1 - self.persistent_epoch
        if lag > self.max_epoch_lag:
            self.max_epoch_lag = lag

    def install_metrics(self, registry, **labels: str) -> None:
        counters = [
            ("durability_log_records_total", self.log_records_total),
            ("durability_log_bytes_total", self.log_bytes_total),
            ("durability_flushes_total", self.flushes),
            ("durability_flush_stalls_total", self.flush_stalls),
            ("durability_acked_commits_total", self.acked_commits),
            ("durability_checkpoints_total", self.checkpoints_taken)]
        if self.crash_count:
            counters += [
                ("durability_node_crashes_total", self.crash_count),
                ("durability_recovery_ticks_total",
                 self.recovery_ticks_total),
                ("durability_lost_inflight_total", self.lost_inflight_total),
                ("durability_lost_unflushed_total",
                 self.lost_unflushed_total)]
        for name, value in counters:
            registry.counter(name, **labels).inc(value)
        registry.gauge("durability_persistent_epoch",
                       **labels).set(self.persistent_epoch)
        registry.gauge("durability_epoch_lag_max",
                       **labels).set(self.max_epoch_lag)
        # the 2PC layer's gauges: no rows without a cluster (only-when-fed)
        for name, value in self.metrics_rows():
            registry.gauge(name, **labels).set(value)

    @property
    def unflushed_records(self) -> int:
        """Logged records not yet committed: current buffers, in-flight
        flushes, and flushed epochs awaiting the watermark."""
        return sum(1 for _ in self._staged_records())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}(shards={self.n_shards}, "
                f"epoch={self.current_epoch}, "
                f"persistent={self.persistent_epoch}, seqno={self.seqno}, "
                f"crashes={self.crash_count})")
