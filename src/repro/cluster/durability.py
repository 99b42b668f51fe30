"""Per-shard WALs, 2PC prepare/decision records, cluster-wide recovery.

Extends the single-node epoch group commit
(:class:`~repro.durability.manager.DurabilityManager`) to N shards:

* **per-shard logs and flush devices** — each shard buffers its own
  epoch records and flushes them on its own serial log device, so log
  bandwidth scales with shard count.  One *global* epoch clock closes
  all shards' epochs together (Silo/COCO-style synchronized epochs).
* **the cluster watermark** — an epoch is *committed* only once its
  flush completed on **every** shard; ``persistent_epoch`` is
  ``min(per-shard persistent epochs)``.  Acks happen at watermark
  advance, in seqno order, cluster-wide.
* **2PC records** — a cross-shard commit writes one
  :class:`PrepareRecord` per participant shard (the participant's write
  images, naming the coordinator) and one :class:`DecisionRecord` on the
  coordinator (its own images, naming the participants), all in the same
  epoch, at the shared install point.  Asynchronous decision messages
  then travel the simulated network; on arrival each participant appends
  a :class:`DecisionMarker` to its log (deduplicating duplicates), which
  is what lets a *later* recovery resolve the prepare locally.
* **node crash = whole-cluster crash** — every shard truncates to the
  watermark (epochs flushed on only *some* shards are discarded, which
  is exactly what makes cross-shard commits atomic under failure), then
  recovery replays the per-shard logs merged in seqno order.  A durable
  ``PrepareRecord`` with no ``DecisionMarker`` on its shard is
  **in doubt**: recovery consults the coordinator shard's durable log —
  a durable ``DecisionRecord`` means commit (apply the images), absence
  means **presumed abort** (skip them).  With synchronized epochs the
  abort branch is unreachable after a whole-cluster crash (prepare and
  decision share an epoch, and the watermark covers whole epochs on all
  shards); it is the safety net for the general protocol and is
  exercised directly by unit tests on hand-built logs.
* **partial failure** (:meth:`ClusterDurability.shard_crash`) — exactly
  one shard halts while the rest keep running: its pinned workers die,
  its WAL truncates to *its own* persistent epoch, and the cluster
  watermark becomes the min over **live** shards for the duration of
  the outage.  Transactions staged only in the crashed shard's
  truncated suffix are *voided* — dependency-closed via the records'
  read sets, rolled back out of the live database, and never acked even
  where sibling prepare/decision records are already durable elsewhere
  (those stay in the durable logs as residue, which is what a later
  recovery resolves against).  Survivors' durable prepares whose
  coordinator died **block in doubt** until the shard rejoins; rejoin
  consults the recovered coordinator log and — finding no decision —
  fires **presumed abort against live survivors**
  (:meth:`ClusterDurability.resolve_blocked`), the only path where the
  abort branch is reachable outside hand-built tests.  The recovered
  shard re-joins *behind* the live watermark (its clock jumps to the
  open epoch) and fresh workers restart on it after recovery plus the
  scripted extra downtime.

The acked prefix remains dependency-closed for the same reason as on a
single node — acks follow seqno order under a watermark that only ever
covers whole epochs — so the filtered serializability oracle stays
sound with cross-shard edges (see ``repro.durability.oracle``).  The
watermark argument also proves shard crashes safe: an acked commit has
epoch <= watermark <= the crashed shard's persistent epoch, while every
truncated record has epoch *greater* than it — no acked transaction can
ever depend on data a single-shard crash loses.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple, TYPE_CHECKING

from ..durability.log import LogRecord, WriteImage, apply_record
from ..durability.manager import (Checkpoint, DurabilityManager,
                                  RecoveryReport, RESTART_RNG_SALT)
from ..durability.oracle import verify_recovery
from ..errors import AbortReason, ReproError, TransactionAborted
from ..obs.tracing import EventKind, TraceEvent
from ..rng import spawn_rng
from ..storage.database import Database, detach_row
from ..storage.record import INITIAL_TXN_ID

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SimConfig
    from ..core.context import TxnContext
    from ..sim.stats import RunStats
    from .runtime import ClusterRuntime

#: simulated size of a 2PC decision message (txn id + epoch + framing)
DECISION_MSG_BYTES = 24

#: RNG salt for workers restarted by a single-shard rejoin ("SHRD"),
#: mixed with the shard-crash ordinal so every restart cohort draws a
#: stream distinct from setup and from whole-node restarts
SHARD_RESTART_RNG_SALT = 0x53485244


class PrepareRecord(LogRecord):
    """A participant shard's half of a cross-shard commit: the images it
    owns, durable *before* the decision is known locally."""

    __slots__ = ("coordinator",)

    def __init__(self, *args, coordinator: int = -1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: home shard of the coordinator (where the DecisionRecord lives)
        self.coordinator = coordinator


class DecisionRecord(LogRecord):
    """The coordinator's commit decision: its own images plus the list
    of participant shards.  The ack record of a cross-shard commit."""

    __slots__ = ("participants",)

    def __init__(self, *args, participants=(), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.participants = tuple(participants)


class DecisionMarker(LogRecord):
    """Logged by a participant when the decision message arrives: the
    local proof that its PrepareRecord is decided-commit.  Carries no
    images and is never acked."""

    __slots__ = ("origin",)

    def __init__(self, *args, origin: int = -1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: coordinator shard that sent the decision
        self.origin = origin


class ShardCrashReport:
    """What one scripted single-shard crash lost, voided and blocked."""

    __slots__ = ("time", "shard", "restart_time", "shard_persistent_epoch",
                 "lost_inflight", "lost_unflushed", "voided_txns",
                 "blocked_in_doubt", "rolled_back_keys", "doomed_survivors",
                 "recovery_ticks", "violations")

    def __init__(self, time: float, shard: int, restart_time: float,
                 shard_persistent_epoch: int, lost_inflight: int,
                 lost_unflushed: int, voided_txns: int,
                 blocked_in_doubt: int, rolled_back_keys: int,
                 doomed_survivors: int, recovery_ticks: float,
                 violations: List[str]) -> None:
        self.time = time
        self.shard = shard
        self.restart_time = restart_time
        #: the crashed shard's own persistent epoch — its WAL truncates
        #: to exactly this point (not the cluster watermark)
        self.shard_persistent_epoch = shard_persistent_epoch
        self.lost_inflight = lost_inflight
        self.lost_unflushed = lost_unflushed
        #: transactions voided cluster-wide (truncated seeds plus the
        #: read-dependency closure over staged records)
        self.voided_txns = voided_txns
        #: durable prepares on live shards left in doubt by the
        #: coordinator's death (resolved at rejoin by presumed abort)
        self.blocked_in_doubt = blocked_in_doubt
        self.rolled_back_keys = rolled_back_keys
        #: surviving workers interrupted because their in-flight
        #: transaction read voided versions or touched the dead shard
        self.doomed_survivors = doomed_survivors
        self.recovery_ticks = recovery_ticks
        self.violations = violations

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ShardCrashReport(t={self.time}, shard={self.shard}, "
                f"voided={self.voided_txns}, "
                f"blocked={self.blocked_in_doubt})")


class ClusterDurability(DurabilityManager):
    """Sharded WAL + 2PC records over the single-node epoch machinery."""

    def __init__(self, config: "SimConfig", db: Database, workload, cc,
                 stats: "RunStats", runtime: "ClusterRuntime") -> None:
        super().__init__(config, db, workload, cc, stats)
        self.runtime = runtime
        self.n_shards = runtime.n_shards
        # -- per-shard log state ----------------------------------------- #
        #: current-epoch buffers, one per shard (append order = seqno
        #: order: every append takes a fresh global seqno under the
        #: install lock)
        self._shard_buffers: List[List[LogRecord]] = [
            [] for _ in range(self.n_shards)]
        #: per-shard serial log device free times
        self._shard_flush_free: List[float] = [0.0] * self.n_shards
        #: per-shard in-flight flushes: epoch -> records
        self._shard_inflight: List[Dict[int, List[LogRecord]]] = [
            {} for _ in range(self.n_shards)]
        #: per-shard latest flushed epoch; the cluster watermark
        #: (``persistent_epoch``) is the min over shards
        self._shard_persistent: List[int] = [0] * self.n_shards
        #: flushed records awaiting watermark coverage: epoch -> shard ->
        #: records (durable on their own shard, not yet cluster-committed)
        self._awaiting: Dict[int, Dict[int, List[LogRecord]]] = {}
        #: the durable per-shard logs (watermark-covered, seqno order)
        self.shard_logs: List[List[LogRecord]] = [
            [] for _ in range(self.n_shards)]
        # -- 2PC state ---------------------------------------------------- #
        #: per-shard txn ids whose decision arrived (message dedup + the
        #: runtime marker set; rebuilt from durable markers at recovery)
        self._decided: List[Set[int]] = [set() for _ in range(self.n_shards)]
        #: txn ids with a *durable* DecisionRecord (the consult target of
        #: in-doubt recovery)
        self._decision_txns: Set[int] = set()
        #: txn ids acked to clients (presumed-abort oracle: an acked txn
        #: may never resolve as abort)
        self._acked_txns: Set[int] = set()
        # -- partial-failure state ----------------------------------------- #
        #: per-shard restart generation: bumped by shard_crash so stale
        #: flush completions and rejoin callbacks for the dead shard die,
        #: without touching the global ``_crash_generation`` (the cluster
        #: epoch clock and in-flight decision messages keep running)
        self._shard_generation: List[int] = [0] * self.n_shards
        #: txn ids voided by shard crashes: durable sibling records of a
        #: truncated transaction stay in the logs as residue but are
        #: never acked, never applied to the durable view, and skipped
        #: by whole-node replay
        self._void_txns: Set[int] = set()
        #: durable prepares on live shards whose coordinator shard is
        #: down: (participant shard, record), blocked until the
        #: coordinator rejoins and its recovered log is consulted
        self._blocked: List[Tuple[int, PrepareRecord]] = []
        #: recovery span already charged to each shard's workers by a
        #: shard crash (a later whole-node crash refunds the overlap)
        self._charged_down_until: List[float] = [0.0] * self.n_shards
        self.shard_crash_count = 0
        self.shard_downtime_total = 0.0
        self.blocked_in_doubt_total = 0
        self.shard_crashes: List[ShardCrashReport] = []
        # -- counters ----------------------------------------------------- #
        self.decision_messages = 0
        self.duplicate_decisions = 0
        self.in_doubt_total = 0
        self.in_doubt_commits = 0
        self.in_doubt_aborts = 0

    # ------------------------------------------------------------------ #
    # logging (called once per commit, at the shared install point)

    def log_commit(self, ctx: "TxnContext") -> None:
        runtime = self.runtime
        worker = ctx.worker
        worker_id = worker.worker_id if worker is not None else -1
        home = (runtime.shard_of_worker(worker_id) if worker_id >= 0 else 0)
        deadline = worker.deadline if worker is not None else None
        now = self.scheduler.now
        images_by_shard: Dict[int, List[WriteImage]] = {}
        n_images = 0
        for entry in sorted(ctx.wset.values(), key=lambda e: e.order):
            if entry.installed_vid is None:
                continue
            if runtime.partitioner.is_replicated(entry.table):
                raise ReproError(
                    f"replicated table {entry.table!r} written by "
                    f"{ctx.type_name} — replicated tables are read-only")
            shard = runtime.durability_shard(entry.table, entry.key)
            images_by_shard.setdefault(shard, []).append(
                WriteImage(entry.table, entry.key, entry.value,
                           entry.installed_vid))
            n_images += 1
        if runtime.any_down:
            down = runtime.shard_down
            if down[home] or any(down[s] for s in images_by_shard):
                raise ReproError(
                    f"commit of {ctx.type_name} txn {ctx.txn_id} targets a "
                    f"down shard — degraded-mode admission/abort should "
                    f"have stopped it before install")
        # the versions this commit read: a shard crash chases these edges
        # so the voided set stays dependency-closed (oracle bookkeeping
        # only — excluded from record byte sizes)
        reads = frozenset(
            entry.version_id[0] for entry in ctx.rset.values()
            if entry.version_id is not None
            and entry.version_id[0] != INITIAL_TXN_ID)
        participants = sorted(s for s in images_by_shard if s != home)
        if not participants:
            # single-shard commit: one plain record on the home WAL
            self.seqno += 1
            record = LogRecord(self.seqno, self.current_epoch, ctx.txn_id,
                               worker_id, ctx.type_name, ctx.priority[0],
                               now, images_by_shard.get(home, []),
                               deadline=deadline, reads=reads)
            self._shard_buffers[home].append(record)
            self._pending_cost[worker_id] = (
                self._pending_cost.get(worker_id, 0.0)
                + self.dc.log_write * (1 + n_images))
            return
        # cross-shard commit: prepares on the participants, then the
        # decision on the coordinator (all in the current epoch)
        for shard in participants:
            self.seqno += 1
            self._shard_buffers[shard].append(PrepareRecord(
                self.seqno, self.current_epoch, ctx.txn_id, worker_id,
                ctx.type_name, ctx.priority[0], now, images_by_shard[shard],
                deadline=deadline, reads=reads, coordinator=home))
        self.seqno += 1
        self._shard_buffers[home].append(DecisionRecord(
            self.seqno, self.current_epoch, ctx.txn_id, worker_id,
            ctx.type_name, ctx.priority[0], now,
            images_by_shard.get(home, []), deadline=deadline, reads=reads,
            participants=participants))
        # one header per record (prepares + decision) plus one per image
        self._pending_cost[worker_id] = (
            self._pending_cost.get(worker_id, 0.0)
            + self.dc.log_write * (1 + len(participants) + n_images))
        self._send_decisions(home, participants, ctx.txn_id, ctx.type_name)

    # ------------------------------------------------------------------ #
    # asynchronous decision messages

    def _send_decisions(self, home: int, participants, txn_id: int,
                        type_name: str) -> None:
        scheduler = self.scheduler
        now = scheduler.now
        generation = self._crash_generation
        network = self.runtime.network
        for shard in participants:
            arrive, duplicate = network.delivery_time(home, shard, now,
                                                      DECISION_MSG_BYTES)
            self.decision_messages += 1
            scheduler.schedule_callback(
                arrive, lambda s=shard: self._deliver_decision(
                    s, home, txn_id, type_name, generation))
            if duplicate is not None:
                scheduler.schedule_callback(
                    duplicate, lambda s=shard: self._deliver_decision(
                        s, home, txn_id, type_name, generation))

    def _deliver_decision(self, shard: int, origin: int, txn_id: int,
                          type_name: str, generation: int) -> None:
        if generation != self._crash_generation:
            return  # the message died with the crashed cluster
        if self._void_txns and txn_id in self._void_txns:
            # the transaction died in a shard crash after this message
            # was sent: a marker now would be poison — a later recovery
            # would read it as locally-decided-commit and surface the
            # voided writes
            return
        if self.runtime.any_down and self.runtime.shard_down[shard]:
            return  # the participant is down: the message is lost
        if txn_id in self._decided[shard]:
            self.duplicate_decisions += 1
            return  # duplicate delivery: the marker is already logged
        self._decided[shard].add(txn_id)
        self.seqno += 1
        now = self.scheduler.now
        self._shard_buffers[shard].append(DecisionMarker(
            self.seqno, self.current_epoch, txn_id, -1, type_name,
            now, now, [], origin=origin))

    # ------------------------------------------------------------------ #
    # the global epoch clock over per-shard flush devices

    def _on_epoch_boundary(self, generation: int) -> None:
        if generation != self._crash_generation:
            return
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
        timeline = getattr(scheduler, "timeline", None)
        shard_down = self.runtime.shard_down
        for shard in range(self.n_shards):
            if shard_down[shard]:
                # a down shard neither buffers nor flushes; it rejoins
                # behind the watermark with its clock jumped forward
                continue
            records = self._shard_buffers[shard]
            self._shard_buffers[shard] = []
            start = max(now, self._shard_flush_free[shard])
            if records:
                self.flushes += 1
                if start > now:
                    self.flush_stalls += 1
                if timeline is not None:
                    timeline.on_flush(now, stalled=start > now)
                completion = start + self.dc.log_flush
            else:
                completion = start  # empty epoch: free ordering marker
            self._shard_flush_free[shard] = completion
            self._shard_inflight[shard][closing] = records
            if completion <= now:
                self._complete_shard_flush(shard, closing, generation,
                                           self._shard_generation[shard])
            else:
                scheduler.schedule_callback(
                    completion,
                    lambda s=shard, g=self._shard_generation[shard]:
                        self._complete_shard_flush(s, closing, generation, g))

    def _complete_shard_flush(self, shard: int, epoch: int,
                              generation: int,
                              shard_generation: int = 0) -> None:
        if generation != self._crash_generation:
            return
        if shard_generation != self._shard_generation[shard]:
            return  # the flush device died with its shard
        records = self._shard_inflight[shard].pop(epoch, [])
        self._shard_persistent[shard] = epoch
        self._awaiting.setdefault(epoch, {})[shard] = records
        if self.runtime.any_down:
            down = self.runtime.shard_down
            watermark = min(p for s, p in enumerate(self._shard_persistent)
                            if not down[s])
        else:
            watermark = min(self._shard_persistent)
        while self.persistent_epoch < watermark:
            next_epoch = self.persistent_epoch + 1
            self._ack_epoch(next_epoch)
            self.persistent_epoch = next_epoch

    def _ack_epoch(self, epoch: int) -> None:
        """The watermark reached ``epoch`` on every shard: its records
        are cluster-committed.  Append them to the durable logs, ack the
        client-visible commits in seqno order, fold them into the
        durable view."""
        by_shard = self._awaiting.pop(epoch, {})
        merged: List[LogRecord] = []
        for shard in sorted(by_shard):
            self.shard_logs[shard].extend(by_shard[shard])
            merged.extend(by_shard[shard])
        merged.sort(key=lambda r: r.seqno)
        scheduler = self.scheduler
        now = scheduler.now
        nbytes = 0
        acks = {} if scheduler.trace.enabled else None
        void = self._void_txns
        for record in merged:
            self.durable_log.append(record)
            nbytes += record.nbytes
            if void and record.txn_id in void:
                # shard-crash residue: durable sibling records of a
                # voided transaction reach the logs (a later recovery
                # resolves against them) but are never acked, never
                # vid-registered, never part of the decided set
                continue
            for image in record.writes:
                self._durable_vids.add(image.vid)
            if isinstance(record, DecisionRecord):
                self._decision_txns.add(record.txn_id)
            if not isinstance(record, (PrepareRecord, DecisionMarker)):
                # the client ack: plain single-shard records and 2PC
                # decision records, exactly once per transaction
                self.stats.record_commit(record.type_name, now,
                                         now - record.first_start,
                                         deadline=record.deadline)
                if acks is not None:
                    stat = acks.setdefault(record.type_name, [0, 0.0])
                    stat[0] += 1
                    stat[1] += now - record.first_start
                self.acked_commits += 1
                self.max_acked_seqno = record.seqno
                self._acked_txns.add(record.txn_id)
        view = self.durable_view
        for record in merged:
            if void and record.txn_id in void:
                continue  # voided writes never reach the durable view
            view.apply(record)
        self.log_records_total += len(merged)
        self.log_bytes_total += nbytes
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                now, EventKind.EPOCH, -1,
                attrs={"epoch": epoch, "records": len(merged),
                       "bytes": nbytes, "acks": acks,
                       "shards": sorted(by_shard)}))
        self._prune_checkpoints()

    # ------------------------------------------------------------------ #
    # whole-cluster crash and recovery

    def resolve_in_doubt(self) -> Dict[int, bool]:
        """Scan the durable shard logs for prepares without a local
        decision marker and resolve each against the coordinator's
        durable log: txn_id -> True (commit) / False (presumed abort).
        Called during recovery; public for the hand-built-log tests."""
        durable_decided: List[Set[int]] = [set()
                                           for _ in range(self.n_shards)]
        for shard in range(self.n_shards):
            for record in self.shard_logs[shard]:
                if isinstance(record, DecisionMarker):
                    durable_decided[shard].add(record.txn_id)
        resolutions: Dict[int, bool] = {}
        for shard in range(self.n_shards):
            for record in self.shard_logs[shard]:
                if not isinstance(record, PrepareRecord):
                    continue
                if record.txn_id in durable_decided[shard]:
                    continue  # locally decided: nothing in doubt
                self.in_doubt_total += 1
                # a transaction already lost (voided by a shard crash or
                # presumed-aborted once) can never flip to commit, even
                # if a residue DecisionRecord survives in some log
                committed = (record.txn_id in self._decision_txns
                             and record.txn_id not in self.lost_txn_ids)
                resolutions[record.txn_id] = committed
                if committed:
                    self.in_doubt_commits += 1
                    durable_decided[shard].add(record.txn_id)
                else:
                    self.in_doubt_aborts += 1
                    if record.txn_id in self._acked_txns:
                        self.violations.append(
                            f"2pc: acked txn {record.txn_id} resolved as "
                            f"presumed abort on shard {shard}")
                    self.lost_txn_ids.add(record.txn_id)
        # the message-dedup state restarts from what is provably durable
        self._decided = durable_decided
        return resolutions

    # ------------------------------------------------------------------ #
    # partial failure: one shard crashes, the rest keep running

    def _staged_records(self) -> Iterator[LogRecord]:
        """Every record not yet cluster-committed, in deterministic
        order: current buffers, in-flight shard flushes, and flushed
        epochs awaiting the watermark."""
        for shard in range(self.n_shards):
            yield from self._shard_buffers[shard]
            inflight = self._shard_inflight[shard]
            for epoch in sorted(inflight):
                yield from inflight[epoch]
        for epoch in sorted(self._awaiting):
            by_shard = self._awaiting[epoch]
            for shard in sorted(by_shard):
                yield from by_shard[shard]

    def shard_crash(self, shard: int, downtime: float = 0.0) -> ShardCrashReport:
        """Crash exactly one shard at the current simulated time while
        the rest of the cluster keeps running.

        The shard's WAL truncates to *its own* persistent epoch (not the
        cluster watermark), its pinned workers die, transactions staged
        only in the truncated suffix are voided cluster-wide
        (dependency-closed over staged read sets) and rolled back out of
        the live database, and durable prepares on live shards whose
        coordinator just died block in doubt until the shard rejoins
        after recovery plus ``downtime`` extra ticks.  Called by the
        fault injector's scripted ``shard_crash`` event."""
        scheduler = self.scheduler
        runtime = self.runtime
        now = scheduler.now
        self.shard_crash_count += 1
        self._shard_generation[shard] += 1
        shard_persistent = self._shard_persistent[shard]
        violations: List[str] = []
        # -- truncate the shard to its own persistent epoch ---------------- #
        lost_records: List[LogRecord] = list(self._shard_buffers[shard])
        self._shard_buffers[shard] = []
        inflight = self._shard_inflight[shard]
        for epoch in sorted(inflight):
            lost_records.extend(inflight[epoch])
        inflight.clear()
        self._shard_flush_free[shard] = 0.0
        # markers reference *older* durable transactions — losing a marker
        # never loses the transaction it points at
        lost: Set[int] = {r.txn_id for r in lost_records
                          if not isinstance(r, DecisionMarker)}
        # -- dependency closure over every staged record ------------------- #
        # A staged survivor that read a voided version must be voided too,
        # or the acked prefix would stop being dependency-closed.
        changed = bool(lost)
        while changed:
            changed = False
            for record in self._staged_records():
                if record.txn_id in lost or record.txn_id in self._void_txns \
                        or isinstance(record, DecisionMarker):
                    continue
                if record.reads and not lost.isdisjoint(record.reads):
                    lost.add(record.txn_id)
                    changed = True
        # -- drop lost transactions from live shards' non-durable state ---- #
        # (records already durable on a live shard stay in its log as
        # residue; voiding keeps them from ever acking or applying)
        for s in range(self.n_shards):
            if s == shard:
                continue
            buffer = self._shard_buffers[s]
            if any(r.txn_id in lost for r in buffer):
                lost_records.extend(r for r in buffer if r.txn_id in lost)
                self._shard_buffers[s] = [r for r in buffer
                                          if r.txn_id not in lost]
            for epoch in sorted(self._shard_inflight[s]):
                records = self._shard_inflight[s][epoch]
                if any(r.txn_id in lost for r in records):
                    lost_records.extend(r for r in records
                                        if r.txn_id in lost)
                    self._shard_inflight[s][epoch] = [
                        r for r in records if r.txn_id not in lost]
        self._void_txns.update(lost)
        self.lost_txn_ids.update(lost)
        self.lost_unflushed_total += len(lost_records)
        # -- oracle: no acked transaction may be lost ---------------------- #
        # (provable: acked => epoch <= watermark <= the shard's own
        # persistent epoch, and only epochs beyond it were truncated)
        for txn_id in sorted(lost & self._acked_txns):
            violations.append(
                f"shard crash lost acked txn {txn_id}")
        # -- scrub checkpoints that captured voided installs --------------- #
        if lost_records:
            cut = min(r.seqno for r in lost_records)
            self.checkpoints = [c for c in self.checkpoints
                                if c.last_seqno < cut]
        # -- durable prepares left in doubt by the coordinator's death ----- #
        blocked_now = 0
        for epoch in sorted(self._awaiting):
            by_shard = self._awaiting[epoch]
            for s in sorted(by_shard):
                if s == shard:
                    continue
                for record in by_shard[s]:
                    if isinstance(record, PrepareRecord) \
                            and record.coordinator == shard \
                            and record.txn_id in lost:
                        self._blocked.append((s, record))
                        blocked_now += 1
        self.blocked_in_doubt_total += blocked_now
        # -- kill the shard's pinned workers ------------------------------- #
        shard_workers = [w for w in scheduler._workers
                         if runtime.shard_of_worker(w.worker_id) == shard]
        lost_inflight = scheduler.crash_workers(shard_workers,
                                                outcome="shard_crash")
        self.lost_inflight_total += lost_inflight
        for worker in shard_workers:
            self._pending_cost.pop(worker.worker_id, None)
        if scheduler.faults is not None:
            scheduler.faults.on_shard_crash(
                [w.worker_id for w in shard_workers])
        # -- roll the voided installs back out of the live database -------- #
        lost_with_images = [r for r in lost_records if r.writes]
        for epoch in sorted(self._awaiting):
            by_shard = self._awaiting[epoch]
            for s in sorted(by_shard):
                lost_with_images.extend(
                    r for r in by_shard[s] if r.txn_id in lost and r.writes)
        rolled_back = self._rollback_voided(lost, lost_with_images)
        # -- interrupt poisoned survivors ---------------------------------- #
        # ctx.doomed alone only reaches executors that re-check it; a 2PL
        # reader of a rolled-back version would never version-validate,
        # so poisoned transactions are aborted through the fault path.
        doomed_survivors = 0
        for worker in scheduler._workers:
            if worker.finished:
                continue
            worker_id = worker.worker_id
            if runtime.shard_of_worker(worker_id) == shard:
                continue
            ctx = worker.current_ctx
            if ctx is None or not ctx.is_active():
                continue
            poisoned = shard in runtime.touched_shards(worker_id)
            if not poisoned:
                for entry in ctx.rset.values():
                    vid = entry.version_id
                    if vid is not None and vid[0] in lost:
                        poisoned = True
                        break
            if not poisoned:
                continue
            ctx.doomed = True
            doomed_survivors += 1
            exc = TransactionAborted(
                AbortReason.FAULT, f"shard {shard} crashed",
                site=f"shard{shard}")
            if scheduler.is_parked(worker):
                # interrupt now: the wait's wake key may never fire again
                scheduler.cancel_wait(worker, outcome="fault")
                scheduler._pending_exc[worker] = exc
                scheduler._schedule_worker(worker, now)
            else:
                # sleeping mid-transaction: abort at the natural wake-up
                # so the charged cost span stays consistent with time
                scheduler._pending_exc[worker] = exc
        runtime.mark_shard_down(shard)
        # -- downtime accounting ------------------------------------------- #
        checkpoint = self._usable_checkpoint()
        replayed = sum(1 for r in self.shard_logs[shard]
                       if r.seqno > checkpoint.last_seqno)
        for epoch in sorted(self._awaiting):
            replayed += len(self._awaiting[epoch].get(shard, ()))
        recovery_ticks = (self.dc.recovery_base
                          + self.dc.replay_per_record * replayed)
        self.recovery_ticks_total += recovery_ticks
        restart = now + recovery_ticks + downtime
        charged_until = min(restart, self.config.duration)
        self.shard_downtime_total += max(0.0, charged_until - now)
        self._charged_down_until[shard] = charged_until
        if scheduler.accountant is not None and charged_until > now:
            for worker in shard_workers:
                scheduler.accountant.on_wait(worker.worker_id, "recovery",
                                             charged_until - now)
        timeline = getattr(scheduler, "timeline", None)
        if timeline is not None and charged_until > now:
            timeline.on_recovery(now, charged_until, len(shard_workers))
            timeline.on_shard_down(now, charged_until, shard)
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                now, EventKind.SHARD_CRASH, -1,
                attrs={"shard": shard, "crash": self.shard_crash_count,
                       "shard_persistent": shard_persistent,
                       "lost_inflight": lost_inflight,
                       "lost_unflushed": len(lost_records),
                       "voided": len(lost),
                       "blocked_in_doubt": blocked_now,
                       "rolled_back": rolled_back}))
            scheduler.trace.emit(TraceEvent(
                now, EventKind.RECOVERY, -1,
                attrs={"shard": shard,
                       "checkpoint_seqno": checkpoint.last_seqno,
                       "replayed": replayed,
                       "recovery_ticks": recovery_ticks,
                       "restart": restart}))
        # -- schedule the rejoin ------------------------------------------- #
        generation = self._crash_generation
        shard_generation = self._shard_generation[shard]
        restart_salt = SHARD_RESTART_RNG_SALT + self.shard_crash_count
        scheduler.schedule_callback(
            restart, lambda: self._rejoin_shard(
                shard, restart, restart_salt, generation, shard_generation))
        self.violations.extend(
            f"shard_crash(#{self.shard_crash_count} shard {shard} @ {now}): "
            f"{v}" for v in violations)
        scheduler.wake_parked()
        report = ShardCrashReport(
            now, shard, restart, shard_persistent, lost_inflight,
            len(lost_records), len(lost), blocked_now, rolled_back,
            doomed_survivors, recovery_ticks, violations)
        self.shard_crashes.append(report)
        return report

    def _rollback_voided(self, lost: Set[int],
                         lost_with_images: List[LogRecord]) -> int:
        """Restore every live-database key whose current version was
        installed by a voided transaction to its newest surviving
        version: the latest non-voided staged write if one exists, else
        the durable view's version, else a tombstone carrying the
        initial version id (the key was created by voided transactions
        only).  Returns the number of keys rolled back."""
        poisoned_keys = sorted({(image.table, image.key)
                                for record in lost_with_images
                                for image in record.writes})
        if not poisoned_keys:
            return 0
        staged_latest: Dict[tuple, tuple] = {}
        for record in self._staged_records():
            if record.txn_id in self._void_txns:
                continue
            for image in record.writes:
                key = (image.table, image.key)
                best = staged_latest.get(key)
                if best is None or record.seqno > best[0]:
                    staged_latest[key] = (record.seqno, image)
        rolled_back = 0
        for table_name, key in poisoned_keys:
            table = self.db._tables.get(table_name)
            record = None if table is None else table._records.get(key)
            if record is None or record.version_id[0] not in lost:
                continue  # a surviving write already supersedes it
            staged = staged_latest.get((table_name, key))
            if staged is not None:
                image = staged[1]
                value = None if image.value is None else detach_row(image.value)
                vid = image.vid
            else:
                durable = self.durable_view.get(table_name, key)
                if durable is not None:
                    vid, value = durable
                    if value is not None:
                        value = detach_row(value)
                else:
                    value, vid = None, (INITIAL_TXN_ID, -1)
            table.restore_row(key, value, vid)
            rolled_back += 1
        return rolled_back

    def _rejoin_shard(self, shard: int, restart: float, restart_salt: int,
                      generation: int, shard_generation: int) -> None:
        """The crashed shard completed recovery: rejoin it behind the
        live watermark, resolve the prepares its death left blocked, and
        restart its pinned workers."""
        if generation != self._crash_generation:
            return  # a whole-node crash superseded this rejoin
        if shard_generation != self._shard_generation[shard]:
            return  # the shard crashed again before rejoining
        scheduler = self.scheduler
        runtime = self.runtime
        # rejoin *behind* the watermark: the shard's clock jumps to the
        # currently-open epoch, so its first flush registers for it and
        # the live watermark is unchanged by the rejoin
        self._shard_persistent[shard] = self.current_epoch - 1
        self._shard_flush_free[shard] = 0.0
        # the message-dedup state restarts from what is provably durable
        decided = {r.txn_id for r in self.shard_logs[shard]
                   if isinstance(r, DecisionMarker)}
        for epoch in sorted(self._awaiting):
            decided.update(r.txn_id
                           for r in self._awaiting[epoch].get(shard, ())
                           if isinstance(r, DecisionMarker))
        self._decided[shard] = decided
        resolutions = self.resolve_blocked(shard)
        runtime.mark_shard_up(shard)
        worker_ids = [worker_id for worker_id in range(self.config.n_workers)
                      if runtime.shard_of_worker(worker_id) == shard]
        new_workers = [
            self._worker_factory(
                worker_id,
                spawn_rng(self.config.seed, worker_id, restart_salt))
            for worker_id in worker_ids
        ]
        scheduler.replace_worker_subset(new_workers, restart)
        scheduler.last_commit_time = max(scheduler.last_commit_time, restart)
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                restart, EventKind.RECOVERY, -1,
                attrs={"shard": shard, "rejoined": True,
                       "resolved_in_doubt": len(resolutions),
                       "workers": len(new_workers)}))

    def resolve_blocked(self, shard: int) -> Dict[int, bool]:
        """Resolve the prepares blocked in doubt by ``shard``'s death
        against its recovered durable log: txn_id -> True (commit) /
        False (presumed abort).  In a real run the coordinator's
        decision was truncated with the shard — that is what blocked the
        prepare — so every resolution here is a presumed abort fired
        against live survivors; the commit branch exists for hand-built
        logs.  Re-resolution is idempotent and can never flip a
        decision.  Called at shard rejoin; public for the tests."""
        decided = {r.txn_id for r in self.shard_logs[shard]
                   if isinstance(r, DecisionRecord)
                   and r.txn_id not in self._void_txns}
        still_blocked: List[Tuple[int, PrepareRecord]] = []
        resolutions: Dict[int, bool] = {}
        for participant, record in self._blocked:
            if record.coordinator != shard:
                still_blocked.append((participant, record))
                continue
            self.in_doubt_total += 1
            committed = (record.txn_id in decided
                         and record.txn_id not in self.lost_txn_ids)
            resolutions[record.txn_id] = committed
            if committed:
                self.in_doubt_commits += 1
                self._decided[participant].add(record.txn_id)
            else:
                self.in_doubt_aborts += 1
                if record.txn_id in self._acked_txns:
                    self.violations.append(
                        f"2pc: acked txn {record.txn_id} resolved as "
                        f"presumed abort on shard {participant}")
                self.lost_txn_ids.add(record.txn_id)
                self._void_txns.add(record.txn_id)
        self._blocked = still_blocked
        return resolutions

    def node_crash(self) -> RecoveryReport:
        scheduler = self.scheduler
        now = scheduler.now
        self.crash_count += 1
        self._crash_generation += 1
        # a whole-cluster crash supersedes any partial-failure state:
        # every shard restarts together, and truncating to the watermark
        # evaporates the durable-but-unacked prepares blocked in doubt
        self._blocked = []
        for s in range(self.n_shards):
            self._shard_generation[s] += 1
        if self.runtime.any_down:
            for s in range(self.n_shards):
                if self.runtime.shard_down[s]:
                    self.runtime.mark_shard_up(s)
        # -- truncate every shard to the cluster watermark ---------------- #
        # Epochs flushed on only some shards (_awaiting) are discarded too:
        # an epoch is committed only when durable everywhere, which is what
        # keeps cross-shard commits atomic under failure.
        lost_records: List[LogRecord] = []
        for shard in range(self.n_shards):
            lost_records.extend(self._shard_buffers[shard])
            self._shard_buffers[shard] = []
            for epoch in sorted(self._shard_inflight[shard]):
                lost_records.extend(self._shard_inflight[shard][epoch])
            self._shard_inflight[shard].clear()
            self._shard_flush_free[shard] = 0.0
        for epoch in sorted(self._awaiting):
            for shard in sorted(self._awaiting[epoch]):
                lost_records.extend(self._awaiting[epoch][shard])
        self._awaiting.clear()
        self._pending_cost.clear()
        self.runtime.network.clear_faults()
        lost_unflushed = len(lost_records)
        # markers reference *older* durable transactions — losing a marker
        # never loses the transaction it points at
        self.lost_txn_ids.update(r.txn_id for r in lost_records
                                 if not isinstance(r, DecisionMarker))
        self.lost_unflushed_total += lost_unflushed
        # -- kill every worker across the cluster ------------------------- #
        lost_inflight = scheduler.crash_all_workers()
        self.lost_inflight_total += lost_inflight
        if scheduler.faults is not None:
            scheduler.faults.on_node_crash()
        # -- resolve in-doubt prepares, then replay ----------------------- #
        resolutions = self.resolve_in_doubt()
        aborted = {txn_id for txn_id, committed in resolutions.items()
                   if not committed}
        durable_seqno = self._durable_seqno()
        checkpoint = self._usable_checkpoint()
        allocator_seq = self.db.allocator._next_seq
        new_db = Database.from_snapshot(checkpoint.snapshot,
                                        allocator_seq=allocator_seq)
        replayed = 0
        for record in self.durable_log:
            if record.seqno <= checkpoint.last_seqno:
                continue
            if isinstance(record, PrepareRecord) and record.txn_id in aborted:
                continue  # presumed abort: its images must not surface
            if self._void_txns and record.txn_id in self._void_txns:
                continue  # shard-crash residue: never acked, never applied
            apply_record(new_db, record)
            replayed += 1
        recovered_snapshot = new_db.snapshot()
        # -- durability oracle -------------------------------------------- #
        violations = verify_recovery(
            self.durable_view, recovered_snapshot, self.max_acked_seqno,
            durable_seqno, self._durable_vids)
        self.violations.extend(
            f"durability(crash #{self.crash_count} @ {now}): {v}"
            for v in violations)
        # -- downtime, database swap, worker restart ---------------------- #
        recovery_ticks = (self.dc.recovery_base
                          + self.dc.replay_per_record * replayed)
        self.recovery_ticks_total += recovery_ticks
        restart = now + recovery_ticks
        self.db = new_db
        self.workload.db = new_db
        # re-shard before the CC re-binds: the executor caches the table
        # dict at recovery exactly like at setup
        self.runtime.shard_tables(new_db)
        self.cc.on_node_recovery(new_db)
        charged_until = min(restart, self.config.duration)
        if scheduler.accountant is not None and charged_until > now:
            for worker_id in range(self.config.n_workers):
                scheduler.accountant.on_wait(worker_id, "recovery",
                                             charged_until - now)
            # a down shard's workers were already charged recovery up to
            # their rejoin point — refund the span the whole-node charge
            # just covered twice
            for s, until in enumerate(self._charged_down_until):
                overlap = min(until, charged_until) - now
                if overlap > 0:
                    for worker_id in range(self.config.n_workers):
                        if self.runtime.shard_of_worker(worker_id) == s:
                            scheduler.accountant.on_wait(
                                worker_id, "recovery", -overlap)
        self._charged_down_until = [0.0] * self.n_shards
        timeline = getattr(scheduler, "timeline", None)
        if timeline is not None:
            timeline.on_recovery(now, charged_until, self.config.n_workers)
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                now, EventKind.NODE_CRASH, -1,
                attrs={"persistent_epoch": self.persistent_epoch,
                       "durable_seqno": durable_seqno,
                       "lost_inflight": lost_inflight,
                       "lost_unflushed": lost_unflushed,
                       "in_doubt": len(resolutions)}))
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
        scheduler.last_commit_time = max(scheduler.last_commit_time, restart)
        # -- restart the epoch clocks at the watermark --------------------- #
        self.current_epoch = self.persistent_epoch + 1
        self._shard_persistent = [self.persistent_epoch] * self.n_shards
        generation = self._crash_generation
        scheduler.schedule_callback(
            restart + self.dc.epoch_length,
            lambda: self._on_epoch_boundary(generation))
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

    @property
    def unflushed_records(self) -> int:
        """Records not yet cluster-committed: current buffers, in-flight
        shard flushes, and flushed epochs awaiting the watermark."""
        total = sum(len(buf) for buf in self._shard_buffers)
        for inflight in self._shard_inflight:
            total += sum(len(records) for records in inflight.values())
        for by_shard in self._awaiting.values():
            total += sum(len(records) for records in by_shard.values())
        return total

    def metrics_rows(self):
        rows = [
            ("cluster_decision_messages", float(self.decision_messages)),
            ("cluster_duplicate_decisions", float(self.duplicate_decisions)),
            ("cluster_in_doubt_total", float(self.in_doubt_total)),
            ("cluster_in_doubt_commits", float(self.in_doubt_commits)),
            ("cluster_in_doubt_aborts", float(self.in_doubt_aborts)),
        ]
        if self.shard_crash_count:
            rows.extend([
                ("cluster_shard_crashes", float(self.shard_crash_count)),
                ("cluster_shard_downtime_total", self.shard_downtime_total),
                ("cluster_blocked_in_doubt_total",
                 float(self.blocked_in_doubt_total)),
                ("cluster_voided_txns", float(len(self._void_txns))),
            ])
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ClusterDurability(shards={self.n_shards}, "
                f"epoch={self.current_epoch}, "
                f"watermark={self.persistent_epoch}, "
                f"crashes={self.crash_count})")
