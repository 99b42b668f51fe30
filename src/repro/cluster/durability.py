"""The 2PC layer over the durability core: prepare/decision records,
in-doubt resolution, single-shard crash and rejoin.

The per-shard logs and flush devices, the one epoch clock, the watermark
(an epoch is *committed* only once flushed on **every** live shard; acks
happen at watermark advance, in seqno order, cluster-wide), checkpoints
and the whole-node crash all live in
:class:`~repro.durability.manager.DurabilityManager`, which runs them for
N shards — a single node is N = 1.  :class:`ClusterDurability` subclasses
it for what has no one-shard meaning, overrides ``log_commit`` (routing
images to their owning shards is cluster-only work; both versions append
and charge through the core's ``_append_records``) and is otherwise
reached through the core's hooks — ``_epoch_acked``,
``_before_truncation``, ``_replayable``, ``_on_recovered``,
``metrics_rows``:

* **2PC records** — a cross-shard commit writes one
  :class:`PrepareRecord` per participant shard (the participant's write
  images, naming the coordinator) and one :class:`DecisionRecord` on the
  coordinator (its own images, naming the participants), all in the same
  epoch, at the shared install point.  Asynchronous decision messages
  then travel the simulated network; on arrival each participant appends
  a :class:`DecisionMarker` to its log (deduplicating duplicates), which
  is what lets a *later* recovery resolve the prepare locally.
* **node crash = whole-cluster crash** — the core truncates every shard
  to the watermark (epochs flushed on only *some* shards are discarded,
  which is exactly what makes cross-shard commits atomic under failure),
  then replays the merged durable log in seqno order; this layer says
  what to keep out of the replay.  A durable
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
  its WAL truncates to *its own* persistent epoch (the same per-shard
  step the node crash applies to every shard), and the cluster
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

from itertools import chain
from typing import Dict, Iterable, List, Set, Tuple, TYPE_CHECKING

from ..durability.log import LogRecord, lost_txns
from ..durability.manager import DurabilityManager
from ..errors import AbortReason, ReproError, TransactionAborted
from ..obs.tracing import EventKind, TraceEvent
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
    acks = False

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
    acks = False
    carries_txn = False

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


def void_closure(seeds: Iterable[int], staged: Iterable[LogRecord],
                 void: Set[int]) -> Set[int]:
    """Close ``seeds`` — the txn ids lost with a truncated shard — under
    reads-from over the ``staged`` (not yet committed) records: a staged
    survivor that read a voided version must be voided too, or the acked
    prefix would stop being dependency-closed.  Records of already
    ``void`` transactions and decision markers (which carry no
    transaction) neither join the set nor extend it."""
    lost = set(seeds)
    candidates = [r for r in staged
                  if r.reads and r.carries_txn and r.txn_id not in void]
    changed = bool(lost)
    while changed:
        changed = False
        for record in candidates:
            if record.txn_id not in lost \
                    and not lost.isdisjoint(record.reads):
                lost.add(record.txn_id)
                changed = True
    return lost


class ClusterDurability(DurabilityManager):
    """The 2PC layer over the per-shard epoch machinery of
    :class:`~repro.durability.manager.DurabilityManager`: it routes a
    commit's images into prepare/decision records, delivers decisions,
    resolves in-doubt prepares, and crashes / rejoins single shards."""

    def __init__(self, config: "SimConfig", db: Database, workload, cc,
                 stats: "RunStats", runtime: "ClusterRuntime") -> None:
        super().__init__(config, db, workload, cc, stats, runtime.n_shards)
        self.runtime = runtime
        # one list of down flags, owned by the runtime: the core skips a
        # down shard at epoch boundaries and in the watermark
        self._shard_down = runtime.shard_down
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
        """Route the commit's images to the shards that own them: one
        plain record on the home WAL, or — when other shards own images —
        a prepare per participant then the decision on the coordinator,
        all in the current epoch.  Overrides the single-node version
        because routing and the read set are cluster-only work; both
        append and charge through ``_append_records``."""
        runtime = self.runtime
        worker = ctx.worker
        home = runtime.shard_of_worker(worker.worker_id) \
            if worker is not None else 0
        writes_by_shard: Dict[int, list] = {}
        for entry in sorted(ctx.wset.values(), key=lambda e: e.order):
            if entry.installed_vid is None:
                continue
            if runtime.partitioner.is_replicated(entry.table):
                raise ReproError(
                    f"replicated table {entry.table!r} written by "
                    f"{ctx.type_name} — replicated tables are read-only")
            shard = runtime.durability_shard(entry.table, entry.key)
            writes_by_shard.setdefault(shard, []).append(entry)
        if runtime.any_down:
            down = runtime.shard_down
            if down[home] or any(down[s] for s in writes_by_shard):
                raise ReproError(
                    f"commit of {ctx.type_name} txn {ctx.txn_id} targets a "
                    f"down shard — degraded-mode admission/abort should "
                    f"have stopped it before install")
        # the versions this commit read: a shard crash chases these edges
        # so the voided set stays dependency-closed (oracle bookkeeping
        # only — excluded from record byte sizes, and kept only by a run
        # that can crash)
        reads = () if self.durable_view is None else frozenset(
            entry.version_id[0] for entry in ctx.rset.values()
            if entry.version_id is not None
            and entry.version_id[0] != INITIAL_TXN_ID)
        participants = sorted(s for s in writes_by_shard if s != home)
        home_writes = writes_by_shard.get(home, [])
        if not participants:
            self._append_records(ctx, [(home, LogRecord, home_writes, {})],
                                 reads)
            return
        parts = [(shard, PrepareRecord, writes_by_shard[shard],
                  {"coordinator": home}) for shard in participants]
        parts.append((home, DecisionRecord, home_writes,
                      {"participants": participants}))
        self._append_records(ctx, parts, reads)
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
    # hooks the core calls (see DurabilityManager)

    def _epoch_acked(self, records: List[LogRecord], by_shard) -> dict:
        for record in records:
            if record.acks:
                # plain single-shard records and 2PC decision records:
                # exactly one per transaction
                self._acked_txns.add(record.txn_id)
                if isinstance(record, DecisionRecord):
                    self._decision_txns.add(record.txn_id)
        return {"shards": sorted(by_shard)}

    def _before_truncation(self) -> None:
        # a whole-cluster crash supersedes any partial-failure state:
        # every shard restarts together, and truncating to the watermark
        # evaporates the durable-but-unacked prepares blocked in doubt
        self._blocked = []
        for shard, down in enumerate(self.runtime.shard_down):
            if down:
                self.runtime.mark_shard_up(shard)
        self.runtime.network.clear_faults()

    def _replayable(self) -> Tuple[Iterable[LogRecord], dict]:
        resolutions = self.resolve_in_doubt()
        aborted = {txn_id for txn_id, committed in resolutions.items()
                   if not committed}
        # presumed abort: an aborted prepare's images must not surface
        return ([r for r in self.durable_log
                 if not (isinstance(r, PrepareRecord)
                         and r.txn_id in aborted)],
                {"in_doubt": len(resolutions)})

    def _on_recovered(self, new_db: Database, now: float,
                      charged_until: float) -> None:
        # re-shard before the CC re-binds: the executor caches the table
        # dict at recovery exactly like at setup
        self.runtime.shard_tables(new_db)
        # a down shard's workers were already charged recovery up to their
        # rejoin point — refund the span the whole-node charge just
        # covered twice
        accountant = self.scheduler.accountant
        if accountant is not None and charged_until > now:
            for shard, until in enumerate(self._charged_down_until):
                overlap = min(until, charged_until) - now
                if overlap > 0:
                    for worker_id in self._workers_of(shard):
                        accountant.on_wait(worker_id, "recovery", -overlap)
        self._charged_down_until = [0.0] * self.n_shards

    def _workers_of(self, shard: int) -> List[int]:
        return [worker_id for worker_id in range(self.config.n_workers)
                if self.runtime.shard_of_worker(worker_id) == shard]

    # ------------------------------------------------------------------ #
    # in-doubt resolution

    def _resolve(self, record: "PrepareRecord", shard: int,
                 committed: bool) -> bool:
        """Book one in-doubt prepare on ``shard`` as commit or presumed
        abort; an *acked* transaction resolving abort is a violation."""
        self.in_doubt_total += 1
        if committed:
            self.in_doubt_commits += 1
        else:
            self.in_doubt_aborts += 1
            if record.txn_id in self._acked_txns:
                self.violations.append(
                    f"2pc: acked txn {record.txn_id} resolved as "
                    f"presumed abort on shard {shard}")
            self.lost_txn_ids.add(record.txn_id)
        return committed

    def resolve_in_doubt(self) -> Dict[int, bool]:
        """Scan the durable shard logs for prepares without a local
        decision marker and resolve each against the coordinator's
        durable log: txn_id -> True (commit) / False (presumed abort).
        Called during recovery; public for the hand-built-log tests."""
        # the message-dedup state restarts from what is provably durable
        self._decided = [{r.txn_id for r in log
                          if isinstance(r, DecisionMarker)}
                         for log in self.shard_logs]
        resolutions: Dict[int, bool] = {}
        for shard, log in enumerate(self.shard_logs):
            decided = self._decided[shard]
            for record in log:
                if not isinstance(record, PrepareRecord) \
                        or record.txn_id in decided:
                    continue  # not a prepare, or locally decided
                # a transaction already lost (voided by a shard crash or
                # presumed-aborted once) can never flip to commit, even
                # if a residue DecisionRecord survives in some log
                resolutions[record.txn_id] = self._resolve(
                    record, shard,
                    record.txn_id in self._decision_txns
                    and record.txn_id not in self.lost_txn_ids)
                if resolutions[record.txn_id]:
                    decided.add(record.txn_id)
        return resolutions

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
            resolutions[record.txn_id] = self._resolve(
                record, participant,
                record.txn_id in decided
                and record.txn_id not in self.lost_txn_ids)
            if resolutions[record.txn_id]:
                self._decided[participant].add(record.txn_id)
            else:
                self._void_txns.add(record.txn_id)
        self._blocked = still_blocked
        return resolutions

    # ------------------------------------------------------------------ #
    # partial failure: one shard crashes, the rest keep running

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
        self._require_recovery_state("shard_crash")
        scheduler = self.scheduler
        runtime = self.runtime
        now = scheduler.now
        self.shard_crash_count += 1
        shard_persistent = self._shard_persistent[shard]
        # -- truncate the shard to its own persistent epoch: the step a
        #    whole-node crash applies to every shard ---------------------- #
        lost_records = self._truncate_shard(shard)
        # -- void what it lost, and every staged reader of it -------------- #
        lost = void_closure(lost_txns(lost_records), self._staged_records(),
                            self._void_txns)

        def survivors(records: List[LogRecord]) -> List[LogRecord]:
            lost_records.extend(r for r in records if r.txn_id in lost)
            return [r for r in records if r.txn_id not in lost]

        # -- drop lost transactions from live shards' non-durable state ---- #
        # (records already durable on a live shard stay in its log as
        # residue; voiding keeps them from ever acking or applying)
        for s in range(self.n_shards):
            self._shard_buffers[s] = survivors(self._shard_buffers[s])
            inflight = self._shard_inflight[s]
            for epoch in sorted(inflight):
                inflight[epoch] = survivors(inflight[epoch])
        self._void_txns.update(lost)
        self.lost_txn_ids.update(lost)
        self.lost_unflushed_total += len(lost_records)
        # -- oracle: no acked transaction may be lost ---------------------- #
        # (provable: acked => epoch <= watermark <= the shard's own
        # persistent epoch, and only epochs beyond it were truncated)
        violations = [f"shard crash lost acked txn {txn_id}"
                      for txn_id in sorted(lost & self._acked_txns)]
        # -- scrub checkpoints that captured voided installs --------------- #
        if lost_records:
            cut = min(r.seqno for r in lost_records)
            self.checkpoints = [c for c in self.checkpoints
                                if c.last_seqno < cut]
        # -- durable prepares left in doubt by the coordinator's death ----- #
        awaiting_lost = [(s, r) for epoch in sorted(self._awaiting)
                         for s, records in sorted(self._awaiting[epoch].items())
                         for r in records if r.txn_id in lost]
        blocked = [(s, r) for s, r in awaiting_lost
                   if isinstance(r, PrepareRecord) and r.coordinator == shard]
        self._blocked.extend(blocked)
        self.blocked_in_doubt_total += len(blocked)
        # -- kill the shard's pinned workers ------------------------------- #
        worker_ids = self._workers_of(shard)
        lost_inflight = scheduler.crash_workers(
            [scheduler._workers[worker_id] for worker_id in worker_ids],
            outcome="shard_crash")
        self.lost_inflight_total += lost_inflight
        for worker_id in worker_ids:
            self._pending_cost.pop(worker_id, None)
        if scheduler.faults is not None:
            scheduler.faults.on_shard_crash(worker_ids)
        # -- roll the voided installs back out of the live database -------- #
        rolled_back = self._rollback_voided(
            lost, lost_records + [r for _, r in awaiting_lost])
        doomed_survivors = self._doom_poisoned_survivors(shard, lost)
        runtime.mark_shard_down(shard)
        # -- downtime accounting ------------------------------------------- #
        checkpoint = self._usable_checkpoint()
        replayed = sum(1 for r in self.shard_logs[shard]
                       if r.seqno > checkpoint.last_seqno)
        replayed += sum(len(by_shard.get(shard, ()))
                        for by_shard in self._awaiting.values())
        recovery_ticks = (self.dc.recovery_base
                          + self.dc.replay_per_record * replayed)
        self.recovery_ticks_total += recovery_ticks
        restart = now + recovery_ticks + downtime
        charged_until = min(restart, self.config.duration)
        self.shard_downtime_total += max(0.0, charged_until - now)
        self._charged_down_until[shard] = charged_until
        if scheduler.accountant is not None and charged_until > now:
            for worker_id in worker_ids:
                scheduler.accountant.on_wait(worker_id, "recovery",
                                             charged_until - now)
        timeline = scheduler.timeline
        if timeline is not None and charged_until > now:
            timeline.on_recovery(now, charged_until, len(worker_ids))
            timeline.on_shard_down(now, charged_until, shard)
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                now, EventKind.SHARD_CRASH, -1,
                attrs={"shard": shard, "crash": self.shard_crash_count,
                       "shard_persistent": shard_persistent,
                       "lost_inflight": lost_inflight,
                       "lost_unflushed": len(lost_records),
                       "voided": len(lost),
                       "blocked_in_doubt": len(blocked),
                       "rolled_back": rolled_back}))
            scheduler.trace.emit(TraceEvent(
                now, EventKind.RECOVERY, -1,
                attrs={"shard": shard,
                       "checkpoint_seqno": checkpoint.last_seqno,
                       "replayed": replayed,
                       "recovery_ticks": recovery_ticks,
                       "restart": restart}))
        # -- schedule the rejoin ------------------------------------------- #
        shard_generation = self._shard_generation[shard]
        restart_salt = SHARD_RESTART_RNG_SALT + self.shard_crash_count
        scheduler.schedule_callback(
            restart, lambda: self._rejoin_shard(
                shard, restart, restart_salt, shard_generation))
        self.violations.extend(
            f"shard_crash(#{self.shard_crash_count} shard {shard} @ {now}): "
            f"{v}" for v in violations)
        scheduler.wake_parked()
        report = ShardCrashReport(
            now, shard, restart, shard_persistent, lost_inflight,
            len(lost_records), len(lost), len(blocked), rolled_back,
            doomed_survivors, recovery_ticks, violations)
        self.shard_crashes.append(report)
        return report

    def _doom_poisoned_survivors(self, shard: int, lost: Set[int]) -> int:
        """Interrupt every live transaction on another shard that touched
        the dead ``shard`` or read a version of a ``lost`` transaction.
        ``ctx.doomed`` alone only reaches executors that re-check it; a
        2PL reader of a rolled-back version would never version-validate,
        so poisoned transactions are aborted through the fault path."""
        scheduler = self.scheduler
        runtime = self.runtime
        doomed = 0
        for worker in scheduler._workers:
            worker_id = worker.worker_id
            ctx = worker.current_ctx
            if worker.finished or ctx is None or not ctx.is_active() \
                    or runtime.shard_of_worker(worker_id) == shard:
                continue
            if shard not in runtime.touched_shards(worker_id) and not any(
                    entry.version_id is not None
                    and entry.version_id[0] in lost
                    for entry in ctx.rset.values()):
                continue
            ctx.doomed = True
            doomed += 1
            # a sleeping worker aborts at its natural wake-up, so the
            # charged cost span stays consistent with time; a parked one
            # now, as its wait's wake key may never fire again
            scheduler.interrupt(worker, TransactionAborted(
                AbortReason.FAULT, f"shard {shard} crashed",
                site=f"shard{shard}"), outcome="fault")
        return doomed

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
            record = None if table is None else table.get_record(key)
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
                      shard_generation: int) -> None:
        """The crashed shard completed recovery: rejoin it behind the
        live watermark, resolve the prepares its death left blocked, and
        restart its pinned workers."""
        if shard_generation != self._shard_generation[shard]:
            return  # a node crash, or the shard crashing again, came first
        scheduler = self.scheduler
        # rejoin *behind* the watermark: the shard's clock jumps to the
        # currently-open epoch, so its first flush registers for it and
        # the live watermark is unchanged by the rejoin
        self._shard_persistent[shard] = self.current_epoch - 1
        # the message-dedup state restarts from what is provably durable
        self._decided[shard] = {
            r.txn_id for r in chain(
                self.shard_logs[shard],
                *(by_shard.get(shard, ())
                  for by_shard in self._awaiting.values()))
            if isinstance(r, DecisionMarker)}
        resolutions = self.resolve_blocked(shard)
        self.runtime.mark_shard_up(shard)
        new_workers = self._spawn_workers(self._workers_of(shard),
                                          restart_salt)
        scheduler.replace_workers(new_workers, restart)
        scheduler.last_commit_time = max(scheduler.last_commit_time, restart)
        if scheduler.trace.enabled:
            scheduler.trace.emit(TraceEvent(
                restart, EventKind.RECOVERY, -1,
                attrs={"shard": shard, "rejoined": True,
                       "resolved_in_doubt": len(resolutions),
                       "workers": len(new_workers)}))

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
