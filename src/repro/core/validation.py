"""Validation logic (§4.4 and the early-validation action of §4.3).

Final validation is Silo's protocol plus the paper's two additions: unique
version ids across committed *and* uncommitted versions (so dirty reads can
be validated at all), and a commit-phase wait for all dependent
transactions to finish committing (step 1), which the correctness proof
reduces to Silo.

Early validation checks whether any read made so far is already doomed —
its observed version can no longer be the committed version at our commit:

* the writer of a dirty-read version aborted, or overwrote that version
  with a newer one, or committed a different version;
* a clean-read version has been overwritten by a newer commit.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Generator, List, Optional, Tuple, TYPE_CHECKING

from ..errors import AbortReason, TransactionAborted
from ..obs.tracing import EventKind, FinalValidateEvent, TraceEvent
from ..sim.events import Cost, WaitFor, WaitKind
from ..storage.access_list import EMPTY_ACCESS_LIST
from .context import ReadEntry, TxnContext, TxnStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import CostModel
    from ..storage.database import Database
    from ..storage.record import Record

_SITE_KEY = attrgetter("table", "key")


def read_entry_doomed(ctx: TxnContext, entry: ReadEntry) -> Optional[str]:
    """Return a failure description if ``entry`` can no longer validate,
    else ``None``.  Used by early validation (cheap, lock-free checks)."""
    writer = entry.from_ctx
    record = entry.record
    if writer is None:
        # clean read: doomed once a newer version commits
        if record.version_id != entry.version_id:
            return "clean read overwritten by a newer commit"
        if entry.intended_dirty:
            # a DIRTY_READ that fell back to the committed version claims
            # to be ordered after every exposed write; if someone exposed
            # since, the read missed it and must be retried
            latest = record.access_list.latest_visible_write()
            if latest is not None and latest.ctx is not ctx:
                return "dirty-read intent missed a newer exposed version"
        return None
    if writer.status == TxnStatus.ABORTED:
        return "dirty read from an aborted transaction"
    if writer.status == TxnStatus.COMMITTED:
        if record.version_id != entry.version_id:
            return "dirty-read version was not the one committed"
        return None
    # writer still active: doomed if it has exposed a newer version since
    latest_of_writer = record.access_list.latest_write_of(writer)
    if latest_of_writer is None or \
            latest_of_writer.version_id != entry.version_id:
        return "dirty-read version superseded by the writer"
    if (entry.table, entry.key) in ctx.wset:
        # read-modify-write: writing over anything but the record's latest
        # visible version is a guaranteed lost update — one of the two
        # writers would fail validation, so retry the piece now (this is
        # IC3's piece validation rule)
        latest = record.access_list.latest_visible_write()
        if latest is not None and latest.ctx is not ctx and \
                latest.version_id != entry.version_id:
            return "read-modify-write lost the latest exposed version"
    return None


def read_entry_final_ok(ctx: TxnContext, entry: ReadEntry) -> bool:
    """Silo read validation: current committed version matches what we read
    and no other transaction holds the record's commit lock (§4.4 step 3)."""
    record = entry.record
    if record.is_locked_by_other(ctx):
        return False
    return record.version_id == entry.version_id


def lock_and_validate(ctx: TxnContext, cost: "CostModel") -> Generator:
    """Silo's commit steps 2-3, shared by Silo and Polyjuice: lock the
    write set in a global order (no deadlocks among committers), charge
    the lock / validate / install cost, then validate the read set —
    raising :class:`TransactionAborted` on the first stale read.

    The cost accumulates and is flushed only when a lock must be waited
    for, which keeps the event count low.  A lock wait's wait-for edge is
    the record's live lock owner."""
    pending = cost.commit_base
    for wentry in sorted(ctx.wset.values(), key=_SITE_KEY):
        record = wentry.record
        while not record.try_lock(ctx):
            if pending:
                yield Cost(pending)
                pending = 0.0
            yield WaitFor(
                lambda record=record: not record.is_locked_by_other(ctx),
                WaitKind.LOCK, (record.lock_owner,), wake_keys=(record,),
                holders=lambda record=record: _live_owner(record))
        pending += cost.lock_acquire
    pending += cost.validate_read * len(ctx.rset)
    pending += cost.install_write * len(ctx.wset)
    yield Cost(pending)
    worker = ctx.worker
    if worker is not None and worker.trace.enabled:
        worker.trace.emit(FinalValidateEvent(
            worker.scheduler.now, worker.worker_id, ctx.txn_id,
            ctx.type_name, len(ctx.rset), len(ctx.wset)))
    for rentry in ctx.rset.values():
        if rentry.record is None:
            continue
        if not read_entry_final_ok(ctx, rentry):
            raise TransactionAborted(
                AbortReason.VALIDATION,
                f"read of {rentry.table}{rentry.key} invalidated",
                site=(rentry.table, rentry.key))


def _live_owner(record: "Record") -> Tuple[TxnContext, ...]:
    owner = record.lock_owner
    return () if owner is None else (owner,)


def scrub(ctx: TxnContext) -> None:
    """Remove every trace of ``ctx`` from shared storage state: access-list
    entries (a list left empty is given back for the shared
    ``EMPTY_ACCESS_LIST``) and commit locks.  Safe to call multiple times;
    called on both commit and abort."""
    worker = ctx.worker
    scheduler = worker.scheduler if worker is not None else None
    for record in ctx.touched_records:
        access_list = record.access_list
        if access_list is not EMPTY_ACCESS_LIST and \
                not access_list.remove_txn(ctx):
            # the last entry left: the record shares the empty list again,
            # so a run keeps lists only for records with in-flight entries
            record.access_list = EMPTY_ACCESS_LIST
        if record.writer_ctx is ctx:
            # drop the install-provenance pointer: storage names live
            # transactions only (storage_residue checks it), so a terminal
            # context is freed as soon as its last reader or waiter is
            record.writer_ctx = None
        if record.lock_owner is ctx:
            record.unlock(ctx)
            if scheduler is not None:
                # lock-wait conditions read is_locked_by_other(record)
                scheduler.notify(record)
    ctx.touched_records.clear()


def finish(ctx: TxnContext, status: str, reason: Optional[str] = None,
           recorder=None) -> None:
    """Transition ``ctx`` to a terminal status, scrub shared state and
    release the context — the one termination point of every protocol.

    If a history ``recorder`` is supplied (see
    :mod:`repro.analysis.serializability`) every commit is reported to it,
    which lets tests machine-check serializability of whole runs.

    Release is the last step: ``durability.log_commit`` and
    ``recorder.on_commit`` read the full read/write sets, and nothing may
    read them afterwards (see :meth:`TxnContext.release`).
    """
    ctx.status = status
    ctx.abort_reason = reason
    scrub(ctx)
    worker = ctx.worker
    scheduler = worker.scheduler if worker is not None else None
    if scheduler is not None:
        # progress/commit-dep wait conditions read is_active()/status
        scheduler.notify(ctx)
    if status == TxnStatus.ABORTED:
        # eager cascade (§4.3): transactions that dirty-read our discarded
        # writes can never validate — doom them now so they stop wasting
        # work and stop spreading the poisoned versions further
        trace = worker.trace if worker is not None else None
        timeline = scheduler.timeline if scheduler is not None else None
        for reader in ctx.readers:
            if reader.is_active():
                reader.doomed = True
                if scheduler is not None:
                    # a doomed waiter's conditions short-circuit true
                    scheduler.notify(reader)
                if timeline is not None:
                    timeline.on_doom(scheduler.now)
                if trace is not None and trace.enabled:
                    trace.emit(TraceEvent(
                        worker.scheduler.now, EventKind.DOOM,
                        worker.worker_id, ctx.txn_id, ctx.type_name,
                        {"doomed_txn": reader.txn_id,
                         "doomed_type": reader.type_name,
                         "reason": reason}))
    if status == TxnStatus.COMMITTED:
        if scheduler is not None and scheduler.durability is not None:
            # epoch group commit: append the installed write images to the
            # worker's log buffer at the install point, so log order ==
            # commit order
            scheduler.durability.log_commit(ctx)
        if recorder is not None:
            recorder.on_commit(ctx)
    ctx.release()


def storage_residue(db: "Database") -> List[str]:
    """Scan every record for shared state left behind by *terminated*
    transactions: a commit lock still held, or an access-list entry still
    published, by a context that already committed or aborted.  Only
    materialised records are scanned (:meth:`Table.records`): a row no
    transaction reached is still raw and can hold none of that state, so
    the scan neither visits nor builds anything for it.

    Any finding is a scrub bug — the abort path (including every injected
    fault) must leave storage as if the dead attempt never ran.  Contexts
    still in flight when the run horizon was reached legitimately own locks
    and entries, so they are not residue.  Returns human-readable problem
    descriptions (empty list = clean)."""
    problems: List[str] = []
    for table_name in db.table_names():
        for record in db.table(table_name).records():
            owner = record.lock_owner
            if owner is not None and not owner.is_active():
                problems.append(
                    f"{table_name}{record.key}: lock held by terminated "
                    f"txn {owner.txn_id} ({owner.status})")
            writer = record.writer_ctx
            if writer is not None and not writer.is_active():
                problems.append(
                    f"{table_name}{record.key}: writer_ctx still references "
                    f"terminated txn {writer.txn_id} ({writer.status}) — "
                    f"terminal contexts must not stay reachable from storage")
            for entry in record.access_list:
                if not entry.ctx.is_active():
                    problems.append(
                        f"{table_name}{record.key}: access-list entry "
                        f"({entry.kind}) from terminated txn "
                        f"{entry.ctx.txn_id} ({entry.ctx.status})")
    return problems
