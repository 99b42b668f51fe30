"""Native two-phase locking with optimised WAIT-DIE (§7.1 baseline "2PL").

Locks are acquired at access time (S for reads, X for writes, with
upgrades) and held until commit/abort (strict 2PL).  Conflicts resolve by
WAIT-DIE: an older transaction waits for a younger holder, a younger one
dies.  The paper's optimisation — "avoids aborts if locks are acquired
following a global order, as is the case with our TPC-C and
microbenchmark" — corresponds to ``assume_ordered=True``: every requester
waits, and the simulator's wait-cycle detector is the safety net if a
workload violates the ordering assumption.

No validation is needed at commit: strict 2PL histories are serializable by
construction, which the repository's serializability oracle confirms.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from ..errors import AbortReason, TransactionAborted, WorkloadError
from ..sim.events import Cost, WaitFor, WaitKind
from ..storage.locks import LockMode, LockRequestOutcome, LockTable
from ..core import validation
from ..core.backoff import ExponentialBackoffManager
from ..core.context import ReadEntry, TxnContext, TxnStatus, WriteEntry
from ..core.ops import InsertOp, ReadOp, ScanOp, UpdateOp, WriteOp
from ..core.protocol import ConcurrencyControl, TxnInvocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.worker import Worker


class TwoPL(ConcurrencyControl):
    """Strict two-phase locking with WAIT-DIE."""

    name = "2pl"

    def __init__(self, assume_ordered: bool = True) -> None:
        super().__init__()
        self.assume_ordered = assume_ordered
        self.locks: Optional[LockTable] = None

    def setup(self, db, spec, config) -> None:
        super().setup(db, spec, config)
        self.locks = LockTable(assume_ordered=self.assume_ordered)

    def on_node_recovery(self, new_db) -> None:
        # the old lock table's queues reference records of the crashed
        # database; recovery starts with no locks held
        super().on_node_recovery(new_db)
        self.locks = LockTable(assume_ordered=self.assume_ordered)

    def make_backoff(self, worker: "Worker"):
        return ExponentialBackoffManager(self.config.cost)

    # ------------------------------------------------------------------ #

    def run_transaction(self, worker: "Worker", invocation: TxnInvocation,
                        attempt: int, first_start: float) -> Generator:
        txn_id = self.ids.next()
        ctx = TxnContext(txn_id, invocation.type_index, invocation.type_name,
                         worker, (first_start, txn_id), worker.scheduler.now)
        worker.current_ctx = ctx
        program = invocation.program()
        try:
            result = None
            while True:
                try:
                    op = program.send(result)
                except StopIteration:
                    break
                result = yield from self._execute_op(ctx, op)
            yield from self._commit(ctx)
        except TransactionAborted as exc:
            self._release(ctx)
            validation.finish(ctx, TxnStatus.ABORTED, exc.reason)
            yield Cost(self.config.cost.abort_base)
            raise
        except BaseException:
            self._release(ctx)
            validation.finish(ctx, TxnStatus.ABORTED, AbortReason.USER)
            raise

    def _release(self, ctx: TxnContext) -> None:
        if self.locks is None:
            return
        worker = ctx.worker
        notify = worker.scheduler.notify if worker is not None else None
        self.locks.release_all(ctx, on_release=notify)

    # ------------------------------------------------------------------ #

    def _acquire(self, ctx: TxnContext, table: str, key: tuple,
                 mode: str) -> Generator:
        """Acquire one lock, yielding waits / dying per WAIT-DIE.  The
        lock-acquire cost is charged by the caller together with the access
        cost to keep the simulator's event count low."""
        while True:
            outcome = self.locks.request(ctx, table, key, mode)
            if outcome == LockRequestOutcome.GRANTED:
                return
            if outcome == LockRequestOutcome.MUST_DIE:
                raise TransactionAborted(AbortReason.LOCK_DIE,
                                         f"wait-die on {table}{key}",
                                         site=(table, key))
            locks = self.locks
            yield WaitFor(
                lambda: locks.is_free_for(ctx, table, key, mode),
                WaitKind.LOCK, locks.holders(table, key),
                wake_keys=(locks.wake_key(table, key),),
                holders=lambda: locks.holders(table, key) - {ctx})

    def _execute_op(self, ctx: TxnContext, op) -> Generator:
        cost = self.config.cost
        if isinstance(op, ReadOp):
            entry_key = (op.table, op.key)
            locked = 0.0
            if entry_key not in ctx.wset and entry_key not in ctx.rset:
                yield from self._acquire(ctx, op.table, op.key, LockMode.SHARED)
                locked = cost.lock_acquire
            yield Cost(cost.access + locked)
            return self._read(ctx, op.table, op.key)
        if isinstance(op, UpdateOp):
            yield from self._acquire(ctx, op.table, op.key, LockMode.EXCLUSIVE)
            yield Cost(cost.access + cost.lock_acquire)
            old = self._read(ctx, op.table, op.key)
            new_value = op.update_fn(old)
            self._write(ctx, op.table, op.key, new_value, is_insert=False)
            return dict(new_value) if new_value is not None else None
        if isinstance(op, (WriteOp, InsertOp)):
            yield from self._acquire(ctx, op.table, op.key, LockMode.EXCLUSIVE)
            yield Cost(cost.access + cost.lock_acquire)
            self._write(ctx, op.table, op.key, op.value,
                        is_insert=isinstance(op, InsertOp))
            return None
        if isinstance(op, ScanOp):
            table = self.db.table(op.table)
            rows = list(table.scan_committed(op.lo, op.hi, limit=op.limit,
                                             reverse=op.reverse))
            yield Cost(cost.access + cost.scan_per_row * len(rows))
            results = []
            for key, record in rows:
                yield from self._acquire(ctx, op.table, key, LockMode.SHARED)
                yield Cost(cost.lock_acquire)
                value = self._read(ctx, op.table, key)
                if value is not None:
                    results.append((key, value))
            return results
        raise WorkloadError(f"unknown operation: {op!r}")

    def _read(self, ctx: TxnContext, table_name: str, key: tuple) -> Optional[dict]:
        entry_key = (table_name, key)
        wentry = ctx.wset.get(entry_key)
        if wentry is not None:
            return dict(wentry.value) if wentry.value is not None else None
        record = self.db.table(table_name).get_record(key)
        value = None
        if record is not None and record.value is not None:
            value = dict(record.value)
        if entry_key not in ctx.rset:
            vid = record.version_id if record is not None else None
            ctx.rset[entry_key] = ReadEntry(table_name, key, record, vid,
                                            value, None)
        return value

    def _write(self, ctx: TxnContext, table_name: str, key: tuple,
               value: Optional[dict], is_insert: bool) -> None:
        table = self.db.table(table_name)
        if is_insert:
            record = table.ensure_record(key, self.db.allocator.next_initial())
            if record.value is not None:
                raise TransactionAborted(AbortReason.VALIDATION,
                                         f"duplicate insert {table_name}{key}",
                                         site=(table_name, key))
        else:
            record = table.get_record(key)
            if record is None:
                record = table.ensure_record(key, self.db.allocator.next_initial())
        entry_key = (table_name, key)
        wentry = ctx.wset.get(entry_key)
        if wentry is None:
            ctx.wset[entry_key] = WriteEntry(table_name, key, record, value,
                                             is_insert, order=len(ctx.wset))
        else:
            wentry.value = value
        ctx.touched_records.add(record)

    # ------------------------------------------------------------------ #

    def _commit(self, ctx: TxnContext) -> Generator:
        cost = self.config.cost
        yield Cost(cost.commit_base + cost.install_write * len(ctx.wset))
        for wentry in sorted(ctx.wset.values(), key=lambda w: w.order):
            value = dict(wentry.value) if wentry.value is not None else None
            vid = ctx.next_version_id()
            wentry.record.install(value, vid, ctx)
            wentry.installed_vid = vid
        self._release(ctx)
        validation.finish(ctx, TxnStatus.COMMITTED, recorder=self.recorder)
