"""Raw Silo / OCC fast path (§7.1 baseline "Silo", Tu et al. SOSP'13).

This executor performs no access-list bookkeeping and no policy lookups —
it is the lean code path Polyjuice is ~8% slower than when it has learned
the OCC policy (§7.2, 48 warehouses).  Reads observe committed versions
only, writes stay private until commit, and commit runs Silo's protocol:
lock the write set in a global order, validate the read set against version
ids and foreign locks, then install.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from ..errors import AbortReason, TransactionAborted, WorkloadError
from ..sim.events import Cost
from ..core import validation
from ..core.context import ReadEntry, TxnContext, TxnStatus, WriteEntry
from ..core.backoff import ExponentialBackoffManager
from ..core.ops import InsertOp, ReadOp, ScanOp, UpdateOp, WriteOp
from ..core.protocol import ConcurrencyControl, TxnInvocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.worker import Worker


class SiloOCC(ConcurrencyControl):
    """Optimistic concurrency control exactly as in Silo."""

    name = "silo"

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
            validation.finish(ctx, TxnStatus.ABORTED, exc.reason)
            yield Cost(self.config.cost.abort_base)
            raise
        except BaseException:
            validation.finish(ctx, TxnStatus.ABORTED, AbortReason.USER)
            raise

    def make_backoff(self, worker: "Worker"):
        return ExponentialBackoffManager(self.config.cost)

    # ------------------------------------------------------------------ #

    def _execute_op(self, ctx: TxnContext, op) -> Generator:
        cost = self.config.cost
        if isinstance(op, ReadOp):
            yield Cost(cost.access)
            return self._read(ctx, op.table, op.key)
        if isinstance(op, UpdateOp):
            yield Cost(cost.access)
            old = self._read(ctx, op.table, op.key)
            new_value = op.update_fn(old)
            self._write(ctx, op.table, op.key, new_value, is_insert=False)
            return dict(new_value) if new_value is not None else None
        if isinstance(op, (WriteOp, InsertOp)):
            yield Cost(cost.access)
            self._write(ctx, op.table, op.key, op.value,
                        is_insert=isinstance(op, InsertOp))
            return None
        if isinstance(op, ScanOp):
            table = self.db.table(op.table)
            # snapshot values and version ids before simulated time passes
            rows = [(key, record, record.version_id, dict(record.value))
                    for key, record in table.scan_committed(
                        op.lo, op.hi, limit=op.limit, reverse=op.reverse)]
            yield Cost(cost.access + cost.scan_per_row * len(rows))
            results = []
            for key, record, version_id, value in rows:
                entry_key = (op.table, key)
                if entry_key not in ctx.rset and entry_key not in ctx.wset:
                    ctx.rset[entry_key] = ReadEntry(
                        op.table, key, record, version_id, dict(value), None)
                    ctx.touched_records.add(record)
                results.append((key, value))
            return results
        raise WorkloadError(f"unknown operation: {op!r}")

    def _read(self, ctx: TxnContext, table_name: str, key: tuple) -> Optional[dict]:
        entry_key = (table_name, key)
        wentry = ctx.wset.get(entry_key)
        if wentry is not None:
            return dict(wentry.value) if wentry.value is not None else None
        rentry = ctx.rset.get(entry_key)
        if rentry is not None:
            return dict(rentry.value) if rentry.value is not None else None
        record = self.db.table(table_name).get_record(key)
        if record is None:
            ctx.rset[entry_key] = ReadEntry(table_name, key, None, None, None, None)
            return None
        stored = dict(record.value) if record.value is not None else None
        ctx.rset[entry_key] = ReadEntry(table_name, key, record,
                                        record.version_id, stored, None)
        ctx.touched_records.add(record)
        return dict(stored) if stored is not None else None

    def _write(self, ctx: TxnContext, table_name: str, key: tuple,
               value: Optional[dict], is_insert: bool) -> None:
        table = self.db.table(table_name)
        if is_insert:
            record = table.ensure_record(key, self.db.allocator.next_initial())
            if record.value is not None:
                raise TransactionAborted(AbortReason.VALIDATION,
                                         f"duplicate insert {table_name}{key}",
                                         site=(table_name, key))
            entry_key = (table_name, key)
            if entry_key not in ctx.rset:
                ctx.rset[entry_key] = ReadEntry(table_name, key, record,
                                                record.version_id, None, None)
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
        yield from validation.lock_and_validate(ctx, self.config.cost)
        for wentry in sorted(ctx.wset.values(), key=lambda w: w.order):
            value = dict(wentry.value) if wentry.value is not None else None
            vid = ctx.next_version_id()
            wentry.record.install(value, vid, ctx)
            wentry.installed_vid = vid
        validation.finish(ctx, TxnStatus.COMMITTED, recorder=self.recorder)
