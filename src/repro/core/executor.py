"""The policy-driven transaction executor — the paper's Algorithm 1.

``PolicyExecutor`` executes transaction programs under an arbitrary
:class:`~repro.core.policy.CCPolicy`:

* before every access it consults the policy row for (transaction type,
  access-id) and performs the *wait* action over the conflict set — the
  active transactions present in the target record's access list plus the
  transactions it already depends on;
* reads honour the *read-version* action (committed vs latest visible
  uncommitted version);
* writes honour the *write-visibility* action — a PUBLIC write triggers an
  early validation and then exposes all pending writes cumulatively;
* reads with the *early-validation* bit set validate the buffered accesses
  (after the consolidated wait keyed by the next access-id, §4.3) and only
  then append them to the access lists, as Algorithm 1 prescribes;
* commit runs the Silo-style final validation with the two Polyjuice
  additions (§4.4): wait for all dependencies to finish committing, and
  validate dirty reads through globally-unique version ids.

Early-validation failures trigger *piece-level retry* exactly as §4.3
prescribes: the transaction re-executes from the point of its last
successful validation.  The already-validated prefix stays published in the
access lists (so dependent transactions are unaffected) and is *replayed*
deterministically from a result log — programs are generators and cannot be
rewound, but they are pure functions of their inputs and observed values,
so feeding back the logged results reproduces the prefix without cost.
The unvalidated suffix (tracked in an undo log) is rolled back.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Generator, Iterable, Optional, TYPE_CHECKING

from ..errors import AbortReason, PieceRetry, TransactionAborted, WorkloadError
from ..obs.tracing import (AccessEvent, EarlyValidateEvent, EventKind,
                           TraceEvent)
from ..sim.events import Cost, WaitFor, WaitKind
from ..storage.access_list import AccessEntry, AccessKind
from . import validation
from .actions import NO_WAIT, REQUIRE_COMMIT
from .backoff import (BackoffPolicy, ExponentialBackoffManager,
                      LearnedBackoffManager)
from .context import ReadEntry, TxnContext, TxnStatus, WriteEntry
from .ops import InsertOp, ReadOp, ScanOp, UpdateOp, WriteOp
from .policy import CCPolicy, PolicyRow
from .protocol import ConcurrencyControl, TxnInvocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.worker import Worker
    from ..storage.record import Record


#: safety valve: a transaction whose early validations keep failing falls
#: back to a full abort after this many piece retries
MAX_PIECE_RETRIES = 200

_ACTIVE = TxnStatus.ACTIVE
_ORDER_KEY = attrgetter("order")


class CompiledRow:
    """One policy row pre-resolved for the access hot path.

    The per-access work of ``policy.row()`` — bounds-checked state-index
    arithmetic — and of the wait action — comparing each stored wait value
    against the dependent type's access count — is loop-invariant for a
    fixed policy, so it is hoisted into this table once per policy swap:

    * ``wait_plan[dep_type]`` is ``None`` (NO_WAIT), ``REQUIRE_COMMIT``,
      or the progress target the dependent transaction must reach;
    * ``next_plan`` is the ``wait_plan`` of ``min(access_id + 1, d - 1)``
      — the consolidated wait early validation applies (§4.3).
    """

    __slots__ = ("read_dirty", "write_public", "early_validate", "wait_plan",
                 "next_plan")

    def __init__(self, read_dirty: int, write_public: int,
                 early_validate: int, wait_plan: tuple) -> None:
        self.read_dirty = read_dirty
        self.write_public = write_public
        self.early_validate = early_validate
        self.wait_plan = wait_plan
        self.next_plan: Optional[tuple] = wait_plan


class PolicyExecutor(ConcurrencyControl):
    """Executes transactions according to a learned (or seeded) CC policy."""

    name = "polyjuice"

    def __init__(self, policy: Optional[CCPolicy] = None,
                 backoff_policy: Optional[BackoffPolicy] = None,
                 name: Optional[str] = None,
                 extra_access_cost: Optional[float] = None) -> None:
        super().__init__()
        self.policy = policy
        self.backoff_policy = backoff_policy
        if name is not None:
            self.name = name
        #: per-access metadata overhead; defaults to the cost model's
        #: ``policy_overhead`` (None = use config default)
        self._extra_access_cost = extra_access_cost
        self._overhead = 0.0
        self._progress_tables = []
        #: compiled decision tables, keyed by policy object identity: the
        #: policy the tables were built from, and one list of CompiledRow
        #: per transaction type.  Rebuilt lazily whenever the policy pointer
        #: changes (set_policy or direct assignment); in-flight transactions
        #: hold a reference to the tables they started with, mirroring the
        #: per-transaction policy-pointer snapshot (§6)
        self._compiled_for: Optional[CCPolicy] = None
        self._compiled_rows: list = []
        self._access_cost = Cost(0.0)
        self._ev_costs: list = []
        self._tables: dict = {}
        self._last_access: list = []

    # ------------------------------------------------------------------ #
    # lifecycle

    def setup(self, db, spec, config) -> None:
        super().setup(db, spec, config)
        if self.policy is None:
            self.policy = CCPolicy(spec, name="default-occ")
        elif self.policy.spec.n_states != spec.n_states:
            raise WorkloadError("policy does not match workload state space")
        self._overhead = (config.cost.policy_overhead
                          if self._extra_access_cost is None
                          else self._extra_access_cost)
        self._progress_tables = [t.progress_at_start for t in spec.types]
        # the database's table dict is mutated in place, never reassigned,
        # so it can be cached for the per-access lookup (refreshed when
        # recovery swaps the database, see on_node_recovery)
        self._tables = db._tables
        # the per-access cost is fixed for a run, so one immutable Cost
        # directive is yielded over and over instead of allocating ~one
        # object per access (the scheduler only ever reads ticks/kind)
        self._access_cost = Cost(config.cost.access + self._overhead)
        # same idea for early-validation costs: the ticks depend only on
        # the (small) entry count, so cache one Cost per count
        per_entry = config.cost.early_validate_entry
        self._ev_costs = [Cost(per_entry * max(1, n)) for n in range(33)]
        self._last_access = [t.n_accesses - 1 for t in spec.types]
        self._compile(self.policy)

    def on_node_recovery(self, new_db) -> None:
        super().on_node_recovery(new_db)
        self._tables = new_db._tables

    def _compile_wait_plan(self, wait: list) -> Optional[tuple]:
        """Resolve one row's stored wait values against the spec: ``None``
        for NO_WAIT, ``REQUIRE_COMMIT`` for wait-until-commit, else the
        progress target.  An all-NO_WAIT row compiles to ``None`` so the
        access path can skip the conflict-set scan entirely."""
        plan = []
        any_wait = False
        for dep_type, value in enumerate(wait):
            if value == NO_WAIT:
                plan.append(None)
            elif value >= self.spec.n_accesses(dep_type):
                plan.append(REQUIRE_COMMIT)
                any_wait = True
            else:
                plan.append(value)
                any_wait = True
        return tuple(plan) if any_wait else None

    def _compile(self, policy: CCPolicy) -> None:
        """Build the per-(type, access) decision tables for ``policy``."""
        tables = []
        for type_index, type_spec in enumerate(self.spec.types):
            rows = []
            for access_id in range(type_spec.n_accesses):
                row = policy.row(type_index, access_id)
                rows.append(CompiledRow(
                    row.read_dirty, row.write_public, row.early_validate,
                    self._compile_wait_plan(row.wait)))
            for access_id, crow in enumerate(rows):
                crow.next_plan = \
                    rows[min(access_id + 1, len(rows) - 1)].wait_plan
            tables.append(rows)
        self._compiled_rows = tables
        self._compiled_for = policy

    def set_policy(self, policy: CCPolicy,
                   backoff_policy: Optional[BackoffPolicy] = None) -> None:
        """Swap the policy pointer (Fig 10's live policy switch, §6).

        In-flight transactions keep the policy they started with; new
        attempts pick up the new one.  Correctness never depends on which
        policy executed which transaction (§6).
        """
        policy.validate()
        self.policy = policy
        if backoff_policy is not None:
            self.backoff_policy = backoff_policy

    def make_backoff(self, worker: "Worker"):
        if self.backoff_policy is not None:
            return LearnedBackoffManager(self.backoff_policy, self.config.cost)
        return ExponentialBackoffManager(self.config.cost)

    # ------------------------------------------------------------------ #
    # transaction driver

    def run_transaction(self, worker: "Worker", invocation: TxnInvocation,
                        attempt: int, first_start: float) -> Generator:
        txn_id = self.ids.next()
        ctx = TxnContext(txn_id, invocation.type_index, invocation.type_name,
                         worker, (first_start, txn_id), worker.scheduler.now)
        worker.current_ctx = ctx
        policy = self.policy  # pointer snapshot: policy switches are per-txn
        if policy is not self._compiled_for:
            self._compile(policy)
        # table snapshot: like the policy pointer, the compiled rows this
        # transaction starts with stay with it across policy switches (§6)
        rows = self._compiled_rows[invocation.type_index]
        result_log: list = []   # results of validated-prefix operations
        checkpoint = 0          # ops [0, checkpoint) are validated & replayable
        piece_retries = 0
        try:
            while True:  # one pass per piece retry
                program = invocation.program()
                op_seq = 0
                result = None
                try:
                    while True:
                        try:
                            op = program.send(result)
                        except StopIteration:
                            break
                        if op_seq < checkpoint:
                            # validated prefix: replay the logged result;
                            # no cost, no effects (state is already in place)
                            result = result_log[op_seq]
                        else:
                            result = yield from self._execute_op(ctx, rows, op)
                            if op_seq < len(result_log):
                                result_log[op_seq] = result
                            else:
                                result_log.append(result)
                            if not ctx.undo_log and not ctx.buffer:
                                # everything up to here is validated and
                                # published: advance the retry point
                                checkpoint = op_seq + 1
                        op_seq += 1
                    yield from self._commit(ctx)
                    return
                except PieceRetry as retry:
                    piece_retries += 1
                    worker.stats.record_piece_retry(ctx.type_name,
                                                    worker.scheduler.now)
                    if worker.trace.enabled:
                        attrs = {"retries": piece_retries,
                                 "detail": retry.detail}
                        if retry.site is not None:
                            attrs["table"] = retry.site[0]
                            attrs["key"] = list(retry.site[1])
                        worker.trace.emit(TraceEvent(
                            worker.scheduler.now, EventKind.PIECE_RETRY,
                            worker.worker_id, ctx.txn_id, ctx.type_name,
                            attrs))
                    if piece_retries > MAX_PIECE_RETRIES:
                        raise TransactionAborted(
                            AbortReason.EARLY_VALIDATION,
                            f"piece retry limit: {retry.detail}")
                    self._rollback_to_checkpoint(ctx)
                    del result_log[checkpoint:]
                    yield Cost(self.config.cost.early_validate_entry)
        except TransactionAborted as exc:
            validation.finish(ctx, TxnStatus.ABORTED, exc.reason)
            yield Cost(self.config.cost.abort_base)
            raise
        except BaseException:
            validation.finish(ctx, TxnStatus.ABORTED, AbortReason.USER)
            raise

    @staticmethod
    def _rollback_to_checkpoint(ctx: TxnContext) -> None:
        """Undo every read/write recorded since the last successful
        validation; none of them has been published to access lists."""
        for entry in reversed(ctx.undo_log):
            kind = entry[0]
            if kind == "read":
                ctx.rset.pop(entry[1], None)
            elif kind == "wnew":
                ctx.wset.pop(entry[1], None)
            else:  # "wmod"
                _, key, old_value, old_dirty = entry
                wentry = ctx.wset[key]
                wentry.value = old_value
                wentry.dirty_since_expose = old_dirty
        # piece retries are rare: rebuilding beats undoing list edits
        ctx.dirty_writes = [w for w in ctx.wset.values()
                            if w.dirty_since_expose]
        ctx.undo_log.clear()
        ctx.buffer.clear()

    # ------------------------------------------------------------------ #
    # operations

    def _execute_op(self, ctx: TxnContext, rows: list, op) -> Generator:
        """Dispatch one operation, returning the handler *generator*.

        Deliberately not a generator itself: the caller's ``yield from``
        drives the handler directly, so every Cost/WaitFor resume crosses
        one fewer frame.  The pre-access bookkeeping below runs at call
        time, which is the same instant ``yield from`` would have started
        a wrapping generator."""
        worker = ctx.worker
        if worker is not None and worker.faults is not None:
            worker.faults.on_access(ctx)
        if ctx.doomed:
            raise TransactionAborted(AbortReason.DIRTY_READ_OF_ABORTED,
                                     "dirty-read source aborted")
        # starting this access proves every access whose completion barrier
        # lies before it has finished (loop-aware progress; §4.3's "finish
        # execution up to and including a")
        ctx.note_progress(self._progress_tables[ctx.type_index][op.access_id])
        if worker is not None and worker.trace.enabled:
            worker.trace.emit(AccessEvent(
                worker.scheduler.now, worker.worker_id, ctx.txn_id,
                ctx.type_name, op.access_id, op.table,
                getattr(op, "key", None), type(op).__name__))
        if isinstance(op, UpdateOp):
            return self._do_update(ctx, rows, op)
        if isinstance(op, ReadOp):
            return self._do_read(ctx, rows, op)
        if isinstance(op, WriteOp):
            return self._do_write(ctx, rows, op, is_insert=False)
        if isinstance(op, InsertOp):
            return self._do_write(ctx, rows, op, is_insert=True)
        if isinstance(op, ScanOp):
            return self._do_scan(ctx, op)
        raise WorkloadError(f"unknown operation: {op!r}")

    def _do_read(self, ctx: TxnContext, rows: list, op: ReadOp) -> Generator:
        crow = rows[op.access_id]
        try:
            table = self._tables[op.table]
        except KeyError:
            table = self.db.table(op.table)  # raises UnknownTableError
        record = table.get_record(op.key)
        if ctx.deps and crow.wait_plan is not None:
            wait = self._wait_over(ctx, ctx.deps, crow.wait_plan)
            if wait is not None:
                yield wait
        yield self._access_cost

        key = (op.table, op.key)
        wentry = ctx.wset.get(key)
        if wentry is not None:
            # read-your-writes: no read-set entry needed
            value = dict(wentry.value) if wentry.value is not None else None
        else:
            rentry = ctx.rset.get(key)
            if rentry is None:
                rentry = self._observe(ctx, crow, record, op.table, op.key)
            value = dict(rentry.value) if rentry.value is not None else None

        if crow.early_validate:
            wait, cost, n_entries = \
                self._early_validate_prelude(ctx, crow, False)
            if wait is not None:
                yield wait
            yield cost
            self._early_validate_finish(ctx, n_entries, False)
        return value

    def _observe(self, ctx: TxnContext, row: CompiledRow,
                 record: Optional["Record"], table: str, key: tuple) -> ReadEntry:
        """Perform the version choice of a first read and record it."""
        if record is None:
            # reading a key that has never existed: nothing to validate
            # against (no phantom protection; see DESIGN.md)
            rentry = ReadEntry(table, key, record, None, None, None)
            ctx.rset[(table, key)] = rentry
            return rentry
        from_ctx = None
        observed_value = record.value
        observed_vid = record.version_id
        if row.read_dirty:
            latest = record.access_list.latest_visible_write()
            if latest is not None and latest.ctx is not ctx:
                from_ctx = latest.ctx
                observed_value = latest.value
                observed_vid = latest.version_id
        stored = dict(observed_value) if observed_value is not None else None
        rentry = ReadEntry(table, key, record, observed_vid, stored, from_ctx,
                           intended_dirty=bool(row.read_dirty))
        ctx.rset[(table, key)] = rentry
        ctx.buffer.append(rentry)
        ctx.undo_log.append(("read", (table, key)))
        ctx.touched_records.add(record)
        if from_ctx is not None:
            ctx.deps.add(from_ctx)
            from_ctx.readers[ctx] = None
        return rentry

    def _do_write(self, ctx: TxnContext, rows: list, op,
                  is_insert: bool) -> Generator:
        crow = rows[op.access_id]
        try:
            table = self._tables[op.table]
        except KeyError:
            table = self.db.table(op.table)  # raises UnknownTableError
        if is_insert:
            record = table.ensure_record(op.key, self.db.allocator.next_initial())
            if record.value is not None:
                # the key is already committed: this insert can never win
                raise TransactionAborted(AbortReason.VALIDATION,
                                         f"duplicate insert {op.table}{op.key}",
                                         site=(op.table, op.key))
        else:
            record = table.get_record(op.key)
            if record is None:
                record = table.ensure_record(op.key, self.db.allocator.next_initial())
        if ctx.deps and crow.wait_plan is not None:
            wait = self._wait_over(ctx, ctx.deps, crow.wait_plan)
            if wait is not None:
                yield wait
        yield self._access_cost

        key = (op.table, op.key)
        if is_insert and key not in ctx.rset:
            # record the key's absence; validated at commit so two racing
            # inserters conflict like a write-write pair
            rentry = ReadEntry(op.table, op.key, record, record.version_id,
                               None, None)
            ctx.rset[key] = rentry
            ctx.buffer.append(rentry)
            ctx.undo_log.append(("read", key))

        wentry = ctx.wset.get(key)
        if wentry is None:
            wentry = WriteEntry(op.table, op.key, record, op.value, is_insert,
                                order=len(ctx.wset))
            ctx.wset[key] = wentry
            ctx.undo_log.append(("wnew", key))
            ctx.dirty_writes.append(wentry)
        else:
            ctx.undo_log.append(("wmod", key, wentry.value,
                                 wentry.dirty_since_expose))
            wentry.value = op.value
            if not wentry.dirty_since_expose:
                wentry.dirty_since_expose = True
                ctx.dirty_writes.append(wentry)
        ctx.touched_records.add(record)

        if crow.write_public:
            wait, cost, n_entries = \
                self._early_validate_prelude(ctx, crow, True)
            if wait is not None:
                yield wait
            yield cost
            self._early_validate_finish(ctx, n_entries, True)
        return None

    def _do_update(self, ctx: TxnContext, rows: list,
                   op: UpdateOp) -> Generator:
        """Read-modify-write at one access site: the read honours the
        read-version action, the write honours write-visibility."""
        crow = rows[op.access_id]
        try:
            table = self._tables[op.table]
        except KeyError:
            table = self.db.table(op.table)  # raises UnknownTableError
        record = table.get_record(op.key)
        if record is None:
            record = table.ensure_record(op.key, self.db.allocator.next_initial())
        if ctx.deps and crow.wait_plan is not None:
            wait = self._wait_over(ctx, ctx.deps, crow.wait_plan)
            if wait is not None:
                yield wait
        yield self._access_cost

        key = (op.table, op.key)
        wentry = ctx.wset.get(key)
        if wentry is not None:
            old = dict(wentry.value) if wentry.value is not None else None
        else:
            rentry = ctx.rset.get(key)
            if rentry is None:
                rentry = self._observe(ctx, crow, record, op.table, op.key)
            old = dict(rentry.value) if rentry.value is not None else None
        new_value = op.update_fn(old)
        if wentry is None:
            wentry = WriteEntry(op.table, op.key, record, new_value, False,
                                order=len(ctx.wset))
            ctx.wset[key] = wentry
            ctx.undo_log.append(("wnew", key))
            ctx.dirty_writes.append(wentry)
        else:
            ctx.undo_log.append(("wmod", key, wentry.value,
                                 wentry.dirty_since_expose))
            wentry.value = new_value
            if not wentry.dirty_since_expose:
                wentry.dirty_since_expose = True
                ctx.dirty_writes.append(wentry)
        ctx.touched_records.add(record)

        if crow.write_public or crow.early_validate:
            publish = crow.write_public
            wait, cost, n_entries = \
                self._early_validate_prelude(ctx, crow, publish)
            if wait is not None:
                yield wait
            yield cost
            self._early_validate_finish(ctx, n_entries, publish)
        return dict(new_value) if new_value is not None else None

    def _do_scan(self, ctx: TxnContext, op: ScanOp) -> Generator:
        """Committed-read range scan (§6: Silo's mechanism, no policy
        actions apply)."""
        try:
            table = self._tables[op.table]
        except KeyError:
            table = self.db.table(op.table)  # raises UnknownTableError
        # snapshot values and version ids NOW — simulated time passes at the
        # next yield and rows may be deleted under us meanwhile.  Rows with
        # an exposed (uncommitted) delete are skipped: the deleter has
        # already claimed them, so picking them would be a guaranteed
        # conflict (this mirrors in-flight delete visibility in the index).
        rows = []
        for key, record in table.scan_committed(op.lo, op.hi, limit=None,
                                                reverse=op.reverse):
            latest = record.access_list.latest_visible_write()
            if latest is not None and latest.value is None \
                    and latest.ctx is not ctx:
                continue
            rows.append((key, record, record.version_id, dict(record.value)))
            if op.limit is not None and len(rows) >= op.limit:
                break
        yield Cost(self._access_cost.ticks
                   + self.config.cost.scan_per_row * len(rows))
        results = []
        for key, record, version_id, value in rows:
            entry_key = (op.table, key)
            if entry_key not in ctx.rset and entry_key not in ctx.wset:
                rentry = ReadEntry(op.table, key, record, version_id,
                                   dict(value), None)
                ctx.rset[entry_key] = rentry
                ctx.buffer.append(rentry)
                ctx.undo_log.append(("read", entry_key))
                ctx.touched_records.add(record)
            results.append((key, value))
        return results

    # ------------------------------------------------------------------ #
    # waits

    def _wait_over(self, ctx: TxnContext, targets: Iterable[TxnContext],
                   plan: tuple) -> Optional[WaitFor]:
        """The wait action before a data access (§4.3): wait for the
        transactions T already depends on (T_dep) to reach the compiled
        per-type progress targets — Algorithm 1's ``WaitUntil(action.waits)``.

        Dependency *order* with not-yet-dependent transactions is
        established by the access itself (reading an exposed version /
        publishing after predecessors); the wait maintains the established
        order at every later conflicting access, exactly as IC3-style
        pipelining prescribes.
        """
        reqs = []
        dead = None
        exempt = ctx.wait_exempt
        for dep in targets:
            if dep is ctx:
                continue
            if dep.status != _ACTIVE:
                # a terminal dependency can never become active again, so
                # drop it from the dependency set: contended runs would
                # otherwise re-scan a growing tail of dead contexts at
                # every later wait (memory is not the reason: a terminal
                # context is a released shell, see TxnContext.release)
                if dead is None:
                    dead = [dep]
                else:
                    dead.append(dep)
                continue
            if dep in exempt:
                continue  # a broken wait cycle involved this dependency
            required = plan[dep.type_index]
            if required is None:  # NO_WAIT
                continue
            if required == REQUIRE_COMMIT or dep.progress < required:
                reqs.append((dep, required))
        if dead is not None and targets is ctx.deps:
            targets.difference_update(dead)
        if not reqs:
            return None

        def satisfied() -> bool:
            if ctx.doomed:
                return True  # wake up to die
            for dep, required in reqs:
                if dep.status == _ACTIVE and (required == REQUIRE_COMMIT
                                              or dep.progress < required):
                    return False
            return True

        return WaitFor(satisfied, WaitKind.PROGRESS,
                       [dep for dep, _ in reqs])

    def _build_wait(self, ctx: TxnContext, targets: Iterable[TxnContext],
                    row: PolicyRow) -> Optional[WaitFor]:
        """Wait action over a raw (uncompiled) :class:`PolicyRow`; the hot
        path goes through :meth:`_wait_over` with a precompiled plan."""
        plan = self._compile_wait_plan(row.wait)
        if plan is None:
            return None
        return self._wait_over(ctx, targets, plan)

    # ------------------------------------------------------------------ #
    # early validation and publication (Algorithm 1 lines 8-16 / 28-36)

    def _early_validate_prelude(self, ctx: TxnContext, crow: CompiledRow,
                                publish_writes: bool):
        """First half of early validation, up to (not including) its
        directives: returns ``(wait_or_None, cost_directive, n_entries)``.

        Split from :meth:`_early_validate_finish` so the *handler*
        generator yields the directives itself — early validation runs
        ~once per access on IC3-style policies, and a nested generator
        here would add a frame to every scheduler resume of the chain."""
        # consolidated wait: use the wait action of the *next* access-id
        plan = crow.next_plan
        wait = None
        if ctx.deps and plan is not None:
            wait = self._wait_over(ctx, ctx.deps, plan)
        n_entries = len(ctx.buffer)
        if publish_writes:
            n_entries += len(ctx.dirty_writes)
        costs = self._ev_costs
        cost = costs[n_entries] if n_entries < len(costs) else \
            Cost(self.config.cost.early_validate_entry * n_entries)
        return wait, cost, n_entries

    def _early_validate_finish(self, ctx: TxnContext, n_entries: int,
                               publish_writes: bool) -> None:
        """Second half of early validation, after the cost directive has
        elapsed: doom checks over the buffered reads, then publication."""
        worker = ctx.worker
        if worker is not None and worker.trace.enabled:
            worker.trace.emit(EarlyValidateEvent(
                worker.scheduler.now, worker.worker_id, ctx.txn_id,
                ctx.type_name, n_entries, bool(publish_writes)))
        for entry in ctx.buffer:
            doom = validation.read_entry_doomed(ctx, entry)
            if doom is not None:
                raise PieceRetry(doom, site=(entry.table, entry.key))
        self._publish(ctx, publish_writes)
        ctx.undo_log.clear()  # the window is validated: new retry point

    def _publish(self, ctx: TxnContext, publish_writes: bool) -> None:
        """Append buffered reads (and, on a PUBLIC write, all pending
        writes) to access lists, accumulating the induced dependencies."""
        for rentry in ctx.buffer:
            if rentry.record is None:
                continue
            access_list = rentry.record.publish_list()
            entry = AccessEntry(ctx, AccessKind.READ, rentry.version_id)
            if rentry.from_ctx is None:
                # committed-version read: ordered before every exposed write
                access_list.insert_read_before_writes(entry)
            else:
                # dirty read: ordered right after the version it observed,
                # taking wr-dependencies on that writer and its predecessors
                deps = access_list.insert_read_after_version(
                    entry, rentry.version_id)
                for dep in deps:
                    if dep is not ctx:
                        ctx.deps.add(dep)
            ctx.touched_records.add(rentry.record)
        ctx.buffer.clear()
        if not publish_writes:
            return
        dirty = ctx.dirty_writes
        if len(dirty) > 1:
            # flip order -> program order of first write (install order)
            dirty.sort(key=_ORDER_KEY)
        for wentry in dirty:
            access_list = wentry.record.publish_list()
            for dep in access_list.predecessors_of_tail(ctx, writes_only=False):
                ctx.deps.add(dep)
            vid = ctx.next_version_id()
            value = dict(wentry.value) if wentry.value is not None else None
            access_list.append(AccessEntry(ctx, AccessKind.WRITE, vid, value))
            wentry.exposed_vid = vid
            wentry.dirty_since_expose = False
            ctx.touched_records.add(wentry.record)
        dirty.clear()

    # ------------------------------------------------------------------ #
    # final commit (§4.4)

    def _commit(self, ctx: TxnContext) -> Generator:
        # reaching the commit phase completes every access site
        ctx.note_progress(self._last_access[ctx.type_index])
        # step 1: wait for every dependency to finish committing/aborting
        deps = tuple(dep for dep in ctx.deps if dep.status == _ACTIVE)
        if deps:
            def deps_done() -> bool:
                if ctx.doomed:
                    return True
                for d in deps:
                    if d.status == _ACTIVE:
                        return False
                return True
            yield WaitFor(deps_done, WaitKind.COMMIT_DEPS, deps)
        if ctx.doomed:
            raise TransactionAborted(AbortReason.DIRTY_READ_OF_ABORTED,
                                     "dirty-read source aborted")
        # steps 2-3: lock the write set, validate the read set (Silo's)
        yield from validation.lock_and_validate(ctx, self.config.cost)
        # step 4: install writes, then release locks / scrub access lists
        for wentry in sorted(ctx.wset.values(), key=_ORDER_KEY):
            if wentry.dirty_since_expose or wentry.exposed_vid is None:
                vid = ctx.next_version_id()
            else:
                vid = wentry.exposed_vid
            value = dict(wentry.value) if wentry.value is not None else None
            wentry.record.install(value, vid, ctx)
            wentry.installed_vid = vid
        validation.finish(ctx, TxnStatus.COMMITTED, recorder=self.recorder)
