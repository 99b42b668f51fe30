"""Per-attempt transaction context: read/write sets, buffer, dependencies.

One ``TxnContext`` exists per *attempt* — a retry gets a fresh context (and
a fresh txn id, keeping version ids unique, paper Lemma 2) but keeps the
transaction's first-start time as its WAIT-DIE priority.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.record import Record
    from ..sim.worker import Worker


class TxnStatus:
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class ReadEntry:
    """One read-set entry (validated at commit per §4.4 step 3)."""

    __slots__ = ("table", "key", "record", "version_id", "value", "from_ctx",
                 "intended_dirty")

    def __init__(self, table: str, key: tuple, record: "Record",
                 version_id: tuple, value: Optional[dict],
                 from_ctx: Optional["TxnContext"],
                 intended_dirty: bool = False) -> None:
        self.table = table
        self.key = key
        self.record = record
        #: version id observed (committed or exposed-uncommitted)
        self.version_id = version_id
        #: value observed (for repeatable re-reads within the txn)
        self.value = value
        #: writer context if this was a dirty read, else None
        self.from_ctx = from_ctx
        #: True if the policy asked for DIRTY_READ (even when the read fell
        #: back to the committed version because nothing was exposed) —
        #: such a read is doomed if it *missed* a later exposure (§4.3)
        self.intended_dirty = intended_dirty


class WriteEntry:
    """One write-set entry (installed at commit per §4.4 step 4)."""

    __slots__ = ("table", "key", "record", "value", "exposed_vid",
                 "dirty_since_expose", "is_insert", "order", "installed_vid")

    def __init__(self, table: str, key: tuple, record: "Record",
                 value: Optional[dict], is_insert: bool, order: int) -> None:
        self.table = table
        self.key = key
        self.record = record
        #: pending value (None = delete/tombstone)
        self.value = value
        #: version id of the last exposed (visible) version, if any
        self.exposed_vid: Optional[tuple] = None
        #: True if ``value`` changed after the last exposure
        self.dirty_since_expose = True
        self.is_insert = is_insert
        #: program order of first write to this key (install order)
        self.order = order
        #: version id actually committed (set at install time)
        self.installed_vid: Optional[tuple] = None


class TxnContext:
    """Mutable state of one transaction attempt."""

    __slots__ = ("txn_id", "type_index", "type_name", "worker", "priority",
                 "status", "progress", "deps", "rset", "wset", "buffer",
                 "undo_log", "wait_exempt", "readers", "doomed",
                 "touched_records", "start_time", "_next_seq", "abort_reason",
                 "dirty_writes")

    def __init__(self, txn_id: int, type_index: int, type_name: str,
                 worker: Optional["Worker"], priority: Tuple[float, int],
                 start_time: float) -> None:
        self.txn_id = txn_id
        self.type_index = type_index
        self.type_name = type_name
        self.worker = worker
        #: WAIT-DIE priority: (first start time, txn id) — smaller is older
        self.priority = priority
        self.status = TxnStatus.ACTIVE
        #: highest access-id whose execution has completed (-1 initially)
        self.progress = -1
        #: transactions this one depends on (dirty reads + access-list order)
        self.deps: Set["TxnContext"] = set()
        #: read set keyed by (table, key)
        self.rset: Dict[Tuple[str, tuple], ReadEntry] = {}
        #: write set keyed by (table, key)
        self.wset: Dict[Tuple[str, tuple], WriteEntry] = {}
        #: the write entries whose ``dirty_since_expose`` is set — what the
        #: next PUBLIC write has to expose — so early validation counts and
        #: publishes what changed instead of rescanning ``wset`` per access.
        #: Kept by the policy executor wherever the flag flips (silo / 2pl
        #: never expose and leave it empty); flip order, no duplicates
        self.dirty_writes: List[WriteEntry] = []
        #: accesses made since the last successful early validation; these
        #: have not yet been appended to access lists (Algorithm 1 defers
        #: appends until a validation succeeds)
        self.buffer: List["ReadEntry"] = []  # unpublished reads of the window
        #: undo records for the same window, so a failed early validation
        #: can roll the read/write sets back to the last validation point
        #: (piece-level retry, §4.3)
        self.undo_log: List[tuple] = []
        #: dependencies this attempt stopped waiting on after a broken
        #: progress-wait cycle — re-waiting would just re-create the cycle
        self.wait_exempt: Set["TxnContext"] = set()
        #: active transactions that dirty-read one of our exposed versions;
        #: they are doomed the moment we abort (§4.3: aborting discards our
        #: writes "and aborts transactions that have read those writes").
        #: A dict used as an insertion-ordered set: the doom cascade iterates
        #: it, and set-of-objects order would vary run to run with id() hashes
        self.readers: Dict["TxnContext", None] = {}
        #: set when a transaction we dirty-read from aborted — we must
        #: abort at the next opportunity instead of wasting more work
        self.doomed = False
        #: every record whose access list / lock may hold our entries
        self.touched_records: Set["Record"] = set()
        self.start_time = start_time
        self._next_seq = 0
        self.abort_reason: Optional[str] = None

    # ------------------------------------------------------------------ #

    def is_active(self) -> bool:
        return self.status == TxnStatus.ACTIVE

    def is_terminal(self) -> bool:
        return self.status != TxnStatus.ACTIVE

    def next_version_id(self) -> tuple:
        """A fresh globally-unique version id (txn id, sequence number)."""
        vid = (self.txn_id, self._next_seq)
        self._next_seq += 1
        return vid

    def release(self) -> None:
        """Drop everything only a live attempt needs; the last step of
        :func:`repro.core.validation.finish`.  Read/write sets (with their
        row copies) and the dependency edges go, so a terminated context
        pins no other context and reference counting frees dead attempts
        without the cyclic collector.  Identity and outcome stay: waiters'
        conditions, ``read_entry_doomed``, the wait-graph walk and trace
        attributes still read ``status`` / ``progress`` / ``doomed`` /
        ``txn_id`` / ``type_name`` / ``worker`` / ``priority`` of a
        terminal context.  (``touched_records`` is emptied by ``scrub``.)"""
        self.deps.clear()
        self.wait_exempt.clear()
        self.rset.clear()
        self.wset.clear()
        self.dirty_writes.clear()
        self.buffer.clear()
        self.undo_log.clear()
        self.readers.clear()

    def note_progress(self, access_id: int) -> None:
        if access_id > self.progress:
            self.progress = access_id
            worker = self.worker
            if worker is not None:
                # progress-wait conditions read this field
                worker.scheduler.notify(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TxnContext(id={self.txn_id}, type={self.type_name}, "
                f"status={self.status}, progress={self.progress})")
