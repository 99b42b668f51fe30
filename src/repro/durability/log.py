"""The simulated write-ahead log: records, write images, size accounting.

One :class:`LogRecord` is appended per committed transaction, in install
order (the commit locks serialise installs, so append order — the global
``seqno`` — *is* the commit order; replaying records in seqno order
reproduces the committed state exactly).  In a run that can crash, each
record carries its own copy of the installed write images so later
installs cannot mutate what the log saw;
:func:`~repro.storage.database.detach_row` also detaches nested mutable
field values, so even a row holding a list/dict cannot be rewritten
inside the log by a later in-place mutation.  Only recovery and the
recovery oracle ever read the images, so a run whose fault plan scripts
no crash logs each record's identity and size alone.

The byte sizes are deterministic estimates (field names + fixed-width
scalars), good enough for the ``durability_log_bytes_total`` metric and
for reasoning about flush volume; nothing is actually serialised.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

from ..storage.database import detach_row

#: fixed per-record header estimate: seqno + epoch + txn id (8 bytes each)
RECORD_HEADER_BYTES = 24
#: fixed per-image overhead: version id + key-length/field-count framing
IMAGE_HEADER_BYTES = 16


def image_nbytes(table: str, key: tuple, value: Optional[dict]) -> int:
    """Estimated log bytes of one write image: the image header, the
    table name, 8 bytes per key part and, unless it is a delete, each
    field's name plus 8 bytes."""
    size = IMAGE_HEADER_BYTES + len(table) + 8 * len(key)
    if value is not None:
        size += sum(len(name) + 8 for name in value)
    return size


class WriteImage:
    """One installed write as the log sees it (``value is None`` = delete):
    a detached copy, built only by a run that keeps recovery state (the
    only reader is replay and the durability oracle)."""

    __slots__ = ("table", "key", "value", "vid")

    def __init__(self, table: str, key: tuple, value: Optional[dict],
                 vid: tuple) -> None:
        self.table = table
        self.key = key
        self.value = None if value is None else detach_row(value)
        self.vid = vid

    def nbytes(self) -> int:
        return image_nbytes(self.table, self.key, self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WriteImage({self.table}{self.key}, vid={self.vid})"


class LogRecord:
    """One committed transaction's log entry.

    Its identity fields and ``nbytes`` are what the epoch machinery and
    every metric read.  ``writes`` (the images) and ``reads`` (the read
    set) are recovery state: a run that keeps none logs ``()`` for both
    and passes the ``nbytes`` its images would have had."""

    __slots__ = ("seqno", "epoch", "txn_id", "worker_id", "type_name",
                 "first_start", "commit_time", "writes", "nbytes",
                 "deadline", "reads")

    #: this record's durability is what acks its transaction to the client
    #: (exactly one record per transaction; 2PC prepares and markers not)
    acks = True
    #: losing this record loses its transaction (False only for records
    #: that merely point at an older, already durable one: 2PC markers)
    carries_txn = True

    def __init__(self, seqno: int, epoch: int, txn_id: int, worker_id: int,
                 type_name: str, first_start: float, commit_time: float,
                 writes: Sequence[WriteImage],
                 deadline: Optional[float] = None,
                 reads=(), nbytes: Optional[int] = None) -> None:
        #: global commit sequence number (1-based, install order)
        self.seqno = seqno
        #: epoch the commit belongs to (assigned at install time, so it is
        #: nondecreasing in seqno — the durable log is a seqno prefix)
        self.epoch = epoch
        self.txn_id = txn_id
        self.worker_id = worker_id
        self.type_name = type_name
        #: first-start time of the invocation (ack latency baseline)
        self.first_start = first_start
        self.commit_time = commit_time
        self.writes = writes
        #: estimated size: the header plus each image's size (the log
        #: passes it; records built by hand are sized from ``writes``)
        self.nbytes = (RECORD_HEADER_BYTES + sum(w.nbytes() for w in writes)
                       if nbytes is None else nbytes)
        #: absolute SLO deadline of the invocation (open-loop runs only);
        #: the ack at flush time compares against it, so a transaction that
        #: commits in memory before its deadline but flushes after counts
        #: as a late commit — an SLO miss, never a lost transaction
        self.deadline = deadline
        #: txn ids whose versions this commit read (cluster runs that keep
        #: recovery state only); a partial crash chases these edges to
        #: keep the lost set dependency-closed.  Excluded from ``nbytes`` — real WALs do not
        #: ship read sets, this is oracle bookkeeping
        self.reads = reads

    def digest(self) -> Tuple[int, int, int, int]:
        """Compact identity used by prefix-equality tests:
        (seqno, epoch, txn_id, worker_id)."""
        return (self.seqno, self.epoch, self.txn_id, self.worker_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LogRecord(seq={self.seqno}, epoch={self.epoch}, "
                f"txn={self.txn_id}, writes={len(self.writes)})")


def lost_txns(records) -> Set[int]:
    """Txn ids of the transactions lost when ``records`` are truncated."""
    return {record.txn_id for record in records if record.carries_txn}


def apply_record(db, record: LogRecord) -> None:
    """Replay one log record into ``db`` (recovery path).  Installs each
    write image with its original version id; a ``None`` value replays the
    delete as a tombstone, matching what ``Record.install`` produced."""
    for image in record.writes:
        table = db.create_table(image.table)
        value = None if image.value is None else detach_row(image.value)
        table.restore_row(image.key, value, image.vid)
