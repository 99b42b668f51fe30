"""The durability oracle: what a correct recovery must satisfy.

Three properties, straight from the Silo/SiloR contract:

1. **Recovered state == durable prefix.**  The recovered database must be
   byte-equal (values *and* version ids) to the state implied by replaying
   the durable log — the committed prefix through the persistent epoch.
2. **No acked transaction lost.**  A client ack is only sent when the
   epoch's group flush completes, so every acked seqno must be <= the
   durable seqno after truncation.
3. **No uncommitted write surfaced.**  Every non-initial version id in the
   recovered database must have been written by a durable log record —
   nothing from an unflushed or in-flight transaction may reappear.

:func:`filter_history` supports the serializability check *across* a
crash: committed-but-lost transactions are erased from the recorded
history.  This is sound *only if* the lost set is dependency-closed — no
surviving transaction read a version a lost transaction wrote.  On a
single node the commit-phase dependency wait guarantees it (a
dependency's install, and hence its seqno and epoch, is ordered before
its dependent's, so truncating to the persistent epoch removes a clean
suffix); on a cluster the same must hold *across shards* — a cross-shard
commit's writes land on several shard WALs, and the cluster watermark
(min over all shards' persistent epochs) is what keeps the surviving
prefix closed under those cross-shard commit dependencies.  Rather than
trust either argument, :func:`filter_history` *verifies* closure and
fails loudly (:class:`~repro.errors.ReproError`) on a non-closed prefix:
a violation means the durability layer truncated dependents and
dependencies inconsistently, and silently filtering would hand the
serializability oracle a history that was never produced by any run.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..analysis.serializability import HistoryRecorder
from ..errors import ReproError
from ..storage.database import Snapshot, diff_snapshots
from ..storage.record import INITIAL_TXN_ID


def verify_recovery(durable_view, recovered_snapshot: Snapshot,
                    max_acked_seqno: int, durable_seqno: int,
                    durable_vids: Set[tuple]) -> List[str]:
    """Check one recovery against the oracle; returns violations ([] = OK).

    ``durable_view`` is the expected side — anything with a ``snapshot()``
    (the manager's :class:`~repro.durability.view.DurableView`);
    ``recovered_snapshot`` is the snapshot recovery already took of the
    database it rebuilt."""
    problems: List[str] = []
    for mismatch in diff_snapshots(durable_view.snapshot(),
                                   recovered_snapshot):
        problems.append(f"recovered state != durable prefix: {mismatch!r}")
    if max_acked_seqno > durable_seqno:
        problems.append(
            f"acked transaction lost: max acked seqno {max_acked_seqno} > "
            f"durable seqno {durable_seqno}")
    for table_name, rows in recovered_snapshot.items():
        for key, (vid, _value) in rows.items():
            if vid[0] != INITIAL_TXN_ID and vid not in durable_vids:
                problems.append(
                    f"uncommitted write surfaced: {table_name}{key} has "
                    f"version {vid} that no durable log record installed")
    return problems


def filter_history(recorder: HistoryRecorder,
                   lost_txn_ids: Iterable[int]) -> HistoryRecorder:
    """A copy of ``recorder`` with the crash-lost transactions erased.

    Order is preserved, and per-key version chains are rebuilt from the
    surviving commits (install order is commit order, so appending the
    survivors' writes in sequence reproduces each chain minus the lost
    versions).  The result is the history that actually survives the run:
    the durable prefix plus everything committed after recovery.

    Raises :class:`~repro.errors.ReproError` if the lost set is not
    dependency-closed — some surviving transaction read a version written
    by a lost transaction (including reads that follow a cross-shard
    commit dependency onto another shard's truncated WAL).  Erasing the
    writer but keeping the reader would fabricate a history no execution
    produced, so the oracle must fail the run instead of filtering on.
    """
    lost = set(lost_txn_ids)
    filtered = HistoryRecorder()
    for txn in recorder.committed:
        if txn.txn_id in lost:
            continue
        for key, vid in txn.reads:
            if vid[0] in lost:
                raise ReproError(
                    f"crash-lost set is not dependency-closed: surviving "
                    f"txn {txn.txn_id} ({txn.type_name}) read "
                    f"{key[0]}{key[1]} version {vid} written by lost txn "
                    f"{vid[0]} — the durability layer truncated a "
                    f"dependency without its dependent")
        filtered.committed.append(txn)
        for key, vid in txn.writes:
            filtered.version_chain.setdefault(key, []).append(vid)
    return filtered
