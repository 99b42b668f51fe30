"""Tables: keyed collections of records with committed-read range scans.

Keys are tuples (composite primary keys, e.g. ``(w_id, d_id, o_id)``).
A sorted key index supports range scans; per §6 of the paper, range queries
always read *committed* values (Polyjuice reuses Silo's mechanism for them),
so scans here ignore access lists entirely.

Deletes install a tombstone (committed value ``None``); scans and reads of a
tombstoned key behave as if the key is absent, while validation still sees
its version id change — this is how concurrent TPC-C Delivery transactions
conflict on the same NEW-ORDER row.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from ..errors import DuplicateKeyError
from .record import INITIAL_TXN_ID, Record, VersionId, VersionIdAllocator


class Table:
    """A named table of rows keyed by tuples.

    A row is born *raw*: :meth:`load` stores the pair ``(value, seq)``
    and allocates its initial version id's sequence number, nothing more.
    The first call that needs the row's :class:`Record` —
    :meth:`get_record`, :meth:`ensure_record`, :meth:`restore_row`,
    :meth:`scan_committed` — replaces the pair, in the same dict slot, by
    ``Record(key, value, (INITIAL_TXN_ID, seq))``: the same value object,
    version id and iteration order an eager load would have built.  A
    Silo record's concurrency-control state (version, commit lock, access
    list) only matters once a transaction reaches it, so a run builds
    records for the rows it touches, not for the whole population.
    Value-only readers (:meth:`committed_value`, :meth:`keys`,
    :meth:`items`, :meth:`committed_rows`, ``len`` and ``in``) read raw
    rows in place and materialise nothing.  A row's representation is
    private to this class: nothing else reads ``_records``.

    The key index is sorted *lazily*: inserts append and mark the index
    dirty, and the first scan (or :meth:`sorted_keys`) re-sorts it.  Bulk
    loads and insert-heavy transactional workloads that never scan — the
    common case — thus skip the per-insert ``bisect.insort`` memmove
    entirely.
    """

    __slots__ = ("name", "_records", "_sorted_keys", "_keys_dirty")

    def __init__(self, name: str) -> None:
        self.name = name
        #: key -> raw ``(value, seq)`` pair, or the row's Record once touched
        self._records: dict = {}
        self._sorted_keys: List[tuple] = []
        self._keys_dirty = False

    def _adopt(self, base: "Table") -> None:
        """Share ``base``'s rows and key index by reference (no copy), so
        a subclass that observes accesses can stand in for ``base``."""
        self.name = base.name
        self._records = base._records
        self._sorted_keys = base._sorted_keys
        self._keys_dirty = base._keys_dirty

    def _ensure_sorted(self) -> None:
        if self._keys_dirty:
            self._sorted_keys.sort()
            self._keys_dirty = False

    def _key_range(self, lo: tuple, hi: tuple) -> List[tuple]:
        """The sorted keys ``k`` with ``lo <= k < hi``."""
        self._ensure_sorted()
        keys = self._sorted_keys
        return keys[bisect.bisect_left(keys, lo):bisect.bisect_left(keys, hi)]

    def _materialise(self, key: tuple, row: tuple) -> Record:
        value, seq = row
        record = self._records[key] = Record(key, value, (INITIAL_TXN_ID, seq))
        return record

    def sorted_keys(self) -> List[tuple]:
        """All known keys (live and tombstoned) in sorted order.  The
        returned list is the live index — callers must not mutate it."""
        self._ensure_sorted()
        return self._sorted_keys

    def __len__(self) -> int:
        """Number of *live* rows (tombstoned / not-yet-committed records
        materialised by in-flight inserts are excluded)."""
        return sum(1 for row in self._records.values()
                   if (row[0] if row.__class__ is tuple else row.value)
                   is not None)

    def __contains__(self, key: tuple) -> bool:
        return self.committed_value(key) is not None

    def load(self, key: tuple, value: dict,
             allocator: VersionIdAllocator) -> None:
        """Install an initial (pre-run) committed version, as a raw row
        whose version id will be ``(INITIAL_TXN_ID, seq)`` with the next
        ``seq`` from ``allocator``."""
        records = self._records
        if key in records:
            raise DuplicateKeyError(f"{self.name}: duplicate initial key {key!r}")
        seq = allocator._next_seq
        allocator._next_seq = seq + 1
        records[key] = (value, seq)
        self._sorted_keys.append(key)
        self._keys_dirty = True

    def get_record(self, key: tuple) -> Optional[Record]:
        """Fetch the record object for ``key`` (even if tombstoned),
        materialising a raw row."""
        row = self._records.get(key)
        if row.__class__ is tuple:
            row = self._materialise(key, row)
        return row

    def ensure_record(self, key: tuple, version_id: VersionId) -> Record:
        """Return the record for ``key``, materialising a tombstone record
        if the key has never been seen (used by transactional inserts: the
        insert's commit will flip the tombstone to a live value)."""
        record = self._records.get(key)
        if record is None:
            record = Record(key, None, version_id)
            self._records[key] = record
            self._sorted_keys.append(key)
            self._keys_dirty = True
        elif record.__class__ is tuple:
            record = self._materialise(key, record)
        return record

    def restore_row(self, key: tuple, value: Optional[dict],
                    version_id: VersionId) -> Record:
        """Install a committed row with a *preserved* version id (recovery:
        checkpoint restore and log replay must reproduce the exact version
        ids the original run committed, not allocate fresh ones)."""
        record = self._records.get(key)
        if record is None:
            record = Record(key, value, version_id)
            self._records[key] = record
            self._sorted_keys.append(key)
            self._keys_dirty = True
        else:
            if record.__class__ is tuple:
                record = self._materialise(key, record)
            record.value = value
            record.version_id = version_id
        return record

    def committed_value(self, key: tuple) -> Optional[dict]:
        """The committed value of ``key`` (``None`` if absent/tombstoned)."""
        row = self._records.get(key)
        if row is None:
            return None
        return row[0] if row.__class__ is tuple else row.value

    def scan_committed(self, lo: tuple, hi: tuple,
                       limit: Optional[int] = None,
                       reverse: bool = False) -> Iterator[Tuple[tuple, Record]]:
        """Yield committed (key, record) pairs with ``lo <= key < hi``,
        materialising each row as it is yielded.

        Tombstoned keys are skipped.  Reads are of committed state only
        (Silo-style snapshot scan, per §6).
        """
        keys = self._key_range(lo, hi)
        if reverse:
            keys = reversed(keys)
        records = self._records
        count = 0
        for key in keys:
            record = records[key]
            if record.__class__ is tuple:
                record = self._materialise(key, record)
            if record.value is None:
                continue
            yield key, record
            count += 1
            if limit is not None and count >= limit:
                return

    def keys(self, lo: Optional[tuple] = None,
             hi: Optional[tuple] = None) -> Iterator[tuple]:
        """Iterate the live (non-tombstoned) keys in sorted order — all of
        them, or those with ``lo <= key < hi`` when both bounds are given."""
        if lo is None:
            self._ensure_sorted()
            keys = self._sorted_keys
        else:
            keys = self._key_range(lo, hi)
        records = self._records
        for key in keys:
            row = records[key]
            if (row[0] if row.__class__ is tuple else row.value) is not None:
                yield key

    def items(self) -> Iterator[Tuple[tuple, dict]]:
        """Iterate ``(key, committed value)`` of every live row, in
        storage (not key) order: a whole-table sweep for invariant
        checks, which neither sorts the index nor builds a record."""
        for key, row in self._records.items():
            value = row[0] if row.__class__ is tuple else row.value
            if value is not None:
                yield key, value

    def committed_rows(self) -> Iterator[Tuple[tuple, VersionId, dict]]:
        """Iterate ``(key, version id, committed value)`` of every live row
        in key order, reading raw rows in place (the values are the live
        objects: a caller that keeps them detaches them)."""
        records = self._records
        for key in self.sorted_keys():
            row = records[key]
            if row.__class__ is tuple:
                value, seq = row
                yield key, (INITIAL_TXN_ID, seq), value
            elif row.value is not None:
                yield key, row.version_id, row.value

    def records(self) -> Iterator[Record]:
        """Iterate every *materialised* record, tombstoned ones included
        (invariant checks need to see residue on dead records too).  Raw
        rows are skipped, and nothing is built for them: a row becomes a
        Record before any transaction can lock it, publish to its access
        list or install over it, so a raw row holds no concurrency-control
        state to check."""
        return (row for row in self._records.values()
                if row.__class__ is not tuple)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={len(self)})"
