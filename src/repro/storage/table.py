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
    """A named table of :class:`Record` keyed by tuples.

    The key index is sorted *lazily*: inserts append and mark the index
    dirty, and the first scan (or :meth:`sorted_keys`) re-sorts it.  Bulk
    loads and insert-heavy transactional workloads that never scan — the
    common case — thus skip the per-insert ``bisect.insort`` memmove
    entirely.
    """

    __slots__ = ("name", "_records", "_sorted_keys", "_keys_dirty")

    def __init__(self, name: str) -> None:
        self.name = name
        self._records: dict = {}
        self._sorted_keys: List[tuple] = []
        self._keys_dirty = False

    def _ensure_sorted(self) -> None:
        if self._keys_dirty:
            self._sorted_keys.sort()
            self._keys_dirty = False

    def sorted_keys(self) -> List[tuple]:
        """All known keys (live and tombstoned) in sorted order.  The
        returned list is the live index — callers must not mutate it."""
        self._ensure_sorted()
        return self._sorted_keys

    def __len__(self) -> int:
        """Number of *live* rows (tombstoned / not-yet-committed records
        materialised by in-flight inserts are excluded)."""
        return sum(1 for record in self._records.values()
                   if record.value is not None)

    def __contains__(self, key: tuple) -> bool:
        record = self._records.get(key)
        return record is not None and record.value is not None

    def load(self, key: tuple, value: dict, allocator: VersionIdAllocator) -> Record:
        """Install an initial (pre-run) committed version, with the next
        initial version id ``(INITIAL_TXN_ID, seq)`` from ``allocator``."""
        records = self._records
        if key in records:
            raise DuplicateKeyError(f"{self.name}: duplicate initial key {key!r}")
        seq = allocator._next_seq
        allocator._next_seq = seq + 1
        record = records[key] = Record(key, value, (INITIAL_TXN_ID, seq))
        self._sorted_keys.append(key)
        self._keys_dirty = True
        return record

    def get_record(self, key: tuple) -> Optional[Record]:
        """Fetch the record object for ``key`` (even if tombstoned)."""
        return self._records.get(key)

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
            record.value = value
            record.version_id = version_id
        return record

    def committed_value(self, key: tuple) -> Optional[dict]:
        """The committed value of ``key`` (``None`` if absent/tombstoned)."""
        record = self._records.get(key)
        return None if record is None else record.value

    def scan_committed(self, lo: tuple, hi: tuple,
                       limit: Optional[int] = None,
                       reverse: bool = False) -> Iterator[Tuple[tuple, Record]]:
        """Yield committed (key, record) pairs with ``lo <= key < hi``.

        Tombstoned keys are skipped.  Reads are of committed state only
        (Silo-style snapshot scan, per §6).
        """
        self._ensure_sorted()
        start = bisect.bisect_left(self._sorted_keys, lo)
        end = bisect.bisect_left(self._sorted_keys, hi)
        keys = self._sorted_keys[start:end]
        if reverse:
            keys = reversed(keys)
        count = 0
        for key in keys:
            record = self._records[key]
            if record.value is None:
                continue
            yield key, record
            count += 1
            if limit is not None and count >= limit:
                return

    def keys(self) -> Iterator[tuple]:
        """Iterate all live (non-tombstoned) keys in sorted order."""
        self._ensure_sorted()
        for key in self._sorted_keys:
            if self._records[key].value is not None:
                yield key

    def records(self) -> Iterator[Record]:
        """Iterate every record, including tombstoned ones (invariant
        checks need to see residue on dead records too)."""
        return iter(self._records.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={len(self)})"
