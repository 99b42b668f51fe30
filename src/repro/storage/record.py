"""Records: a committed version plus concurrency-control metadata.

A record stores exactly one committed version (Polyjuice is single-version;
§3 "there is no multi-version support") identified by a globally-unique
version id.  Version ids are unique across committed *and* exposed
uncommitted versions — the paper's Lemma 2 — which is what makes the
OCC-style read validation sound in the presence of dirty reads: a read
passes final validation iff the version it observed is exactly the version
that ended up committed.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from .access_list import EMPTY_ACCESS_LIST, AccessList

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.context import TxnContext

#: (txn_id, seqno) — unique across committed and uncommitted versions.
VersionId = Tuple[int, int]

#: version id of data loaded before any transaction ran.
INITIAL_TXN_ID = 0


class VersionIdAllocator:
    """Allocates version ids for initial loads (txn id 0)."""

    __slots__ = ("_next_seq",)

    def __init__(self) -> None:
        self._next_seq = 0

    def next_initial(self) -> VersionId:
        # Table.load inlines these three lines (the bulk-load hot path)
        vid = (INITIAL_TXN_ID, self._next_seq)
        self._next_seq += 1
        return vid


class Record:
    """One row: committed value, version id, commit-lock, access list."""

    __slots__ = ("key", "value", "version_id", "lock_owner", "access_list", "writer_ctx")

    def __init__(self, key, value: dict, version_id: VersionId) -> None:
        self.key = key
        #: committed value (a plain dict of field -> value)
        self.value = value
        #: version id of the committed value
        self.version_id: VersionId = version_id
        #: txn context currently holding the commit-phase lock, or None
        self.lock_owner: Optional["TxnContext"] = None
        #: per-record access list of in-flight reads / visible writes —
        #: the shared, frozen EMPTY_ACCESS_LIST whenever it holds no entry
        #: (until a publish, and again once the last entry is scrubbed)
        self.access_list: AccessList = EMPTY_ACCESS_LIST
        #: context that committed the current version (None once it is
        #: fully terminal; kept only for dependency bookkeeping)
        self.writer_ctx: Optional["TxnContext"] = None

    def publish_list(self) -> AccessList:
        """The access list to publish an entry to: this record's own list,
        created on a publish to a record that holds no entry.  Readers use
        :attr:`access_list` directly; every append goes through here, and
        :func:`repro.core.validation.scrub` gives an emptied list back."""
        access_list = self.access_list
        if access_list is EMPTY_ACCESS_LIST:
            access_list = self.access_list = AccessList()
        return access_list

    def is_locked_by_other(self, ctx: "TxnContext") -> bool:
        """True if another transaction holds this record's commit lock."""
        return self.lock_owner is not None and self.lock_owner is not ctx

    def try_lock(self, ctx: "TxnContext") -> bool:
        """Acquire the commit lock if free (or already ours)."""
        if self.lock_owner is None or self.lock_owner is ctx:
            self.lock_owner = ctx
            return True
        return False

    def unlock(self, ctx: "TxnContext") -> None:
        """Release the commit lock if held by ``ctx``."""
        if self.lock_owner is ctx:
            self.lock_owner = None

    def install(self, value: dict, version_id: VersionId, ctx: "TxnContext") -> None:
        """Install a new committed version (caller holds the lock)."""
        self.value = value
        self.version_id = version_id
        self.writer_ctx = ctx

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Record(key={self.key!r}, vid={self.version_id})"
