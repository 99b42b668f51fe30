"""Per-record access lists (§3.1, §4.1 of the paper).

Each record keeps an ordered list of the accesses made by *in-flight*
transactions: every read that has been appended (after a successful early
validation or a PUBLIC write, per Algorithm 1) and every write that has been
made visible.  The list ordering is what defines the runtime dependencies
between concurrent transactions:

* a read depends (wr) on every write that appears before it,
* a write depends (ww / rw) on every write *and read* that appears before it.

Entries are scrubbed when their transaction commits or aborts.

A list lives as long as its entries.  A record shares
:data:`EMPTY_ACCESS_LIST` while no in-flight transaction has an entry on
it: it gets its own list from
:meth:`~repro.storage.record.Record.publish_list` on a publish, and gives
it back when the scrub of its last entry's transaction empties it
(:func:`repro.core.validation.scrub`).  So a run holds one list per record
with in-flight entries, not one per record ever published to.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.context import TxnContext


class AccessKind:
    """Kinds of entries an access list can hold."""

    READ = "read"
    WRITE = "write"


class AccessEntry:
    """One read or visible write in a record's access list.

    Attributes:
        ctx: the transaction context that made the access.
        kind: :data:`AccessKind.READ` or :data:`AccessKind.WRITE`.
        version_id: for writes, the globally-unique id of the exposed
            version (paper Lemma 2); for reads, the version id that was read.
        value: for writes, the exposed (uncommitted) value; ``None`` for
            reads.
    """

    __slots__ = ("ctx", "kind", "version_id", "value")

    def __init__(self, ctx: "TxnContext", kind: str, version_id: tuple,
                 value: Optional[dict] = None) -> None:
        self.ctx = ctx
        self.kind = kind
        self.version_id = version_id
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AccessEntry(txn={self.ctx.txn_id}, kind={self.kind}, "
                f"vid={self.version_id})")


class AccessList:
    """Ordered access list for one record.

    The list is kept short in practice (it only ever holds entries of
    in-flight transactions), so linear scans are fine and keep the hot path
    allocation-free.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[AccessEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[AccessEntry]:
        return iter(self._entries)

    def append(self, entry: AccessEntry) -> None:
        """Append an entry at the tail (writes may only go at the tail;
        the paper notes a write cannot be inserted before existing reads)."""
        self._entries.append(entry)

    def _take_rw_deps_after(self, entry: AccessEntry, position: int) -> None:
        """Record the rw anti-dependencies a mid-list read insertion
        implies: every visible write after the read must commit after the
        reader (§3.1's edge model — in the C++ system the insertion and the
        dependency update happen atomically under the record latch)."""
        reader = entry.ctx
        for later in self._entries[position + 1:]:
            if later.kind == AccessKind.WRITE and later.ctx is not reader:
                later.ctx.deps.add(reader)

    def insert_read_before_writes(self, entry: AccessEntry) -> None:
        """Insert a *clean* read before all visible writes.

        A transaction that read the committed version sits, logically,
        before every uncommitted write in the list (§3.1: the read's
        position encodes which version was read), so it acquires no
        dependency on the in-flight writers — they acquire an
        anti-dependency on it instead.
        """
        for index, existing in enumerate(self._entries):
            if existing.kind == AccessKind.WRITE:
                self._entries.insert(index, entry)
                self._take_rw_deps_after(entry, index)
                return
        self._entries.append(entry)

    def insert_read_after_version(self, entry: AccessEntry,
                                  version_id: tuple) -> Set["TxnContext"]:
        """Insert a *dirty* read right after the write it observed (and
        after any reads already sitting there), returning the writers at or
        before that position — the read's wr-dependencies.

        If the observed write is no longer in the list (its transaction
        terminated), the read degenerates to a committed-version read and
        is inserted before the remaining writes.
        """
        position = None
        for index, existing in enumerate(self._entries):
            if existing.kind == AccessKind.WRITE and \
                    existing.version_id == version_id:
                position = index + 1
                break
        if position is None:
            self.insert_read_before_writes(entry)
            return set()
        while position < len(self._entries) and \
                self._entries[position].kind == AccessKind.READ:
            position += 1
        self._entries.insert(position, entry)
        self._take_rw_deps_after(entry, position)
        return {e.ctx for e in self._entries[:position]
                if e.kind == AccessKind.WRITE}

    def latest_visible_write(self) -> Optional[AccessEntry]:
        """Return the most recent visible (uncommitted) write, if any."""
        for entry in reversed(self._entries):
            if entry.kind == AccessKind.WRITE:
                return entry
        return None

    def latest_write_of(self, ctx: "TxnContext") -> Optional[AccessEntry]:
        """Return ``ctx``'s own most recent exposed write, if any."""
        for entry in reversed(self._entries):
            if entry.kind == AccessKind.WRITE and entry.ctx is ctx:
                return entry
        return None

    def txns_present(self, exclude: Optional["TxnContext"] = None) -> Set["TxnContext"]:
        """All distinct transactions with an entry in the list."""
        found: Set["TxnContext"] = set()
        for entry in self._entries:
            if entry.ctx is not exclude:
                found.add(entry.ctx)
        return found

    def predecessors_of_tail(self, ctx: "TxnContext",
                             writes_only: bool) -> Set["TxnContext"]:
        """Transactions an entry appended *now* by ``ctx`` would depend on.

        Args:
            ctx: the appending transaction (its own entries are skipped).
            writes_only: ``True`` when the new entry is a read (reads depend
                only on earlier writers); ``False`` when it is a write
                (writes depend on earlier writers *and* readers).
        """
        deps: Set["TxnContext"] = set()
        for entry in self._entries:
            if entry.ctx is ctx:
                continue
            if writes_only and entry.kind != AccessKind.WRITE:
                continue
            deps.add(entry.ctx)
        return deps

    def remove_txn(self, ctx: "TxnContext") -> int:
        """Scrub every entry of ``ctx`` (on commit or abort) and return how
        many entries are left — at 0 the record gives the list back.

        Single pass: scan up to the first hit, then keep filtering from
        there into a fresh list.  Entries before the first hit are copied
        untouched, and a list with no hits is left as-is (no reallocation)
        — behaviour identical to a filter, without scanning twice."""
        entries = self._entries
        for index, entry in enumerate(entries):
            if entry.ctx is ctx:
                kept = entries[:index]
                for later in entries[index + 1:]:
                    if later.ctx is not ctx:
                        kept.append(later)
                self._entries = kept
                return len(kept)
        return len(entries)

    def is_write_still_latest(self, entry: AccessEntry) -> bool:
        """True if ``entry`` is still the latest visible write by its txn.

        Used by early validation: a dirty read of a version the writer has
        since overwritten is doomed.
        """
        own_latest = self.latest_write_of(entry.ctx)
        return own_latest is not None and own_latest.version_id == entry.version_id


#: The access list of every record with no in-flight entry: one shared
#: instance whose entries are an empty *tuple*, so every reader sees an
#: empty list and ``append`` / the ``insert_*`` methods raise.
EMPTY_ACCESS_LIST = AccessList.__new__(AccessList)
EMPTY_ACCESS_LIST._entries = ()
