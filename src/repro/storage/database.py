"""The database: a set of named tables plus global version-id allocation."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import UnknownTableError
from .record import Record, VersionIdAllocator
from .table import Table

#: snapshot layout: {table name: {key: (version id, value)}} — live rows
#: only (tombstones behave as absent keys, exactly like committed reads)
Snapshot = Dict[str, Dict[tuple, tuple]]


def detach_row(value: dict) -> dict:
    """Detached copy of a row value: a one-level ``dict()`` copy plus a
    recursive copy of any *nested mutable* field value (dict/list/set).

    Most rows are flat field->scalar dicts, for which this is exactly a
    ``dict(value)`` — but nothing stops a workload from storing a list or
    dict in a field, and a snapshot (or log record) that shares such a
    nested object with the live row is silently corrupted the moment an
    update-function mutates it in place.  Scalars (and tuples of scalars,
    which are immutable) are shared — only mutable containers are copied.
    """
    detached = dict(value)
    for field, item in detached.items():
        if isinstance(item, (dict, list, set)):
            detached[field] = _detach_value(item)
    return detached


def _detach_value(item):
    if isinstance(item, dict):
        return {k: _detach_value(v) for k, v in item.items()}
    if isinstance(item, list):
        return [_detach_value(v) for v in item]
    if isinstance(item, set):
        return set(item)
    return item


class Mismatch:
    """One structured difference between two committed states."""

    __slots__ = ("kind", "table", "key", "expected", "actual")

    def __init__(self, kind: str, table: str, key: Optional[tuple] = None,
                 expected=None, actual=None) -> None:
        #: one of: missing_table / extra_table / missing_row / extra_row /
        #: value_mismatch / version_mismatch
        self.kind = kind
        self.table = table
        self.key = key
        self.expected = expected
        self.actual = actual

    def __repr__(self) -> str:
        where = f"{self.table}" + (f"{self.key}" if self.key is not None else "")
        return (f"{self.kind} at {where}: expected {self.expected!r}, "
                f"got {self.actual!r}")


def diff_snapshots(expected: Snapshot, actual: Snapshot) -> List[Mismatch]:
    """Structured comparison of two committed-state snapshots (as produced
    by :meth:`Database.snapshot`, keyed table -> key -> (vid, value))."""
    problems: List[Mismatch] = []
    for name in sorted(expected):
        if name not in actual:
            problems.append(Mismatch("missing_table", name))
            continue
        exp_rows, act_rows = expected[name], actual[name]
        for key in sorted(exp_rows):
            if key not in act_rows:
                problems.append(Mismatch("missing_row", name, key,
                                         expected=exp_rows[key]))
                continue
            exp_vid, exp_value = exp_rows[key]
            act_vid, act_value = act_rows[key]
            if exp_value != act_value:
                problems.append(Mismatch("value_mismatch", name, key,
                                         expected=exp_value,
                                         actual=act_value))
            elif exp_vid != act_vid:
                problems.append(Mismatch("version_mismatch", name, key,
                                         expected=exp_vid, actual=act_vid))
        for key in sorted(act_rows):
            if key not in exp_rows:
                problems.append(Mismatch("extra_row", name, key,
                                         actual=act_rows[key]))
    for name in sorted(actual):
        if name not in expected:
            problems.append(Mismatch("extra_table", name))
    return problems


class Database:
    """Named tables and the allocator for initial version ids.

    A fresh ``Database`` is built per simulated run by a workload's loader.
    Transaction programs address tables by name; the executor resolves them
    once per access through :meth:`table`.
    """

    __slots__ = ("_tables", "allocator")

    def __init__(self, table_names: Optional[Iterable[str]] = None) -> None:
        self._tables: Dict[str, Table] = {}
        self.allocator = VersionIdAllocator()
        for name in table_names or ():
            self.create_table(name)

    def create_table(self, name: str) -> Table:
        """Create (or return the existing) table called ``name``."""
        table = self._tables.get(name)
        if table is None:
            table = Table(name)
            self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table, raising :class:`UnknownTableError` if missing."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no such table: {name!r}") from None

    def table_names(self) -> list:
        return sorted(self._tables)

    def load(self, table_name: str, key: tuple, value: dict) -> Record:
        """Install an initial committed row (pre-run population) and
        return its record.  Bulk loaders call their tables'
        :meth:`Table.load` instead, which leaves the row raw until a
        transaction touches it."""
        table = self.table(table_name)
        table.load(key, value, self.allocator)
        return table.get_record(key)

    def committed_value(self, table_name: str, key: tuple) -> Optional[dict]:
        """Convenience accessor used by tests and invariant checks."""
        return self.table(table_name).committed_value(key)

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())

    # ------------------------------------------------------------------ #
    # committed-state snapshots (checkpoints + the durability oracle)

    def snapshot(self) -> Snapshot:
        """Copy of the committed state: {table: {key: (vid, value)}}.

        Only live rows are captured (a tombstone behaves exactly like an
        absent key for committed reads).  Because :meth:`Record.install` is
        the sole mutation of ``Record.value``, a snapshot taken between
        scheduler events is a transaction-consistent committed state, even
        with transactions in flight.  Iteration is sorted, so two equal
        states produce byte-identical (e.g. pickled) snapshots.

        Values are detached with :func:`detach_row`: ``Record.install``
        replaces a record's value wholesale (never mutates it in place),
        but a *nested* mutable field value (a list or dict inside a row)
        would stay shared under a one-level copy and let later in-place
        mutations rewrite history inside the snapshot.  Rows no
        transaction has touched are read raw, through
        :meth:`Table.committed_rows`, so a snapshot builds no record.
        """
        return {name: {key: (vid, detach_row(value))
                       for key, vid, value
                       in self._tables[name].committed_rows()}
                for name in sorted(self._tables)}

    @classmethod
    def from_snapshot(cls, snapshot: Snapshot,
                      allocator_seq: int = 0) -> "Database":
        """Materialise a fresh database from a snapshot, preserving the
        recorded version ids (recovery: checkpoint load)."""
        db = cls()
        for name in sorted(snapshot):
            table = db.create_table(name)
            for key in sorted(snapshot[name]):
                vid, value = snapshot[name][key]
                table.restore_row(key, detach_row(value), vid)
        db.allocator._next_seq = allocator_seq
        return db

    def diff(self, other: "Database") -> List[Mismatch]:
        """Structured committed-state comparison against ``other`` (self is
        the expected state).  Empty list = identical committed states."""
        return diff_snapshots(self.snapshot(), other.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Database(tables={self.table_names()})"
