"""In-memory storage substrate (the Silo-like layer Polyjuice executes on).

Public surface:

* :class:`~repro.storage.record.Record` — a committed value plus the
  per-record access list of uncommitted-but-visible writes and reads.
* :class:`~repro.storage.access_list.AccessList` / ``AccessEntry``.
* :class:`~repro.storage.table.Table` — keyed records with committed-read
  range scans.
* :class:`~repro.storage.database.Database` — named tables.
* :class:`~repro.storage.locks.LockTable` — WAIT-DIE locking for the native
  2PL baseline.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "AccessEntry": ".access_list",
    "AccessKind": ".access_list",
    "AccessList": ".access_list",
    "Database": ".database",
    "LockMode": ".locks",
    "LockRequestOutcome": ".locks",
    "LockTable": ".locks",
    "Record": ".record",
    "Table": ".table",
    "VersionIdAllocator": ".record",
    "detach_row": ".database",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
