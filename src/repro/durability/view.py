"""The durable view: the committed state implied by the durable log.

The recovery oracle's *expected* side.  It is an independent witness of
the durable prefix: folded forward record by record at flush/ack time,
never rebuilt by replaying ``durable_log`` — recovery is exactly that
replay, so a view built the same way would compare recovery with itself.

It is an overlay over the run's single t=0 image rather than a second
:class:`~repro.storage.database.Database`: only the keys durable records
wrote are materialised.  The base is shared with checkpoint 0 and is
**never mutated** — every row that leaves the view (``snapshot``) is
re-detached, and ``from_snapshot`` re-detaches on checkpoint restore.

Only a crash reads the view (the node-crash oracle, the shard-crash
rollback), so the durability manager builds one only when the run's fault
plan scripts a ``node_crash`` or ``shard_crash``; a crash-free durable run
has no view, no t=0 image and no checkpoint copies at all.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..storage.database import Snapshot, detach_row
from .log import LogRecord


class DurableView:
    """``base`` plus a per-table overlay ``{key: (vid, value | None)}`` of
    every durable write since (``None`` = durable tombstone)."""

    __slots__ = ("base", "_overlay")

    def __init__(self, base: Snapshot) -> None:
        #: the t=0 committed-state image (shared, immutable)
        self.base = base
        self._overlay: Dict[str, Dict[tuple, tuple]] = {}

    def apply(self, record: LogRecord) -> None:
        """Fold one durable log record in (same contract as
        :func:`~repro.durability.log.apply_record`: images are detached,
        a ``None`` value is a tombstone, the version id is preserved)."""
        overlay = self._overlay
        for image in record.writes:
            rows = overlay.get(image.table)
            if rows is None:
                rows = overlay[image.table] = {}
            value = image.value
            rows[image.key] = (image.vid,
                               None if value is None else detach_row(value))

    def get(self, table: str,
            key: tuple) -> Optional[Tuple[tuple, Optional[dict]]]:
        """The durable version of ``key``: ``(vid, value)`` for a live
        row, ``(vid, None)`` for a durable tombstone, ``None`` for a key
        no durable state has ever held.  The value is the view's own —
        callers detach it before handing it to a database."""
        rows = self._overlay.get(table)
        if rows is not None:
            entry = rows.get(key)
            if entry is not None:
                return entry
        rows = self.base.get(table)
        return None if rows is None else rows.get(key)

    def snapshot(self) -> Snapshot:
        """Base and overlay merged into the exact layout
        :meth:`Database.snapshot` produces for the same state: sorted
        tables, sorted keys, tombstones dropped, rows detached."""
        base, overlay = self.base, self._overlay
        tables: Snapshot = {}
        for name in sorted(base.keys() | overlay.keys()):
            base_rows = base.get(name, {})
            over_rows = overlay.get(name, {})
            keys = list(base_rows)
            keys.extend(key for key in over_rows if key not in base_rows)
            keys.sort()
            rows: Dict[tuple, tuple] = {}
            for key in keys:
                vid, value = over_rows.get(key) or base_rows[key]
                if value is not None:
                    rows[key] = (vid, detach_row(value))
            tables[name] = rows
        return tables
