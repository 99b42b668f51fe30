"""A loaded row stays raw until something needs its Record.

``Table.load`` keeps ``(value, seq)``; the first ``get_record`` /
``ensure_record`` / ``restore_row`` / ``scan_committed`` swaps in the
``Record`` an eager load would have built (same value object, version id
``(0, seq)`` in load order, same iteration order).  Value-only readers
build nothing, and ``records()`` yields only rows that were built."""

import pytest

from repro.storage.database import Database
from repro.storage.record import INITIAL_TXN_ID, Record

N_ROWS = 6


def loaded():
    """A two-table database whose loads interleave across the tables, as
    the TPC-C loader's do; returns it with the loaded value objects."""
    db = Database(["A", "B"])
    values = {}
    for key in range(N_ROWS):
        for name in ("A", "B"):
            value = values[name, key] = {"v": key, "name": name}
            db.table(name).load((key,), value, db.allocator)
    return db, values


def built(db):
    return [record for name in db.table_names()
            for record in db.table(name).records()]


def expected_vid(name, key):
    # loads alternate A, B per key: A's row of key k took seq 2k
    return (INITIAL_TXN_ID, 2 * key + (name == "B"))


def test_a_loaded_row_stays_raw():
    db, _ = loaded()
    assert built(db) == []
    assert len(db.table("A")) == N_ROWS


TOUCHES = {
    "get_record": lambda table, key: table.get_record(key),
    "ensure_record": lambda table, key: table.ensure_record(key, (0, 999)),
    "scan_committed": lambda table, key: dict(
        table.scan_committed(key, (key[0] + 1,)))[key],
}


@pytest.mark.parametrize("touch", list(TOUCHES))
def test_a_touch_builds_the_record_once(touch):
    db, values = loaded()
    table = db.table("B")
    key = (3,)
    record = TOUCHES[touch](table, key)
    assert isinstance(record, Record)
    assert record.key == key
    assert record.value is values["B", key[0]]
    assert record.version_id == expected_vid("B", 3)
    assert TOUCHES[touch](table, key) is record
    assert table.get_record(key) is record
    assert built(db) == [record]


def test_restore_row_builds_the_record_once():
    db, _ = loaded()
    table = db.table("A")
    record = table.restore_row((2,), {"v": -1}, (7, 0))
    assert (record.value, record.version_id) == ({"v": -1}, (7, 0))
    again = table.restore_row((2,), {"v": -2}, (8, 0))
    assert again is record and record.version_id == (8, 0)
    assert built(db) == [record]


def test_a_scan_builds_only_what_it_yields():
    db, _ = loaded()
    table = db.table("A")
    scan = table.scan_committed((1,), (5,))
    first = next(scan)
    assert [r.key for r in built(db)] == [first[0]]
    rest = list(scan)
    assert [key for key, _ in [first] + rest] == [(1,), (2,), (3,), (4,)]
    assert built(db) == [record for _, record in [first] + rest]
    limited = list(db.table("B").scan_committed((0,), (9,), limit=2,
                                               reverse=True))
    assert [key for key, _ in limited] == [(5,), (4,)]
    assert len(list(db.table("B").records())) == 2


def test_value_only_readers_build_nothing():
    db, values = loaded()
    table = db.table("A")
    assert table.committed_value((4,)) is values["A", 4]
    assert table.committed_value((99,)) is None
    assert list(table.keys()) == [(key,) for key in range(N_ROWS)]
    assert list(table.keys((2,), (4,))) == [(2,), (3,)]
    assert dict(table.items()) == {(key,): values["A", key]
                                   for key in range(N_ROWS)}
    assert len(table) == N_ROWS and db.total_rows() == 2 * N_ROWS
    assert (1,) in table and (99,) not in table
    snapshot = db.snapshot()
    assert snapshot["B"][(5,)] == (expected_vid("B", 5), values["B", 5])
    assert built(db) == []


def test_records_yields_only_built_rows_in_load_order():
    db, _ = loaded()
    table = db.table("A")
    late = table.get_record((4,))
    early = table.get_record((1,))
    tomb = table.ensure_record((9,), (0, 50))
    assert list(table.records()) == [early, late, tomb]
    assert list(db.table("B").records()) == []


def test_database_load_returns_a_record():
    db = Database(["T"])
    first = db.load("T", (1,), {"x": 1})
    second = db.load("T", (2,), {"x": 2})
    assert isinstance(first, Record)
    assert (first.version_id, second.version_id) == ((0, 0), (0, 1))
    assert db.table("T").get_record((1,)) is first
    assert list(db.table("T").records()) == [first, second]


def test_a_lazy_table_snapshots_like_a_built_one():
    lazy, _ = loaded()
    eager, _ = loaded()
    for name in eager.table_names():
        table = eager.table(name)
        for key in list(table.keys()):
            table.get_record(key)
    assert len(built(eager)) == 2 * N_ROWS and built(lazy) == []
    assert lazy.snapshot() == eager.snapshot()
    assert lazy.diff(eager) == []
    # a touched row still reads the same, and a later install shows in
    # both readers
    record = lazy.table("A").get_record((0,))
    record.value = {"v": 100}
    assert lazy.committed_value("A", (0,)) == {"v": 100}
    assert lazy.snapshot()["A"][(0,)] == (expected_vid("A", 0), {"v": 100})
