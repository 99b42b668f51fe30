"""Satellite regression: snapshots must detach nested mutable row values.

``Database.snapshot`` used a one-level ``dict()`` copy, which is enough
for flat field->scalar rows but shares any *nested* mutable field value
(list/dict/set) with the live record.  An in-place mutation of such a
field then rewrote history inside every checkpoint and log record that
referenced the row — invisible to ``diff_snapshots`` because both sides
pointed at the same object.  ``detach_row`` closes the seam.
"""

from repro.durability.log import LogRecord, WriteImage, apply_record
from repro.durability.oracle import verify_recovery
from repro.storage.database import Database, detach_row, diff_snapshots


def _db_with_nested_row() -> Database:
    db = Database(["T"])
    db.load("T", (1,), {"flat": 7,
                        "tags": ["a", "b"],
                        "meta": {"depth": [1, 2]},
                        "members": {"x"}})
    return db


def test_detach_row_copies_nested_containers_and_shares_scalars():
    value = {"n": 1, "s": "text", "tags": ["a"], "meta": {"d": [1]},
             "members": {"x"}}
    copy = detach_row(value)
    assert copy == value
    assert copy["tags"] is not value["tags"]
    assert copy["meta"] is not value["meta"]
    assert copy["meta"]["d"] is not value["meta"]["d"]
    assert copy["members"] is not value["members"]
    value["tags"].append("b")
    value["meta"]["d"].append(2)
    assert copy["tags"] == ["a"]
    assert copy["meta"]["d"] == [1]


def test_snapshot_detaches_nested_values():
    db = _db_with_nested_row()
    snap = db.snapshot()
    record = db.table("T").get_record((1,))
    # in-place mutation of the live row's nested containers
    record.value["tags"].append("c")
    record.value["meta"]["depth"].append(3)
    vid, value = snap["T"][(1,)]
    assert value["tags"] == ["a", "b"]
    assert value["meta"] == {"depth": [1, 2]}
    # and the mutation is now *visible* as a snapshot difference
    mismatches = diff_snapshots(snap, db.snapshot())
    assert any(m.kind == "value_mismatch" for m in mismatches)


def test_from_snapshot_detaches_from_the_source_snapshot():
    db = _db_with_nested_row()
    snap = db.snapshot()
    restored = Database.from_snapshot(snap)
    restored.table("T").get_record((1,)).value["tags"].append("zzz")
    assert snap["T"][(1,)][1]["tags"] == ["a", "b"]


def test_write_image_and_replay_detach_nested_values():
    live = {"tags": ["a"], "meta": {"d": 1}}
    image = WriteImage("T", (1,), live, vid=(5, 0))
    live["tags"].append("b")
    assert image.value["tags"] == ["a"]

    record = LogRecord(seqno=1, epoch=1, txn_id=5, worker_id=0,
                       type_name="t", first_start=0.0, commit_time=1.0,
                       writes=[image])
    db = Database()
    apply_record(db, record)
    # mutating the replayed row must not reach back into the log record
    db.table("T").get_record((1,)).value["tags"].append("c")
    assert image.value["tags"] == ["a"]


def test_durability_oracle_sees_pristine_durable_view_despite_mutation():
    """The durability-oracle shape of the bug: the durable view (built
    from log replay / checkpoints) must stay byte-identical to the
    durable prefix even while the live database mutates nested values
    in place afterwards."""
    db = _db_with_nested_row()
    checkpoint = db.snapshot()
    durable_view = Database.from_snapshot(checkpoint)
    recovered = Database.from_snapshot(checkpoint)
    # post-checkpoint in-place corruption of the live row
    db.table("T").get_record((1,)).value["meta"]["depth"].clear()
    problems = verify_recovery(durable_view, recovered.snapshot(),
                               max_acked_seqno=0, durable_seqno=0,
                               durable_vids=set())
    assert problems == []
    vid, value = durable_view.snapshot()["T"][(1,)]
    assert value["meta"] == {"depth": [1, 2]}
