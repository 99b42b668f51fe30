"""Unit tests for the validation rules (doom checks, final checks, scrub)."""

from repro.storage.access_list import AccessEntry, AccessKind
from repro.storage.record import Record
from repro.core import validation
from repro.core.context import ReadEntry, TxnContext, TxnStatus, WriteEntry


def make_ctx(txn_id):
    return TxnContext(txn_id, 0, "t", None, (0.0, txn_id), 0.0)


def make_record(key=(1,), value=None, vid=(0, 0)):
    return Record(key, value if value is not None else {"v": 0}, vid)


class TestCleanReadDoom:
    def test_fresh_clean_read_ok(self):
        record = make_record()
        ctx = make_ctx(1)
        entry = ReadEntry("T", (1,), record, (0, 0), {"v": 0}, None)
        assert validation.read_entry_doomed(ctx, entry) is None

    def test_overwritten_clean_read_doomed(self):
        record = make_record()
        ctx = make_ctx(1)
        entry = ReadEntry("T", (1,), record, (0, 0), {"v": 0}, None)
        record.install({"v": 1}, (9, 0), make_ctx(9))
        assert "overwritten" in validation.read_entry_doomed(ctx, entry)

    def test_dirty_intent_missing_exposure_doomed(self):
        record = make_record()
        ctx = make_ctx(1)
        entry = ReadEntry("T", (1,), record, (0, 0), {"v": 0}, None,
                          intended_dirty=True)
        writer = make_ctx(2)
        record.publish_list().append(
            AccessEntry(writer, AccessKind.WRITE, (2, 0), {"v": 5}))
        assert "missed" in validation.read_entry_doomed(ctx, entry)

    def test_dirty_intent_own_exposure_not_doomed(self):
        record = make_record()
        ctx = make_ctx(1)
        entry = ReadEntry("T", (1,), record, (0, 0), {"v": 0}, None,
                          intended_dirty=True)
        record.publish_list().append(
            AccessEntry(ctx, AccessKind.WRITE, (1, 0), {"v": 5}))
        assert validation.read_entry_doomed(ctx, entry) is None


class TestDirtyReadDoom:
    def setup_dirty(self):
        record = make_record()
        writer = make_ctx(2)
        exposure = AccessEntry(writer, AccessKind.WRITE, (2, 0), {"v": 5})
        record.publish_list().append(exposure)
        reader = make_ctx(3)
        entry = ReadEntry("T", (1,), record, (2, 0), {"v": 5}, writer,
                          intended_dirty=True)
        return record, writer, reader, entry

    def test_live_dirty_read_ok(self):
        _, _, reader, entry = self.setup_dirty()
        assert validation.read_entry_doomed(reader, entry) is None

    def test_aborted_writer_dooms(self):
        record, writer, reader, entry = self.setup_dirty()
        validation.finish(writer, TxnStatus.ABORTED)
        assert "aborted" in validation.read_entry_doomed(reader, entry)

    def test_writer_commit_of_same_version_ok(self):
        record, writer, reader, entry = self.setup_dirty()
        record.install({"v": 5}, (2, 0), writer)
        validation.finish(writer, TxnStatus.COMMITTED)
        assert validation.read_entry_doomed(reader, entry) is None

    def test_writer_commit_of_other_version_dooms(self):
        record, writer, reader, entry = self.setup_dirty()
        record.install({"v": 6}, (2, 1), writer)
        validation.finish(writer, TxnStatus.COMMITTED)
        assert "not the one committed" in \
            validation.read_entry_doomed(reader, entry)

    def test_writer_supersede_dooms(self):
        record, writer, reader, entry = self.setup_dirty()
        record.publish_list().append(
            AccessEntry(writer, AccessKind.WRITE, (2, 1), {"v": 6}))
        assert "superseded" in validation.read_entry_doomed(reader, entry)

    def test_rmw_lost_update_dooms(self):
        record, writer, reader, entry = self.setup_dirty()
        # the reader intends to write the same key
        reader.wset[("T", (1,))] = WriteEntry("T", (1,), record, {"v": 9},
                                              False, 0)
        other = make_ctx(4)
        record.publish_list().append(
            AccessEntry(other, AccessKind.WRITE, (4, 0), {"v": 7}))
        assert "lost the latest" in validation.read_entry_doomed(reader, entry)

    def test_plain_read_of_stale_version_not_doomed(self):
        # same situation but the reader does NOT write the key: positioned
        # reads make the stale version legal
        record, writer, reader, entry = self.setup_dirty()
        other = make_ctx(4)
        record.publish_list().append(
            AccessEntry(other, AccessKind.WRITE, (4, 0), {"v": 7}))
        assert validation.read_entry_doomed(reader, entry) is None


class TestFinalValidation:
    def test_matching_version_ok(self):
        record = make_record()
        ctx = make_ctx(1)
        entry = ReadEntry("T", (1,), record, (0, 0), {"v": 0}, None)
        assert validation.read_entry_final_ok(ctx, entry)

    def test_changed_version_fails(self):
        record = make_record()
        ctx = make_ctx(1)
        entry = ReadEntry("T", (1,), record, (0, 0), {"v": 0}, None)
        record.install({"v": 1}, (9, 0), make_ctx(9))
        assert not validation.read_entry_final_ok(ctx, entry)

    def test_foreign_lock_fails(self):
        record = make_record()
        ctx, other = make_ctx(1), make_ctx(2)
        record.try_lock(other)
        entry = ReadEntry("T", (1,), record, (0, 0), {"v": 0}, None)
        assert not validation.read_entry_final_ok(ctx, entry)

    def test_own_lock_ok(self):
        record = make_record()
        ctx = make_ctx(1)
        record.try_lock(ctx)
        entry = ReadEntry("T", (1,), record, (0, 0), {"v": 0}, None)
        assert validation.read_entry_final_ok(ctx, entry)


class TestFinishAndScrub:
    def test_scrub_removes_entries_and_locks(self):
        record = make_record()
        ctx = make_ctx(1)
        record.try_lock(ctx)
        record.publish_list().append(
            AccessEntry(ctx, AccessKind.WRITE, (1, 0), {"v": 1}))
        ctx.touched_records.add(record)
        validation.scrub(ctx)
        assert record.lock_owner is None
        assert len(record.access_list) == 0
        assert not ctx.touched_records

    def test_abort_dooms_active_readers(self):
        writer, reader = make_ctx(1), make_ctx(2)
        writer.readers[reader] = None
        validation.finish(writer, TxnStatus.ABORTED)
        assert reader.doomed

    def test_abort_skips_terminal_readers(self):
        writer, reader = make_ctx(1), make_ctx(2)
        reader.status = TxnStatus.COMMITTED
        writer.readers[reader] = None
        validation.finish(writer, TxnStatus.ABORTED)
        assert not reader.doomed

    def test_commit_does_not_doom_readers(self):
        writer, reader = make_ctx(1), make_ctx(2)
        writer.readers[reader] = None
        validation.finish(writer, TxnStatus.COMMITTED)
        assert not reader.doomed


class TestWriterCtxRetention:
    """``Record.writer_ctx`` is install provenance only; once the writer
    terminates it must not stay reachable from storage (it would pin the
    context's whole dependency graph for the run's lifetime)."""

    def test_scrub_clears_own_writer_ctx(self):
        ctx = make_ctx(1)
        record = make_record()
        record.install({"v": 1}, (1, 0), ctx)
        ctx.touched_records.add(record)
        assert record.writer_ctx is ctx
        validation.scrub(ctx)
        assert record.writer_ctx is None

    def test_scrub_leaves_other_writer_ctx(self):
        # a newer install by another txn owns the pointer now; scrubbing
        # the older writer must not erase the newer provenance
        old, new = make_ctx(1), make_ctx(2)
        record = make_record()
        record.install({"v": 1}, (1, 0), old)
        record.install({"v": 2}, (2, 0), new)
        old.touched_records.add(record)
        validation.scrub(old)
        assert record.writer_ctx is new

    def test_finish_clears_writer_ctx_on_commit_and_abort(self):
        for status in (TxnStatus.COMMITTED, TxnStatus.ABORTED):
            ctx = make_ctx(1)
            record = make_record()
            record.install({"v": 1}, (1, 0), ctx)
            ctx.touched_records.add(record)
            validation.finish(ctx, status)
            assert record.writer_ctx is None

    def test_residue_oracle_flags_terminal_writer_ctx(self):
        from repro.storage.database import Database

        db = Database()
        db.create_table("t")
        record = db.load("t", (1,), {"v": 0})
        ctx = make_ctx(7)
        ctx.status = TxnStatus.COMMITTED
        record.writer_ctx = ctx  # plant a stale provenance pointer
        problems = validation.storage_residue(db)
        assert any("writer_ctx" in p for p in problems)

    def test_residue_oracle_allows_active_writer_ctx(self):
        from repro.storage.database import Database

        db = Database()
        db.create_table("t")
        record = db.load("t", (1,), {"v": 0})
        record.writer_ctx = make_ctx(7)  # still ACTIVE: legitimate owner
        assert validation.storage_residue(db) == []
