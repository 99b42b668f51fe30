"""Access-list semantics: ordering, positioning, dependency induction."""

import pytest

from repro.storage.access_list import (EMPTY_ACCESS_LIST, AccessEntry,
                                       AccessKind, AccessList)
from repro.storage.record import Record
from repro.core.context import TxnContext, TxnStatus


def make_ctx(txn_id: int, type_index: int = 0) -> TxnContext:
    return TxnContext(txn_id, type_index, "t", None, (0.0, txn_id), 0.0)


def write_entry(ctx, seq=0, value=None):
    return AccessEntry(ctx, AccessKind.WRITE, (ctx.txn_id, seq),
                       value if value is not None else {"v": seq})


def read_entry(ctx, vid):
    return AccessEntry(ctx, AccessKind.READ, vid)


class TestBasics:
    def test_empty(self):
        access_list = AccessList()
        assert len(access_list) == 0
        assert access_list.latest_visible_write() is None

    def test_append_and_latest_write(self):
        access_list = AccessList()
        a, b = make_ctx(1), make_ctx(2)
        access_list.append(write_entry(a, 0))
        access_list.append(read_entry(b, (1, 0)))
        access_list.append(write_entry(b, 0))
        latest = access_list.latest_visible_write()
        assert latest.ctx is b

    def test_latest_write_of_specific_txn(self):
        access_list = AccessList()
        a, b = make_ctx(1), make_ctx(2)
        access_list.append(write_entry(a, 0))
        access_list.append(write_entry(b, 0))
        access_list.append(write_entry(a, 1))
        assert access_list.latest_write_of(a).version_id == (1, 1)
        assert access_list.latest_write_of(b).version_id == (2, 0)
        assert access_list.latest_write_of(make_ctx(9)) is None

    def test_remove_txn(self):
        access_list = AccessList()
        a, b = make_ctx(1), make_ctx(2)
        access_list.append(write_entry(a))
        access_list.append(write_entry(b))
        access_list.remove_txn(a)
        assert len(access_list) == 1
        assert access_list.latest_visible_write().ctx is b

    def test_txns_present_excludes(self):
        access_list = AccessList()
        a, b = make_ctx(1), make_ctx(2)
        access_list.append(write_entry(a))
        access_list.append(read_entry(b, (1, 0)))
        assert access_list.txns_present() == {a, b}
        assert access_list.txns_present(exclude=a) == {b}


class TestPositionedInserts:
    def test_clean_read_goes_before_writes(self):
        access_list = AccessList()
        writer, reader = make_ctx(1), make_ctx(2)
        access_list.append(write_entry(writer))
        access_list.insert_read_before_writes(read_entry(reader, (0, 0)))
        entries = list(access_list)
        assert entries[0].ctx is reader
        assert entries[1].ctx is writer

    def test_clean_read_induces_rw_dep_on_later_writer(self):
        access_list = AccessList()
        writer, reader = make_ctx(1), make_ctx(2)
        access_list.append(write_entry(writer))
        access_list.insert_read_before_writes(read_entry(reader, (0, 0)))
        # the writer must now commit after the reader
        assert reader in writer.deps

    def test_clean_read_appends_when_no_writes(self):
        access_list = AccessList()
        r1, r2 = make_ctx(1), make_ctx(2)
        access_list.insert_read_before_writes(read_entry(r1, (0, 0)))
        access_list.insert_read_before_writes(read_entry(r2, (0, 0)))
        assert [e.ctx for e in access_list] == [r1, r2]

    def test_dirty_read_positions_after_its_version(self):
        access_list = AccessList()
        w1, w2, reader = make_ctx(1), make_ctx(2), make_ctx(3)
        access_list.append(write_entry(w1, 0))
        access_list.append(write_entry(w2, 0))
        deps = access_list.insert_read_after_version(
            read_entry(reader, (1, 0)), (1, 0))
        entries = list(access_list)
        assert [e.ctx for e in entries] == [w1, reader, w2]
        assert deps == {w1}
        # the later writer takes an rw dep on the mid-list reader
        assert reader in w2.deps

    def test_dirty_read_skips_existing_reads_at_position(self):
        access_list = AccessList()
        w1, r1, r2 = make_ctx(1), make_ctx(2), make_ctx(3)
        access_list.append(write_entry(w1, 0))
        access_list.insert_read_after_version(read_entry(r1, (1, 0)), (1, 0))
        access_list.insert_read_after_version(read_entry(r2, (1, 0)), (1, 0))
        assert [e.ctx for e in access_list] == [w1, r1, r2]

    def test_dirty_read_of_vanished_version_degrades_to_clean(self):
        access_list = AccessList()
        w2, reader = make_ctx(2), make_ctx(3)
        access_list.append(write_entry(w2, 0))
        deps = access_list.insert_read_after_version(
            read_entry(reader, (1, 0)), (1, 0))  # version (1,0) not present
        assert deps == set()
        assert [e.ctx for e in access_list] == [reader, w2]


class TestWriteStillLatest:
    def test_is_write_still_latest(self):
        access_list = AccessList()
        a = make_ctx(1)
        first = write_entry(a, 0)
        access_list.append(first)
        assert access_list.is_write_still_latest(first)
        second = write_entry(a, 1)
        access_list.append(second)
        assert not access_list.is_write_still_latest(first)
        assert access_list.is_write_still_latest(second)


class TestPredecessors:
    def test_writes_only_filter(self):
        access_list = AccessList()
        w, r, me = make_ctx(1), make_ctx(2), make_ctx(3)
        access_list.append(write_entry(w))
        access_list.append(read_entry(r, (1, 0)))
        assert access_list.predecessors_of_tail(me, writes_only=True) == {w}
        assert access_list.predecessors_of_tail(me, writes_only=False) == {w, r}

    def test_own_entries_ignored(self):
        access_list = AccessList()
        me = make_ctx(1)
        access_list.append(write_entry(me))
        assert access_list.predecessors_of_tail(me, writes_only=False) == set()


def test_status_helpers():
    ctx = make_ctx(1)
    assert ctx.is_active()
    ctx.status = TxnStatus.COMMITTED
    assert ctx.is_terminal()


class TestRemoveTxnSinglePass:
    """Behaviour pins for the single-pass ``remove_txn`` rewrite: same
    results as the old filter, plus no reallocation when nothing matches."""

    def test_removes_all_entries_of_txn(self):
        access_list = AccessList()
        a, b = make_ctx(1), make_ctx(2)
        access_list.append(write_entry(a, 0))
        access_list.append(read_entry(a, (1, 0)))
        access_list.append(write_entry(a, 1))
        assert access_list.remove_txn(a) == 0  # entries left
        assert len(access_list) == 0
        access_list.append(write_entry(b))
        assert access_list.latest_visible_write().ctx is b

    def test_preserves_order_of_survivors(self):
        access_list = AccessList()
        a, b, c = make_ctx(1), make_ctx(2), make_ctx(3)
        access_list.append(write_entry(b, 0))
        access_list.append(write_entry(a, 0))
        access_list.append(read_entry(c, (2, 0)))
        access_list.append(write_entry(a, 1))
        access_list.append(write_entry(c, 0))
        access_list.remove_txn(a)
        survivors = [(e.ctx.txn_id, e.kind) for e in access_list]
        assert survivors == [(2, AccessKind.WRITE), (3, AccessKind.READ),
                             (3, AccessKind.WRITE)]

    def test_no_hit_leaves_list_object_untouched(self):
        access_list = AccessList()
        a = make_ctx(1)
        access_list.append(write_entry(a))
        access_list.append(read_entry(a, (1, 0)))
        before = access_list._entries
        assert access_list.remove_txn(make_ctx(9)) == 2
        # the miss path must not rebuild the list (identity, not equality)
        assert access_list._entries is before
        assert len(access_list) == 2

    def test_empty_list_noop(self):
        access_list = AccessList()
        assert access_list.remove_txn(make_ctx(1)) == 0
        assert len(access_list) == 0

    def test_hit_at_head_and_tail(self):
        access_list = AccessList()
        a, b = make_ctx(1), make_ctx(2)
        access_list.append(write_entry(a, 0))
        access_list.append(write_entry(b, 0))
        access_list.append(write_entry(a, 1))
        assert access_list.remove_txn(a) == 1
        assert [e.ctx.txn_id for e in access_list] == [2]

    def test_idempotent(self):
        access_list = AccessList()
        a, b = make_ctx(1), make_ctx(2)
        access_list.append(write_entry(a))
        access_list.append(write_entry(b))
        access_list.remove_txn(a)
        access_list.remove_txn(a)
        assert [e.ctx.txn_id for e in access_list] == [2]


class TestEmptySentinel:
    """A record shares the frozen EMPTY_ACCESS_LIST while it holds no
    entry; ``Record.publish_list`` is the one way to get a mutable list."""

    def test_sentinel_cannot_be_mutated(self):
        a = make_ctx(1)
        with pytest.raises(AttributeError):
            EMPTY_ACCESS_LIST.append(write_entry(a))
        with pytest.raises(AttributeError):
            EMPTY_ACCESS_LIST.insert_read_before_writes(read_entry(a, (0, 0)))
        with pytest.raises(AttributeError):
            EMPTY_ACCESS_LIST.insert_read_after_version(
                read_entry(a, (0, 0)), (0, 0))
        assert len(EMPTY_ACCESS_LIST) == 0

    def test_sentinel_reads_as_empty(self):
        a = make_ctx(1)
        assert EMPTY_ACCESS_LIST.latest_visible_write() is None
        assert EMPTY_ACCESS_LIST.latest_write_of(a) is None
        assert EMPTY_ACCESS_LIST.predecessors_of_tail(a, False) == set()
        assert EMPTY_ACCESS_LIST.txns_present() == set()
        EMPTY_ACCESS_LIST.remove_txn(a)
        assert list(EMPTY_ACCESS_LIST) == []

    def test_fresh_record_shares_sentinel(self):
        first = Record((1,), {"v": 0}, (0, 0))
        second = Record((2,), None, (0, 1))
        assert first.access_list is EMPTY_ACCESS_LIST
        assert second.access_list is EMPTY_ACCESS_LIST

    def test_publish_list_swaps_in_own_list_once(self):
        record, other = Record((1,), {"v": 0}, (0, 0)), Record((2,), {}, (0, 1))
        own = record.publish_list()
        assert own is not EMPTY_ACCESS_LIST
        assert record.access_list is own
        assert record.publish_list() is own
        assert other.publish_list() is not own
        a = make_ctx(1)
        own.append(write_entry(a))
        assert record.access_list.latest_visible_write().ctx is a
        assert len(EMPTY_ACCESS_LIST) == 0
