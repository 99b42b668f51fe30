"""void_closure on hand-built log records: which transactions a single
shard's truncation takes down with it.

The seeds are the transactions whose records the dead shard lost; the
closure adds every staged (not yet committed) transaction that read a
version one of them wrote — transitively — so the acked prefix stays
dependency-closed.  Decision markers carry no transaction and already
void transactions are settled: neither joins or extends the set."""

from repro.cluster.durability import (DecisionMarker, DecisionRecord,
                                      PrepareRecord, void_closure)
from repro.durability import LogRecord
from repro.durability.log import lost_txns


def record(txn_id, reads=(), cls=LogRecord, **fields):
    return cls(txn_id, 3, txn_id, 0, "t", 0.0, 1.0, [],
               reads=frozenset(reads), **fields)


def test_no_seed_voids_nothing():
    staged = [record(2, reads={1}), record(3, reads={2})]
    assert void_closure(set(), staged, set()) == set()


def test_a_chain_of_reads_is_followed_to_its_end():
    # 1 is lost; 2 read 1, 3 read 2, 4 read 3 — staged in an order that
    # needs more than one pass — and 5 read only committed data
    staged = [record(4, reads={3}), record(3, reads={2}),
              record(2, reads={1, 90}), record(5, reads={90})]
    assert void_closure({1}, staged, set()) == {1, 2, 3, 4}


def test_every_record_class_that_carries_a_transaction_propagates():
    staged = [record(2, reads={1}, cls=PrepareRecord, coordinator=1),
              record(3, reads={2}, cls=DecisionRecord, participants=(1,))]
    assert void_closure({1}, staged, set()) == {1, 2, 3}


def test_a_decision_marker_neither_seeds_nor_propagates():
    marker = record(7, reads={1}, cls=DecisionMarker, origin=1)
    # truncating a marker loses no transaction: it is no seed ...
    assert lost_txns([marker, record(1)]) == {1}
    # ... and a staged marker that "read" a lost version pulls in
    # neither the old transaction it points at nor that one's readers
    staged = [marker, record(8, reads={7})]
    assert void_closure({1}, staged, set()) == {1}


def test_an_already_void_record_is_left_alone():
    # 2 was voided by an earlier crash: it is not re-added, and what read
    # *it* was settled back then — only readers of the new seed join
    staged = [record(2, reads={1}), record(3, reads={2}),
              record(4, reads={1})]
    assert void_closure({1}, staged, void={2}) == {1, 4}


def test_seeds_are_not_mutated():
    seeds = {1}
    void_closure(seeds, [record(2, reads={1})], set())
    assert seeds == {1}
