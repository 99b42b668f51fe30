"""The durable view: one shared t=0 image plus an overlay of durable
writes.  It must be indistinguishable — byte for byte — from the
``Database`` copy it replaced, never touch its base, and cost a durable
cold start exactly one O(rows) pass when the fault plan can crash — and
none at all when it cannot."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import run_named, run_protocol
from repro.cc import make_cc
from repro.cluster.workloads import make_cluster_tpcc_factory
from repro.config import ClusterConfig, DurabilityConfig, SimConfig
from repro.durability import DurabilityManager, DurableView, LogRecord, \
    WriteImage, apply_record
from repro.errors import ReproError
from repro.faults import FaultPlan, ScriptedFault
from repro.sim.scheduler import Scheduler
from repro.storage.database import Database, diff_snapshots
from repro.workloads.tpcc import TPCCScale, make_tpcc_factory

from tests.helpers import CounterWorkload, view_snapshots_at_node_crash

SMALL_TPCC = TPCCScale(n_warehouses=1, districts_per_warehouse=4,
                       customers_per_district=40, n_items=80,
                       initial_orders_per_district=12)
SMALL_TPCC_2WH = TPCCScale(n_warehouses=2, districts_per_warehouse=4,
                           customers_per_district=40, n_items=80,
                           initial_orders_per_district=12)


def row(n, tags):
    return {"n": n, "tags": list(tags), "meta": {"depth": [n]}}


def make_base():
    db = Database(["A", "B"])
    for k in range(4):
        db.load("A", (k,), row(k, [k]))
    db.load("B", (0,), row(100, []))
    return db.snapshot()


# one write: (table, key, value-or-None); "C" is absent from the base,
# keys 4..5 of "A" are unseen, so the sequences cover updates, inserts,
# deletes, delete-then-reinsert and writes that create a table
writes = st.tuples(
    st.sampled_from(["A", "B", "C"]),
    st.integers(min_value=0, max_value=5),
    st.one_of(st.none(),
              st.tuples(st.integers(0, 9),
                        st.lists(st.integers(0, 9), max_size=3))))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(writes, min_size=1, max_size=4), max_size=8))
def test_view_snapshot_is_byte_equal_to_the_database_copy(txns):
    base = make_base()
    pristine = pickle.dumps(base)
    reference = Database.from_snapshot(base)
    view = DurableView(base)
    for seqno, txn in enumerate(txns, start=1):
        images = [
            WriteImage(table, (k,),
                       None if value is None else row(*value),
                       vid=(seqno, order))
            for order, (table, k, value) in enumerate(txn)]
        record = LogRecord(seqno, 1, seqno, 0, "t", 0.0, 1.0, images)
        apply_record(reference, record)
        view.apply(record)
        # the log record keeps living after the flush: an in-place edit
        # of its nested values must not reach what was applied
        for image in images:
            if image.value is not None:
                image.value["tags"].append(-1)
                image.value["meta"]["depth"].clear()
    merged = view.snapshot()
    assert pickle.dumps(merged) == pickle.dumps(reference.snapshot())
    # the snapshot is detached: scribbling on it reaches neither the
    # view nor the shared base
    for rows in merged.values():
        for _vid, value in rows.values():
            value["tags"].append(-2)
            value["meta"]["depth"].append(-2)
    assert pickle.dumps(view.snapshot()) == \
        pickle.dumps(reference.snapshot())
    assert pickle.dumps(base) == pristine


def test_get_has_three_outcomes():
    base = make_base()
    view = DurableView(base)
    # a live row straight from the base
    assert view.get("A", (1,)) == base["A"][(1,)]
    # a key (and a table) no durable state ever held
    assert view.get("A", (9,)) is None
    assert view.get("nope", (0,)) is None
    view.apply(LogRecord(1, 1, 7, 0, "t", 0.0, 1.0, [
        WriteImage("A", (1,), None, vid=(7, 0)),
        WriteImage("A", (9,), row(9, [9]), vid=(7, 1)),
    ]))
    # a durable tombstone shadows the base row, keeping its version id
    assert view.get("A", (1,)) == ((7, 0), None)
    # a live row that exists only in the overlay
    assert view.get("A", (9,)) == ((7, 1), row(9, [9]))
    assert view.get("A", (2,)) == base["A"][(2,)]


def durable_config(**kwargs):
    return SimConfig(n_workers=4, duration=2_000.0, warmup=0.0, seed=3,
                     durability=DurabilityConfig(epoch_length=400.0),
                     **kwargs)


def count_copies(monkeypatch):
    """Count ``Database.snapshot`` / ``Database.from_snapshot`` calls;
    returns (running counts, counts at the first simulated event)."""
    calls = {"snapshot": 0, "from_snapshot": 0}
    at_first_event = {}
    snapshot = Database.snapshot
    from_snapshot = Database.from_snapshot.__func__
    run = Scheduler.run

    def counted_snapshot(self):
        calls["snapshot"] += 1
        return snapshot(self)

    def counted_from_snapshot(cls, *args, **kwargs):
        calls["from_snapshot"] += 1
        return from_snapshot(cls, *args, **kwargs)

    def stamped_run(self, *args, **kwargs):
        at_first_event.update(calls)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Database, "snapshot", counted_snapshot)
    monkeypatch.setattr(Database, "from_snapshot",
                        classmethod(counted_from_snapshot))
    monkeypatch.setattr(Scheduler, "run", stamped_run)
    return calls, at_first_event


def inert_crash_plan(config):
    """Crash-capable, but the crash is scripted after the horizon."""
    return FaultPlan(events=[ScriptedFault(time=config.duration + 1.0,
                                           kind="node_crash")])


def test_crash_free_cold_start_copies_nothing(monkeypatch):
    """No fault plan can crash this run, so it never copies the database
    — not at t=0 and not at the periodic checkpoints it still counts."""
    calls, at_first_event = count_copies(monkeypatch)
    config = SimConfig(n_workers=4, duration=2_000.0, warmup=0.0, seed=3,
                       durability=DurabilityConfig(epoch_length=400.0,
                                                   checkpoint_interval=500.0))
    result = run_protocol(make_tpcc_factory(scale=SMALL_TPCC),
                          make_cc("silo"), config)
    assert result.invariant_violations == []
    assert at_first_event == {"snapshot": 0, "from_snapshot": 0}
    assert calls == {"snapshot": 0, "from_snapshot": 0}
    manager = result.durability
    assert manager.durable_log, "the run must have flushed something"
    assert manager.checkpoints == [] and manager.durable_view is None
    # the modelled checkpoints are counted as before: t=0 plus every
    # 500 ticks up to the horizon
    assert manager.checkpoints_taken == 5


def test_crash_capable_cold_start_takes_one_pass_over_the_database(
        monkeypatch):
    """The pass-count guard: before the first simulated event a durable
    run whose plan can crash snapshots the database exactly once and never
    materialises a second one (a count, not a timing)."""
    calls, at_first_event = count_copies(monkeypatch)
    config = durable_config()
    result = run_protocol(make_tpcc_factory(scale=SMALL_TPCC),
                          make_cc("silo"), config,
                          fault_plan=inert_crash_plan(config))
    assert result.invariant_violations == []
    assert at_first_event == {"snapshot": 1, "from_snapshot": 0}
    # no crash fired and checkpoint_interval == 0: nothing later either
    assert calls == {"snapshot": 1, "from_snapshot": 0}
    manager = result.durability
    assert manager.durable_log, "the run must have flushed something"
    assert manager.checkpoints[0].snapshot is manager.durable_view.base


def test_crash_needs_a_crash_capable_plan():
    """A manager installed for a crash-free run has nothing to recover
    from; a crash there is a wiring error, named as one."""
    result = run_protocol(lambda: CounterWorkload(n_keys=8), make_cc("silo"),
                          durable_config())
    with pytest.raises(ReproError, match="node_crash.*fault plan scripts"):
        result.durability.node_crash()
    assert result.durability.crash_count == 0
    cluster = SimConfig(n_workers=4, duration=1_000.0, warmup=0.0, seed=3,
                        durability=DurabilityConfig(epoch_length=400.0),
                        cluster=ClusterConfig(n_shards=2))
    result = run_protocol(
        make_cluster_tpcc_factory(2, 4, n_warehouses=2, seed=3,
                                  scale=SMALL_TPCC_2WH),
        make_cc("silo"), cluster)
    with pytest.raises(ReproError, match="shard_crash.*fault plan scripts"):
        result.durability.shard_crash(1)
    assert result.durability.shard_crash_count == 0


def test_constructor_does_no_per_row_work(monkeypatch):
    calls = []
    snapshot = Database.snapshot
    monkeypatch.setattr(Database, "snapshot",
                        lambda self: calls.append(1) or snapshot(self))
    workload = CounterWorkload(n_keys=8)
    db = workload.build_database()
    manager = DurabilityManager(durable_config(), db, workload, None, None)
    assert calls == []
    assert manager.durable_view is None and manager.checkpoints == []


def test_node_crash_view_equals_recovered_state(monkeypatch):
    """Single-node crash cell: the oracle is clean, and at the crash the
    view's merged snapshot is the recovered snapshot — same rows, same
    version ids, same iteration order."""
    at_crash = view_snapshots_at_node_crash(monkeypatch, DurabilityManager)
    config = SimConfig(n_workers=4, duration=6_000.0, seed=19, warmup=0.0,
                       durability=DurabilityConfig(
                           epoch_length=400.0, checkpoint_interval=1_500.0))
    plan = FaultPlan(events=[ScriptedFault(time=2_750.0, kind="node_crash")],
                     name="node_crash")
    result = run_named(lambda: CounterWorkload(n_keys=8), "silo", config,
                       fault_plan=plan)
    manager = result.durability
    assert result.invariant_violations == []
    assert manager.violations == []
    recovered = manager.recoveries[0].recovered_snapshot
    assert manager.recoveries[0].durable_seqno > 0
    assert diff_snapshots(at_crash[0], recovered) == []
    assert pickle.dumps(at_crash[0]) == pickle.dumps(recovered)
    # the run went on: the view kept folding, the base never moved
    assert manager.max_acked_seqno > manager.recoveries[0].durable_seqno
    initial = CounterWorkload(n_keys=8).build_database().snapshot()
    assert pickle.dumps(manager.durable_view.base) == pickle.dumps(initial)
