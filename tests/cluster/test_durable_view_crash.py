"""Crash paths over the overlay durable view on a 2-shard cluster: a
shard crash followed by a whole-cluster crash keeps every oracle clean
and the view equal to what recovery rebuilt, and the shard-crash
rollback restores a voided key from wherever its durable version lives —
the shared t=0 base, the overlay, or nowhere."""

import pytest

from repro.bench.runner import run_protocol
from repro.cc import make_cc
from repro.config import ClusterConfig, DurabilityConfig, SimConfig
from repro.cluster.durability import ClusterDurability
from repro.cluster.workloads import make_cluster_tpcc_factory
from repro.durability import LogRecord, WriteImage
from repro.faults import FaultPlan, ScriptedFault
from repro.faults.chaos import cluster_plans
from repro.storage.database import diff_snapshots
from repro.storage.record import INITIAL_TXN_ID
from repro.workloads.tpcc.schema import STOCK

from tests.helpers import view_snapshots_at_node_crash

DURATION = 6_000.0
N_SHARDS = 2


def crash_run():
    """The ``shard-crash-coordinator`` chaos plan (shard 0 down at mid-run,
    back 600 ticks after recovery) plus a whole-cluster crash once the
    shard has rejoined."""
    config = SimConfig(
        n_workers=4, duration=DURATION, warmup=0.0, seed=31,
        durability=DurabilityConfig(epoch_length=500.0,
                                    checkpoint_interval=2_000.0),
        cluster=ClusterConfig(n_shards=N_SHARDS, cross_shard_ratio=0.3))
    factory = make_cluster_tpcc_factory(N_SHARDS, 4, cross_shard_ratio=0.3,
                                        n_warehouses=4, seed=31)
    plans = {plan.name: plan for plan in cluster_plans(DURATION, N_SHARDS)}
    plan = FaultPlan(
        events=plans["shard-crash-coordinator"].events
        + [ScriptedFault(time=DURATION * 0.8, kind="node_crash")],
        name="shard-then-node-crash")
    result = run_protocol(factory, make_cc("silo"), config, fault_plan=plan)
    assert result.invariant_violations == []
    return result.durability


def test_shard_then_node_crash_view_equals_recovered_state(monkeypatch):
    at_crash = view_snapshots_at_node_crash(monkeypatch, ClusterDurability)
    manager = crash_run()
    assert manager.violations == []
    assert manager.shard_crash_count == 1 and manager.crash_count == 1
    assert manager.shard_crashes[0].time < manager.recoveries[0].time
    recovered = manager.recoveries[0].recovered_snapshot
    assert diff_snapshots(at_crash[0], recovered) == []
    assert {name: list(rows) for name, rows in at_crash[0].items()} == \
        {name: list(rows) for name, rows in recovered.items()}
    # voided installs never reached the view: none of their version ids
    # is durable anywhere in it
    voided = manager._void_txns
    assert not any(vid[0] in voided
                   for rows in at_crash[0].values()
                   for vid, _value in rows.values())


@pytest.fixture()
def manager():
    return crash_run()


def test_rollback_restores_from_base_overlay_or_tombstone(manager):
    view, db = manager.durable_view, manager.db
    table_name = STOCK
    staged = {(image.table, image.key)
              for record in manager._staged_records()
              for image in record.writes}
    overlay_keys = view._overlay[table_name]
    base_key = next(key for key in view.base[table_name]
                    if key not in overlay_keys
                    and (table_name, key) not in staged)
    overlay_key, fresh_key = (9_001, 1), (9_002, 1)
    view.apply(LogRecord(10**6, manager.persistent_epoch, 777, 0, "planted",
                         0.0, 1.0, [WriteImage(table_name, overlay_key,
                                               {"s_quantity": 5, "log": [1]},
                                               vid=(777, 0))]))
    # a voided transaction installed all three keys in the live database
    void_txn = 888
    images = [WriteImage(table_name, key, {"s_quantity": -1, "log": []},
                         vid=(void_txn, order))
              for order, key in enumerate([base_key, overlay_key,
                                           fresh_key])]
    table = db.table(table_name)
    for image in images:
        table.restore_row(image.key, dict(image.value), image.vid)
    lost = LogRecord(10**6 + 1, manager.current_epoch, void_txn, 0,
                     "planted", 0.0, 1.0, images)
    assert manager._rollback_voided({void_txn}, [lost]) == 3

    base_vid, base_value = view.base[table_name][base_key]
    restored = table.get_record(base_key)
    assert (restored.version_id, restored.value) == (base_vid, base_value)
    assert base_vid[0] == INITIAL_TXN_ID
    # handed over detached: the live row is not the shared base's dict
    assert restored.value is not base_value

    restored = table.get_record(overlay_key)
    assert restored.version_id == (777, 0)
    assert restored.value == {"s_quantity": 5, "log": [1]}
    restored.value["log"].append(2)
    assert view.get(table_name, overlay_key)[1]["log"] == [1]

    restored = table.get_record(fresh_key)
    assert (restored.version_id, restored.value) == \
        ((INITIAL_TXN_ID, -1), None)
