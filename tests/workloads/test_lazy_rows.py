"""The loaders leave every row raw, and a run builds a Record only for a
row a transaction reaches: invariant checks, the residue scan and the
durability layer read rows in place."""

import pytest

from repro.bench.runner import run_named
from repro.cc.seeds import occ_policy
from repro.cluster.tpce import make_cluster_tpce_factory
from repro.cluster.workloads import make_cluster_tpcc_factory
from repro.config import (ClusterConfig, DurabilityConfig, FrontendConfig,
                          SimConfig)
from repro.core.validation import storage_residue
from repro.sim.scheduler import Scheduler
from repro.storage.table import Table
from repro.workloads.micro import make_micro_factory
from repro.workloads.micro.workload import micro_spec
from repro.workloads.tpcc import TPCCScale, make_tpcc_factory, schema
from repro.workloads.tpce import make_tpce_factory


def built(db):
    return {(name, record.key) for name in db.table_names()
            for record in db.table(name).records()}


@pytest.mark.parametrize("factory", [
    make_cluster_tpcc_factory(4, 16, cross_shard_ratio=0.1,
                              n_warehouses=16, seed=3),
    make_tpce_factory(theta=1.0, seed=3),
    make_cluster_tpce_factory(2, 4, seed=3),
    make_micro_factory(theta=0.8),
], ids=["cluster_tpcc_16wh", "tpce", "cluster_tpce", "micro"])
def test_a_built_database_holds_no_record(factory):
    db = factory().build_database()
    assert db.total_rows() > 0
    assert built(db) == set()


def test_customers_with_one_last_name_share_its_string():
    db = make_tpcc_factory(n_warehouses=2, seed=3)().build_database()
    by_name = {}
    customers = db.table(schema.CUSTOMER)
    for key, value in customers.items():
        by_name.setdefault(value["c_last"], []).append(value["c_last"])
    # 300 customers a district: 300 names, each in all 20 districts
    assert len(by_name) == 300
    assert {len(names) for names in by_name.values()} == {20}
    assert all(len({id(name) for name in names}) == 1
               for names in by_name.values())
    assert built(db) == set()


def reached_rows(monkeypatch):
    """Record each (table, key) a record-building Table call returns while
    ``Scheduler.run`` runs (only transactions call them then)."""
    reached = set()
    in_run = [False]
    run = Scheduler.run
    get_record, ensure_record = Table.get_record, Table.ensure_record
    scan_committed = Table.scan_committed

    def noted(table, key):
        if in_run[0]:
            reached.add((table.name, key))

    def running(self, *args, **kwargs):
        in_run[0] = True
        try:
            return run(self, *args, **kwargs)
        finally:
            in_run[0] = False

    def noting_get(self, key):
        noted(self, key)
        return get_record(self, key)

    def noting_ensure(self, key, version_id):
        noted(self, key)
        return ensure_record(self, key, version_id)

    def noting_scan(self, *args, **kwargs):
        for key, record in scan_committed(self, *args, **kwargs):
            noted(self, key)
            yield key, record

    monkeypatch.setattr(Scheduler, "run", running)
    monkeypatch.setattr(Table, "get_record", noting_get)
    monkeypatch.setattr(Table, "ensure_record", noting_ensure)
    monkeypatch.setattr(Table, "scan_committed", noting_scan)
    return reached


def tpcc_single():
    config = SimConfig(n_workers=4, duration=3_000.0, warmup=0.0, seed=3)
    return make_tpcc_factory(n_warehouses=1, seed=3), "silo", config, {}


def cluster_open_durable():
    """The open-loop durable cluster shape, cut down: 4 shards, 2PC,
    per-shard WALs, admission control."""
    scale = TPCCScale(n_warehouses=4, customers_per_district=60,
                      n_items=200)
    config = SimConfig(
        n_workers=8, duration=3_000.0, warmup=0.0, seed=3,
        cluster=ClusterConfig(n_shards=4, cross_shard_ratio=0.1),
        durability=DurabilityConfig(),
        frontend=FrontendConfig(arrival_rate=40_000.0, queue_cap=64,
                                deadline=5_000.0, retry_budget=8))
    factory = make_cluster_tpcc_factory(4, 8, cross_shard_ratio=0.1,
                                        n_warehouses=4, seed=3, scale=scale)
    return factory, "silo", config, {}


def micro_polyjuice():
    config = SimConfig(n_workers=4, duration=3_000.0, warmup=0.0, seed=3)
    return make_micro_factory(theta=0.8), "polyjuice", config, \
        {"policy": occ_policy(micro_spec())}


@pytest.mark.parametrize("shape", [tpcc_single, cluster_open_durable,
                                   micro_polyjuice],
                         ids=lambda shape: shape.__name__)
def test_a_run_builds_records_only_for_rows_a_transaction_reached(
        shape, monkeypatch):
    factory, cc_name, config, policies = shape()
    holder = {}

    def keep():
        holder["workload"] = factory()
        return holder["workload"]

    reached = reached_rows(monkeypatch)
    result = run_named(keep, cc_name, config, **policies)
    assert result.stats.total_commits > 0
    assert result.invariant_violations == []
    db = holder["workload"].db
    assert storage_residue(db) == []
    assert holder["workload"].check_invariants() == []
    touched = built(db)
    assert touched and touched <= reached
    assert len(touched) < db.total_rows()
