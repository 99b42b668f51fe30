"""A crash-free durable run keeps no recovery-only state, and that is
unobservable.

The t=0 image, the checkpoint copies, the durable view, the durable-vid
set and the log's write images and read sets are read only by a scripted
``node_crash`` / ``shard_crash``.  So the same seeded durable run, once
with no fault plan and once with an *inert* crash-capable plan — a
``node_crash`` scripted after the horizon, which never fires — must
produce byte-equal summaries, traces, metrics and log records (identity
and size), while only the second ever copies the database or a write."""

import io
import os

import pytest

from repro.bench.runner import run_named
from repro.cluster.workloads import make_cluster_tpcc_factory
from repro.config import ClusterConfig, DurabilityConfig, SimConfig
from repro.core.backoff import BackoffPolicy
from repro.core.policy import CCPolicy
from repro.faults import FaultPlan, ScriptedFault
from repro.obs import MetricsRegistry, write_jsonl
from repro.obs.tracing import MemorySink
from repro.sim.scheduler import Scheduler
from repro.storage.database import Database
from repro.workloads.tpcc import TPCCScale, make_tpcc_factory, tpcc_spec

from tests.helpers import CounterWorkload

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "harness", "fixtures")


def silo_single():
    config = SimConfig(n_workers=4, duration=6_000.0, warmup=0.0, seed=19,
                       durability=DurabilityConfig(epoch_length=400.0))
    return lambda: CounterWorkload(n_keys=8), "silo", config, {}


def wh_policies(fixture):
    return {
        "policy": CCPolicy.load(tpcc_spec(), os.path.join(
            FIXTURES, f"policy_tpcc_{fixture}_quick.json")),
        "backoff_policy": BackoffPolicy.load(os.path.join(
            FIXTURES, f"backoff_tpcc_{fixture}_quick.json")),
    }


def polyjuice_wh1():
    """The wh1 learned-policy fixture, with periodic checkpoints."""
    config = SimConfig(n_workers=8, duration=4_000.0, warmup=0.0, seed=5,
                       durability=DurabilityConfig(
                           checkpoint_interval=1_000.0))
    return make_tpcc_factory(n_warehouses=1, seed=5), "polyjuice", config, \
        wh_policies("wh1")


def cluster2_2pc(cc_name="silo"):
    """Two shards, half the transactions cross-shard (2PC)."""
    scale = TPCCScale(n_warehouses=2, districts_per_warehouse=4,
                      customers_per_district=40, n_items=80,
                      initial_orders_per_district=12)
    config = SimConfig(n_workers=4, duration=6_000.0, warmup=0.0, seed=31,
                       durability=DurabilityConfig(epoch_length=500.0,
                                                   checkpoint_interval=2_000.0),
                       cluster=ClusterConfig(n_shards=2,
                                             cross_shard_ratio=0.5))
    factory = make_cluster_tpcc_factory(2, 4, cross_shard_ratio=0.5,
                                        n_warehouses=2, seed=31, scale=scale)
    policies = wh_policies("wh8") if cc_name == "polyjuice" else {}
    return factory, cc_name, config, policies


SHAPES = {"silo_single": silo_single, "polyjuice_wh1": polyjuice_wh1,
          "cluster2_2pc": cluster2_2pc,
          "cluster2_2pc_polyjuice": lambda: cluster2_2pc("polyjuice")}


def count_snapshots(monkeypatch) -> dict:
    """Count ``Database.snapshot`` calls overall and before the first
    simulated event."""
    counts = {"total": 0, "before_run": None}
    snapshot = Database.snapshot
    run = Scheduler.run

    def counted_snapshot(self):
        counts["total"] += 1
        return snapshot(self)

    def stamped_run(self, *args, **kwargs):
        counts["before_run"] = counts["total"]
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Database, "snapshot", counted_snapshot)
    monkeypatch.setattr(Scheduler, "run", stamped_run)
    return counts


def run_shape(shape, plan):
    factory, cc_name, config, policies = shape
    sink, metrics = MemorySink(), MetricsRegistry()
    result = run_named(factory, cc_name, config, trace_sink=sink,
                       metrics=metrics, fault_plan=plan, **policies)
    assert result.invariant_violations == []
    trace = io.StringIO()
    write_jsonl(sink.events, trace)
    return result, (repr(result.stats.summary()), trace.getvalue(),
                    metrics.to_json())


def log_facts(manager):
    """What a crash-free run's log must share with a crash-capable one:
    each durable record's kind, identity and size, per shard and merged,
    and the byte total."""
    def facts(records):
        return [(type(r).__name__, r.digest(), r.nbytes) for r in records]
    return (facts(manager.durable_log),
            [facts(log) for log in manager.shard_logs],
            manager.log_records_total, manager.log_bytes_total)


@pytest.mark.parametrize("name", list(SHAPES))
def test_recovery_state_is_unobservable_in_a_crash_free_run(name,
                                                            monkeypatch):
    shape = SHAPES[name]()
    config = shape[2]
    inert = FaultPlan(events=[ScriptedFault(time=config.duration + 1.0,
                                            kind="node_crash")],
                      name="inert_node_crash")
    assert inert.scripts_crash and not FaultPlan().scripts_crash

    counts = count_snapshots(monkeypatch)
    plain, plain_outputs = run_shape(shape, None)
    plain_counts = dict(counts)
    counts.update(total=0, before_run=None)
    armed, armed_outputs = run_shape(shape, inert)

    summary, trace, metrics = plain_outputs
    assert armed_outputs[0] == summary
    assert armed_outputs[1] == trace
    assert armed_outputs[2] == metrics
    assert plain.durability.acked_commits > 0
    assert armed.fault_counts == {} and armed.durability.crash_count == 0
    if config.cluster is not None:
        assert plain.durability.decision_messages > 0, "no 2PC commit ran"

    # the same log records, sizes and bytes; only the crash-capable run
    # keeps the write images and read sets a crash would replay or chase
    assert log_facts(plain.durability) == log_facts(armed.durability)
    assert not any(r.writes or r.reads
                   for r in plain.durability.durable_log)
    armed_log = armed.durability.durable_log
    assert any(r.writes for r in armed_log)
    if config.cluster is not None:
        assert any(r.reads for r in armed_log)

    # only the crash-capable run copies the database: once before the
    # first event (the t=0 image), then once per periodic checkpoint
    assert plain_counts == {"total": 0, "before_run": 0}
    assert counts["before_run"] == 1
    assert counts["total"] == armed.durability.checkpoints_taken
    assert plain.durability.checkpoints_taken == \
        armed.durability.checkpoints_taken
    if config.durability.checkpoint_interval > 0:
        assert armed.durability.checkpoints_taken > 1
