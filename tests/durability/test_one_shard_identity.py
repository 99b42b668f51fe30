"""Single-node durability is the 1-shard cluster.

The same seeded durable run with ``cluster=None`` and with
``ClusterConfig(n_shards=1)`` must do the same thing: equal summary, equal
durable log, and the same trace and metrics up to exactly the attributes
the cluster layer adds (``shards`` on EPOCH, ``in_doubt`` on NODE_CRASH,
the ``cluster_*`` metric rows) — which a single-node run must not emit at
all (only-when-fed).  This is what lets one durability core serve both."""

import copy

import pytest

from repro.bench.runner import run_protocol
from repro.cc import make_cc
from repro.config import ClusterConfig, DurabilityConfig, SimConfig
from repro.faults import FaultPlan, ScriptedFault
from repro.obs import EventKind, MetricsRegistry
from repro.obs.tracing import MemorySink

from tests.helpers import CounterWorkload

#: attrs only a cluster run emits: event kind -> attr name
CLUSTER_ATTRS = {EventKind.EPOCH: "shards", EventKind.NODE_CRASH: "in_doubt"}


def run(cluster, crash: bool):
    config = SimConfig(
        n_workers=4, duration=6_000.0, warmup=0.0, seed=19,
        durability=DurabilityConfig(epoch_length=400.0,
                                    checkpoint_interval=1_500.0),
        cluster=cluster)
    plan = FaultPlan(events=[ScriptedFault(time=2_750.0, kind="node_crash")])
    sink, metrics = MemorySink(), MetricsRegistry()
    result = run_protocol(lambda: CounterWorkload(n_keys=8), make_cc("silo"),
                          config, trace_sink=sink, metrics=metrics,
                          fault_plan=plan if crash else None)
    assert result.invariant_violations == []
    assert result.durability.crash_count == (1 if crash else 0)
    events = [copy.deepcopy(event.to_dict()) for event in sink.events]
    return result, events, metrics.snapshot()


@pytest.mark.parametrize("crash", [False, True], ids=["no_crash", "node_crash"])
def test_one_shard_cluster_is_the_single_node_run(crash):
    single, single_events, single_metrics = run(None, crash)
    sharded, sharded_events, sharded_metrics = run(
        ClusterConfig(n_shards=1), crash)

    assert single.stats.summary() == sharded.stats.summary()
    assert [r.digest() for r in single.durability.durable_log] == \
        [r.digest() for r in sharded.durability.durable_log]
    assert len(single.durability.durable_log) > 0

    # the trace differs by exactly the cluster-only attrs ...
    dropped = 0
    for event in sharded_events:
        name = CLUSTER_ATTRS.get(event["kind"])
        if name is not None:
            del event["attrs"][name]
            dropped += 1
    assert dropped > 0
    assert sharded_events == single_events
    # ... which a single-node run never emits
    assert not any(CLUSTER_ATTRS.get(event["kind"]) in event["attrs"]
                   for event in single_events if "attrs" in event)

    # the metrics differ by exactly the cluster_* rows
    assert any(row["name"].startswith("cluster_") for row in sharded_metrics)
    assert not any(row["name"].startswith("cluster_")
                   for row in single_metrics)
    assert [row for row in sharded_metrics
            if not row["name"].startswith("cluster_")] == single_metrics
