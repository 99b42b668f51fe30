"""Single-node admission is the 1-shard cluster.

The same seeded open-loop run with ``cluster=None`` and with
``ClusterConfig(n_shards=1)`` must do the same thing: equal summary, equal
conservation ledger, and the same trace, metrics and timeline up to
exactly what the cluster layer adds (``shard`` on ARRIVAL, the
``cluster_*`` metric rows, the ``commits_shard0`` timeline column) — which
a single-node run must not emit at all (only-when-fed).  This is what
lets one frontend serve both."""

import copy

import pytest

from repro.bench.runner import run_protocol
from repro.cc import make_cc
from repro.config import ClusterConfig, FrontendConfig, SimConfig
from repro.obs import EventKind, MetricsRegistry
from repro.obs.timeline import TimelineSampler
from repro.obs.tracing import MemorySink

from tests.helpers import CounterWorkload, FRONTEND_LEDGER

#: comfortably under capacity / far over it with a deadline shorter than a
#: full queue's wait, so entries are evicted, expire queued and in flight,
#: and run out of retries
FRONTENDS = {
    "underload": FrontendConfig(arrival_rate=60_000.0, queue_cap=32,
                                deadline=4_000.0, retry_budget=5),
    "overload": FrontendConfig(arrival_rate=600_000.0, queue_cap=32,
                               deadline=60.0, retry_budget=1,
                               shed_policy="reject-oldest"),
}


def run(cluster, frontend):
    config = SimConfig(n_workers=4, duration=6_000.0, warmup=500.0, seed=19,
                       frontend=frontend, cluster=cluster)
    sink, metrics = MemorySink(), MetricsRegistry()
    timeline = TimelineSampler(window=500.0, n_workers=config.n_workers)
    result = run_protocol(lambda: CounterWorkload(n_keys=4), make_cc("silo"),
                          config, trace_sink=sink, metrics=metrics,
                          timeline=timeline)
    assert result.invariant_violations == []
    events = [copy.deepcopy(event.to_dict()) for event in sink.events]
    return result, events, metrics.snapshot(), timeline.rows()


@pytest.mark.parametrize("load", list(FRONTENDS))
def test_one_shard_cluster_is_the_single_node_run(load):
    single, single_events, single_metrics, single_rows = run(
        None, FRONTENDS[load])
    sharded, sharded_events, sharded_metrics, sharded_rows = run(
        ClusterConfig(n_shards=1), FRONTENDS[load])

    assert single.stats.summary() == sharded.stats.summary()
    assert single.stats.total_commits > 0
    for name in FRONTEND_LEDGER:
        assert getattr(single.frontend, name) == \
            getattr(sharded.frontend, name), name
    if load == "overload":
        shed = single.stats.shed
        assert shed["evicted"] and shed["deadline_queue"] \
            and shed["retry_budget"], shed
    # the timeline differs by exactly the per-shard commit column
    assert all(row.pop("commits_shard0") == row["commits"]
               for row in sharded_rows)
    assert sharded_rows == single_rows

    # the trace differs by exactly the ARRIVAL event's shard attr ...
    dropped = 0
    for event in sharded_events:
        if event["kind"] == EventKind.ARRIVAL:
            assert event["attrs"].pop("shard") == 0
            dropped += 1
    assert dropped == single.frontend.arrivals
    assert sharded_events == single_events
    # ... which a single-node run never emits
    assert not any("shard" in event["attrs"] for event in single_events
                   if event["kind"] == EventKind.ARRIVAL)

    # the metrics differ by exactly the cluster_* rows
    assert any(row["name"].startswith("cluster_") for row in sharded_metrics)
    assert not any(row["name"].startswith("cluster_")
                   for row in single_metrics)
    assert [row for row in sharded_metrics
            if not row["name"].startswith("cluster_")] == single_metrics
