"""One run with every opt-in layer on, pinned byte for byte, and the
runner's ignorance of layer metrics.

The run is cluster TPC-C on 2 shards with 2PC, per-shard WALs, open-loop
admission, the progress watchdog, rate-drawn aborts and a scripted
``shard_crash``, observed by a trace sink, a metrics registry, a timeline
and a time accountant.  Its whole metrics document, violations, fault
counts, watchdog fires, trace hash and timeline rows were recorded before
the layers took over their own install / finalize / invariant / metric
steps; any change to how a layer joins a run that moves a simulated
result, a metric or a trace byte fails here.  Re-record only after an
intended change to what a run computes::

    PYTHONPATH=src:. python tests/bench/test_run_lifecycle.py
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
from pathlib import Path

from repro.bench.runner import run_named
from repro.cluster.workloads import make_cluster_tpcc_factory
from repro.config import (ClusterConfig, DurabilityConfig, FrontendConfig,
                          SimConfig)
from repro.faults import FaultPlan, ScriptedFault
from repro.obs import (MemorySink, MetricsRegistry, TimelineSampler,
                       default_timeline_window, write_jsonl)
from repro.obs.profile import TimeAccountant

HERE = Path(__file__).resolve().parent
PIN = HERE / "data" / "every_layer_run.json"
RUNNER = HERE.parents[1] / "src" / "repro" / "bench" / "runner.py"

#: metric-name prefixes only a layer may write
LAYER_METRIC_PREFIXES = ("durability_", "frontend_", "cluster_",
                         "run_faults_", "run_crash_")


def every_layer_run() -> dict:
    """Run the pinned configuration; return everything the pin compares."""
    config = SimConfig(
        n_workers=8, duration=8000.0, warmup=0.0, seed=5,
        watchdog_window=5000.0,
        cluster=ClusterConfig(n_shards=2, cross_shard_ratio=0.2),
        durability=DurabilityConfig(epoch_length=500.0),
        frontend=FrontendConfig(arrival_rate=150_000.0, queue_cap=16,
                                deadline=2000.0))
    plan = FaultPlan(rates={"abort": 0.002},
                     events=[ScriptedFault(4000.0, "shard_crash", worker=1,
                                           downtime=1000.0)])
    sink = MemorySink()
    metrics = MetricsRegistry()
    timeline = TimelineSampler(default_timeline_window(config),
                               config.n_workers)
    factory = make_cluster_tpcc_factory(2, 8, cross_shard_ratio=0.2,
                                        n_warehouses=2, seed=5)
    result = run_named(factory, "silo", config, trace_sink=sink,
                       metrics=metrics, fault_plan=plan, timeline=timeline,
                       accountant=TimeAccountant(config.n_workers,
                                                 config.duration))
    trace = io.StringIO()
    write_jsonl(sink.events, trace)
    return {
        "metrics": metrics.to_json(),
        "invariant_violations": result.invariant_violations,
        "fault_counts": result.fault_counts,
        "livelock_fires": result.livelock_fires,
        "trace_sha256": hashlib.sha256(
            trace.getvalue().encode()).hexdigest(),
        "timeline_rows": json.loads(json.dumps(timeline.rows())),
    }


def test_every_layer_run_matches_the_pin():
    pin = json.loads(PIN.read_text())
    run = every_layer_run()
    assert run["metrics"] == json.dumps(pin["metrics"], indent=2)
    for key in ("invariant_violations", "fault_counts", "livelock_fires",
                "trace_sha256", "timeline_rows"):
        assert run[key] == pin[key], key
    # the scenario reaches every layer it names
    families = {row["name"].split("_")[0] for row in pin["metrics"]["metrics"]}
    assert families == {"cluster", "durability", "frontend", "run",
                        "timeline"}
    assert pin["fault_counts"] == {"abort": 20, "shard_crash": 1}


def test_the_runner_names_no_layer_metric():
    tree = ast.parse(RUNNER.read_text(), str(RUNNER))
    named = sorted(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith(LAYER_METRIC_PREFIXES))
    assert named == [], f"bench/runner.py names layer metrics: {named}"


if __name__ == "__main__":
    run = every_layer_run()
    run["metrics"] = json.loads(run["metrics"])
    os.makedirs(PIN.parent, exist_ok=True)
    PIN.write_text(json.dumps(run, indent=1) + "\n")
    print(f"wrote {PIN}")
