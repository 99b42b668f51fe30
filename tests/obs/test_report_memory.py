"""``build_report``'s memory is bounded by in-flight state, not trace length.

The report reads the trace in one streaming pass; every analyser keeps
per-worker, per-site or per-policy-state accumulators only.  Quadrupling
the run (and so the trace) must leave ``build_report``'s traced peak
almost flat — a reader that materialised the event list would grow by
several MiB here.
"""

import os
import tracemalloc

from repro.bench.runner import run_named
from repro.config import SimConfig
from repro.core.backoff import BackoffPolicy
from repro.core.policy import CCPolicy
from repro.obs import MemorySink, build_report, read_jsonl, write_jsonl
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "harness", "fixtures")
MIB = 1024 * 1024


def write_trace(path, duration):
    """The 1-warehouse, 16-worker polyjuice cell under the wh1 policy."""
    policy = CCPolicy.load(
        tpcc_spec(), os.path.join(FIXTURES, "policy_tpcc_wh1_quick.json"))
    backoff = BackoffPolicy.load(
        os.path.join(FIXTURES, "backoff_tpcc_wh1_quick.json"))
    sink = MemorySink()
    run_named(make_tpcc_factory(n_warehouses=1, seed=5), "polyjuice",
              SimConfig(n_workers=16, duration=duration, warmup=0.0, seed=5),
              policy=policy, backoff_policy=backoff, trace_sink=sink)
    return write_jsonl(sink.events, path), policy


def report_peak(path, policy):
    tracemalloc.start()
    try:
        report = build_report(trace_path=path, policy=policy)
        return tracemalloc.get_traced_memory()[1], report
    finally:
        tracemalloc.stop()


def test_report_peak_does_not_grow_with_trace_length(tmp_path):
    short_path = str(tmp_path / "short.jsonl")
    long_path = str(tmp_path / "long.jsonl")
    short_events, policy = write_trace(short_path, 2_000.0)
    long_events, _ = write_trace(long_path, 8_000.0)
    assert long_events > 3.5 * short_events

    short_peak, short_report = report_peak(short_path, policy)
    long_peak, long_report = report_peak(long_path, policy)
    assert long_peak - short_peak < 2 * MIB, (short_peak, long_peak)

    assert short_report["trace_events"] == short_events
    assert long_report["trace_events"] == len(read_jsonl(long_path))
    # the trace-only report still derives its timeline and audits the policy
    assert long_report["timeline"]["derived_from_trace"]
    assert long_report["policy_audit"]["states"][0]["actions"]
