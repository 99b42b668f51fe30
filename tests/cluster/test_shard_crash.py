"""Single-shard crash: degraded-mode operation on the survivors,
oracle cleanliness, determinism, and the only-when-fed discipline of
the new observability surface.

The scripted ``shard_crash`` fault halts exactly one shard — its WAL
truncates to *its own* persistent epoch, its pinned workers die, and
transactions staged only in the truncated suffix are voided
cluster-wide — while the rest of the cluster keeps committing.  The
shard rejoins behind the live watermark after recovery plus the
scripted extra downtime.
"""

import pytest

from repro.bench.runner import run_protocol
from repro.cc import make_cc
from repro.config import (ClusterConfig, DurabilityConfig, FrontendConfig,
                          SimConfig)
from repro.cluster.durability import ClusterDurability, ShardCrashReport
from repro.cluster.workloads import (make_cluster_micro_factory,
                                     make_cluster_tpcc_factory)
from repro.faults import FaultPlan, ScriptedFault
from repro.faults.chaos import run_chaos_cell
from repro.frontend import SHED_SHARD_DOWN
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import _summary_from_metrics, render_markdown
from repro.obs.timeline import TimelineSampler

DURATION = 8_000.0
N_SHARDS = 4
N_WORKERS = 8
WINDOW = 1_000.0


def make_config(seed=29, **kwargs):
    return SimConfig(
        n_workers=N_WORKERS, duration=DURATION, warmup=0.0, seed=seed,
        durability=DurabilityConfig(epoch_length=500.0,
                                    checkpoint_interval=2_000.0),
        cluster=ClusterConfig(n_shards=N_SHARDS, cross_shard_ratio=0.2),
        **kwargs)


def make_tpcc(seed=29):
    return make_cluster_tpcc_factory(N_SHARDS, N_WORKERS,
                                     cross_shard_ratio=0.2, n_warehouses=8,
                                     seed=seed)


def crash_plan(shard=1, time=DURATION / 2.0, downtime=1_500.0):
    return FaultPlan(events=[ScriptedFault(
        time=time, kind="shard_crash", worker=shard, downtime=downtime)],
        name="one-shard-crash")


def test_survivors_commit_in_every_degraded_window():
    """The acceptance bar: a mid-run crash of one shard must not stop
    the other three — every timeline window overlapping the outage has
    commits."""
    timeline = TimelineSampler(window=WINDOW, n_workers=N_WORKERS)
    result = run_protocol(make_tpcc(), make_cc("silo"), make_config(),
                          fault_plan=crash_plan(), timeline=timeline)
    assert result.invariant_violations == []
    durability = result.durability
    assert isinstance(durability, ClusterDurability)
    assert durability.shard_crash_count == 1
    report = durability.shard_crashes[0]
    assert isinstance(report, ShardCrashReport)
    assert report.shard == 1
    assert report.violations == []
    assert report.restart_time > report.time
    degraded = [row for row in timeline.rows()
                if any(key.startswith("down_shard") and row[key] > 0.0
                       for key in row)]
    assert degraded, "the outage must span at least one timeline window"
    for row in degraded:
        assert row["commits"] > 0, f"dead window during the outage: {row}"
    # the crashed shard rejoined: nothing is down at the end of the run
    assert not durability.runtime.any_down
    assert not any(durability.runtime.shard_down)


def test_shard_crash_cell_passes_every_oracle_at_four_shards():
    """Serializability (void-filtered), workload invariants, time
    accounting and the durability oracle on the 4-shard crash run."""
    cell = run_chaos_cell(make_tpcc(), "silo", make_config(), crash_plan())
    assert cell.ok, cell.violations
    assert cell.commits > 0


def test_degraded_admission_sheds_arrivals_for_the_down_shard():
    """Open-loop degraded mode: arrivals homed on the dead shard are
    shed at admission with the ``shard_down`` reason (not queued to
    rot), and remote accesses to it abort at first touch."""
    config = make_config(
        frontend=FrontendConfig(arrival_rate=100_000.0, queue_cap=64))
    factory = make_cluster_micro_factory(N_SHARDS, N_WORKERS,
                                         cross_shard_ratio=0.2)
    result = run_protocol(factory, make_cc("silo"), config,
                          fault_plan=crash_plan(downtime=2_000.0))
    assert result.invariant_violations == []
    assert result.stats.shed.get(SHED_SHARD_DOWN, 0) > 0
    runtime = result.durability.runtime
    assert runtime.shard_down_aborts > 0
    # after the rejoin the cluster heals: cross-shard traffic resumes
    assert runtime.cross_shard_commits > 0


def test_shard_crash_metrics_feed_the_availability_report():
    """The crash leaves its marks in the metrics artifact, and the
    report renders an Availability section with degraded-window
    goodput computed from the timeline's down_shard columns."""
    metrics = MetricsRegistry()
    timeline = TimelineSampler(window=WINDOW, n_workers=N_WORKERS)
    result = run_protocol(make_tpcc(), make_cc("silo"), make_config(),
                          fault_plan=crash_plan(), metrics=metrics,
                          timeline=timeline)
    assert result.invariant_violations == []
    rows = {row["name"]: row["value"] for row in metrics.snapshot()}
    assert rows["cluster_shard_crashes"] == 1.0
    assert rows["cluster_shard_downtime_total"] > 0.0
    assert rows["cluster_voided_txns"] >= 0.0
    assert "cluster_blocked_in_doubt_total" in rows
    assert rows["cluster_shard_down_aborts"] >= 0.0
    text = render_markdown({
        "summary": _summary_from_metrics(metrics.snapshot()),
        "timeline": {"rows": timeline.rows()},
    })
    assert "## Availability" in text
    assert "shard crashes: 1" in text
    assert "degraded-mode rejections" in text
    assert "degraded window" in text


def test_crash_free_cluster_run_shows_no_availability_surface():
    """Only-when-fed: without a shard crash there are no down_shard
    timeline columns, no cluster_shard_* metric rows, and no
    Availability section — crash-free artifacts are unchanged."""
    metrics = MetricsRegistry()
    timeline = TimelineSampler(window=WINDOW, n_workers=N_WORKERS)
    result = run_protocol(make_tpcc(), make_cc("silo"), make_config(),
                          metrics=metrics, timeline=timeline)
    assert result.invariant_violations == []
    assert result.durability.shard_crash_count == 0
    rows = {row["name"] for row in metrics.snapshot()}
    assert "cluster_shard_crashes" not in rows
    assert "cluster_shard_downtime_total" not in rows
    assert "cluster_shard_down_aborts" not in rows
    assert not any(key.startswith("down_shard")
                   for row in timeline.rows() for key in row)
    text = render_markdown({
        "summary": _summary_from_metrics(metrics.snapshot()),
        "timeline": {"rows": timeline.rows()},
    })
    assert "## Availability" not in text


def test_same_seed_same_crash_same_numbers():
    """The crash, the voiding, the rejoin and the degraded window are
    all deterministic functions of (seed, plan)."""
    def run_once():
        result = run_protocol(make_tpcc(), make_cc("silo"), make_config(),
                              fault_plan=crash_plan())
        durability = result.durability
        report = durability.shard_crashes[0]
        return (result.stats.total_commits, result.stats.total_aborts,
                sorted(durability.lost_txn_ids), report.voided_txns,
                report.lost_unflushed, report.rolled_back_keys,
                report.recovery_ticks, report.restart_time,
                durability.shard_downtime_total)
    assert run_once() == run_once()


def test_log_commit_refuses_a_down_shard():
    """Model oracle: the commit path must never log to a down shard —
    degraded admission and the remote-access abort are supposed to
    make that unreachable, so reaching it is a loud error."""
    result = run_protocol(make_tpcc(), make_cc("silo"), make_config(),
                          fault_plan=crash_plan())
    # the guard never fired during a real degraded run
    assert result.invariant_violations == []
    assert result.durability.violations == []


def test_crashing_the_last_live_shard_is_skipped():
    """The injector refuses to take down the whole cluster through the
    single-shard path: with every other shard already down the event
    is skipped, not fired."""
    config = SimConfig(
        n_workers=4, duration=6_000.0, warmup=0.0, seed=7,
        durability=DurabilityConfig(epoch_length=500.0),
        cluster=ClusterConfig(n_shards=2, cross_shard_ratio=0.1))
    factory = make_cluster_tpcc_factory(2, 4, cross_shard_ratio=0.1,
                                        n_warehouses=4, seed=7)
    plan = FaultPlan(events=[
        ScriptedFault(time=2_000.0, kind="shard_crash", worker=0,
                      downtime=3_000.0),
        # shard 0 is still down at t=3000: crashing shard 1 would leave
        # zero live shards, so this event must be skipped
        ScriptedFault(time=3_000.0, kind="shard_crash", worker=1,
                      downtime=500.0),
    ], name="no-last-shard")
    result = run_protocol(factory, make_cc("silo"), config, fault_plan=plan)
    assert result.invariant_violations == []
    assert result.durability.shard_crash_count == 1
    assert result.durability.shard_crashes[0].shard == 0
