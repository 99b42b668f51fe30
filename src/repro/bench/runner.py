"""Run one simulated experiment: workload x CC protocol x configuration.

Handles the CormCC probe-and-pick federation (§7.2: measure OCC and 2PL,
run the better one) and supports scheduled callbacks (the Fig 10 policy
switch) and history recording (the serializability oracle).
"""

from __future__ import annotations

import dataclasses
from typing import (Callable, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from ..config import SimConfig
from ..errors import ConfigError
from ..frontend import Frontend
from ..rng import spawn_rng
from ..sim.collector import paused
from ..sim.scheduler import Scheduler
from ..sim.stats import RunStats
from ..sim.worker import Worker
from ..core.backoff import BackoffPolicy
from ..core.policy import CCPolicy
from ..core.validation import storage_residue
from ..cc.registry import make_cc
from ..workloads.base import Workload

if TYPE_CHECKING:
    # the opt-in layers are imported where run_protocol installs them
    from ..cluster.runtime import ClusterRuntime
    from ..durability.manager import DurabilityManager
    from ..faults.injector import FaultInjector
    from ..faults.plan import FaultPlan
    from ..obs.metrics import MetricsRegistry
    from ..obs.profile import TimeAccountant
    from ..obs.tracing import TraceSink

WorkloadFactory = Callable[[], Workload]
CCFactory = Callable[[], object]


class ExperimentResult:
    """Outcome of one experiment."""

    __slots__ = ("cc_name", "stats", "invariant_violations", "detail",
                 "fault_counts", "livelock_fires", "durability", "frontend")

    def __init__(self, cc_name: str, stats: RunStats,
                 invariant_violations: List[str],
                 detail: Optional[str] = None,
                 fault_counts: Optional[dict] = None,
                 livelock_fires: int = 0,
                 durability: Optional[DurabilityManager] = None,
                 frontend: Optional[Frontend] = None) -> None:
        self.cc_name = cc_name
        self.stats = stats
        self.invariant_violations = invariant_violations
        self.detail = detail
        #: injected-fault counts by kind (empty when no faults were active)
        self.fault_counts = fault_counts or {}
        #: progress-watchdog firings during the run
        self.livelock_fires = livelock_fires
        #: the run's durability manager (``None`` unless durability was on)
        self.durability = durability
        #: the run's open-loop frontend (``None`` for closed-loop runs)
        self.frontend = frontend

    @property
    def throughput(self) -> float:
        return self.stats.throughput()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ExperimentResult({self.cc_name}, {self.throughput:.0f} TPS)"


def run_protocol(workload_factory: WorkloadFactory, cc, config: SimConfig,
                 recorder=None,
                 callbacks: Sequence[Tuple[float, Callable]] = (),
                 check_invariants: bool = True,
                 trace_sink: Optional[TraceSink] = None,
                 accountant: Optional[TimeAccountant] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 timeline=None) -> ExperimentResult:
    """Execute one run of ``cc`` (an instantiated protocol) over a fresh
    database built by ``workload_factory``.

    ``callbacks`` are (time, fn(cc)) pairs — e.g. a mid-run policy switch.
    Observability is opt-in and free when off: ``trace_sink`` receives
    structured events, ``accountant`` receives the per-worker time
    decomposition, and ``metrics`` is populated with the run's counters
    after the simulation finishes (zero hot-path cost).

    ``fault_plan`` attaches a deterministic :class:`~repro.faults.FaultInjector`
    (its RNG derives from ``config.seed``); after a faulty run the storage
    residue invariant is checked alongside the workload invariants.
    """
    if getattr(cc, "requires_probe", False):
        return _run_probed(workload_factory, cc, config, recorder,
                           check_invariants, trace_sink, accountant, metrics,
                           fault_plan, timeline)
    with paused():
        # the collector sleeps from build to release: the world a run
        # builds is freed by reference counting, so nothing piles up
        workload = workload_factory()
        db = workload.build_database()
        runtime = None
        if config.cluster is not None:
            from ..cluster.cc import ClusterCC
            from ..cluster.runtime import ClusterRuntime
            from ..cluster.workloads import partitioner_for
            runtime = ClusterRuntime(
                config, partitioner_for(workload, config.cluster.n_shards))
            # shard the tables before CC setup (the executor caches the
            # table dict at setup time), and wrap the protocol so
            # transactional accesses are classified and charged
            runtime.shard_tables(db)
            cc = ClusterCC(cc, runtime)
        cc.setup(db, workload.spec, config)
        if recorder is not None:
            cc.recorder = recorder
        stats = RunStats(workload.type_names(), warmup_end=config.warmup,
                         collect_latency=config.collect_latency)
        injector = None
        if fault_plan is not None:
            from ..faults.injector import FAULT_RNG_SALT, FaultInjector
            injector = FaultInjector(fault_plan,
                                     spawn_rng(config.seed, FAULT_RNG_SALT))
        scheduler = Scheduler(config, trace=trace_sink,
                              accountant=accountant, faults=injector)
        try:
            if runtime is not None:
                runtime.install(scheduler)
            if timeline is not None:
                # the windowed run-insight sampler: the scheduler feeds it
                # waits, stats feeds commits/aborts/backoff, durability
                # feeds flushes
                scheduler.timeline = timeline
                stats.sampler = timeline
            manager = None
            if config.durability is not None:
                if runtime is not None:
                    from ..cluster.durability import ClusterDurability
                    manager = ClusterDurability(config, db, workload, cc,
                                                stats, runtime)
                else:
                    from ..durability.manager import DurabilityManager
                    manager = DurabilityManager(config, db, workload, cc,
                                                stats)
                scheduler.durability = manager
            frontend = None
            if config.frontend is not None:
                frontend = Frontend(
                    config, workload, stats,
                    backoff_policy=getattr(cc, "backoff_policy", None),
                    runtime=runtime)
            for worker_id in range(config.n_workers):
                worker = Worker(worker_id, scheduler, cc, workload, stats,
                                config, spawn_rng(config.seed, worker_id))
                scheduler.add_worker(worker)
            if manager is not None:
                manager.install(scheduler,
                                lambda wid, rng: Worker(wid, scheduler, cc,
                                                        workload, stats,
                                                        config, rng))
            if frontend is not None:
                # before injector.install: scripted burst events validate
                # against scheduler.frontend
                frontend.install(scheduler)
            if injector is not None:
                injector.install(scheduler)
            for time, fn in callbacks:
                scheduler.schedule_callback(time, lambda fn=fn: fn(cc))
            scheduler.run(config.duration)
            scheduler.finish_accounting()
            scheduler.close()
            if manager is not None:
                manager.finalize()
            if frontend is not None:
                frontend.finalize(config.duration)
            stats.start_time = 0.0
            stats.end_time = config.duration
            violations = (workload.check_invariants() if check_invariants
                          else [])
            if check_invariants and (injector is not None
                                     or frontend is not None):
                # the run may have swapped databases during node-crash
                # recovery; scan the one that is live at the end.  Under
                # overload the scan also proves shed / deadline-aborted
                # txns left no lock or access-list residue behind.
                final_db = manager.db if manager is not None else db
                violations.extend(storage_residue(final_db))
            if manager is not None:
                violations.extend(manager.violations)
            if frontend is not None and check_invariants:
                violations.extend(frontend.check_invariants())
            cc_name = getattr(cc, "name", "cc")
            if metrics is not None:
                _record_run_metrics(metrics, cc_name, stats, scheduler,
                                    injector, manager, frontend, runtime)
                if timeline is not None:
                    timeline.install_metrics(metrics, cc=cc_name)
            return ExperimentResult(cc_name, stats, violations,
                                    fault_counts=dict(injector.fired)
                                    if injector is not None else None,
                                    livelock_fires=scheduler.livelock_fires,
                                    durability=manager,
                                    frontend=frontend)
        finally:
            # after the finalizers, invariants and metrics (which still
            # read the scheduler's layers), also when an exception —
            # a LivelockError — escapes the run
            scheduler.release()


def _record_run_metrics(metrics: MetricsRegistry, cc_name: str,
                        stats: RunStats, scheduler: Scheduler,
                        injector: Optional[FaultInjector] = None,
                        manager: Optional[DurabilityManager] = None,
                        frontend: Optional[Frontend] = None,
                        runtime: Optional[ClusterRuntime] = None) -> None:
    """Populate the registry with one run's end-of-run aggregates."""
    metrics.gauge("run_throughput_tps", cc=cc_name).set(stats.throughput())
    metrics.gauge("run_abort_rate", cc=cc_name).set(stats.abort_rate())
    for type_name, count in stats.commits.items():
        metrics.counter("run_commits_total", cc=cc_name,
                        type=type_name).inc(count)
    for type_name, count in stats.aborts.items():
        metrics.counter("run_aborts_total", cc=cc_name,
                        type=type_name).inc(count)
    for reason, count in stats.abort_reasons.items():
        metrics.counter("run_aborts_by_reason", cc=cc_name,
                        reason=reason).inc(count)
    metrics.counter("run_backoff_ticks", cc=cc_name).inc(stats.backoff_time)
    for kind, ticks in scheduler.wait_time_by_kind.items():
        metrics.counter("run_wait_ticks", cc=cc_name, kind=kind).inc(ticks)
    for kind, count in scheduler.wait_count_by_kind.items():
        metrics.counter("run_waits_total", cc=cc_name, kind=kind).inc(count)
    metrics.counter("run_cycle_breaks", cc=cc_name).inc(scheduler.cycle_breaks)
    metrics.counter("run_timeout_breaks",
                    cc=cc_name).inc(scheduler.timeout_breaks)
    if scheduler.livelock_fires:
        metrics.counter("run_livelock_fires",
                        cc=cc_name).inc(scheduler.livelock_fires)
    if injector is not None:
        for kind, count in injector.fired.items():
            metrics.counter("run_faults_injected_total", cc=cc_name,
                            kind=kind).inc(count)
        if injector.downtime_injected:
            metrics.counter("run_crash_downtime_total", cc=cc_name).inc(
                injector.downtime_injected)
    if manager is not None:
        metrics.counter("durability_log_records_total",
                        cc=cc_name).inc(manager.log_records_total)
        metrics.counter("durability_log_bytes_total",
                        cc=cc_name).inc(manager.log_bytes_total)
        metrics.counter("durability_flushes_total",
                        cc=cc_name).inc(manager.flushes)
        metrics.counter("durability_flush_stalls_total",
                        cc=cc_name).inc(manager.flush_stalls)
        metrics.counter("durability_acked_commits_total",
                        cc=cc_name).inc(manager.acked_commits)
        metrics.counter("durability_checkpoints_total",
                        cc=cc_name).inc(manager.checkpoints_taken)
        metrics.gauge("durability_persistent_epoch",
                      cc=cc_name).set(manager.persistent_epoch)
        metrics.gauge("durability_epoch_lag_max",
                      cc=cc_name).set(manager.max_epoch_lag)
        if manager.crash_count:
            metrics.counter("durability_node_crashes_total",
                            cc=cc_name).inc(manager.crash_count)
            metrics.counter("durability_recovery_ticks_total",
                            cc=cc_name).inc(manager.recovery_ticks_total)
            metrics.counter("durability_lost_inflight_total",
                            cc=cc_name).inc(manager.lost_inflight_total)
            metrics.counter("durability_lost_unflushed_total",
                            cc=cc_name).inc(manager.lost_unflushed_total)
        # the 2PC layer's gauges: no rows without a cluster (only-when-fed)
        for name, value in manager.metrics_rows():
            metrics.gauge(name, cc=cc_name).set(value)
    if frontend is not None:
        metrics.gauge("frontend_goodput_tps",
                      cc=cc_name).set(stats.goodput())
        metrics.gauge("frontend_slo_attainment",
                      cc=cc_name).set(stats.slo_attainment())
        metrics.counter("frontend_arrivals_total",
                        cc=cc_name).inc(frontend.arrivals)
        metrics.counter("frontend_admitted_total",
                        cc=cc_name).inc(frontend.admitted)
        for reason, count in sorted(stats.shed.items()):
            metrics.counter("frontend_shed_total", cc=cc_name,
                            reason=reason).inc(count)
        metrics.gauge("frontend_queue_depth_max",
                      cc=cc_name).set(frontend.depth_max)
        if stats.queue_wait.count:
            metrics.gauge("frontend_queue_wait_p99_us",
                          cc=cc_name).set(stats.queue_wait.pct(0.99))
    if runtime is not None:
        for name, value in runtime.metrics_rows():
            metrics.gauge(name, cc=cc_name).set(value)
    for type_name, digest in stats.latency.items():
        if digest.count:
            metrics.gauge("run_latency_p99_us", cc=cc_name,
                          type=type_name).set(digest.pct(0.99))


def _run_probed(workload_factory: WorkloadFactory, descriptor,
                config: SimConfig, recorder, check_invariants: bool,
                trace_sink=None, accountant=None, metrics=None,
                fault_plan=None, timeline=None) -> ExperimentResult:
    """CormCC-style probe-and-pick: short probe per candidate, full run of
    the winner.  Observability attaches to the winner's run only — probes
    are throwaway measurements."""
    probe_duration = max(config.duration * descriptor.probe_fraction, 1000.0)
    probe_config = dataclasses.replace(
        config, duration=probe_duration,
        warmup=min(config.warmup, probe_duration / 2),
        collect_latency=False, durability=None, frontend=None)
    best_factory = None
    best_throughput = -1.0
    for factory in descriptor.candidates:
        result = run_protocol(workload_factory, factory(), probe_config,
                              check_invariants=False)
        if result.throughput > best_throughput:
            best_throughput = result.throughput
            best_factory = factory
    winner = best_factory()
    result = run_protocol(workload_factory, winner, config, recorder,
                          check_invariants=check_invariants,
                          trace_sink=trace_sink, accountant=accountant,
                          metrics=metrics, fault_plan=fault_plan,
                          timeline=timeline)
    return ExperimentResult(descriptor.name, result.stats,
                            result.invariant_violations,
                            detail=f"picked {winner.name}",
                            fault_counts=result.fault_counts,
                            livelock_fires=result.livelock_fires,
                            durability=result.durability,
                            frontend=result.frontend)


def run_named(workload_factory: WorkloadFactory, cc_name: str,
              config: SimConfig, policy: Optional[CCPolicy] = None,
              backoff_policy: Optional[BackoffPolicy] = None,
              groups=None, **kwargs) -> ExperimentResult:
    """Convenience wrapper: instantiate a protocol by registry name and run."""
    if cc_name == "polyjuice" and policy is None:
        raise ConfigError("polyjuice requires a trained policy")
    cc = make_cc(cc_name, policy=policy, backoff_policy=backoff_policy,
                 groups=groups)
    return run_protocol(workload_factory, cc, config, **kwargs)
