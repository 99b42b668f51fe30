"""Run one simulated experiment: workload x CC protocol x configuration.

One path builds, installs, runs, finalizes, verifies and exports every
run; the opt-in layers join it through the
:class:`~repro.sim.scheduler.RunLayer` steps.  The CormCC probe-and-pick
federation (§7.2: measure OCC and 2PL, run the better one) is a pre-step
that picks the protocol.  Scheduled callbacks (the Fig 10 policy switch)
and history recording (the serializability oracle) are supported.
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
from ..sim.worker import spawn_workers
from ..core.backoff import BackoffPolicy
from ..core.policy import CCPolicy
from ..core.validation import storage_residue
from ..cc.registry import make_cc
from ..workloads.base import Workload

if TYPE_CHECKING:
    # the opt-in layers are imported where run_protocol builds them
    from ..durability.manager import DurabilityManager
    from ..faults.plan import FaultPlan
    from ..obs.metrics import MetricsRegistry
    from ..obs.profile import TimeAccountant
    from ..obs.timeline import TimelineSampler
    from ..obs.tracing import TraceSink

WorkloadFactory = Callable[[], Workload]


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
                 timeline: Optional[TimelineSampler] = None
                 ) -> ExperimentResult:
    """Execute one run of ``cc`` (an instantiated protocol) over a fresh
    database built by ``workload_factory``.

    ``callbacks`` are (time, fn(cc)) pairs — e.g. a mid-run policy switch.
    Observability is opt-in and free when off: ``trace_sink`` receives
    structured events, ``accountant`` receives the per-worker time
    decomposition, ``timeline`` samples the run window by window, and
    ``metrics`` is populated with the run's counters after the simulation
    finishes (zero hot-path cost).

    The opt-in layers the config and ``fault_plan`` ask for — cluster
    runtime, durability, frontend, fault injector (its RNG derives from
    ``config.seed``) — are built here and each joins the run through the
    :class:`~repro.sim.scheduler.RunLayer` steps.  A protocol that
    ``requires_probe`` (CormCC) first picks the candidate to run.
    """
    name, detail = cc.name, None
    if getattr(cc, "requires_probe", False):
        cc = _probe(workload_factory, cc, config)
        detail = f"picked {cc.name}"
    with paused():
        # the collector sleeps from build to release: the world a run
        # builds is freed by reference counting, so nothing piles up
        workload = workload_factory()
        db = workload.build_database()
        runtime = manager = frontend = injector = None
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
                         collect_latency=config.collect_latency,
                         sampler=timeline)
        if config.durability is not None:
            if runtime is not None:
                from ..cluster.durability import ClusterDurability
                manager = ClusterDurability(config, db, workload, cc, stats,
                                            runtime)
            else:
                from ..durability.manager import DurabilityManager
                manager = DurabilityManager(config, db, workload, cc, stats)
        if config.frontend is not None:
            frontend = Frontend(
                config, workload, stats,
                backoff_policy=getattr(cc, "backoff_policy", None),
                runtime=runtime)
        if fault_plan is not None:
            from ..faults.injector import FAULT_RNG_SALT, FaultInjector
            injector = FaultInjector(fault_plan,
                                     spawn_rng(config.seed, FAULT_RNG_SALT))
        # install order: the injector last, so its scripted events
        # validate against every other layer and tie-break after their
        # first callbacks
        layers = [layer for layer in (runtime, manager, frontend, injector)
                  if layer is not None]
        scheduler = Scheduler(config, trace=trace_sink,
                              accountant=accountant, timeline=timeline)
        try:
            for worker in spawn_workers(scheduler, cc, workload, stats,
                                        range(config.n_workers)):
                scheduler.add_worker(worker)
            for layer in layers:
                layer.install(scheduler)
            for time, fn in callbacks:
                scheduler.schedule_callback(time, lambda fn=fn: fn(cc))
            scheduler.run(config.duration)
            scheduler.finish_accounting()
            scheduler.close()
            for layer in layers:
                layer.finalize(config.duration)
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
            for layer in layers:
                violations.extend(layer.check_invariants()
                                  if check_invariants else layer.violations)
            if metrics is not None:
                _record_run_metrics(metrics, stats, scheduler, cc=name)
                for layer in layers:
                    layer.install_metrics(metrics, cc=name)
                if timeline is not None:
                    timeline.install_metrics(metrics, cc=name)
            return ExperimentResult(name, stats, violations, detail=detail,
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


def _record_run_metrics(metrics: MetricsRegistry, stats: RunStats,
                        scheduler: Scheduler, **labels: str) -> None:
    """Populate the registry with one run's end-of-run aggregates (each
    layer writes its own)."""
    metrics.gauge("run_throughput_tps", **labels).set(stats.throughput())
    metrics.gauge("run_abort_rate", **labels).set(stats.abort_rate())
    for type_name, count in stats.commits.items():
        metrics.counter("run_commits_total", type=type_name,
                        **labels).inc(count)
    for type_name, count in stats.aborts.items():
        metrics.counter("run_aborts_total", type=type_name,
                        **labels).inc(count)
    for reason, count in stats.abort_reasons.items():
        metrics.counter("run_aborts_by_reason", reason=reason,
                        **labels).inc(count)
    metrics.counter("run_backoff_ticks", **labels).inc(stats.backoff_time)
    for kind, ticks in scheduler.wait_time_by_kind.items():
        metrics.counter("run_wait_ticks", kind=kind, **labels).inc(ticks)
    for kind, count in scheduler.wait_count_by_kind.items():
        metrics.counter("run_waits_total", kind=kind, **labels).inc(count)
    metrics.counter("run_cycle_breaks", **labels).inc(scheduler.cycle_breaks)
    metrics.counter("run_timeout_breaks",
                    **labels).inc(scheduler.timeout_breaks)
    if scheduler.livelock_fires:
        metrics.counter("run_livelock_fires",
                        **labels).inc(scheduler.livelock_fires)
    for type_name, digest in stats.latency.items():
        if digest.count:
            metrics.gauge("run_latency_p99_us", type=type_name,
                          **labels).set(digest.pct(0.99))


def _probe(workload_factory: WorkloadFactory, descriptor,
           config: SimConfig):
    """CormCC-style probe-and-pick (§7.2): a short, unobserved run of each
    candidate; returns a fresh instance of the one with the highest
    throughput, which the caller then runs for the full measurement."""
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
    return best_factory()


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
