"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — run one workload under one CC protocol, print statistics;
* ``compare``  — run several protocols on the same workload side by side;
* ``train``    — train a Polyjuice policy (EA or RL) and write it to disk;
* ``chaos``    — fault-injection sweep with every correctness oracle armed;
* ``profile``  — per-worker time-accounting breakdown of one run;
* ``trace``    — the §7.6 trace-predictability analysis;
* ``inspect``  — pretty-print a saved policy and diff it against the seeds;
* ``report``   — render a one-page run report (summary, timeline, conflict
  attribution, latency critical path, policy audit) from the artifacts a
  run exported, or ``--compare`` two metrics snapshots as a CI gate.

``run`` and ``compare`` accept ``--faults PLAN.json`` (a deterministic
fault plan, see :mod:`repro.faults`) and ``--watchdog TICKS`` /
``--watchdog-action`` (progress watchdog).  ``run``, ``compare`` and
``chaos`` accept ``--arrival-rate TPS`` to switch from the default
closed loop to *open-loop* mode (seeded Poisson arrivals, a bounded
admission queue with ``--queue-cap`` / ``--shed-policy`` load shedding,
per-transaction ``--deadline`` enforcement and a bounded
``--retry-budget``; see :mod:`repro.frontend`).  ``run``, ``compare`` and
``chaos`` accept ``--durability`` (epoch group-commit logging with
deferred acks, see :mod:`repro.durability`); ``chaos --node-crash TIME``
crashes the whole node mid-run and audits checkpoint-plus-replay
recovery with the durability oracle.  ``run``, ``compare`` and ``chaos``
accept ``--shards N`` (partition the database across N simulated nodes
with cross-shard two-phase commit; ``--cross-shard-ratio`` steers that
fraction of transactions at remote shards, ``--net-latency`` /
``--net-jitter`` / ``--net-bandwidth`` shape the simulated network;
``--shards 1``, the default, is exactly the single-node code path — see
:mod:`repro.cluster`).  ``train`` accepts
``--checkpoint DIR`` / ``--resume`` for crash-safe resumable training;
an interrupt (Ctrl-C) still writes the best policy found so far.
``train --jobs N`` fans fitness evaluations out to N worker processes
(0 = one per core) with bit-identical artifacts for any N; per-evaluation
wall-clock timeouts (``--eval-timeout``) are enforced by killing the
worker process.

``run``, ``compare``, ``train`` and ``profile`` accept ``--trace FILE``
(structured event trace; ``.json`` selects Chrome trace-event format for
Perfetto / chrome://tracing, anything else selects JSONL),
``--metrics FILE`` (metrics-registry snapshot; ``.csv`` selects CSV,
anything else JSON) and ``--timeline FILE`` (windowed run time-series;
``--timeline-window`` overrides the window width, which defaults to one
durability epoch).  ``repro report`` turns those artifacts back into a
markdown/JSON diagnosis.

Examples::

    python -m repro run --workload tpcc --warehouses 1 --cc ic3
    python -m repro compare --workload tpce --theta 3 --ccs silo,2pl,ic3
    python -m repro train --workload tpcc --warehouses 1 --iterations 20 \\
        --policy-out policy.json --backoff-out backoff.json
    python -m repro run --workload tpcc --cc polyjuice --policy policy.json
    python -m repro inspect --workload tpcc --policy policy.json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .config import ClusterConfig, DurabilityConfig, FrontendConfig, SimConfig
from .bench.reporting import format_table
from .bench.runner import run_named
from .core.backoff import BackoffPolicy
from .core.policy import CCPolicy
from .errors import ReproError
from .ioutil import atomic_write


def _workload(args):
    """Resolve (spec, workload factory) from CLI arguments.  With
    ``--shards N >= 2`` the cluster workload adapters replace the
    single-node factories (same spec, same programs, partitioned data)."""
    shards = getattr(args, "shards", 1)
    if args.workload == "tpcc":
        from .workloads.tpcc import make_tpcc_factory, tpcc_spec
        if shards > 1:
            from .cluster import make_cluster_tpcc_factory
            return tpcc_spec(), make_cluster_tpcc_factory(
                shards, args.workers,
                cross_shard_ratio=args.cross_shard_ratio,
                n_warehouses=max(args.warehouses, shards), seed=args.seed)
        return tpcc_spec(), make_tpcc_factory(n_warehouses=args.warehouses,
                                              seed=args.seed)
    if args.workload == "tpce":
        from .workloads.tpce import make_tpce_factory, tpce_spec
        if shards > 1:
            from .cluster import make_cluster_tpce_factory
            return tpce_spec(), make_cluster_tpce_factory(
                shards, args.workers,
                cross_shard_ratio=args.cross_shard_ratio,
                theta=args.theta, seed=args.seed)
        return tpce_spec(), make_tpce_factory(theta=args.theta,
                                              seed=args.seed)
    if args.workload == "micro":
        from .workloads.micro import make_micro_factory
        from .workloads.micro.workload import micro_spec
        if shards > 1:
            from .cluster import make_cluster_micro_factory
            return micro_spec(), make_cluster_micro_factory(
                shards, args.workers,
                cross_shard_ratio=args.cross_shard_ratio,
                theta=args.theta, seed=args.seed)
        return micro_spec(), make_micro_factory(theta=args.theta,
                                                seed=args.seed)
    raise ReproError(f"unknown workload {args.workload!r}")


def _cluster_config(args) -> Optional[ClusterConfig]:
    """Build the cluster config; ``--shards 1`` (the default) returns
    ``None`` so single-node runs take literally the pre-cluster code path
    and stay bit-identical."""
    shards = getattr(args, "shards", 1)
    if shards < 1:
        raise ReproError(f"--shards must be >= 1, got {shards}")
    if shards == 1:
        return None
    return ClusterConfig(n_shards=shards,
                         cross_shard_ratio=args.cross_shard_ratio,
                         net_latency=args.net_latency,
                         net_jitter=args.net_jitter,
                         net_bandwidth=args.net_bandwidth)


def _durability_config(args) -> Optional[DurabilityConfig]:
    if not getattr(args, "durability", False):
        return None
    return DurabilityConfig(epoch_length=args.epoch_length,
                            log_flush=args.log_flush,
                            checkpoint_interval=args.checkpoint_interval)


def _frontend_config(args) -> Optional[FrontendConfig]:
    """Build the open-loop frontend config; ``None`` (closed loop) unless
    ``--arrival-rate`` was given, so default runs stay bit-identical."""
    rate = getattr(args, "arrival_rate", None)
    if rate is None:
        return None
    return FrontendConfig(arrival_rate=rate,
                          queue_cap=args.queue_cap,
                          deadline=args.deadline,
                          retry_budget=args.retry_budget,
                          shed_policy=args.shed_policy)


def _sim_config(args) -> SimConfig:
    return SimConfig(n_workers=args.workers, duration=args.duration,
                     warmup=args.warmup, seed=args.seed,
                     watchdog_window=getattr(args, "watchdog", None),
                     watchdog_action=getattr(args, "watchdog_action",
                                             "abort_oldest"),
                     durability=_durability_config(args),
                     frontend=_frontend_config(args),
                     cluster=_cluster_config(args))


def _load_fault_plan(args):
    if not getattr(args, "faults", None):
        return None
    from .faults import FaultPlan
    return FaultPlan.load(args.faults)


def _load_policy(args, spec, fault_plan=None):
    """Load ``--policy`` / ``--backoff`` files; when the fault plan asks
    for policy corruption, flip one cell and let validation reject it."""
    policy: Optional[CCPolicy] = None
    backoff: Optional[BackoffPolicy] = None
    if getattr(args, "policy", None):
        policy = CCPolicy.load(spec, args.policy)
    if getattr(args, "backoff", None):
        backoff = BackoffPolicy.load(args.backoff)
    if fault_plan is not None and fault_plan.corrupt_policy \
            and policy is not None:
        from .faults import FAULT_RNG_SALT, corrupt_policy_cell
        from .rng import spawn_rng
        detail = corrupt_policy_cell(
            policy, spawn_rng(args.seed, FAULT_RNG_SALT))
        print(f"fault: corrupted loaded policy ({detail})", file=sys.stderr)
        policy.validate()  # graceful rejection: raises a ReproError
    return policy, backoff


def _check_writable(path: str) -> None:
    """Fail fast (before a long run) when an output path cannot be opened."""
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
        if not existed:
            os.remove(path)  # leave no empty probe file behind
    except OSError as exc:
        raise ReproError(f"cannot write {path}: {exc}") from exc


def _make_obs(args, config: SimConfig):
    """Build the (trace sink, metrics registry, timeline sampler) the
    ``--trace`` / ``--metrics`` / ``--timeline`` flags ask for, after
    checking each output path (``None`` when a flag is absent — zero
    overhead for the run)."""
    from .obs import MemorySink, MetricsRegistry
    sink = metrics = timeline = None
    if getattr(args, "trace_out", None):
        _check_writable(args.trace_out)
        sink = MemorySink()
    if getattr(args, "metrics_out", None):
        _check_writable(args.metrics_out)
        metrics = MetricsRegistry()
    if getattr(args, "timeline_out", None):
        from .obs import TimelineSampler, default_timeline_window
        _check_writable(args.timeline_out)
        window = getattr(args, "timeline_window", None)
        if window is None:
            window = default_timeline_window(config)
        timeline = TimelineSampler(window, config.n_workers)
    return sink, metrics, timeline


def _write_obs(args, sink=None, metrics=None, timeline=None,
               cc: Optional[str] = None) -> None:
    """Write what :func:`_make_obs` built; ``cc`` names ``compare``'s
    per-protocol trace and timeline files."""
    def out(path: str) -> str:
        return path if cc is None else _per_cc_path(path, cc)
    if sink is not None:
        _write_trace(out(args.trace_out), sink.events)
    if metrics is not None:
        _write_metrics(args.metrics_out, metrics)
    if timeline is not None:
        _write_timeline(out(args.timeline_out), timeline)


def _write_timeline(path: str, timeline) -> None:
    try:
        with atomic_write(path) as fh:
            if path.endswith(".csv"):
                timeline.write_csv(fh)
            else:
                timeline.write_json(fh)
    except OSError as exc:
        raise ReproError(f"cannot write timeline {path}: {exc}") from exc
    print(f"wrote {len(timeline.rows())} timeline windows to {path}")


def _write_trace(path: str, events) -> None:
    from .obs import export_chrome_trace, write_jsonl
    try:
        with atomic_write(path) as fh:
            if path.endswith(".json"):
                export_chrome_trace(events, fh)
            else:
                write_jsonl(events, fh)
    except OSError as exc:
        raise ReproError(f"cannot write trace {path}: {exc}") from exc
    print(f"wrote {len(events)} trace events to {path}")


def _write_metrics(path: str, metrics) -> None:
    try:
        with atomic_write(path) as fh:
            if path.endswith(".csv"):
                metrics.write_csv(fh)
            else:
                metrics.write_json(fh)
    except OSError as exc:
        raise ReproError(f"cannot write metrics {path}: {exc}") from exc
    print(f"wrote {len(metrics)} metrics to {path}")


def _print_result(cc_name, result) -> None:
    stats = result.stats
    print(f"\n{cc_name}: {stats.throughput():,.0f} TPS  "
          f"(commits {stats.total_commits:,}, abort rate "
          f"{stats.abort_rate():.2f})")
    rows = []
    for type_name, digest in stats.latency.items():
        if digest.count == 0:
            continue
        summary = digest.summary()
        rows.append([type_name, stats.commits[type_name],
                     round(summary["avg"], 1), round(summary["p50"], 1),
                     round(summary["p90"], 1), round(summary["p99"], 1)])
    if rows:
        print(format_table(["type", "commits", "avg us", "p50", "p90", "p99"],
                           rows))
    else:
        print("  (no committed transactions in the measurement window — "
              "no latency data)")
    if result.invariant_violations:
        print("INVARIANT VIOLATIONS:")
        for violation in result.invariant_violations[:10]:
            print(" ", violation)


def _print_fault_summary(result, prefix: str = "") -> None:
    if result.fault_counts:
        parts = ", ".join(f"{kind}={count}" for kind, count
                          in sorted(result.fault_counts.items()))
        print(f"{prefix}faults injected: {parts}")
    if result.livelock_fires:
        print(f"{prefix}watchdog livelock fires: {result.livelock_fires}")


def _print_durability_summary(manager) -> None:
    print(f"durability: persistent epoch {manager.persistent_epoch}, "
          f"{manager.acked_commits:,} acked commits, "
          f"{manager.log_bytes_total:,} log bytes in {manager.flushes} "
          f"flushes ({manager.flush_stalls} stalled), "
          f"max epoch lag {manager.max_epoch_lag}, "
          f"{manager.checkpoints_taken} checkpoints")
    for report in manager.recoveries:
        print(f"  crash @ {report.time:,.0f}: recovered to epoch "
              f"{report.persistent_epoch} (replayed {report.replayed:,} "
              f"records in {report.recovery_ticks:,.0f} ticks; lost "
              f"{report.lost_inflight} in-flight, "
              f"{report.lost_unflushed} unflushed)")


def _print_frontend_summary(result) -> None:
    frontend = result.frontend
    stats = result.stats
    shed = ", ".join(f"{reason}={count}" for reason, count
                     in sorted(stats.shed.items())) or "none"
    print(f"open loop: {frontend.arrivals:,} arrivals, "
          f"{frontend.admitted:,} admitted, queue depth max "
          f"{frontend.depth_max}/{frontend.fc.queue_cap}")
    print(f"  goodput {stats.goodput():,.0f} TPS, SLO attainment "
          f"{stats.slo_attainment():.3f} "
          f"({stats.slo_commits:,} in-deadline, {stats.late_commits:,} late)")
    print(f"  shed: {shed}")
    if stats.queue_wait.count:
        wait = stats.queue_wait.summary()
        print(f"  queue wait us: avg {wait['avg']:.1f}  "
              f"p50 {wait['p50']:.1f}  p99 {wait['p99']:.1f}")


def cmd_run(args) -> int:
    spec, factory = _workload(args)
    fault_plan = _load_fault_plan(args)
    policy, backoff = _load_policy(args, spec, fault_plan)
    config = _sim_config(args)
    sink, metrics, timeline = _make_obs(args, config)
    result = run_named(factory, args.cc, config, policy=policy,
                       backoff_policy=backoff, trace_sink=sink,
                       metrics=metrics, fault_plan=fault_plan,
                       timeline=timeline)
    _print_result(result.cc_name, result)
    if result.frontend is not None:
        _print_frontend_summary(result)
    if result.durability is not None:
        _print_durability_summary(result.durability)
    if fault_plan is not None:
        _print_fault_summary(result)
    _write_obs(args, sink, metrics, timeline)
    return 1 if result.invariant_violations else 0


def _per_cc_path(path: str, cc: str) -> str:
    """``trace.jsonl`` + ``silo`` -> ``trace.silo.jsonl`` (compare writes
    one trace file per protocol)."""
    root, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}.{cc}"
    return f"{root}.{cc}.{ext}"


def cmd_compare(args) -> int:
    ccs = [cc.strip() for cc in args.ccs.split(",")]
    for index, cc in enumerate(ccs):
        if cc in ccs[:index]:
            # metrics and trace files are keyed by protocol name: a second
            # run would fold into the first's series and overwrite its trace
            raise ReproError(f"--ccs names {cc!r} twice; list each "
                             "protocol once")
    spec, factory = _workload(args)
    fault_plan = _load_fault_plan(args)
    policy, backoff = _load_policy(args, spec, fault_plan)
    config = _sim_config(args)
    _sink, metrics, _timeline = _make_obs(args, config)
    runs = []
    for cc in ccs:
        # a fresh trace sink and sampler per protocol, one registry
        sink, _metrics, timeline = _make_obs(args, config)
        result = run_named(factory, cc, config,
                           policy=policy, backoff_policy=backoff,
                           trace_sink=sink, metrics=metrics,
                           fault_plan=fault_plan, timeline=timeline)
        runs.append((cc, result, sink, timeline))
    print(format_table(["cc", "TPS", "abort rate", "commits"],
                       [[cc, result.throughput, result.stats.abort_rate(),
                         result.stats.total_commits]
                        for cc, result, _, _ in runs],
                       title=f"{args.workload} comparison"))
    if fault_plan is not None:
        for cc, result, _, _ in runs:
            _print_fault_summary(result, prefix=f"[{cc}] ")
    for cc, _, sink, timeline in runs:
        _write_obs(args, sink, timeline=timeline, cc=cc)
    _write_obs(args, metrics=metrics)
    return 0


def _make_trainer(args, spec, factory, metrics):
    from .config import resolve_jobs
    from .training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                           ParallelEvaluationEngine)
    fitness_cfg = SimConfig(n_workers=args.workers,
                            duration=args.fitness_duration,
                            seed=args.seed, collect_latency=False)
    # the engine handles retry/timeout/fallback with subprocess kills and
    # fans evaluations out over --jobs worker processes; --jobs 1 and
    # --jobs N are bit-identical
    evaluator = ParallelEvaluationEngine(
        FitnessEvaluator(factory, fitness_cfg),
        jobs=resolve_jobs(getattr(args, "jobs", 1)),
        max_retries=args.eval_retries,
        timeout=args.eval_timeout,
        metrics=metrics)
    if args.trainer == "rl":
        try:
            from .training.rl import PolicyGradientTrainer, RLConfig
        except ImportError as exc:
            raise ReproError(
                f"--trainer rl needs numpy, which is not installed ({exc})"
            ) from None
        return PolicyGradientTrainer(
            spec, evaluator,
            RLConfig(iterations=args.iterations, seed=args.seed),
            metrics=metrics)
    return EvolutionaryTrainer(
        spec, evaluator,
        EAConfig(iterations=args.iterations,
                 population_size=args.population,
                 children_per_parent=args.children, seed=args.seed),
        metrics=metrics)


def cmd_train(args) -> int:
    spec, factory = _workload(args)
    config = _sim_config(args)
    sink, metrics, timeline = _make_obs(args, config)
    trainer = _make_trainer(args, spec, factory, metrics)
    result = trainer.train(
        iterations=args.iterations,
        progress=lambda i, best, mean: print(
            f"iter {i:3d}: best {best:10,.0f} TPS  mean {mean:10,.0f} TPS"),
        checkpoint_dir=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume)
    if result.interrupted:
        print("\ninterrupted — saving best-so-far artifacts", file=sys.stderr)
    result.best_policy.save(args.policy_out)
    print(f"\nwrote {args.policy_out}")
    if args.backoff_out:
        result.best_backoff.save(args.backoff_out)
        print(f"wrote {args.backoff_out}")
    print(f"best fitness: {result.best_fitness:,.0f} TPS "
          f"({result.evaluations} evaluations)")
    if result.interrupted:
        return 130
    if sink is not None or timeline is not None:
        # trace one verification run of the trained policy (with the
        # run-insight timeline attached when requested)
        run_named(factory, "polyjuice", config,
                  policy=result.best_policy, trace_sink=sink,
                  metrics=metrics, timeline=timeline)
    _write_obs(args, sink, metrics, timeline)
    return 0


def cmd_chaos(args) -> int:
    from .faults import FaultPlan, ScriptedFault, default_plans, run_chaos
    spec, factory = _workload(args)
    policy, backoff = _load_policy(args, spec)
    plans = None
    if getattr(args, "faults", None):
        plans = [FaultPlan.load(args.faults)]
    elif args.rates:
        rates = [float(r) for r in args.rates.split(",")]
        plans = default_plans(rates=rates)
    if getattr(args, "node_crash", None) is not None:
        if not args.durability:
            raise ReproError("--node-crash requires --durability")
        crash = ScriptedFault(time=args.node_crash, kind="node_crash")
        if plans is None:
            plans = [FaultPlan(events=[crash],
                               name=f"node_crash@{args.node_crash:g}")]
        else:
            for plan in plans:
                plan.events.append(crash)
    if getattr(args, "shards", 1) > 1 and plans is None:
        # sharded sweep: add the cross-shard 2PC chaos cells (the
        # node-crash and shard-crash cells need durability for recovery)
        from .faults.chaos import cluster_plans
        plans = list(default_plans())
        plans.extend(p for p in cluster_plans(args.duration, args.shards)
                     if args.durability or not p.scripts_crash)
    cc_names = [cc.strip() for cc in args.ccs.split(",")]
    rows = []
    failures = 0
    def on_cell(cell):
        nonlocal failures
        status = "ok" if cell.ok else "VIOLATION"
        if not cell.ok:
            failures += 1
        faults = ", ".join(f"{k}={v}" for k, v
                           in sorted(cell.fault_counts.items())) or "-"
        rows.append([cell.cc_name, cell.plan_name, cell.commits,
                     cell.aborts, faults, cell.livelock_fires, status])
        print(f"  {cell.cc_name:10s} {cell.plan_name:14s} "
              f"commits={cell.commits:<6d} {status}")
    print(f"chaos sweep: {args.workload}, ccs={','.join(cc_names)}")
    results = run_chaos(factory, cc_names, _sim_config(args), plans=plans,
                        policy=policy, backoff_policy=backoff,
                        watchdog_window=args.watchdog, progress=on_cell)
    print()
    print(format_table(
        ["cc", "plan", "commits", "aborts", "faults", "livelocks", "status"],
        rows, title="chaos results"))
    bad = [cell for cell in results if not cell.ok]
    if bad:
        print(f"\n{len(bad)} cell(s) with invariant violations:")
        for cell in bad:
            for violation in cell.violations[:5]:
                print(f"  [{cell.cc_name}/{cell.plan_name}] {violation}")
        return 1
    print(f"\nall {len(results)} cells clean")
    return 0


def cmd_profile(args) -> int:
    from .obs import TimeAccountant, check_accounting, format_profile_table
    spec, factory = _workload(args)
    policy, backoff = _load_policy(args, spec)
    config = _sim_config(args)
    sink, metrics, timeline = _make_obs(args, config)
    accountant = TimeAccountant(config.n_workers, config.duration)
    result = run_named(factory, args.cc, config, policy=policy,
                       backoff_policy=backoff, trace_sink=sink,
                       accountant=accountant, metrics=metrics,
                       timeline=timeline)
    print(f"{result.cc_name}: {result.stats.throughput():,.0f} TPS over "
          f"{config.duration:,.0f} simulated ticks, "
          f"{config.n_workers} workers")
    print(format_profile_table(accountant))
    _write_obs(args, sink, metrics, timeline)
    violation = check_accounting(accountant)
    if violation is not None:
        print(f"ACCOUNTING VIOLATION: {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_trace(args) -> int:
    from .trace import EcommerceTraceGenerator, TraceAnalysis, TraceConfig
    generator = EcommerceTraceGenerator(TraceConfig(n_days=args.days,
                                                    seed=args.seed))
    analysis = TraceAnalysis(generator).run(threshold=args.threshold)
    print(f"days analysed:          {len(analysis.daily_rates)}")
    print(f"days with >20% error:   {analysis.days_with_error_above(0.20)}")
    print(f"retrains ({args.threshold:.0%} deferral): "
          f"{analysis.n_retrains()}  on days {analysis.retrain_days}")
    return 0


def cmd_inspect(args) -> int:
    from .cc.seeds import seed_policy_map
    spec, _factory = _workload(args)
    policy = CCPolicy.load(spec, args.policy)
    print(policy.describe())
    print()
    for name, seed in seed_policy_map(spec).items():
        changed = seed.diff(policy)
        print(f"vs {name}: {len(changed)} of {policy.n_rows} rows differ")
    return 0


def cmd_report(args) -> int:
    import json as _json
    from .obs import (build_report, compare_metrics, render_compare,
                      render_markdown)

    def emit(text: str) -> None:
        if args.out:
            try:
                with atomic_write(args.out) as fh:
                    fh.write(text if text.endswith("\n") else text + "\n")
            except OSError as exc:
                raise ReproError(
                    f"cannot write report {args.out}: {exc}") from exc
            print(f"wrote report to {args.out}")
        else:
            print(text)

    if args.compare:
        baseline, candidate = args.compare
        comparison = compare_metrics(baseline, candidate,
                                     threshold=args.threshold)
        if args.format == "json":
            emit(_json.dumps(comparison, indent=2))
        else:
            emit(render_compare(comparison))
        return 1 if comparison["regressions"] else 0

    policy = None
    if getattr(args, "policy", None):
        spec, _factory = _workload(args)
        policy = CCPolicy.load(spec, args.policy)
    report = build_report(trace_path=args.trace_in,
                          metrics_path=args.metrics_in,
                          timeline_path=args.timeline_in,
                          policy=policy, top_k=args.top_k)
    if args.format == "json":
        emit(_json.dumps(report, indent=2, default=str))
    else:
        emit(render_markdown(report))
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--workload", default="tpcc",
                        choices=["tpcc", "tpce", "micro"])
    parser.add_argument("--warehouses", type=int, default=1,
                        help="TPC-C warehouse count")
    parser.add_argument("--theta", type=float, default=0.8,
                        help="Zipf skew for tpce/micro")
    parser.add_argument("--workers", type=int, default=16)
    parser.add_argument("--duration", type=float, default=10_000.0,
                        help="simulated ticks (1 tick = 1 us)")
    parser.add_argument("--warmup", type=float, default=1_000.0)
    parser.add_argument("--seed", type=int, default=42)


def _add_obs(parser) -> None:
    parser.add_argument("--trace", dest="trace_out", metavar="FILE",
                        help="write a structured event trace (.json = Chrome "
                             "trace-event format, else JSONL)")
    parser.add_argument("--metrics", dest="metrics_out", metavar="FILE",
                        help="write a metrics snapshot (.csv = CSV, "
                             "else JSON)")
    parser.add_argument("--timeline", dest="timeline_out", metavar="FILE",
                        help="write the windowed run timeline (.csv = CSV, "
                             "else JSON)")
    parser.add_argument("--timeline-window", dest="timeline_window",
                        type=float, metavar="TICKS", default=None,
                        help="timeline window width (default: one "
                             "durability epoch, else 1000 ticks)")


def _add_durability(parser) -> None:
    parser.add_argument("--durability", action="store_true",
                        help="enable epoch-based group-commit logging: "
                             "commits are acked when their epoch's flush "
                             "completes, and node_crash faults recover via "
                             "checkpoint + log replay")
    parser.add_argument("--epoch-length", type=float, default=1_000.0,
                        metavar="TICKS", help="group-commit epoch length")
    parser.add_argument("--log-flush", type=float, default=200.0,
                        metavar="TICKS",
                        help="fixed cost of flushing one epoch's log batch")
    parser.add_argument("--checkpoint-interval", type=float, default=0.0,
                        metavar="TICKS",
                        help="periodic checkpoint interval (0 = only the "
                             "initial checkpoint)")


def _add_frontend(parser) -> None:
    from .config import SHED_POLICIES
    parser.add_argument("--arrival-rate", dest="arrival_rate", type=float,
                        metavar="TPS", default=None,
                        help="switch to open-loop mode: seeded Poisson "
                             "arrivals at this rate (transactions per "
                             "simulated second) feed a bounded admission "
                             "queue; default is closed-loop")
    parser.add_argument("--queue-cap", dest="queue_cap", type=int,
                        default=64, metavar="N",
                        help="admission queue capacity (open-loop)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="TICKS",
                        help="per-transaction deadline from arrival; "
                             "exceeded in queue or in flight = shed "
                             "(open-loop)")
    parser.add_argument("--retry-budget", dest="retry_budget", type=int,
                        default=8, metavar="N",
                        help="max retry attempts per invocation before "
                             "permanent rejection (open-loop)")
    parser.add_argument("--shed-policy", dest="shed_policy",
                        choices=list(SHED_POLICIES), default="reject-newest",
                        help="what to drop when the admission queue is full")


def _add_cluster(parser) -> None:
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="partition the database across N simulated "
                             "shards with cross-shard 2PC (default 1 = "
                             "single node, the exact pre-cluster code path)")
    parser.add_argument("--cross-shard-ratio", dest="cross_shard_ratio",
                        type=float, default=0.1, metavar="R",
                        help="fraction of transactions steered at remote "
                             "shards (cluster runs)")
    parser.add_argument("--net-latency", dest="net_latency", type=float,
                        default=15.0, metavar="TICKS",
                        help="one-way inter-shard message latency")
    parser.add_argument("--net-jitter", dest="net_jitter", type=float,
                        default=0.1, metavar="FRAC",
                        help="uniform +/- latency jitter fraction (seeded)")
    parser.add_argument("--net-bandwidth", dest="net_bandwidth", type=float,
                        default=0.0, metavar="TICKS_PER_BYTE",
                        help="extra ticks charged per payload byte")


def _add_faults(parser, watchdog_default: Optional[float] = None) -> None:
    parser.add_argument("--faults", metavar="PLAN.json",
                        help="fault plan to inject (see repro.faults)")
    parser.add_argument("--watchdog", type=float, metavar="TICKS",
                        default=watchdog_default,
                        help="progress watchdog window in simulated ticks "
                             "(no commit for this long triggers recovery)")
    parser.add_argument("--watchdog-action", dest="watchdog_action",
                        choices=["abort_oldest", "raise"],
                        default="abort_oldest",
                        help="what the watchdog does on livelock")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one protocol")
    _add_common(run_parser)
    _add_obs(run_parser)
    _add_faults(run_parser)
    _add_durability(run_parser)
    _add_frontend(run_parser)
    _add_cluster(run_parser)
    run_parser.add_argument("--cc", default="silo")
    run_parser.add_argument("--policy", help="policy JSON (for polyjuice)")
    run_parser.add_argument("--backoff", help="backoff JSON")
    run_parser.set_defaults(fn=cmd_run)

    compare_parser = sub.add_parser("compare", help="compare protocols")
    _add_common(compare_parser)
    _add_obs(compare_parser)
    _add_faults(compare_parser)
    _add_durability(compare_parser)
    _add_frontend(compare_parser)
    _add_cluster(compare_parser)
    compare_parser.add_argument("--ccs", default="silo,2pl,ic3,tebaldi")
    compare_parser.add_argument("--policy")
    compare_parser.add_argument("--backoff")
    compare_parser.set_defaults(fn=cmd_compare)

    train_parser = sub.add_parser("train", help="train a policy")
    _add_common(train_parser)
    _add_obs(train_parser)
    train_parser.add_argument("--trainer", choices=["ea", "rl"], default="ea")
    train_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                              help="parallel fitness-evaluation worker "
                                   "processes (0 = one per CPU core); "
                                   "results are bit-identical for any N")
    train_parser.add_argument("--iterations", type=int, default=10)
    train_parser.add_argument("--population", type=int, default=5)
    train_parser.add_argument("--children", type=int, default=3)
    train_parser.add_argument("--fitness-duration", type=float,
                              default=3_000.0)
    train_parser.add_argument("--policy-out", default="policy.json")
    train_parser.add_argument("--backoff-out", default="backoff.json")
    train_parser.add_argument("--checkpoint", metavar="DIR",
                              help="write resumable trainer state here")
    train_parser.add_argument("--checkpoint-every", type=int, default=1,
                              metavar="K", help="checkpoint every K iterations")
    train_parser.add_argument("--resume", action="store_true",
                              help="resume from --checkpoint DIR")
    train_parser.add_argument("--eval-retries", type=int, default=2,
                              help="retries per failed fitness evaluation")
    train_parser.add_argument("--eval-timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="wall-clock timeout per evaluation")
    train_parser.set_defaults(fn=cmd_train)

    chaos_parser = sub.add_parser(
        "chaos", help="fault-injection sweep with correctness oracles")
    _add_common(chaos_parser)
    _add_durability(chaos_parser)
    chaos_parser.add_argument("--node-crash", dest="node_crash", type=float,
                              metavar="TIME",
                              help="crash the whole node at this simulated "
                                   "time and recover (requires --durability); "
                                   "arms the durability oracle")
    chaos_parser.add_argument("--ccs", default="silo,2pl,ic3")
    chaos_parser.add_argument("--faults", metavar="PLAN.json",
                              help="run one specific fault plan instead of "
                                   "the default sweep")
    chaos_parser.add_argument("--rates", metavar="R1,R2,...",
                              help="per-cost fault rates for the default "
                                   "sweep (default: 0.0005,0.002)")
    chaos_parser.add_argument("--watchdog", type=float, default=5_000.0,
                              metavar="TICKS",
                              help="progress watchdog window (abort_oldest)")
    chaos_parser.add_argument("--policy", help="policy JSON (polyjuice)")
    chaos_parser.add_argument("--backoff", help="backoff JSON")
    _add_frontend(chaos_parser)  # burst fault plans need an open loop
    _add_cluster(chaos_parser)
    chaos_parser.set_defaults(fn=cmd_chaos)

    profile_parser = sub.add_parser(
        "profile", help="per-worker time-accounting breakdown")
    _add_common(profile_parser)
    _add_obs(profile_parser)
    profile_parser.add_argument("--cc", default="silo")
    profile_parser.add_argument("--policy", help="policy JSON (polyjuice)")
    profile_parser.add_argument("--backoff", help="backoff JSON")
    profile_parser.set_defaults(fn=cmd_profile)

    report_parser = sub.add_parser(
        "report", help="render a run report from trace/metrics/timeline "
                       "artifacts, or diff two metrics snapshots")
    report_parser.add_argument("--trace", dest="trace_in", metavar="FILE",
                               help="JSONL trace to analyse")
    report_parser.add_argument("--metrics", dest="metrics_in",
                               metavar="FILE",
                               help="JSON metrics snapshot to summarise")
    report_parser.add_argument("--timeline", dest="timeline_in",
                               metavar="FILE",
                               help="JSON timeline artifact to include")
    report_parser.add_argument("--policy", metavar="FILE",
                               help="policy JSON for the policy-audit join "
                                    "(requires matching --workload)")
    report_parser.add_argument("--workload", default="tpcc",
                               choices=["tpcc", "tpce", "micro"],
                               help="workload of the run (only used to "
                                    "resolve --policy)")
    report_parser.add_argument("--warehouses", type=int, default=1)
    report_parser.add_argument("--theta", type=float, default=0.8)
    report_parser.add_argument("--seed", type=int, default=42)
    report_parser.add_argument("--format", choices=["md", "json"],
                               default="md")
    report_parser.add_argument("--out", metavar="FILE",
                               help="write the report here (default: stdout)")
    report_parser.add_argument("--top-k", dest="top_k", type=int, default=10,
                               help="hot keys to list in the attribution")
    report_parser.add_argument("--compare", nargs=2,
                               metavar=("BASELINE", "CANDIDATE"),
                               help="diff two metrics snapshots instead of "
                                    "rendering a report; exits 1 when a "
                                    "regression crosses --threshold")
    report_parser.add_argument("--threshold", type=float, default=0.10,
                               help="relative regression threshold for "
                                    "--compare (abort rate uses a 0.05 "
                                    "absolute slack)")
    report_parser.set_defaults(fn=cmd_report)

    trace_parser = sub.add_parser("trace", help="trace predictability")
    trace_parser.add_argument("--days", type=int, default=120)
    trace_parser.add_argument("--threshold", type=float, default=0.15)
    trace_parser.add_argument("--seed", type=int, default=2019)
    trace_parser.set_defaults(fn=cmd_trace)

    inspect_parser = sub.add_parser("inspect", help="inspect a policy file")
    _add_common(inspect_parser)
    inspect_parser.add_argument("--policy", required=True)
    inspect_parser.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
