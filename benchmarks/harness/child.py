"""One repetition of one workload (or ledger cell), in a fresh process.

Run by :mod:`benchmarks.harness.driver` as
``python child.py '<json spec>'``; prints one JSON record as the last line
of standard output.  Everything the program prints is swallowed, so that
line is the only output.

Modes:

``timed``
    The end-to-end repetition.  The only shims are one-call wrappers that
    stamp ``Scheduler.run`` and read results off the CLI's own calls
    (``repro.cli.run_named``, ``EvolutionaryTrainer.train``,
    ``FitnessEvaluator.compute``).
``verify``
    ``timed`` plus every oracle: ``HistoryRecorder`` +
    ``assert_serializable``, workload invariants, ``storage_residue``, the
    frontend ledger and durability/2PC violations, artifact checks.
``spans``
    ``timed`` plus lifecycle spans around the public calls of each layer.
``profile``
    ``spans`` plus ``cProfile`` across every ``Scheduler.run`` span.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

_T_START = time.time()
_PERF_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FIXTURES = os.path.join(HERE, "fixtures")

if __package__ in (None, ""):
    # run as a script: make ``benchmarks.harness`` and ``repro`` importable
    sys.path[0:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.harness import cells                      # noqa: E402
from benchmarks.harness.floor import floor_events_per_s   # noqa: E402
from benchmarks.harness.profiling import bucket_profile   # noqa: E402
from benchmarks.harness.spans import SpanRecorder, total  # noqa: E402


#: Scheduler.run spans the profile repetition profiles: every one of a
#: single-run workload, the first eight of train_ea's 32 (cProfile triples
#: their cost, and shares and per-event counts need no more)
PROFILED_RUNS = 8


class OracleFailure(Exception):
    """A correctness check failed; the repetition reports no numbers."""


class Rep:
    """State of this repetition."""

    def __init__(self, spec: dict) -> None:
        self.name = spec["name"]
        self.mode = spec["mode"]
        self.seed = int(spec["seed"])
        self.workdir = spec["workdir"]
        self.recorder = SpanRecorder()
        self.traced = self.mode in ("spans", "profile")
        self.verify = self.mode == "verify"
        self.profile = cProfile.Profile() if self.mode == "profile" else None
        #: events processed by every Scheduler.run
        self.events = 0
        #: events inside the profiled Scheduler.run spans (profile mode)
        self.profiled_runs = 0
        self.profiled_events = 0
        #: ExperimentResults of the CLI's run_named calls
        self.results = []
        #: ExperimentResults of every run_protocol call (traced only)
        self.all_results = []
        #: schedulers / workloads kept alive for counters (traced only)
        self.schedulers = []
        self.workloads = []
        self.training = None

    def policy_paths(self, fixture: str):
        return (os.path.join(FIXTURES, f"policy_tpcc_{fixture}_quick.json"),
                os.path.join(FIXTURES, f"backoff_tpcc_{fixture}_quick.json"))


# ---------------------------------------------------------------------- #
# shims (installed by replacing public attributes; src/ is not edited)


def install_shims(rep: Rep) -> None:
    from repro import cli
    from repro.sim.scheduler import Scheduler
    from repro.training.ea import EvolutionaryTrainer
    from repro.training.fitness import FitnessEvaluator

    rec = rep.recorder
    inner_run = Scheduler.run
    profile = rep.profile

    def run(self, until):
        before = self.events_processed
        profiled = profile is not None and rep.profiled_runs < PROFILED_RUNS
        with rec.span("sim.run"):
            if profiled:
                profile.enable()
            try:
                return inner_run(self, until)
            finally:
                if profiled:
                    profile.disable()
                    rep.profiled_runs += 1
                    rep.profiled_events += self.events_processed - before
                rep.events += self.events_processed - before
                if rep.traced:
                    rep.schedulers.append(self)

    Scheduler.run = run

    rec.wrap(FitnessEvaluator, "compute", "training.compute")
    rec.wrap(cli, "run_named", "cli.run_named",
             on_result=lambda args, result: rep.results.append(result))
    rec.wrap(EvolutionaryTrainer, "train", "training.train",
             on_result=lambda args, result: setattr(
                 rep, "training", (args[0], result)))
    if rep.traced or rep.verify:
        install_workload_shims(rep)
    if rep.traced:
        install_span_shims(rep)


def install_workload_shims(rep: Rep) -> None:
    """Span the concrete workloads' lifecycle calls and keep each instance
    (its database carries the row count and the residue the oracles scan).
    Not installed for timed repetitions: holding 32 databases alive would
    change ``peak_rss_mb``."""
    from repro.workloads.micro.workload import MicroWorkload
    from repro.workloads.tpcc.workload import TPCCWorkload

    def keep(args, _result):
        if args[0] not in rep.workloads:
            rep.workloads.append(args[0])

    # the cluster adapters inherit both methods from these two classes
    for cls in (TPCCWorkload, MicroWorkload):
        rep.recorder.wrap(cls, "build_database", "workloads.build_database",
                          on_result=keep)
        rep.recorder.wrap(cls, "check_invariants",
                          "workloads.check_invariants")


def install_span_shims(rep: Rep) -> None:
    """Spans around the public calls at each layer boundary (instrument A)."""
    import repro.bench.runner as runner
    import repro.obs as obs
    import repro.obs.report as report
    import repro.training.ea as ea
    import repro.training.fitness as fitness
    from repro import cli
    from repro.cluster import ShardedFrontend
    from repro.cluster.runtime import ClusterRuntime
    from repro.core.executor import PolicyExecutor
    from repro.durability.manager import DurabilityManager
    from repro.frontend import Frontend
    from repro.sim.scheduler import Scheduler
    from repro.training.parallel import ParallelEvaluationEngine

    wrap = rep.recorder.wrap
    wrap(runner, "run_protocol", "bench.run_protocol",
         on_result=lambda args, result: rep.all_results.append(result))
    fitness.run_protocol = runner.run_protocol
    wrap(PolicyExecutor, "setup", "core.setup")
    wrap(ClusterRuntime, "shard_tables", "cluster.shard_tables")
    wrap(DurabilityManager, "install", "durability.install")
    wrap(DurabilityManager, "finalize", "durability.finalize")
    wrap(Frontend, "finalize", "frontend.finalize")
    wrap(ShardedFrontend, "finalize", "frontend.finalize")
    wrap(Scheduler, "finish_accounting", "sim.close")
    wrap(Scheduler, "close", "sim.close")
    wrap(runner, "storage_residue", "core.storage_residue")
    wrap(cli, "_write_trace", "obs.write_trace")
    wrap(cli, "_write_metrics", "obs.write_metrics_timeline")
    wrap(cli, "_write_timeline", "obs.write_metrics_timeline")
    wrap(report, "read_jsonl", "obs.read_trace")
    for analyzer in ("conflict_attribution", "latency_critical_path",
                     "policy_audit"):
        wrap(report, analyzer, "obs.insight")
    wrap(obs, "build_report", "obs.build_report")
    wrap(obs, "render_markdown", "obs.render")
    wrap(ParallelEvaluationEngine, "evaluate_batch",
         "training.evaluate_batch")
    wrap(ea, "save_checkpoint", "training.checkpoint")


# ---------------------------------------------------------------------- #
# workload bodies


def run_cell(rep: Rep, cell: cells.Cell, cc_name: str = "polyjuice"):
    """One ``run_named`` cell; returns the ExperimentResult."""
    import repro.bench.runner as runner
    from repro.cluster.workloads import make_cluster_tpcc_factory
    from repro.config import (ClusterConfig, DurabilityConfig,
                              FrontendConfig, SimConfig)
    from repro.core.backoff import BackoffPolicy
    from repro.core.policy import CCPolicy
    from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

    policy_path, backoff_path = rep.policy_paths(cell.fixture)
    with rep.recorder.span("harness.fixtures"):
        policy = CCPolicy.load(tpcc_spec(), policy_path)
        backoff = BackoffPolicy.load(backoff_path)
    cluster = None
    if cell.shards > 1:
        cluster = ClusterConfig(n_shards=cell.shards,
                                cross_shard_ratio=cell.cross)
        factory = make_cluster_tpcc_factory(
            cell.shards, cell.workers, cross_shard_ratio=cell.cross,
            n_warehouses=cell.warehouses, seed=rep.seed)
    else:
        factory = make_tpcc_factory(n_warehouses=cell.warehouses,
                                    seed=rep.seed)
    frontend = None
    if cell.arrival_rate is not None:
        frontend = FrontendConfig(arrival_rate=cell.arrival_rate,
                                  queue_cap=cells.QUEUE_CAP,
                                  deadline=cells.DEADLINE,
                                  retry_budget=cells.RETRY_BUDGET)
    config = SimConfig(
        n_workers=cell.workers, duration=cell.ticks, warmup=cell.warmup,
        seed=rep.seed, cluster=cluster, frontend=frontend,
        durability=DurabilityConfig() if cell.durability else None)
    kwargs = {}
    if "trace" in cell.obs:
        from repro.obs import MemorySink
        kwargs["trace_sink"] = MemorySink()
    if "timeline" in cell.obs:
        from repro.obs import TimelineSampler, default_timeline_window
        kwargs["timeline"] = TimelineSampler(
            default_timeline_window(config), config.n_workers)
    if "accountant" in cell.obs:
        from repro.obs import TimeAccountant
        kwargs["accountant"] = TimeAccountant(config.n_workers,
                                              config.duration)
    if cell.obs:
        from repro.obs import MetricsRegistry
        kwargs["metrics"] = MetricsRegistry()
    history = None
    if rep.verify and cc_name == "polyjuice":
        from repro.analysis import HistoryRecorder
        history = kwargs["recorder"] = HistoryRecorder()
    result = runner.run_named(factory, cc_name, config,
                              policy=policy, backoff_policy=backoff,
                              **kwargs)
    if history is not None:
        check_history(rep, history)
    return result


def check_history(rep: Rep, history) -> dict:
    """The serializability oracle plus the lock / access-list residue scan
    over the final database (verify repetitions)."""
    from repro.analysis import SerializabilityChecker
    from repro.core.validation import storage_residue
    with rep.recorder.span("analysis.serializability.check"):
        cycle = SerializabilityChecker(history).find_cycle()
    if cycle is not None:
        raise OracleFailure(f"non-serializable history, cycle {cycle[:8]}")
    rep.history_txns = len(history)
    for workload in rep.workloads:
        residue = storage_residue(workload.db)
        if residue:
            raise OracleFailure(f"storage residue: {residue[:3]}")


def body_cell(rep: Rep, cell: cells.Cell) -> dict:
    result = run_cell(rep, cell)
    extra = {}
    if rep.verify and rep.name == "tpcc_pj_closed":
        # the one comparison the paper's headline rests on: the learned
        # policy against IC3 on the identical configuration
        ic3 = run_cell(rep, cell, cc_name="ic3")
        extra["ic3_tps"] = ic3.stats.throughput()
    return {"result": result, "program": "tpcc", "extra": extra}


def _cli(rep: Rep, leg: str, argv) -> None:
    """One in-process ``repro.cli.main`` leg; its output is discarded."""
    from repro import cli
    with rep.recorder.span(leg), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    if code != 0:
        raise OracleFailure(f"{leg}: `repro {argv[0]}` exited {code}")


def body_obs_report(rep: Rep, cell: cells.ObsReport) -> dict:
    policy, backoff = rep.policy_paths(cell.fixture)
    out = {name: os.path.join(rep.workdir, name) for name in
           ("trace.jsonl", "metrics.json", "timeline.json", "report.md")}
    _cli(rep, "cli.run", [
        "run", "--workload", "tpcc", "--cc", "polyjuice",
        "--policy", policy, "--backoff", backoff,
        "--workers", cell.workers, "--duration", cell.ticks,
        "--warmup", cell.warmup, "--seed", rep.seed,
        "--trace", out["trace.jsonl"], "--metrics", out["metrics.json"],
        "--timeline", out["timeline.json"]])
    _cli(rep, "cli.report", [
        "report", "--trace", out["trace.jsonl"],
        "--metrics", out["metrics.json"],
        "--timeline", out["timeline.json"], "--policy", policy,
        "--out", out["report.md"]])
    extra = {"trace_bytes": os.path.getsize(out["trace.jsonl"])}
    with open(out["trace.jsonl"], "rb") as fh:
        header = fh.readline()
        extra["trace_events"] = sum(1 for _line in fh)
    if rep.verify:
        check_report(header, out["report.md"])
    return {"result": rep.results[-1], "program": "tpcc", "extra": extra}


REPORT_SECTIONS = ("## Summary", "## Timeline", "## Conflict attribution",
                   "## Latency critical path", "## Policy audit")


def check_report(header: bytes, report_path: str) -> None:
    from repro.obs import TRACE_SCHEMA, TRACE_SCHEMA_VERSION
    try:
        head = json.loads(header)
    except ValueError:
        head = None
    if head != {"schema": TRACE_SCHEMA, "version": TRACE_SCHEMA_VERSION}:
        raise OracleFailure(f"trace schema header missing: {header[:80]!r}")
    with open(report_path, encoding="utf-8") as fh:
        text = fh.read()
    missing = [s for s in REPORT_SECTIONS if s not in text]
    if missing:
        raise OracleFailure(f"report lacks sections {missing}")


def body_train_ea(rep: Rep, cell: cells.TrainEA) -> dict:
    out = {name: os.path.join(rep.workdir, name) for name in
           ("policy.json", "backoff.json", "checkpoint")}
    _cli(rep, "cli.train", [
        "train", "--workload", "micro", "--theta", 0.8,
        "--workers", cell.fitness_workers,
        "--fitness-duration", cell.fitness_ticks,
        "--iterations", cell.iterations, "--population", cell.population,
        "--children", cell.children, "--jobs", cell.jobs,
        "--seed", rep.seed, "--checkpoint", out["checkpoint"],
        "--policy-out", out["policy.json"],
        "--backoff-out", out["backoff.json"]])
    # what the user does with the artifacts: run the policy they wrote
    _cli(rep, "cli.run", [
        "run", "--workload", "micro", "--theta", 0.8,
        "--workers", cell.fitness_workers, "--cc", "polyjuice",
        "--policy", out["policy.json"], "--backoff", out["backoff.json"],
        "--duration", cell.replay_ticks, "--warmup", cell.replay_warmup,
        "--seed", rep.seed])
    trainer, training = rep.training
    evaluator = trainer.evaluator
    digest = hashlib.sha256()
    for name in ("policy.json", "backoff.json"):
        with open(out[name], "rb") as fh:
            digest.update(fh.read())
    checkpoint = os.path.join(out["checkpoint"], "checkpoint.json")
    extra = {
        "evaluations": training.evaluations,
        "cache_hits": evaluator.cache_hits,
        "failed_evaluations": evaluator.failures + evaluator.timeouts,
        "best_fitness_tps": training.best_fitness,
        "policy_sha": digest.hexdigest(),
        "checkpoint_bytes": os.path.getsize(checkpoint),
        "jobs": cell.jobs,
    }
    if training.interrupted:
        raise OracleFailure("training was interrupted")
    return {"result": rep.results[-1], "program": "micro", "extra": extra}


# ---------------------------------------------------------------------- #
# the record


def sim_facts(result, latency_type: str) -> dict:
    """The simulated (deterministic-for-a-seed) facts of one run."""
    stats = result.stats
    digest = stats.latency[latency_type]
    summary = json.dumps(stats.summary(), sort_keys=True)
    facts = {
        "tps": stats.throughput(),
        "goodput_tps": stats.goodput(),
        "abort_rate": stats.abort_rate(),
        "commits": stats.total_commits,
        "aborts": stats.total_aborts,
        "all_commits": stats.total_commits + stats.warmup_commits,
        "piece_retries": sum(stats.piece_retries.values()),
        "p50_us": digest.pct(0.50),
        "p95_us": digest.pct(0.95),
        "latency_n": digest.count,
        "summary_sha": hashlib.sha256(summary.encode()).hexdigest(),
        "violations": list(result.invariant_violations[:5]),
    }
    if stats.open_loop:
        facts["resolved"] = (stats.slo_commits + stats.late_commits
                             + stats.total_shed)
        facts["shed"] = stats.total_shed
        facts["expired"] = sum(count for reason, count in stats.shed.items()
                               if reason != "queue_full")
        facts["late"] = stats.late_commits
        facts["queue_wait_p99_us"] = stats.queue_wait.pct(0.99)
    return facts


def layer_counts(rep: Rep, result) -> dict:
    """Counters read off the objects each layer leaves behind (traced
    repetitions); every one repeats exactly for a seed."""
    counts = {
        # over every run of the repetition (train_ea: 31 evaluations + 1)
        "all_commits": sum(r.stats.total_commits + r.stats.warmup_commits
                           for r in rep.all_results),
        "waits": sum(sum(s.wait_count_by_kind.values())
                     for s in rep.schedulers),
        "cycle_breaks": sum(s.cycle_breaks for s in rep.schedulers),
        "rows": sum(w.db.total_rows() for w in rep.workloads
                    if w.db is not None),
        "profiled_events": rep.profiled_events,
    }
    manager = result.durability
    if manager is not None:
        counts.update(log_bytes=manager.log_bytes_total,
                      flushes=manager.flushes,
                      flush_stalls=manager.flush_stalls,
                      max_epoch_lag=manager.max_epoch_lag)
        runtime = getattr(manager, "runtime", None)
        if runtime is not None:
            counts["cluster"] = dict(runtime.metrics_rows())
    frontend = result.frontend
    if frontend is not None:
        counts.update(arrivals=frontend.arrivals,
                      queue_depth_max=frontend.depth_max)
    return counts


def main(argv) -> int:
    spec = json.loads(argv[1])
    rep = Rep(spec)
    os.makedirs(rep.workdir, exist_ok=True)
    rec = rep.recorder
    try:
        with rec.span("rep") as root:
            with rec.span("cli.import"):
                import repro.cli  # noqa: F401  (pulls in every layer)
            install_shims(rep)
            cell = cells.lookup(rep.name)
            if isinstance(cell, cells.Cell):
                outcome = body_cell(rep, cell)
            elif isinstance(cell, cells.ObsReport):
                outcome = body_obs_report(rep, cell)
            else:
                outcome = body_train_ea(rep, cell)
        result = outcome["result"]
        facts = sim_facts(result, cells.LATENCY_TYPE[outcome["program"]])
        if facts["violations"]:
            raise OracleFailure(f"invariant violations: "
                                f"{facts['violations']}")
        rows = rec.rows()
        # set-up ends at the first simulated event: the first fitness
        # evaluation of the trainer (none in this process under --jobs 2,
        # whose workers are forked), else the first Scheduler.run
        first = min(row["start"] for row in rows
                    if row["name"] in ("training.compute", "sim.run"))
        record = {
            "name": rep.name, "mode": rep.mode, "seed": rep.seed,
            "t_start": _T_START,
            "setup_from_start_s": first - _PERF_START,
            "body_from_start_s": root.end - _PERF_START,
            "run_s": total(rows, "sim.run"), "events": rep.events,
            "rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim": facts, "extra": outcome["extra"],
            "spans": rows,
        }
        if rep.verify:
            record["extra"]["history_txns"] = getattr(rep, "history_txns", 0)
        if rep.traced:
            record["counts"] = layer_counts(rep, result)
            record["extra"]["floor_events_per_s"] = floor_events_per_s(
                rep.events, getattr(cell, "workers", 0)
                or cell.fitness_workers, rep.seed)
        if rep.profile is not None:
            record["profile"] = bucket_profile(rep.profile.getstats())
    except OracleFailure as exc:
        print(f"ORACLE FAILURE [{rep.name}/{rep.mode}]: {exc}",
              file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(rep.workdir, ignore_errors=True)
    print(json.dumps(record), flush=True)
    # skip interpreter teardown: freeing a few hundred MB of records one by
    # one is not part of any metric and would eat the run's time budget
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
