"""The metric catalogue: every name the benchmark prints, with its unit,
direction, bound and the end-to-end metric it is expected to move.

``BENCHMARK.json`` is :func:`benchmark_json` of this module, written once;
``test_harness.py`` fails when the two drift apart.  Later issues cite a
number as ``<metric>@<workload>`` using exactly these names.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from . import cells

#: measured repetitions per workload when run by hand (``python -m
#: benchmarks.harness``); under the driver's ``--seconds`` the count is
#: whatever fits, never fewer than MIN_REPS
REPS = {"tpcc_pj_closed": 7, "cluster_open_durable": 5,
        "obs_report": 5, "train_ea": 5}
MIN_REPS = 5
#: program seeds one ``--seed`` fans out into (repetition k runs at slot
#: ``k % SUB_SEEDS``; see ``driver.WorkloadRun.program_seeds``)
SUB_SEEDS = 5
#: ledger rounds when run by hand (the driver's time cap allows 1-2)
LEDGER_REPS = 3
RUN_SECONDS = 20

WORKLOADS = {
    "tpcc_pj_closed":
        "closed loop, 16 clients: TPC-C 1 warehouse under the learned "
        "policy, every opt-in layer off - the paper's headline cell and "
        "the pure engine path (sim, core, storage, workloads)",
    "cluster_open_durable":
        "open loop, Poisson 150 k/s: TPC-C 16 warehouses on 4 shards with "
        "10 % cross-shard 2PC, per-shard WALs and admission control - "
        "cluster, durability and frontend do the work; set-up exceeds "
        "the run",
    "obs_report":
        "closed loop: the same simulation through `repro run` with trace, "
        "metrics and timeline written, then `repro report` re-reads and "
        "analyses them - obs and cli do the marginal work",
    "train_ea":
        "batch: `repro train` EA on micro theta 0.8 (31 cold evaluations, "
        "checkpoints) then `repro run` of the policy it wrote - the only "
        "path where training runs and where set-up is paid 32 times",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    kind: str        # "host" (measured here) | "sim" (repeats for a seed)
    definition: str


# A bound is about three times the widest spread (interquartile distance
# over the median) any workload showed over ten --seed values on a quiet
# 2-core VM; README.md has the spreads.  Host times are the exception:
# neighbour noise on a shared VM slows whole runs by 10-40 % for tens of
# seconds, which no number of repetitions inside one run averages out — two
# quiet sweeps gave 4 % and 13 % for wall_s — so wall_s and events_per_s
# get 0.20 and setup_s the contract's maximum.  Simulated metrics repeat
# exactly for a seed; their bound covers how they move *between* seeds.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, "host",
             "process spawn to the first simulated event (first "
             "Scheduler.run entry; train_ea: first FitnessEvaluator."
             "compute): interpreter start, imports, fixture load, "
             "build_database, cc.setup, shard tables, durability install"),
    EndToEnd("wall_s", "s", "lower", 0.20, "host",
             "process spawn to the end of the workload body: everything "
             "the user waits for (set-up, run, invariants, artifact "
             "writes, report)"),
    EndToEnd("events_per_s", "events/s", "higher", 0.20, "host",
             "Scheduler.events_processed over the host time inside "
             "Scheduler.run, summed over every run of the repetition"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, "host",
             "ru_maxrss of the repetition's process at exit"),
    EndToEnd("sim_tps", "txn/sim-s", "higher", 0.15, "sim",
             "RunStats.throughput() of the workload's run (train_ea: of "
             "the run of the policy it trained)"),
    EndToEnd("sim_goodput_tps", "txn/sim-s", "higher", 0.15, "sim",
             "RunStats.goodput(): durable commits within their deadline "
             "(equals sim_tps in a closed loop)"),
    EndToEnd("sim_commit_ratio", "fraction", "higher", 0.15, "sim",
             "commits / attempts = 1 - RunStats.abort_rate() (the abort "
             "rate itself is 0 on the cluster cell, and a metric must "
             "never be 0)"),
    EndToEnd("sim_p50_latency_us", "sim-us", "lower", 0.12, "sim",
             "median commit latency of neworder (micro: micro0), retries "
             "included; open loop: from arrival to durable ack"),
    EndToEnd("sim_p95_latency_us", "sim-us", "lower", 0.22, "sim",
             "p95 of the same latencies - the highest percentile with at "
             "least ten samples beyond it on every workload (n >= 200; "
             "p99 would need n >= 1000)"),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str      # spans | profile | count | ledger | verify | timed
    moves: str       # "<end-to-end metric> @ <workload>" it should move
    exact: bool = False   # repeats bit-for-bit for a seed


def _frac(name: str, moves: str) -> PerLayer:
    return PerLayer(name, "fraction", "lower", "profile", moves)


_ENGINE = "events_per_s @ tpcc_pj_closed"
_CLUSTER = "events_per_s @ cluster_open_durable"

PER_LAYER: List[PerLayer] = [
    # sim
    PerLayer("sim.run_s", "s", "lower", "spans", "wall_s @ all"),
    PerLayer("sim.events", "count", "lower", "count", _ENGINE, True),
    PerLayer("sim.events_per_commit", "count", "lower", "count", _ENGINE,
             True),
    PerLayer("sim.calls_per_event", "count", "lower", "profile", _ENGINE,
             True),
    PerLayer("sim.waits_per_commit", "count", "lower", "count",
             "sim_tps @ tpcc_pj_closed", True),
    PerLayer("sim.cycle_breaks", "count", "lower", "count",
             "sim_commit_ratio @ tpcc_pj_closed", True),
    _frac("sim.scheduler.self_frac", _ENGINE),
    _frac("sim.worker.self_frac", _ENGINE),
    _frac("sim.stats.self_frac", _ENGINE),
    _frac("sim.python_other.self_frac", _ENGINE),
    PerLayer("sim.close_s", "s", "lower", "spans", "wall_s @ all"),
    PerLayer("sim.floor_events_per_s", "events/s", "higher", "spans",
             "none (host speed of a bare heap loop)"),
    PerLayer("sim.floor_frac", "fraction", "higher", "spans", _ENGINE),
    # core, cc
    PerLayer("core.setup_s", "s", "lower", "spans",
             "training.evals_per_s @ train_ea (x32); ~0 elsewhere"),
    _frac("core.executor.self_frac", _ENGINE),
    _frac("core.validation.self_frac", _ENGINE),
    _frac("core.other.self_frac", _ENGINE),
    _frac("cc.self_frac", "none under polyjuice (baselines only)"),
    PerLayer("core.calls_per_commit", "count", "lower", "profile", _ENGINE,
             True),
    PerLayer("core.commit_ratio", "fraction", "higher", "count",
             "sim_tps, sim_commit_ratio @ all", True),
    PerLayer("core.piece_retries_per_commit", "count", "lower", "count",
             "sim_tps @ tpcc_pj_closed", True),
    PerLayer("core.storage_residue_s", "s", "lower", "spans",
             "wall_s @ cluster_open_durable"),
    PerLayer("cc.pj_over_ic3", "ratio", "higher", "verify",
             "sim_tps @ tpcc_pj_closed (policy over ic3, same config)",
             True),
    # storage
    _frac("storage.self_frac", _ENGINE),
    _frac("storage.access_list.self_frac", _ENGINE),
    PerLayer("storage.calls_per_commit", "count", "lower", "profile",
             _ENGINE, True),
    # workloads
    PerLayer("workloads.build_database_s", "s", "lower", "spans",
             "setup_s @ cluster_open_durable; training.evals_per_s @ "
             "train_ea"),
    PerLayer("workloads.rows", "count", "lower", "count",
             "setup_s, peak_rss_mb @ cluster_open_durable", True),
    _frac("workloads.txn_logic.self_frac", _ENGINE),
    PerLayer("workloads.check_invariants_s", "s", "lower", "spans",
             "wall_s @ cluster_open_durable"),
    # durability
    PerLayer("durability.install_s", "s", "lower", "spans",
             "setup_s @ cluster_open_durable"),
    PerLayer("durability.finalize_s", "s", "lower", "spans",
             "wall_s @ cluster_open_durable"),
    _frac("durability.self_frac", _CLUSTER),
    PerLayer("durability.marginal_us_per_commit", "us/commit", "lower",
             "ledger", _CLUSTER + " (L1 - L0)"),
    PerLayer("durability.log_bytes_per_commit", "bytes", "lower", "count",
             _CLUSTER, True),
    PerLayer("durability.flushes", "count", "lower", "count", _CLUSTER,
             True),
    PerLayer("durability.flush_stalls", "count", "lower", "count",
             "sim_p95_latency_us, sim_goodput_tps @ cluster_open_durable",
             True),
    PerLayer("durability.max_epoch_lag", "count", "lower", "count",
             "sim_p95_latency_us @ cluster_open_durable", True),
    # cluster
    PerLayer("cluster.shard_tables_s", "s", "lower", "spans",
             "setup_s @ cluster_open_durable"),
    _frac("cluster.self_frac", _CLUSTER),
    _frac("cluster.durability.self_frac", _CLUSTER),
    _frac("cluster.network.self_frac", _CLUSTER),
    PerLayer("cluster.marginal_us_per_commit", "us/commit", "lower",
             "ledger", _CLUSTER + " (L2 - L1)"),
    PerLayer("cluster.cross_marginal_us_per_commit", "us/commit", "lower",
             "ledger", _CLUSTER + " (L3 - L2)"),
    PerLayer("cluster.remote_accesses_per_commit", "count", "lower",
             "count", "sim_tps @ cluster_open_durable", True),
    PerLayer("cluster.cross_shard_commit_frac", "fraction", "lower",
             "count", "sim_tps @ cluster_open_durable", True),
    PerLayer("cluster.net_messages", "count", "lower", "count", _CLUSTER,
             True),
    PerLayer("cluster.prepares", "count", "lower", "count", _CLUSTER, True),
    PerLayer("cluster.net_ticks_per_commit", "sim-us", "lower", "count",
             "sim_tps, sim_p50_latency_us @ cluster_open_durable", True),
    # frontend
    _frac("frontend.self_frac", _CLUSTER),
    PerLayer("frontend.marginal_us_per_commit", "us/commit", "lower",
             "ledger", _CLUSTER + " (L4 - L3, overloaded: shed arrivals "
             "are overhead per useful commit)"),
    PerLayer("frontend.finalize_s", "s", "lower", "spans",
             "wall_s @ cluster_open_durable"),
    PerLayer("frontend.arrivals", "count", "higher", "count",
             "sim_goodput_tps @ cluster_open_durable", True),
    PerLayer("frontend.shed_frac", "fraction", "lower", "ledger",
             "sim_goodput_tps @ cluster_open_durable (measured on L4, "
             "1.33x capacity)", True),
    PerLayer("frontend.expired_frac", "fraction", "lower", "ledger",
             "sim_goodput_tps @ cluster_open_durable (measured on L4)",
             True),
    PerLayer("frontend.queue_depth_max", "count", "lower", "count",
             "sim_p95_latency_us @ cluster_open_durable", True),
    PerLayer("frontend.queue_wait_p99_us", "sim-us", "lower", "count",
             "sim_p95_latency_us @ cluster_open_durable", True),
    # obs
    PerLayer("obs.trace_on_cost_frac", "fraction", "lower", "ledger",
             "events_per_s, wall_s @ obs_report (O1 / O0 - 1)"),
    PerLayer("obs.timeline_on_cost_frac", "fraction", "lower", "ledger",
             "events_per_s @ obs_report (O2 / O0 - 1)"),
    PerLayer("obs.accountant_on_cost_frac", "fraction", "lower", "ledger",
             "none end to end (`repro profile` only; O3 / O0 - 1)"),
    PerLayer("obs.all_on_cost_frac", "fraction", "lower", "ledger",
             "events_per_s @ obs_report (O4 / O0 - 1)"),
    _frac("obs.self_frac", "events_per_s @ obs_report"),
    PerLayer("obs.trace_events", "count", "lower", "count",
             "wall_s @ obs_report", True),
    PerLayer("obs.trace_bytes", "bytes", "lower", "count",
             "wall_s @ obs_report", True),
    PerLayer("obs.write_trace_s", "s", "lower", "spans",
             "wall_s @ obs_report"),
    PerLayer("obs.write_metrics_timeline_s", "s", "lower", "spans",
             "wall_s @ obs_report"),
    PerLayer("obs.read_trace_s", "s", "lower", "spans",
             "wall_s @ obs_report"),
    PerLayer("obs.insight_s", "s", "lower", "spans", "wall_s @ obs_report"),
    PerLayer("obs.render_s", "s", "lower", "spans", "wall_s @ obs_report"),
    PerLayer("obs.report_s", "s", "lower", "spans", "wall_s @ obs_report"),
    PerLayer("obs.report_events_per_s", "events/s", "higher", "spans",
             "wall_s @ obs_report"),
    # training
    PerLayer("training.evaluations", "count", "lower", "count",
             "wall_s @ train_ea", True),
    PerLayer("training.cache_hits", "count", "higher", "count",
             "wall_s @ train_ea", True),
    PerLayer("training.eval_s", "s", "lower", "spans", "wall_s @ train_ea"),
    PerLayer("training.eval_setup_frac", "fraction", "lower", "spans",
             "wall_s @ train_ea (share of an evaluation outside "
             "Scheduler.run)"),
    PerLayer("training.breed_s", "s", "lower", "spans",
             "wall_s @ train_ea"),
    PerLayer("training.checkpoint_s", "s", "lower", "spans",
             "wall_s @ train_ea"),
    PerLayer("training.checkpoint_bytes", "bytes", "lower", "count",
             "wall_s @ train_ea", True),
    PerLayer("training.parallel.jobs2_speedup", "ratio", "higher", "ledger",
             "none end to end (train_ea runs --jobs 1; T1 / T2)"),
    PerLayer("training.parallel.jobs2_identical", "fraction", "higher",
             "ledger", "none (1 = --jobs 2 wrote the same policy bytes)",
             True),
    PerLayer("training.evals_per_s", "evals/s", "higher", "timed",
             "wall_s @ train_ea"),
    PerLayer("training.best_fitness_tps", "txn/sim-s", "higher", "count",
             "sim_tps @ train_ea", True),
    # analysis, cli, bench, harness
    PerLayer("analysis.serializability.check_s", "s", "lower", "verify",
             "none (budget of the oracle battery)"),
    PerLayer("analysis.history_txns", "count", "higher", "verify",
             "none", True),
    PerLayer("cli.import_s", "s", "lower", "spans", "setup_s @ all"),
    PerLayer("cli.run_overhead_s", "s", "lower", "spans",
             "wall_s @ obs_report (`repro run` leg minus run_protocol)"),
    PerLayer("bench.run_protocol_self_s", "s", "lower", "spans",
             "setup_s, wall_s @ all (worker/manager construction and the "
             "cyclic-GC pass after the event loop re-enables gc)"),
    PerLayer("harness.trace_overhead_frac", "fraction", "lower", "spans",
             "none (spans repetition wall / untraced wall - 1)"),
    PerLayer("harness.profile_overhead_frac", "fraction", "lower",
             "profile", "none (cProfile repetition run span / untraced "
             "run span - 1)"),
    PerLayer("harness.host_load1", "load", "lower", "timed",
             "none (1-minute load average when the run started)"),
]

END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
END_TO_END_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}


def benchmark_json() -> dict:
    """The contents of the root ``BENCHMARK.json``."""
    assert set(WORKLOADS) == set(cells.WORKLOADS)
    return {
        "command": ["python3", "benchmarks/harness/run.py"],
        "paths": ["benchmarks/harness"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
