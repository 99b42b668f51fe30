"""Per-layer metrics: fold the traced repetitions and ledger cells of one
workload into the values named in :mod:`catalog`.

Every name is emitted for every workload; a layer that does no work on a
workload reads 0 there, which is itself the prediction ("no change") the
interaction table in ``README.md`` makes for it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from . import catalog, spans as sp
from .profiling import LEAF_BUCKETS

#: catalogue name of each cProfile bucket's share
_SHARE_NAMES = {bucket: f"{bucket}.self_frac" for bucket in LEAF_BUCKETS}
_SHARE_NAMES.update({
    "storage.access_list": "storage.access_list.self_frac",
    "cluster.durability": "cluster.durability.self_frac",
    "cluster.network": "cluster.network.self_frac",
})

_CORE_BUCKETS = ("core.executor", "core.validation", "core.other")


class LedgerInconsistent(Exception):
    """The differential ledger contradicts itself."""


def total_under(rows: List[dict], name: str, ancestor: str) -> float:
    """Summed duration of spans called ``name`` that have an ancestor
    called ``ancestor``."""
    result = 0.0
    for row in rows:
        if row["name"] != name:
            continue
        parent = row["parent"]
        while parent is not None:
            if rows[parent]["name"] == ancestor:
                result += row["end"] - row["start"]
                break
            parent = rows[parent]["parent"]
    return result


def run_us_per_commit(records: List[dict]) -> float:
    """Median host microseconds of the ``Scheduler.run`` span per commit."""
    return statistics.median(
        r["run_s"] / r["sim"]["all_commits"] * 1e6 for r in records)


def events_per_s(records: List[dict]) -> float:
    return statistics.median(r["events"] / r["run_s"] for r in records)


def _ledger_us(ledger: Dict[str, List[dict]], cell: str) -> Optional[float]:
    records = ledger.get(cell)
    return run_us_per_commit(records) if records else None


def check_ledger(ledger: Dict[str, List[dict]],
                 obs_run_tps: Optional[float]) -> None:
    """The ledger's internal consistency (an acceptance criterion):
    observability never perturbs the simulation, so O0-O4 share one
    ``sim_tps`` and O4 reproduces the ``obs_report`` run leg; every
    record of one cell is the same simulation."""
    for cell, records in ledger.items():
        if len({r["sim"]["summary_sha"] for r in records}) > 1:
            raise LedgerInconsistent(f"{cell}: repetitions diverged")
    obs_cells = [c for c in ("O0", "O1", "O2", "O3", "O4") if c in ledger]
    tps = {c: ledger[c][0]["sim"]["tps"] for c in obs_cells}
    if len(set(tps.values())) > 1:
        raise LedgerInconsistent(f"obs cells moved sim_tps: {tps}")
    if obs_run_tps is not None and "O4" in tps \
            and tps["O4"] != obs_run_tps:
        raise LedgerInconsistent(
            f"O4 sim_tps {tps['O4']} != obs_report run leg {obs_run_tps}")


def per_layer(timed: List[dict], spans_rec: dict, profile_rec: dict,
              verify_rec: dict, ledger: Dict[str, List[dict]],
              host_load1: float) -> Dict[str, float]:
    """All of :data:`catalog.PER_LAYER_NAMES` for one workload."""
    v = dict.fromkeys(catalog.PER_LAYER_NAMES, 0.0)
    # the untraced reference: repetitions of the seed the traced ones ran
    timed = [r for r in timed if r["seed"] == spans_rec["seed"]]
    rows = spans_rec["spans"]
    counts = spans_rec["counts"]
    sim = spans_rec["sim"]
    extra = spans_rec["extra"]
    commits = counts["all_commits"]

    def span_s(name: str) -> float:
        return sp.total(rows, name)

    # --- sim ----------------------------------------------------------- #
    v["sim.run_s"] = span_s("sim.run")
    v["sim.events"] = spans_rec["events"]
    v["sim.events_per_commit"] = spans_rec["events"] / commits
    v["sim.waits_per_commit"] = counts["waits"] / commits
    v["sim.cycle_breaks"] = counts["cycle_breaks"]
    v["sim.close_s"] = span_s("sim.close")
    v["sim.floor_events_per_s"] = extra["floor_events_per_s"]
    v["sim.floor_frac"] = events_per_s(timed) / extra["floor_events_per_s"]

    # --- cProfile shares and call counts -------------------------------- #
    profile = profile_rec["profile"]
    profiled_events = profile_rec["counts"]["profiled_events"]
    for bucket, name in _SHARE_NAMES.items():
        v[name] = profile["self_frac"][bucket]
    v["sim.calls_per_event"] = profile["total_calls"] / profiled_events
    # calls in the profiled runs, scaled to a commit by two exact ratios
    per_commit = v["sim.events_per_commit"] / profiled_events
    v["core.calls_per_commit"] = per_commit * sum(
        profile["calls"][bucket] for bucket in _CORE_BUCKETS)
    v["storage.calls_per_commit"] = per_commit * profile["calls"]["storage"]

    # --- core, cc, storage, workloads ----------------------------------- #
    v["core.setup_s"] = span_s("core.setup")
    v["core.commit_ratio"] = sim["commits"] / (sim["commits"]
                                               + sim["aborts"])
    v["core.piece_retries_per_commit"] = sim["piece_retries"] \
        / sim["commits"]
    v["core.storage_residue_s"] = span_s("core.storage_residue")
    if "ic3_tps" in verify_rec["extra"]:
        v["cc.pj_over_ic3"] = verify_rec["sim"]["tps"] \
            / verify_rec["extra"]["ic3_tps"]
    v["workloads.build_database_s"] = span_s("workloads.build_database")
    v["workloads.rows"] = counts["rows"]
    v["workloads.check_invariants_s"] = span_s("workloads.check_invariants")

    # --- durability ------------------------------------------------------ #
    v["durability.install_s"] = span_s("durability.install")
    v["durability.finalize_s"] = span_s("durability.finalize")
    if "log_bytes" in counts:
        v["durability.log_bytes_per_commit"] = counts["log_bytes"] / commits
        v["durability.flushes"] = counts["flushes"]
        v["durability.flush_stalls"] = counts["flush_stalls"]
        v["durability.max_epoch_lag"] = counts["max_epoch_lag"]
    steps = [("durability.marginal_us_per_commit", "L0", "L1"),
             ("cluster.marginal_us_per_commit", "L1", "L2"),
             ("cluster.cross_marginal_us_per_commit", "L2", "L3"),
             ("frontend.marginal_us_per_commit", "L3", "L4")]
    if all(cell in ledger for cell in ("L0", "L1", "L2", "L3", "L4")):
        for name, before, after in steps:
            v[name] = _ledger_us(ledger, after) - _ledger_us(ledger, before)
        whole = _ledger_us(ledger, "L4") - _ledger_us(ledger, "L0")
        if abs(sum(v[name] for name, _b, _a in steps) - whole) \
                > 1e-6 * abs(whole):
            raise LedgerInconsistent("marginals do not telescope to L4 - L0")
        overload = ledger["L4"][0]["sim"]
        v["frontend.shed_frac"] = overload["shed"] / overload["resolved"]
        v["frontend.expired_frac"] = overload["expired"] \
            / overload["resolved"]

    # --- cluster, frontend ---------------------------------------------- #
    v["cluster.shard_tables_s"] = span_s("cluster.shard_tables")
    cluster = counts.get("cluster")
    if cluster is not None:
        v["cluster.remote_accesses_per_commit"] = \
            cluster["cluster_remote_accesses"] / commits
        v["cluster.cross_shard_commit_frac"] = \
            cluster["cluster_cross_shard_commits"] / commits
        v["cluster.net_messages"] = cluster["cluster_net_messages"]
        v["cluster.prepares"] = cluster["cluster_prepares_total"]
        v["cluster.net_ticks_per_commit"] = \
            cluster["cluster_net_ticks_total"] / commits
    v["frontend.finalize_s"] = span_s("frontend.finalize")
    if "arrivals" in counts:
        v["frontend.arrivals"] = counts["arrivals"]
        v["frontend.queue_depth_max"] = counts["queue_depth_max"]
        v["frontend.queue_wait_p99_us"] = sim["queue_wait_p99_us"]

    # --- obs -------------------------------------------------------------- #
    off = _ledger_us(ledger, "O0")
    if off is not None:
        for name, cell in (("obs.trace_on_cost_frac", "O1"),
                           ("obs.timeline_on_cost_frac", "O2"),
                           ("obs.accountant_on_cost_frac", "O3"),
                           ("obs.all_on_cost_frac", "O4")):
            v[name] = _ledger_us(ledger, cell) / off - 1.0
    v["obs.trace_events"] = extra.get("trace_events", 0)
    v["obs.trace_bytes"] = extra.get("trace_bytes", 0)
    v["obs.write_trace_s"] = span_s("obs.write_trace")
    v["obs.write_metrics_timeline_s"] = span_s("obs.write_metrics_timeline")
    v["obs.read_trace_s"] = span_s("obs.read_trace")
    v["obs.insight_s"] = span_s("obs.insight")
    v["obs.render_s"] = span_s("obs.render")
    v["obs.report_s"] = span_s("cli.report")
    if v["obs.report_s"] > 0:
        v["obs.report_events_per_s"] = v["obs.trace_events"] \
            / v["obs.report_s"]

    # --- training --------------------------------------------------------- #
    evals = sp.durations(rows, "training.compute")
    if evals:
        v["training.evaluations"] = extra["evaluations"]
        v["training.cache_hits"] = extra["cache_hits"]
        v["training.eval_s"] = statistics.median(evals)
        v["training.eval_setup_frac"] = 1.0 - total_under(
            rows, "sim.run", "training.compute") / sum(evals)
        v["training.breed_s"] = sp.self_total(rows, "training.train")
        v["training.checkpoint_s"] = span_s("training.checkpoint")
        v["training.checkpoint_bytes"] = extra["checkpoint_bytes"]
        v["training.best_fitness_tps"] = extra["best_fitness_tps"]
        v["training.evals_per_s"] = statistics.median(
            r["extra"]["evaluations"] / (r["wall_s"] - r["setup_s"])
            for r in timed)
        if "T2" in ledger:
            serial = statistics.median(
                sp.total(r["spans"], "cli.train") for r in timed)
            pooled = statistics.median(
                sp.total(r["spans"], "cli.train") for r in ledger["T2"])
            v["training.parallel.jobs2_speedup"] = serial / pooled
            if any(r["extra"]["policy_sha"] != extra["policy_sha"]
                   for r in ledger["T2"]):
                raise LedgerInconsistent(
                    "--jobs 2 wrote different policy bytes than --jobs 1")
            v["training.parallel.jobs2_identical"] = 1.0

    # --- analysis, cli, bench, harness ------------------------------------ #
    v["analysis.serializability.check_s"] = sp.total(
        verify_rec["spans"], "analysis.serializability.check")
    v["analysis.history_txns"] = verify_rec["extra"]["history_txns"]
    v["cli.import_s"] = span_s("cli.import")
    v["cli.run_overhead_s"] = span_s("cli.run") - total_under(
        rows, "bench.run_protocol", "cli.run")
    v["bench.run_protocol_self_s"] = sp.self_total(rows,
                                                   "bench.run_protocol")
    untraced_wall = statistics.median(r["wall_s"] for r in timed)
    v["harness.trace_overhead_frac"] = spans_rec["wall_s"] / untraced_wall \
        - 1.0
    untraced_per_event = statistics.median(
        r["run_s"] / r["events"] for r in timed)
    v["harness.profile_overhead_frac"] = \
        (profile["total_s"] / profiled_events) / untraced_per_event - 1.0
    v["harness.host_load1"] = host_load1
    return v
