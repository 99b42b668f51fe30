"""One-page run reports and run-to-run regression diffs (``repro report``).

:func:`build_report` folds a run's artifacts — a JSONL trace, a metrics
snapshot, a timeline export — into one plain-dict report: headline
numbers, the per-window timeline, conflict attribution, the latency
critical path and the policy audit.  :func:`render_markdown` renders it
as a single markdown page; ``--format json`` emits the dict verbatim.
Every section degrades to an explicit "no data" note when its input is
absent or empty (a zero-commit run produces a report, not a crash).

:func:`compare_metrics` diffs two metrics snapshots (throughput, abort
rate, per-type p99) and flags regressions beyond a threshold; the CLI
exits nonzero on any flagged row, which makes ``repro report --compare``
usable as a CI gate.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..config import TICKS_PER_SECOND
from ..errors import ReproError
from .insight import _ConflictAttribution, _CriticalPath, _PolicyAudit
from .metrics import load_metrics_json
from .timeline import TimelineSampler, load_timeline_json
from .tracing import EventKind, TraceEvent, _iter_numbered_jsonl

# build_report calls none of these; they stay importable from this module
# because the benchmark harness (benchmarks/harness/child.py) wraps them
# here by name for its per-layer spans
from .insight import conflict_attribution, latency_critical_path  # noqa: F401
from .insight import policy_audit  # noqa: F401
from .tracing import read_jsonl  # noqa: F401

#: compare: relative throughput / p99 change beyond this flags a regression
DEFAULT_COMPARE_THRESHOLD = 0.10
#: compare: absolute abort-rate increase beyond this flags a regression
ABORT_RATE_SLACK = 0.05


# ---------------------------------------------------------------------- #
# building


def build_report(trace_path: Optional[str] = None,
                 metrics_path: Optional[str] = None,
                 timeline_path: Optional[str] = None,
                 policy=None, top_k: int = 10) -> dict:
    """Assemble the report dict from whichever artifacts were supplied.

    The trace is read first (so its errors take precedence) in one
    streaming pass that feeds every analyser fold; no event outlives the
    line it was parsed from."""
    report: dict = {"inputs": {}}
    analysed = None
    if trace_path:
        analysed = _analyse_trace(trace_path, top_k, policy,
                                  derive_timeline=not timeline_path)
        report["inputs"]["trace"] = os.path.basename(trace_path)
    metrics_rows = None
    if metrics_path:
        metrics_rows = load_metrics_json(metrics_path)
        report["inputs"]["metrics"] = os.path.basename(metrics_path)
    if timeline_path:
        document = load_timeline_json(timeline_path)
        report["inputs"]["timeline"] = os.path.basename(timeline_path)
        report["timeline"] = {"window": document.get("window"),
                              "rows": document.get("rows", [])}
    if metrics_rows is not None:
        report["summary"] = _summary_from_metrics(metrics_rows)
    if analysed is not None:
        report.update(analysed)
    if analysed is None and metrics_rows is None and not timeline_path:
        raise ReproError(
            "repro report needs at least one artifact "
            "(--trace, --metrics or --timeline)")
    return report


def _analyse_trace(path: str, top_k: int, policy,
                   derive_timeline: bool) -> dict:
    """One pass over the trace file feeding each event to the analyser
    folds that read its kind; returns the event count and each fold's
    result, plus a trace-derived ``timeline`` when asked for and the
    trace committed or aborted."""
    folds = {"attribution": _ConflictAttribution(top_k),
             "critical_path": _CriticalPath(),
             "policy_audit": _PolicyAudit(policy)}
    if derive_timeline:
        folds["timeline"] = _TimelineFold()
    # kind -> the feed of each fold that reads it, built on first sight
    routes: Dict[str, list] = {}
    count = 0
    for lineno, event in _iter_numbered_jsonl(path):
        count += 1
        kind = event.kind
        feeds = routes.get(kind)
        if feeds is None:
            feeds = routes[kind] = [
                fold.feed for fold in folds.values()
                if fold.kinds is None or kind in fold.kinds]
        try:
            for feed in feeds:
                feed(event)
        except (AttributeError, TypeError, ValueError) as exc:
            # the reader checks an event's fields, not its attrs values:
            # a wrong-typed one (a list access_id, a list wait_kind) is
            # a bad artifact, reported like any other malformed line
            raise ReproError(
                f"{path}:{lineno}: wrong-typed attrs value in "
                f"{event.kind} event: {exc}") from exc
    out: dict = {"trace_events": count}
    for name, fold in folds.items():
        result = fold.result()
        if result is not None:
            out[name] = result
    return out


def _summary_from_metrics(rows: List[dict]) -> dict:
    summary: dict = {}
    for row in rows:
        name = row.get("name")
        labels = row.get("labels", {})
        if name == "run_throughput_tps":
            summary.setdefault("throughput_tps", {})[
                labels.get("cc", "?")] = row.get("value", 0.0)
        elif name == "run_abort_rate":
            summary.setdefault("abort_rate", {})[
                labels.get("cc", "?")] = row.get("value", 0.0)
        elif name == "run_commits_total":
            summary["commits_total"] = summary.get("commits_total", 0) \
                + row.get("value", 0)
        elif name == "run_latency_p99_us":
            summary.setdefault("latency_p99_us", {})[
                f"{labels.get('cc', '?')}/{labels.get('type', '?')}"] = \
                row.get("value", 0.0)
        elif name == "frontend_goodput_tps":
            summary.setdefault("slo", {}).setdefault("goodput_tps", {})[
                labels.get("cc", "?")] = row.get("value", 0.0)
        elif name == "frontend_slo_attainment":
            summary.setdefault("slo", {}).setdefault("attainment", {})[
                labels.get("cc", "?")] = row.get("value", 0.0)
        elif name == "frontend_shed_total":
            shed = summary.setdefault("slo", {}).setdefault("shed", {})
            reason = labels.get("reason", "?")
            shed[reason] = shed.get(reason, 0) + row.get("value", 0)
        elif name == "frontend_arrivals_total":
            slo = summary.setdefault("slo", {})
            slo["arrivals"] = slo.get("arrivals", 0) + row.get("value", 0)
        elif name == "frontend_admitted_total":
            slo = summary.setdefault("slo", {})
            slo["admitted"] = slo.get("admitted", 0) + row.get("value", 0)
        elif name == "frontend_queue_depth_max":
            slo = summary.setdefault("slo", {})
            slo["queue_depth_max"] = max(slo.get("queue_depth_max", 0),
                                         row.get("value", 0))
        elif name == "frontend_queue_wait_p99_us":
            summary.setdefault("slo", {}).setdefault(
                "queue_wait_p99_us", {})[labels.get("cc", "?")] = \
                row.get("value", 0.0)
        elif isinstance(name, str) and name.startswith("cluster_"):
            cluster = summary.setdefault("cluster", {})
            short = name[len("cluster_"):]
            if short.startswith("commits_shard"):
                cluster.setdefault("shard_commits", {})[
                    short[len("commits_shard"):]] = row.get("value", 0.0)
            else:
                cluster[short] = cluster.get(short, 0.0) \
                    + row.get("value", 0.0)
    return summary


class _TimelineFold:
    """Fallback per-window throughput derived straight from COMMIT events
    when no timeline artifact was exported alongside the trace."""

    #: every kind: the worker count is taken from all events
    kinds = None

    def __init__(self, window: float = 1000.0) -> None:
        self.window = window
        # the worker count only scales the conflict-wait fraction, which
        # rows() computes; it is set from the workers seen once fed
        self.sampler = TimelineSampler(window, 1)
        self.workers: set = set()
        self.seen = False

    def feed(self, event: TraceEvent) -> None:
        if event.worker >= 0:
            self.workers.add(event.worker)
        kind = event.kind
        if kind == EventKind.COMMIT:
            attrs = event.attrs or {}
            self.sampler.on_commit(event.ts, event.txn_type or "?",
                                   attrs.get("latency", 0.0))
            self.seen = True
        elif kind == EventKind.ABORT:
            attrs = event.attrs or {}
            self.sampler.on_abort(event.ts, event.txn_type or "?",
                                  attrs.get("reason", "?"))
            self.seen = True
        elif kind == EventKind.WAIT_END:
            attrs = event.attrs or {}
            self.sampler.on_wait(event.ts, attrs.get("wait_kind", "?"),
                                 attrs.get("waited", 0.0))

    def result(self) -> Optional[dict]:
        if not self.seen:
            return None
        self.sampler.n_workers = max(1, len(self.workers))
        return {"window": self.window, "rows": self.sampler.rows(),
                "derived_from_trace": True}


# ---------------------------------------------------------------------- #
# rendering


def _table(headers: List[str], rows: List[list]) -> List[str]:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return out


def _fmt(value, digits: int = 1) -> str:
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    return f"{value:,}" if isinstance(value, int) else str(value)


def render_markdown(report: dict) -> str:
    lines: List[str] = ["# Run report", ""]
    inputs = report.get("inputs", {})
    if inputs:
        lines.append("inputs: " + ", ".join(
            f"{kind} `{name}`" for kind, name in sorted(inputs.items())))
        lines.append("")

    lines.append("## Summary")
    summary = report.get("summary")
    if summary:
        for cc, tps in sorted(summary.get("throughput_tps", {}).items()):
            abort = summary.get("abort_rate", {}).get(cc, 0.0)
            lines.append(f"- **{cc}**: {_fmt(tps, 0)} TPS, "
                         f"abort rate {abort:.3f}")
        if "commits_total" in summary:
            lines.append(f"- commits: {_fmt(int(summary['commits_total']))}")
    else:
        lines.append("_no metrics artifact — no summary data_")
    lines.append("")

    lines.append("## Overload & SLO")
    slo = (summary or {}).get("slo")
    if slo:
        for cc, goodput in sorted(slo.get("goodput_tps", {}).items()):
            attainment = slo.get("attainment", {}).get(cc, 0.0)
            lines.append(f"- **{cc}**: goodput {_fmt(goodput, 0)} TPS "
                         f"(commits within deadline), SLO attainment "
                         f"{attainment:.3f}")
        if "arrivals" in slo:
            admitted = int(slo.get("admitted", 0))
            lines.append(f"- arrivals: {_fmt(int(slo['arrivals']))} "
                         f"({_fmt(admitted)} admitted)")
        if "queue_depth_max" in slo:
            lines.append("- admission queue depth max: "
                         f"{_fmt(int(slo['queue_depth_max']))}")
        for cc, wait in sorted(slo.get("queue_wait_p99_us", {}).items()):
            lines.append(f"- queue wait p99 [{cc}]: {_fmt(wait)} us")
        shed = slo.get("shed") or {}
        if shed:
            lines.append("")
            lines.extend(_table(
                ["shed reason", "count"],
                [[reason, _fmt(int(count))]
                 for reason, count in sorted(shed.items())]))
        else:
            lines.append("- shed: none")
    else:
        lines.append("_closed-loop run (or no metrics artifact) — "
                     "no admission-control data_")
    lines.append("")

    lines.append("## Cluster")
    cluster = (summary or {}).get("cluster")
    if cluster:
        shards = int(cluster.get("shards", 0))
        cross = int(cluster.get("cross_shard_commits", 0))
        lines.append(f"- shards: {shards}")
        lines.append(f"- cross-shard commits: {_fmt(cross)} "
                     f"({_fmt(int(cluster.get('prepares_total', 0)))} "
                     "prepares, "
                     f"{_fmt(int(cluster.get('decision_messages', 0)))} "
                     "decision messages)")
        lines.append(f"- remote accesses: "
                     f"{_fmt(int(cluster.get('remote_accesses', 0)))}, "
                     "network messages: "
                     f"{_fmt(int(cluster.get('net_messages', 0)))}")
        # cross-shard latency decomposition: of the network ticks a
        # cross-shard commit paid, how much was the 2PC prepare round
        # versus remote record round trips during execution
        net = cluster.get("net_ticks_total", 0.0)
        prepare = cluster.get("prepare_ticks_total", 0.0)
        if cross:
            lines.append("- cross-shard commit cost: "
                         f"{_fmt(net / cross)} net ticks/commit "
                         f"({_fmt(prepare / cross)} prepare round, "
                         f"{_fmt((net - prepare) / cross)} remote accesses)")
        if cluster.get("partition_aborts"):
            lines.append("- partition aborts: "
                         f"{_fmt(int(cluster['partition_aborts']))}")
        if cluster.get("in_doubt_total"):
            lines.append("- in-doubt at recovery: "
                         f"{_fmt(int(cluster['in_doubt_total']))} "
                         f"({_fmt(int(cluster.get('in_doubt_commits', 0)))} "
                         "resolved commit, "
                         f"{_fmt(int(cluster.get('in_doubt_aborts', 0)))} "
                         "presumed abort)")
        if cluster.get("duplicate_decisions"):
            lines.append("- duplicate decision messages absorbed: "
                         f"{_fmt(int(cluster['duplicate_decisions']))}")
        shard_commits = cluster.get("shard_commits") or {}
        if shard_commits:
            lines.append("")
            lines.extend(_table(
                ["shard", "commits"],
                [[shard, _fmt(int(count))] for shard, count
                 in sorted(shard_commits.items(), key=lambda kv: int(kv[0]))]))
    else:
        lines.append("_single-node run (or no metrics artifact) — "
                     "no cluster data_")
    lines.append("")

    # the Availability section appears only when a shard crash left its
    # marks in the artifacts, so crash-free reports are unchanged
    shard_crashes = int((cluster or {}).get("shard_crashes", 0))
    if shard_crashes:
        lines.append("## Availability")
        lines.append(f"- shard crashes: {shard_crashes}, total downtime "
                     f"{_fmt(cluster.get('shard_downtime_total', 0.0), 0)} "
                     "ticks")
        lines.append("- transactions voided by truncation: "
                     f"{_fmt(int(cluster.get('voided_txns', 0)))}, "
                     "prepares blocked in doubt: "
                     f"{_fmt(int(cluster.get('blocked_in_doubt_total', 0)))}")
        degraded_bits = []
        down_aborts = int(cluster.get("shard_down_aborts", 0))
        degraded_bits.append(f"{_fmt(down_aborts)} remote-access aborts")
        shard_down_shed = int(((summary or {}).get("slo") or {})
                              .get("shed", {}).get("shard_down", 0))
        degraded_bits.append(f"{_fmt(shard_down_shed)} arrivals shed "
                             "at admission")
        lines.append("- degraded-mode rejections: "
                     + ", ".join(degraded_bits))
        timeline_rows = (report.get("timeline") or {}).get("rows") or []
        degraded_rows = [
            r for r in timeline_rows
            if any(key.startswith("down_shard") and r[key] > 0.0
                   for key in r)]
        if degraded_rows:
            window = sum(r["end"] - r["start"] for r in degraded_rows)
            commits = sum(r["commits"] for r in degraded_rows)
            tps = commits / window * TICKS_PER_SECOND if window else 0.0
            live = sum(1 for r in degraded_rows if r["commits"] > 0)
            lines.append(
                f"- degraded window: {len(degraded_rows)} timeline "
                f"windows ({live} with commits), goodput "
                f"{_fmt(tps, 0)} TPS on surviving shards")
        lines.append("")

    lines.append("## Timeline")
    timeline = report.get("timeline")
    rows = (timeline or {}).get("rows") or []
    if rows:
        if (timeline or {}).get("derived_from_trace"):
            lines.append("_(derived from trace COMMIT events; export a "
                         "timeline artifact for wait/flush columns)_")
        headers = ["window", "start", "commits", "TPS", "abort rate",
                   "conflict wait", "p99 us"]
        body = [[r["window"], _fmt(r["start"], 0), r["commits"],
                 _fmt(r["throughput_tps"], 0), f"{r['abort_rate']:.3f}",
                 f"{r.get('conflict_wait_frac', 0.0):.3f}",
                 _fmt(r.get("latency_p99_us", 0.0), 1)] for r in rows]
        lines.extend(_table(headers, body))
    else:
        lines.append("_no timeline data (zero-commit run or no artifact)_")
    lines.append("")

    lines.append("## Conflict attribution")
    attribution = report.get("attribution")
    pairs = (attribution or {}).get("pairs") or []
    if pairs:
        headers = ["type", "vs", "table", "piece", "waits", "wait ticks",
                   "aborts", "dooms", "piece retries"]
        body = [[p["type"], p["other"], p["table"], p["access_id"],
                 p["waits"], _fmt(p["wait_ticks"], 0), p["aborts"],
                 p["dooms"], p["piece_retries"]] for p in pairs[:15]]
        lines.extend(_table(headers, body))
        hot = attribution.get("hot_keys") or []
        if hot:
            lines.append("")
            lines.append("### Hot keys")
            lines.extend(_table(
                ["table", "key", "waits", "aborts"],
                [[h["table"], h["key"], h["waits"], h["aborts"]]
                 for h in hot]))
    else:
        lines.append("_no conflict events in trace (or no trace)_")
    lines.append("")

    lines.append("## Latency critical path")
    critical = report.get("critical_path")
    types = (critical or {}).get("types") or {}
    if types:
        kinds: List[str] = []
        for entry in types.values():
            for column in entry:
                if column.startswith("wait:") and column not in kinds:
                    kinds.append(column)
        kinds.sort()
        headers = ["type", "commits", "mean latency", "execute"] + kinds \
            + ["backoff", "log buffer", "epoch flush"]
        body = []
        for type_name, entry in types.items():
            commits = entry["commits"] or 1
            body.append(
                [type_name, entry["commits"],
                 _fmt(entry["latency_total"] / commits)]
                + [_fmt(entry["execute"] / commits)]
                + [_fmt(entry.get(k, 0.0) / commits) for k in kinds]
                + [_fmt(entry["backoff"] / commits),
                   _fmt(entry["log_buffer"] / commits),
                   _fmt(entry.get("epoch_flush", 0.0))])
        lines.extend(_table(headers, body))
        violations = critical.get("residual_violations", 0)
        if violations:
            lines.append("")
            lines.append(f"**WARNING: {violations} transaction(s) with a "
                         "negative execute residual (accounting bug)**")
    else:
        lines.append("_no committed transactions in trace (or no trace)_")
    lines.append("")

    lines.append("## Policy audit")
    audit = report.get("policy_audit")
    states = (audit or {}).get("states") or []
    if states:
        headers = ["state", "hits", "actions"]
        body = []
        for state in states[:20]:
            actions = state.get("actions")
            if actions:
                waits = actions["waits"]
                description = (f"{actions['read']} read, "
                               f"{actions['write']} write"
                               + (", validate" if actions["early_validate"]
                                  else "")
                               + (f", waits {waits}" if waits else ""))
            else:
                description = "-"
            body.append([f"{state['type']} a{state['access_id']}",
                         state["hits"], description])
        lines.extend(_table(headers, body))
    else:
        lines.append("_no policy-executor ACCESS events (protocol bypasses "
                     "the policy layer, or no trace)_")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# comparing


def compare_metrics(baseline_path: str, candidate_path: str,
                    threshold: float = DEFAULT_COMPARE_THRESHOLD) -> dict:
    """Diff two metrics snapshots.  Returns ``{"rows": [...],
    "regressions": [...]}`` where each row is one compared quantity with
    its baseline/candidate values and relative delta; regressions are the
    rows whose delta crosses ``threshold`` in the bad direction."""
    baseline = _summary_from_metrics(load_metrics_json(baseline_path))
    candidate = _summary_from_metrics(load_metrics_json(candidate_path))
    rows: List[dict] = []
    regressions: List[dict] = []

    def add(name: str, base: float, cand: float, bad_if: str,
            absolute: bool = False) -> None:
        if absolute:
            delta = cand - base
        else:
            delta = (cand - base) / base if base else 0.0
        row = {"metric": name, "baseline": base, "candidate": cand,
               "delta": delta, "absolute": absolute}
        rows.append(row)
        limit = ABORT_RATE_SLACK if absolute else threshold
        if bad_if == "lower" and delta < -limit:
            regressions.append(row)
        elif bad_if == "higher" and delta > limit:
            regressions.append(row)

    for cc in sorted(set(baseline.get("throughput_tps", {}))
                     & set(candidate.get("throughput_tps", {}))):
        add(f"throughput_tps[{cc}]",
            baseline["throughput_tps"][cc],
            candidate["throughput_tps"][cc], bad_if="lower")
    for cc in sorted(set(baseline.get("abort_rate", {}))
                     & set(candidate.get("abort_rate", {}))):
        add(f"abort_rate[{cc}]", baseline["abort_rate"][cc],
            candidate["abort_rate"][cc], bad_if="higher", absolute=True)
    for key in sorted(set(baseline.get("latency_p99_us", {}))
                      & set(candidate.get("latency_p99_us", {}))):
        add(f"latency_p99_us[{key}]", baseline["latency_p99_us"][key],
            candidate["latency_p99_us"][key], bad_if="higher")
    if not rows:
        raise ReproError(
            "no comparable run metrics found in both snapshots "
            "(were both produced by `repro run --metrics`?)")
    return {"rows": rows, "regressions": regressions,
            "threshold": threshold}


def render_compare(comparison: dict) -> str:
    lines = ["# Run comparison", ""]
    headers = ["metric", "baseline", "candidate", "delta"]
    body = []
    for row in comparison["rows"]:
        delta = row["delta"]
        rendered = f"{delta:+.3f}" if row["absolute"] else f"{delta:+.1%}"
        body.append([row["metric"], _fmt(row["baseline"]),
                     _fmt(row["candidate"]), rendered])
    lines.extend(_table(headers, body))
    lines.append("")
    regressions = comparison["regressions"]
    if regressions:
        lines.append(f"**{len(regressions)} regression(s) beyond threshold "
                     f"{comparison['threshold']:.0%}:**")
        for row in regressions:
            lines.append(f"- {row['metric']}")
    else:
        lines.append("no regressions beyond threshold "
                     f"{comparison['threshold']:.0%}")
    lines.append("")
    return "\n".join(lines)
