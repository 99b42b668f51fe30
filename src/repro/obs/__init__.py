"""Observability: structured tracing, metrics and time accounting.

The simulator's answer to "where did the time go?".  Three pillars:

* :mod:`repro.obs.tracing` — a structured event tracer.  The scheduler,
  workers, executors, validation and locks emit typed
  :class:`~repro.obs.tracing.TraceEvent` records into a
  :class:`~repro.obs.tracing.TraceSink`; the default sink is a no-op whose
  ``enabled`` flag is ``False``, so every emission site is guarded and the
  hot path pays nothing when tracing is off.  Collected events export to
  JSONL and to the Chrome trace-event format (loadable in Perfetto /
  ``chrome://tracing``).
* :mod:`repro.obs.metrics` — a registry of named, labelled counters /
  gauges / histograms, populated by the simulator and the trainers and
  snapshot-exportable to JSON and CSV.
* :mod:`repro.obs.profile` — a per-worker time accountant decomposing
  each worker's simulated time into useful committed work, wasted aborted
  work, waits by kind, backoff and idle; rendered by
  ``python -m repro profile``.

The run-insight layer builds on those pillars:

* :mod:`repro.obs.timeline` — a windowed time-series sampler (throughput,
  abort/doom rate, conflict-wait fraction, flush stalls, latency per
  window), zero-overhead when not attached.
* :mod:`repro.obs.insight` — post-run trace analyzers: conflict
  attribution, the latency critical path, and the policy audit.
* :mod:`repro.obs.report` — ``repro report``'s one-page markdown/JSON run
  report and the CI-facing ``--compare`` regression diff.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Counter": ".metrics",
    "check_accounting": ".profile",
    "EventKind": ".tracing",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "JsonlStreamSink": ".tracing",
    "MemorySink": ".tracing",
    "METRICS_SCHEMA": ".metrics",
    "METRICS_SCHEMA_VERSION": ".metrics",
    "MetricsRegistry": ".metrics",
    "NullSink": ".tracing",
    "NULL_SINK": ".tracing",
    "TIMELINE_SCHEMA": ".timeline",
    "TIMELINE_SCHEMA_VERSION": ".timeline",
    "TRACE_SCHEMA": ".tracing",
    "TRACE_SCHEMA_VERSION": ".tracing",
    "TimeAccountant": ".profile",
    "TimelineSampler": ".timeline",
    "TraceEvent": ".tracing",
    "TraceSink": ".tracing",
    "build_report": ".report",
    "chrome_trace_events": ".tracing",
    "compare_metrics": ".report",
    "conflict_attribution": ".insight",
    "default_timeline_window": ".timeline",
    "export_chrome_trace": ".tracing",
    "format_profile_table": ".profile",
    "iter_jsonl": ".tracing",
    "latency_critical_path": ".insight",
    "load_metrics_json": ".metrics",
    "load_timeline_json": ".timeline",
    "policy_audit": ".insight",
    "read_jsonl": ".tracing",
    "render_compare": ".report",
    "render_markdown": ".report",
    "write_jsonl": ".tracing",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
