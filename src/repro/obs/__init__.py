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

from .tracing import (EventKind, JsonlStreamSink, MemorySink, NullSink,
                      NULL_SINK, TRACE_SCHEMA, TRACE_SCHEMA_VERSION,
                      TraceEvent, TraceSink, chrome_trace_events,
                      export_chrome_trace, iter_jsonl, read_jsonl,
                      write_jsonl)
from .metrics import (Counter, Gauge, Histogram, METRICS_SCHEMA,
                      METRICS_SCHEMA_VERSION, MetricsRegistry,
                      load_metrics_json)
from .profile import TimeAccountant, check_accounting, format_profile_table
from .timeline import (TIMELINE_SCHEMA, TIMELINE_SCHEMA_VERSION,
                       TimelineSampler, default_timeline_window,
                       load_timeline_json)
from .insight import (conflict_attribution, latency_critical_path,
                      policy_audit)
from .report import (build_report, compare_metrics, render_compare,
                     render_markdown)

__all__ = [
    "Counter",
    "check_accounting",
    "EventKind",
    "Gauge",
    "Histogram",
    "JsonlStreamSink",
    "MemorySink",
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "NullSink",
    "NULL_SINK",
    "TIMELINE_SCHEMA",
    "TIMELINE_SCHEMA_VERSION",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "TimeAccountant",
    "TimelineSampler",
    "TraceEvent",
    "TraceSink",
    "build_report",
    "chrome_trace_events",
    "compare_metrics",
    "conflict_attribution",
    "default_timeline_window",
    "export_chrome_trace",
    "format_profile_table",
    "iter_jsonl",
    "latency_critical_path",
    "load_metrics_json",
    "load_timeline_json",
    "policy_audit",
    "read_jsonl",
    "render_compare",
    "render_markdown",
    "write_jsonl",
]
