"""A registry of named, labelled metrics (counters, gauges, histograms).

Prometheus-shaped but in-process: a metric is identified by its name plus
a frozen label set, ``registry.counter("commits_total", cc="silo")``
returns the same :class:`Counter` on every call, and a
:meth:`MetricsRegistry.snapshot` serialises the whole registry to plain
dicts for JSON/CSV export.  The simulator populates run metrics
(commits/aborts/waits per protocol) and the trainers populate training
metrics (EA generation and fitness, RL rewards and gradient norms); the
benches export snapshots next to their result artifacts.

Histograms keep raw samples — runs are short enough that exact
percentiles beat bucketed approximations, and :class:`Histogram` shares
both the lazy-sort strategy and the nearest-rank percentile of
:class:`repro.sim.stats.LatencyDigest`.  This module depends only on
:mod:`repro.errors` and the dependency-free :mod:`repro.sim.stats`, so
the simulator can import the observability layer without cycles.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, IO, List, Optional, Tuple, Union

from ..errors import ReproError
# the one canonical nearest-rank percentile (zero-sample -> 0.0, fraction
# <= 0 -> first, >= 1 -> last); sim.stats imports only config and errors,
# so this adds no import cycle
from ..sim.stats import percentile as _percentile

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: schema tag/version of JSON metrics exports (see load_metrics_json)
METRICS_SCHEMA = "repro.metrics"
METRICS_SCHEMA_VERSION = 1


class Metric:
    """Base: a name plus a frozen label mapping."""

    kind = "metric"

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels

    def value_dict(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    def snapshot(self) -> dict:
        data = {"name": self.name, "kind": self.kind,
                "labels": dict(self.labels)}
        data.update(self.value_dict())
        return data


class Counter(Metric):
    """Monotonically-increasing count."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def value_dict(self) -> dict:
        return {"value": self.value}


class Gauge(Metric):
    """A value that can move both ways (generation number, fitness, TPS)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def value_dict(self) -> dict:
        return {"value": self.value}


class Histogram(Metric):
    """Sample distribution summarised as count/sum/min/max/percentiles."""

    kind = "histogram"

    __slots__ = ("count", "total", "_samples", "_sorted")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]) -> None:
        super().__init__(name, labels)
        self.count = 0
        self.total = 0.0
        self._samples: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._samples.append(value)
        self._sorted = False

    def pct(self, fraction: float) -> float:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return _percentile(self._samples, fraction)

    def value_dict(self) -> dict:
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {"count": self.count, "sum": self.total,
                "min": self.pct(0.0), "max": self.pct(1.0),
                "mean": self.total / self.count,
                "p50": self.pct(0.50), "p90": self.pct(0.90),
                "p99": self.pct(0.99)}


class MetricsRegistry:
    """Get-or-create store of metrics keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[LabelKey, Metric] = {}

    def _get(self, cls, name: str, labels: Dict[str, str]) -> Metric:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ReproError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    # ------------------------------------------------------------------ #
    # export

    def snapshot(self) -> List[dict]:
        """All metrics as plain dicts, sorted by (name, labels)."""
        return [self._metrics[key].snapshot()
                for key in sorted(self._metrics)]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise as a versioned envelope: ``{"schema": ...,
        "version": ..., "metrics": [...]}`` (see
        :func:`load_metrics_json`)."""
        document = {"schema": METRICS_SCHEMA,
                    "version": METRICS_SCHEMA_VERSION,
                    "metrics": self.snapshot()}
        return json.dumps(document, indent=indent)

    def write_json(self, path_or_fh: Union[str, IO[str]]) -> None:
        if isinstance(path_or_fh, str):
            with open(path_or_fh, "w") as fh:
                fh.write(self.to_json() + "\n")
        else:
            path_or_fh.write(self.to_json() + "\n")

    def write_csv(self, path_or_fh: Union[str, IO[str]]) -> None:
        """Flat CSV: one row per metric, one ``value column`` per stat."""
        rows = self.snapshot()
        value_columns: List[str] = []
        for row in rows:
            for column in row:
                if column not in ("name", "kind", "labels") \
                        and column not in value_columns:
                    value_columns.append(column)
        header = ["name", "kind", "labels"] + value_columns

        def dump(fh: IO[str]) -> None:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                labels = ";".join(f"{k}={v}"
                                  for k, v in sorted(row["labels"].items()))
                writer.writerow([row["name"], row["kind"], labels]
                                + [row.get(c, "") for c in value_columns])

        if isinstance(path_or_fh, str):
            with open(path_or_fh, "w", newline="") as fh:
                dump(fh)
        else:
            dump(path_or_fh)


def load_metrics_json(path: str) -> List[dict]:
    """Load a JSON metrics snapshot back into its row list.

    Accepts the versioned envelope written by :meth:`MetricsRegistry.\
write_json`; rejects anything else, unknown schemas and versions with a
    clear :class:`ReproError` so a future build's artifact fails loudly
    instead of being half-parsed."""
    try:
        with open(path) as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read metrics {path}: {exc}") from exc
    if not isinstance(document, dict) or "metrics" not in document:
        raise ReproError(f"{path} is not a {METRICS_SCHEMA} artifact")
    schema = document.get("schema")
    if schema != METRICS_SCHEMA:
        raise ReproError(f"{path}: unknown metrics schema {schema!r} "
                         f"(expected {METRICS_SCHEMA!r})")
    version = document.get("version")
    if version != METRICS_SCHEMA_VERSION:
        raise ReproError(
            f"{path}: unsupported {METRICS_SCHEMA} version {version!r} "
            f"(this build reads version {METRICS_SCHEMA_VERSION})")
    rows = document["metrics"]
    if not isinstance(rows, list):
        raise ReproError(f"{path}: 'metrics' must be a list")
    return rows
