"""Run statistics: throughput, per-type latency percentiles, abort accounting.

Latencies follow the paper's methodology: a transaction's latency is the
span from its *first* start (before any aborted attempt) to its commit, so
retries and backoff are included — this is what makes Table 2's P99 numbers
sensitive to the CC algorithm.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..config import TICKS_PER_SECOND
from ..errors import ReproError


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence.

    A zero-sample window (reachable when e.g. every evaluation of a training
    generation times out and the fallback fitness is used, so a measurement
    window records no commits) yields ``0.0`` rather than NaN — NaN would
    poison downstream JSON artifacts (``json.dumps`` emits invalid JSON for
    it) and summary arithmetic.
    """
    if not sorted_values:
        return 0.0
    if fraction <= 0:
        return sorted_values[0]
    if fraction >= 1:
        return sorted_values[-1]
    rank = max(0, min(len(sorted_values) - 1,
                      int(math.ceil(fraction * len(sorted_values))) - 1))
    return sorted_values[rank]


class LatencyDigest:
    """Latency summary (microseconds) for one transaction type.

    Samples are sorted lazily: :meth:`record` only invalidates the sorted
    flag, and :meth:`pct` sorts at most once per batch of records — so
    :meth:`summary`'s four percentile calls share one sort instead of
    re-sorting an already-sorted list four times.
    """

    __slots__ = ("count", "total", "_samples", "_sorted")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._samples: List[float] = []
        self._sorted = True

    def record(self, latency: float) -> None:
        self.count += 1
        self.total += latency
        self._samples.append(latency)
        self._sorted = False

    @property
    def avg(self) -> float:
        # zero-sample guard: mirror percentile()'s convention so an empty
        # digest summarises to finite zeros instead of NaN
        return self.total / self.count if self.count else 0.0

    def pct(self, fraction: float) -> float:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return percentile(self._samples, fraction)

    def summary(self) -> Dict[str, float]:
        """AVG / P50 / P90 / P99 — the columns of the paper's Table 2."""
        return {
            "avg": self.avg,
            "p50": self.pct(0.50),
            "p90": self.pct(0.90),
            "p99": self.pct(0.99),
        }


class RunStats:
    """Statistics accumulated over one simulated run.

    The warm-up window is excluded: commits/aborts that complete before
    ``warmup_end`` are counted separately and do not contribute to
    throughput or latency numbers.
    """

    def __init__(self, type_names: Sequence[str], warmup_end: float = 0.0,
                 collect_latency: bool = True, sampler=None) -> None:
        self.type_names = list(type_names)
        self.warmup_end = warmup_end
        self.collect_latency = collect_latency
        self.commits: Dict[str, int] = {name: 0 for name in self.type_names}
        self.aborts: Dict[str, int] = {name: 0 for name in self.type_names}
        self.abort_reasons: Dict[str, int] = {}
        #: piece-level retries (failed early validations that re-executed
        #: from the last validation point instead of fully aborting)
        self.piece_retries: Dict[str, int] = {name: 0 for name in self.type_names}
        #: total simulated time spent in retry backoff across workers
        #: (measurement window only; warm-up backoff is counted separately)
        self.backoff_time = 0.0
        self.warmup_backoff_time = 0.0
        self.warmup_piece_retries = 0
        self.warmup_commits = 0
        self.warmup_aborts = 0
        #: abort reasons seen during warm-up — kept separate so the
        #: measurement-window ``abort_reasons`` stays comparable across
        #: configs, but no longer silently dropped
        self.warmup_abort_reasons: Dict[str, int] = {}
        self.latency: Dict[str, LatencyDigest] = {
            name: LatencyDigest() for name in self.type_names
        }
        #: optional :class:`repro.obs.timeline.TimelineSampler` — the
        #: run-insight windowed sampler, fed from the same record_* calls
        #: as the counters (but over the whole run, warm-up included, so
        #: the early windows are visible); None keeps it zero-overhead
        self.sampler = sampler
        self.start_time = 0.0
        self.end_time = 0.0
        #: True when an open-loop frontend drives this run; gates the SLO
        #: block in :meth:`summary` so closed-loop artifacts are unchanged
        self.open_loop = False
        #: measurement-window commits that met / missed their deadline
        #: (every commit counts as met when no deadline is configured)
        self.slo_commits = 0
        self.late_commits = 0
        self.warmup_slo_commits = 0
        self.warmup_late_commits = 0
        #: invocations shed by admission control, by reason
        self.shed: Dict[str, int] = {}
        self.warmup_shed = 0
        #: time spent waiting in the admission queue before dispatch
        self.queue_wait = LatencyDigest()
        self.warmup_queue_waits = 0

    # ------------------------------------------------------------------ #

    def record_commit(self, type_name: str, now: float, latency: float,
                      deadline: Optional[float] = None) -> None:
        """``deadline`` (open-loop runs only) is the invocation's absolute
        deadline; a commit acked after it counts as a late commit — an SLO
        miss, but still a commit (never lost)."""
        if self.sampler is not None:
            self.sampler.on_commit(now, type_name, latency)
        late = deadline is not None and now > deadline
        if now < self.warmup_end:
            self.warmup_commits += 1
            if self.open_loop:
                if late:
                    self.warmup_late_commits += 1
                else:
                    self.warmup_slo_commits += 1
            return
        self.commits[type_name] += 1
        if self.open_loop:
            if late:
                self.late_commits += 1
            else:
                self.slo_commits += 1
        if self.collect_latency:
            self.latency[type_name].record(latency)

    def record_shed(self, reason: str, type_name: str, now: float) -> None:
        """One invocation shed by admission control (``reason`` is a
        :data:`repro.frontend.SHED_REASONS` member)."""
        if now < self.warmup_end:
            self.warmup_shed += 1
            return
        self.shed[reason] = self.shed.get(reason, 0) + 1

    def record_queue_wait(self, wait: float, now: float) -> None:
        """Admission-queue residence time of one dispatched invocation."""
        if now < self.warmup_end:
            self.warmup_queue_waits += 1
            return
        self.queue_wait.record(wait)

    def record_piece_retry(self, type_name: str, now: float) -> None:
        if now < self.warmup_end:
            self.warmup_piece_retries += 1
            return
        self.piece_retries[type_name] = self.piece_retries.get(type_name, 0) + 1

    def record_backoff(self, pause: float, now: float) -> None:
        """Accumulate retry-backoff time, gated on the warm-up window like
        every other counter (``now`` is the time the backoff *starts*)."""
        if self.sampler is not None:
            self.sampler.on_backoff(now, pause)
        if now < self.warmup_end:
            self.warmup_backoff_time += pause
            return
        self.backoff_time += pause

    def record_abort(self, type_name: str, now: float, reason: str) -> None:
        if self.sampler is not None:
            self.sampler.on_abort(now, type_name, reason)
        if now < self.warmup_end:
            self.warmup_aborts += 1
            self.warmup_abort_reasons[reason] = \
                self.warmup_abort_reasons.get(reason, 0) + 1
            return
        self.aborts[type_name] += 1
        self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1

    # ------------------------------------------------------------------ #

    @property
    def total_commits(self) -> int:
        return sum(self.commits.values())

    @property
    def total_aborts(self) -> int:
        return sum(self.aborts.values())

    @property
    def measured_span(self) -> float:
        """Ticks covered by the measurement window."""
        return max(0.0, self.end_time - max(self.start_time, self.warmup_end))

    def throughput(self) -> float:
        """Committed transactions per simulated second."""
        span = self.measured_span
        if span <= 0:
            return 0.0
        return self.total_commits / span * TICKS_PER_SECOND

    def throughput_of(self, type_name: str) -> float:
        if type_name not in self.commits:
            raise ReproError(
                f"unknown transaction type {type_name!r}; this run tracked "
                f"{sorted(self.commits)}")
        span = self.measured_span
        if span <= 0:
            return 0.0
        return self.commits[type_name] / span * TICKS_PER_SECOND

    def abort_rate(self) -> float:
        """Aborted attempts / total attempts in the measurement window."""
        attempts = self.total_commits + self.total_aborts
        return self.total_aborts / attempts if attempts else 0.0

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    def goodput(self) -> float:
        """Commits that met their deadline, per simulated second (equals
        :meth:`throughput` when no deadline is configured)."""
        if not self.open_loop:
            return self.throughput()
        span = self.measured_span
        if span <= 0:
            return 0.0
        return self.slo_commits / span * TICKS_PER_SECOND

    def slo_attainment(self) -> float:
        """In-deadline commits over every resolved invocation (commits plus
        everything shed) in the measurement window.  1.0 when nothing was
        resolved — an idle system violates no SLO."""
        total = self.slo_commits + self.late_commits + self.total_shed
        if total == 0:
            return 1.0
        return self.slo_commits / total

    def summary(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "throughput_tps": self.throughput(),
            "commits": dict(self.commits),
            "aborts": dict(self.aborts),
            "abort_rate": self.abort_rate(),
            "abort_reasons": dict(self.abort_reasons),
            "latency_us": {name: digest.summary()
                           for name, digest in self.latency.items()
                           if digest.count},
        }
        if self.open_loop:
            # only open-loop runs grow the SLO block, so closed-loop
            # summaries stay byte-identical to pre-frontend builds
            data["slo"] = {
                "goodput_tps": self.goodput(),
                "attainment": self.slo_attainment(),
                "slo_commits": self.slo_commits,
                "late_commits": self.late_commits,
                "shed": dict(self.shed),
                "queue_wait_us": self.queue_wait.summary(),
            }
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RunStats(tput={self.throughput():.0f} TPS, "
                f"commits={self.total_commits}, aborts={self.total_aborts})")
