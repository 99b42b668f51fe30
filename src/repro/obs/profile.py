"""Per-worker time accounting: where did the simulated time go?

The paper's evaluation reasons about CC behaviour through exactly this
decomposition — useful (committed) work versus wasted (aborted) work
versus waiting versus backing off (§7's factor analysis and case study).
:class:`TimeAccountant` is fed by the scheduler as it interprets
directives:

* every :class:`~repro.sim.events.Cost` a worker consumes is charged to
  the in-flight attempt (or to ``backoff`` when the cost is tagged as a
  backoff pause), clamped to the run horizon;
* every parked interval is charged to ``wait:<kind>`` when the worker
  unparks (or at run end for workers still parked);
* when an attempt ends, its accumulated execution time moves to
  ``useful`` (commit) or ``wasted`` (abort); time of an attempt still in
  flight at run end is reported as ``in_flight``.

Because a worker is, at any simulated instant, either executing one cost,
parked on one wait, backing off, or idle, the categories partition each
worker's timeline: ``useful + wasted + in_flight + backoff + waits +
idle == duration`` exactly (``idle`` is the audited residual and must be
non-negative up to float error — the invariant the tests check).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ReproError
from ..sim.events import CostKind

#: category keys of a breakdown row, in display order (waits are inserted
#: between ``backoff`` and ``idle`` as ``wait:<kind>`` columns)
BASE_CATEGORIES = ("useful", "wasted", "in_flight", "backoff")


class TimeAccountant:
    """Accumulates the per-worker simulated-time decomposition of one run."""

    __slots__ = ("n_workers", "duration", "_attempt_exec", "_useful",
                 "_wasted", "_backoff", "_wait")

    def __init__(self, n_workers: int, duration: float) -> None:
        if n_workers <= 0 or duration <= 0:
            raise ReproError("TimeAccountant needs n_workers > 0 and "
                             "duration > 0")
        self.n_workers = n_workers
        self.duration = duration
        #: execution time of the in-flight attempt, reclassified at its end
        self._attempt_exec = [0.0] * n_workers
        self._useful = [0.0] * n_workers
        self._wasted = [0.0] * n_workers
        self._backoff = [0.0] * n_workers
        self._wait: List[Dict[str, float]] = [{} for _ in range(n_workers)]

    # ------------------------------------------------------------------ #
    # charging (called by the scheduler / worker)

    def on_cost(self, worker_id: int, kind: str, ticks: float) -> None:
        """Charge a :class:`~repro.sim.events.Cost` span of ``kind`` (a
        ``CostKind``; negative ``ticks`` refund): backoff pauses to
        ``backoff``, everything else to the in-flight attempt."""
        charged = (self._backoff if kind == CostKind.BACKOFF
                   else self._attempt_exec)
        charged[worker_id] += ticks

    def on_wait(self, worker_id: int, kind: str, ticks: float) -> None:
        waits = self._wait[worker_id]
        waits[kind] = waits.get(kind, 0.0) + ticks

    def on_attempt_end(self, worker_id: int, committed: bool) -> None:
        ticks = self._attempt_exec[worker_id]
        self._attempt_exec[worker_id] = 0.0
        if committed:
            self._useful[worker_id] += ticks
        else:
            self._wasted[worker_id] += ticks

    # ------------------------------------------------------------------ #
    # reporting

    def wait_kinds(self) -> List[str]:
        kinds: List[str] = []
        for waits in self._wait:
            for kind in waits:
                if kind not in kinds:
                    kinds.append(kind)
        return sorted(kinds)

    def breakdown(self) -> List[Dict[str, float]]:
        """One dict per worker; components sum to ``duration`` exactly
        (``idle`` is the residual, audited non-negative)."""
        kinds = self.wait_kinds()
        rows = []
        for worker_id in range(self.n_workers):
            row: Dict[str, float] = {
                "useful": self._useful[worker_id],
                "wasted": self._wasted[worker_id],
                "in_flight": self._attempt_exec[worker_id],
                "backoff": self._backoff[worker_id],
            }
            for kind in kinds:
                row[f"wait:{kind}"] = self._wait[worker_id].get(kind, 0.0)
            charged = sum(row.values())
            idle = self.duration - charged
            # snap float residue (incl. negative zero) so reports stay clean
            row["idle"] = 0.0 if abs(idle) < 1e-9 else idle
            row["total"] = self.duration
            rows.append(row)
        return rows

    def totals(self) -> Dict[str, float]:
        """Category sums across workers (total == n_workers * duration)."""
        totals: Dict[str, float] = {}
        for row in self.breakdown():
            for key, value in row.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals


def format_profile_table(accountant: TimeAccountant,
                         format_table=None) -> str:
    """Render the per-worker breakdown (plus a TOTAL row) as a text table.

    Values are shown in ticks and, per category, as a percentage of the
    run duration.  ``format_table`` defaults to the bench reporter's."""
    if format_table is None:
        from ..bench.reporting import format_table as _ft
        format_table = _ft
    rows = accountant.breakdown()
    if not rows:
        return "(no workers — no time-accounting data)"
    categories = [key for key in rows[0] if key != "total"]
    headers = ["worker"] + categories + ["total"]
    table_rows = []
    for worker_id, row in enumerate(rows):
        table_rows.append([worker_id]
                          + [f"{row[c]:,.0f}" for c in categories]
                          + [f"{row['total']:,.0f}"])
    totals = accountant.totals()
    table_rows.append(["TOTAL"]
                      + [f"{totals[c]:,.0f}" for c in categories]
                      + [f"{totals['total']:,.0f}"])
    denominator = accountant.n_workers * accountant.duration
    if denominator > 0:
        table_rows.append(["%"]
                          + [f"{100.0 * totals[c] / denominator:.1f}"
                             for c in categories]
                          + ["100.0"])
    return format_table(headers, table_rows)


def check_accounting(accountant: TimeAccountant,
                     epsilon: float = 1e-6) -> Optional[str]:
    """Audit the invariant; returns a description of the first violation
    or ``None`` when the books balance (used by tests and ``profile``)."""
    for worker_id, row in enumerate(accountant.breakdown()):
        charged = sum(value for key, value in row.items()
                      if key not in ("total", "idle"))
        if charged > accountant.duration + epsilon:
            return (f"worker {worker_id} over-charged: {charged} > "
                    f"duration {accountant.duration}")
        if row["idle"] < -epsilon:
            return f"worker {worker_id} has negative idle: {row['idle']}"
        total = charged + row["idle"]
        if abs(total - accountant.duration) > epsilon:
            return (f"worker {worker_id} breakdown sums to {total}, "
                    f"expected {accountant.duration}")
    return None
