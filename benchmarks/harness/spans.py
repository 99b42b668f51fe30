"""Lifecycle spans recorded from outside the program (instrument A).

A span is ``(name, start, end, parent)``; spans nest by call order in the
single load-generating thread, are kept in memory while the workload runs
and written out once at exit.  A span's *self time* is its duration minus
the part of that interval its child spans cover, so the self times of a
tree add up to the root's duration.

:meth:`SpanRecorder.wrap` replaces a public attribute of the program
(``Scheduler.run``, ``repro.cli.run_named``, a workload instance's
``build_database`` ...) with a shim that opens a span around the call;
nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional


class Span:
    """One timed interval; ``parent`` indexes the recorder's span list."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    def to_row(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent}


class SpanRecorder:
    """Collects the spans of one repetition."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        span = Span(name, self.clock(),
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Shim ``owner.attr`` so every call runs inside a span ``name``.

        ``on_result(args, result)`` (optional) sees each call's positional
        arguments and return value — how the harness reads counters off
        objects the program creates internally.
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def shim(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, shim)

    def rows(self) -> List[dict]:
        return [span.to_row() for span in self.spans]


def self_times(rows: List[dict]) -> List[float]:
    """Self time of every span: duration minus its direct children's
    durations (children of one parent never overlap: one thread)."""
    result = [row["end"] - row["start"] for row in rows]
    for row in rows:
        if row["parent"] is not None:
            result[row["parent"]] -= row["end"] - row["start"]
    return result


def durations(rows: List[dict], name: str) -> List[float]:
    """Durations of every span called ``name``, in call order."""
    return [row["end"] - row["start"] for row in rows if row["name"] == name]


def total(rows: List[dict], name: str) -> float:
    return sum(durations(rows, name))


def self_total(rows: List[dict], name: str) -> float:
    """Summed self time of every span called ``name``."""
    selfs = self_times(rows)
    return sum(selfs[i] for i, row in enumerate(rows) if row["name"] == name)


def tree_residual(rows: List[dict]) -> float:
    """Largest share of a parent span's duration by which its children
    overrun it.  Self time is defined as duration minus children, so self
    plus children equals the parent exactly; what can go wrong is a child
    that is not inside its parent (a mis-nested shim), which shows up as
    negative self time.  0.0 means every tree adds up."""
    worst = 0.0
    for row, self_time in zip(rows, self_times(rows)):
        duration = row["end"] - row["start"]
        if self_time < 0 and duration > 0:
            worst = max(worst, -self_time / duration)
    return worst
