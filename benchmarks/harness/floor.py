"""The floor cell: what a bare Python heap loop does on this host.

Pushes and pops ``n_events`` ``(clock, seq, payload)`` entries through a
heap of ``n_cores`` busy cores and does nothing else — the pmsim-style
event skeleton (a heap of ``Core(clock, txn)``) with every database,
protocol and statistics call removed.  ``events_per_s`` divided by this
rate is the host-independent reading of a simulator speed: the fraction of
a Python heap loop's throughput the whole simulator reaches.
"""

from __future__ import annotations

import heapq
import random
import time


def floor_events_per_s(n_events: int, n_cores: int, seed: int) -> float:
    """Events per host second of the bare loop (same event count and core
    count as the run it is compared with)."""
    rng = random.Random(seed)
    # the service times are drawn before the clock starts: the loop itself
    # only pops the earliest core and pushes its next completion
    ticks = [rng.random() * 10.0 + 0.05 for _ in range(4096)]
    heap = [(ticks[core], core, core) for core in range(n_cores)]
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush
    seq = n_cores
    started = time.perf_counter()
    for _ in range(n_events):
        clock, _seq, core = heappop(heap)
        heappush(heap, (clock + ticks[seq & 4095], seq, core))
        seq += 1
    elapsed = time.perf_counter() - started
    return n_events / elapsed
