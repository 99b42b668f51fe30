"""Open-loop admission control: arrivals, bounded queues, shedding.

The paper's evaluation (§7.1) is closed-loop — each worker retries its
transaction until it commits, so offered load always equals capacity.  This
package models the client side instead: a seeded Poisson arrival process
(:class:`Frontend`) enqueues timestamped invocations onto a bounded
:class:`AdmissionQueue` per shard — exactly one on a single node — from
which that shard's workers pull.  There is one frontend class for every
topology; a cluster run hands it the cluster runtime.  When offered load
exceeds capacity the system degrades gracefully — arrivals are shed by a
pluggable policy, admitted transactions carry deadlines and bounded retry
budgets, and the run reports goodput (commits within deadline) and SLO
attainment rather than raw throughput.

Everything is deterministic per seed: arrivals draw from a dedicated RNG
stream (:data:`ARRIVAL_RNG_SALT`), burst windows are scripted, and the
admission queue's shed decisions are pure functions of queue state.
"""

from .admission import (AdmissionQueue, QueuedInvocation, SHED_REASONS,
                        SHED_DEADLINE_INFLIGHT, SHED_DEADLINE_QUEUE,
                        SHED_EVICTED, SHED_QUEUE_FULL, SHED_RETRY_BUDGET,
                        SHED_SHARD_DOWN)
from .frontend import ARRIVAL_RNG_SALT, Frontend

__all__ = [
    "AdmissionQueue",
    "QueuedInvocation",
    "Frontend",
    "ARRIVAL_RNG_SALT",
    "SHED_REASONS",
    "SHED_QUEUE_FULL",
    "SHED_EVICTED",
    "SHED_DEADLINE_QUEUE",
    "SHED_DEADLINE_INFLIGHT",
    "SHED_RETRY_BUDGET",
    "SHED_SHARD_DOWN",
]
