"""Configuration objects: simulation cost model and run parameters.

The discrete-event simulator charges *simulated time* for each primitive the
database performs.  One simulated tick is interpreted as one microsecond, so
committed-transactions / simulated-seconds is directly comparable (in shape)
to the paper's TPS figures.

The defaults below were calibrated so that an uncontended 48-worker TPC-C
run lands in the paper's ballpark (on the order of a million TPS) and so
that the *relative* costs — an abort wastes everything executed so far, a
wait costs idle time, validation is cheaper than execution — mirror the
Silo-derived C++ engine the paper measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Simulated-time cost (in ticks; 1 tick = 1 microsecond) of primitives.

    Attributes:
        access: executing one Get/Put/Insert, including index lookup and the
            transaction logic attached to it.
        scan_per_row: incremental cost per row returned by a range scan.
        policy_overhead: extra per-access cost paid by the policy-driven
            executor for policy lookup and access-list bookkeeping.  This is
            the overhead that makes Polyjuice ~8% slower than raw Silo when
            it learns the OCC policy (§7.2, 48 warehouses).
        lock_acquire: acquiring one record lock in the commit protocol.
        validate_read: validating one read-set entry.
        install_write: installing one write at commit.
        commit_base: fixed commit bookkeeping cost.
        abort_base: fixed abort bookkeeping cost.
        early_validate_entry: early-validating one buffered entry (§4.3).
        wait_poll: bookkeeping charged each time a blocked worker re-checks
            its wait condition (models the pause/spin loop).
        backoff_initial: initial retry backoff.
        backoff_max: upper bound on any backoff interval.
        wait_timeout: a safety valve — a worker blocked longer than this
            aborts (execution waits give up and proceed instead; commit-phase
            dependency waits abort).
    """

    access: float = 1.0
    scan_per_row: float = 0.12
    policy_overhead: float = 0.12
    lock_acquire: float = 0.25
    validate_read: float = 0.12
    install_write: float = 0.25
    commit_base: float = 1.0
    abort_base: float = 1.0
    early_validate_entry: float = 0.08
    wait_poll: float = 0.05
    backoff_initial: float = 4.0
    backoff_max: float = 4000.0
    wait_timeout: float = 20000.0

    def __post_init__(self) -> None:
        for name in ("access", "scan_per_row", "policy_overhead", "lock_acquire",
                     "validate_read", "install_write", "commit_base", "abort_base",
                     "early_validate_entry", "wait_poll"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"cost model field {name!r} must be finite")
            if value < 0:
                raise ConfigError(f"cost model field {name!r} must be >= 0")
        for name in ("backoff_initial", "backoff_max", "wait_timeout"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"cost model field {name!r} must be finite")
        if self.backoff_initial <= 0 or self.backoff_max < self.backoff_initial:
            raise ConfigError("backoff bounds must satisfy 0 < initial <= max")
        if self.wait_timeout <= 0:
            raise ConfigError("wait_timeout must be positive")

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with all execution costs multiplied by ``factor``."""
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        return replace(
            self,
            access=self.access * factor,
            scan_per_row=self.scan_per_row * factor,
            policy_overhead=self.policy_overhead * factor,
            lock_acquire=self.lock_acquire * factor,
            validate_read=self.validate_read * factor,
            install_write=self.install_write * factor,
            commit_base=self.commit_base * factor,
            abort_base=self.abort_base * factor,
            early_validate_entry=self.early_validate_entry * factor,
        )


#: ticks per simulated second (1 tick = 1 microsecond)
TICKS_PER_SECOND = 1_000_000.0


@dataclass(frozen=True)
class DurabilityConfig:
    """Epoch-based group-commit durability (Silo's commit protocol plus
    SiloR-style logging, checkpointing and recovery).

    Committed transactions are appended to their shard's log buffer (one
    shard on a single node); at every ``epoch_length`` boundary each buffer
    is flushed as one group commit and client acks are released only once
    the flush completes, so "acked" and "durable" coincide.  A scripted
    ``node_crash`` fault truncates the log to the *persistent epoch* (the
    latest epoch fully flushed on every shard) and recovers from the newest
    durable checkpoint plus log replay.

    Attributes:
        epoch_length: ticks between epoch boundaries (group-commit cadence).
        log_write: ticks charged to the committing worker per log image
            written (one commit-record header plus one image per write).
        log_flush: ticks one epoch's group flush occupies the (serial)
            log device; flushes of consecutive epochs queue behind each
            other, so ``log_flush > epoch_length`` produces flush stalls.
        checkpoint_interval: ticks between background database checkpoints
            (0 = only the initial checkpoint at t=0).  Checkpoints are
            charged no simulated time (SiloR takes them on spare threads).
        recovery_base: fixed ticks of downtime after a node crash (process
            restart + checkpoint load).
        replay_per_record: additional recovery ticks per replayed log
            record.
    """

    epoch_length: float = 1000.0
    log_write: float = 0.05
    log_flush: float = 200.0
    checkpoint_interval: float = 0.0
    recovery_base: float = 1000.0
    replay_per_record: float = 0.1

    def __post_init__(self) -> None:
        if self.epoch_length <= 0:
            raise ConfigError("durability epoch_length must be positive")
        for name in ("log_write", "log_flush", "checkpoint_interval",
                     "recovery_base", "replay_per_record"):
            if getattr(self, name) < 0:
                raise ConfigError(f"durability field {name!r} must be >= 0")


#: shed policies accepted by :class:`FrontendConfig`
SHED_POLICIES = ("reject-newest", "reject-oldest", "priority")


@dataclass(frozen=True)
class FrontendConfig:
    """Open-loop admission control (:mod:`repro.frontend`).

    When attached to a :class:`SimConfig` the run switches from the paper's
    closed-loop retry-until-success workers (§7.1) to an open-loop client
    model: a seeded Poisson arrival process enqueues timestamped invocations
    onto a bounded admission queue from which workers pull.  Arrivals that
    cannot be admitted are shed; admitted transactions carry an optional
    deadline and a bounded retry budget.  Retries back off exponentially
    from the cost model's ``backoff_initial`` up to its ``backoff_max``
    (tightened by a backoff policy's ``cap``), with a jitter of
    ``repro.frontend.frontend.RETRY_JITTER`` unless the policy sets its own.

    Attributes:
        arrival_rate: mean offered load in transactions per simulated
            second (Poisson; inter-arrival gaps are exponential).
        queue_cap: admission-queue capacity; arrivals beyond it are shed
            according to ``shed_policy``.
        deadline: per-transaction deadline in ticks from arrival (``None``
            disables deadlines).  Expiry is enforced in-queue (lazily, at
            dequeue) and in-flight (a scheduler-armed deadline abort).
        retry_budget: aborted attempts allowed per invocation before it is
            permanently rejected (``None`` = retry until the deadline, or
            forever if no deadline is set).
        shed_policy: what to do when an arrival finds the queue full —
            ``"reject-newest"`` drops the arrival, ``"reject-oldest"``
            evicts the queue head and admits the arrival, ``"priority"``
            evicts the lowest-priority entry if the arrival outranks it.
        priorities: ``(type_name, priority)`` pairs for the ``"priority"``
            policy; higher wins, unlisted types default to 0.
        bursts: scripted rate bursts, ``(start, duration, factor)`` triples
            in ticks; overlapping bursts multiply.  Scripted ``burst``
            events in a :class:`~repro.faults.FaultPlan` add to these.
        n_clients: size of the simulated client-id stream arrivals cycle
            through (affects workloads that partition by client, e.g.
            TPC-C home warehouses).  0 = one client per worker.
    """

    arrival_rate: float = 100_000.0
    queue_cap: int = 64
    deadline: Optional[float] = None
    retry_budget: Optional[int] = 8
    shed_policy: str = "reject-newest"
    priorities: Tuple[Tuple[str, float], ...] = ()
    bursts: Tuple[Tuple[float, float, float], ...] = ()
    n_clients: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_rate) or self.arrival_rate <= 0:
            raise ConfigError("frontend arrival_rate must be positive and "
                              "finite")
        if self.queue_cap < 1:
            raise ConfigError("frontend queue_cap must be >= 1")
        if self.deadline is not None and (
                not math.isfinite(self.deadline) or self.deadline <= 0):
            raise ConfigError("frontend deadline must be None or a positive "
                              "finite tick count")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ConfigError("frontend retry_budget must be None or >= 0")
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"unknown shed_policy: {self.shed_policy!r} "
                f"(expected one of {', '.join(SHED_POLICIES)})")
        for pair in self.priorities:
            if (len(pair) != 2 or not isinstance(pair[0], str)
                    or not math.isfinite(pair[1])):
                raise ConfigError(
                    f"frontend priorities entries must be (type_name, "
                    f"finite priority) pairs, got {pair!r}")
        for burst in self.bursts:
            if len(burst) != 3:
                raise ConfigError(
                    f"frontend bursts entries must be (start, duration, "
                    f"factor) triples, got {burst!r}")
            start, duration, factor = burst
            if not math.isfinite(start) or start < 0:
                raise ConfigError("frontend burst start must be >= 0")
            if not math.isfinite(duration) or duration <= 0:
                raise ConfigError("frontend burst duration must be positive")
            if not math.isfinite(factor) or factor <= 0:
                raise ConfigError("frontend burst factor must be positive")
        if self.n_clients < 0:
            raise ConfigError("frontend n_clients must be >= 0")

    @property
    def arrivals_per_tick(self) -> float:
        """The Poisson rate in arrivals per tick (rate is per second)."""
        return self.arrival_rate / TICKS_PER_SECOND


@dataclass(frozen=True)
class ClusterConfig:
    """Sharded multi-node cluster with cross-shard two-phase commit
    (:mod:`repro.cluster`).

    When attached to a :class:`SimConfig` (with ``n_shards >= 2``) the run
    partitions the database across ``n_shards`` simulated nodes: each
    worker is pinned to a home shard, accesses to records owned by another
    shard pay a simulated network round trip, and transactions that write
    more than one shard commit through two-phase commit — prepare records
    on every participant shard's WAL, a decision record on the
    coordinator's, and lazily delivered decision messages, so a node crash
    mid-2PC recovers in-doubt transactions via presumed abort.

    ``n_shards == 1`` is normalised to no cluster at all by the CLI: a
    seeded ``--shards 1`` run takes exactly the single-node code path and
    stays bit-identical to a build without the cluster subsystem.

    Attributes:
        n_shards: number of simulated shards (nodes).  ``SimConfig.n_workers``
            stays the *total* worker count and must divide evenly across
            shards; worker ``w`` is homed on shard
            ``w * n_shards // n_workers``.
        cross_shard_ratio: fraction of generated transactions the cluster
            workload adapters steer at remote-shard data (0.0 = perfectly
            partitionable, the scaling best case).
        net_latency: one-way message latency between any two shards, in
            ticks.
        net_jitter: uniform +/- jitter fraction applied per message from
            the network's own RNG stream (``spawn_rng(seed, NET_RNG_SALT)``).
        net_bandwidth: additional ticks charged per payload byte (0 = pure
            latency model).
    """

    n_shards: int = 2
    cross_shard_ratio: float = 0.1
    net_latency: float = 15.0
    net_jitter: float = 0.1
    net_bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError("cluster n_shards must be >= 1")
        if not 0.0 <= self.cross_shard_ratio <= 1.0:
            raise ConfigError("cluster cross_shard_ratio must lie in [0, 1]")
        if not math.isfinite(self.net_latency) or self.net_latency < 0:
            raise ConfigError("cluster net_latency must be >= 0 and finite")
        if not 0.0 <= self.net_jitter <= 1.0:
            raise ConfigError("cluster net_jitter must lie in [0, 1]")
        if not math.isfinite(self.net_bandwidth) or self.net_bandwidth < 0:
            raise ConfigError("cluster net_bandwidth must be >= 0 and finite")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value into a concrete worker-process count.

    ``None`` and ``1`` mean serial evaluation; ``0`` means one job per
    available CPU core; anything negative is rejected.  Centralised here so
    the CLI and the benches agree on the convention.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ConfigError("jobs must be >= 0 (0 = one per CPU core)")
    if jobs == 0:
        import os
        return max(1, os.cpu_count() or 1)
    return jobs


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated run.

    Attributes:
        n_workers: number of simulated worker threads (the paper's
            ``--threads``).
        duration: simulated run length in ticks.
        warmup: simulated warm-up period excluded from statistics.
        seed: root seed; every worker / generator derives from it.
        cost: the cost model.
        collect_latency: record per-transaction latencies (needed for
            Table 2; slight memory cost otherwise).
        max_retries: safety valve for tests; ``None`` retries forever as in
            the paper's methodology.
        watchdog_window: progress watchdog — if no transaction commits for
            this many ticks the scheduler fires a ``livelock`` event and
            applies ``watchdog_action``.  ``None`` disables the watchdog.
        watchdog_action: what the watchdog does on a livelock window:
            ``"abort_oldest"`` sacrifices the oldest blocked transaction
            (the run continues), ``"raise"`` raises
            :class:`~repro.errors.LivelockError`.
        durability: epoch-based group-commit durability parameters
            (:class:`DurabilityConfig`).  ``None`` (the default) disables
            durability entirely — no epochs, no log costs, no deferred
            acks — and runs stay bit-identical to a build without the
            durability subsystem.
        frontend: open-loop admission control (:class:`FrontendConfig`).
            ``None`` (the default) keeps the paper's closed-loop workers,
            bit-identical to a build without the frontend subsystem.
        cluster: sharded multi-node execution with cross-shard 2PC
            (:class:`ClusterConfig`).  ``None`` (the default) runs the
            single-node path, bit-identical to a build without the
            cluster subsystem.
    """

    n_workers: int = 8
    duration: float = 50_000.0
    warmup: float = 0.0
    seed: int = 42
    cost: CostModel = field(default_factory=CostModel)
    collect_latency: bool = True
    max_retries: Optional[int] = None
    watchdog_window: Optional[float] = None
    watchdog_action: str = "abort_oldest"
    durability: Optional[DurabilityConfig] = None
    frontend: Optional[FrontendConfig] = None
    cluster: Optional[ClusterConfig] = None

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ConfigError("n_workers must be positive")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.warmup < 0 or self.warmup >= self.duration:
            raise ConfigError("warmup must lie in [0, duration)")
        if self.max_retries is not None and self.max_retries < 0:
            raise ConfigError("max_retries must be None or >= 0")
        if self.watchdog_window is not None and self.watchdog_window <= 0:
            raise ConfigError("watchdog_window must be None or positive")
        if self.watchdog_action not in ("abort_oldest", "raise"):
            raise ConfigError(
                f"unknown watchdog_action: {self.watchdog_action!r} "
                "(expected 'abort_oldest' or 'raise')")
        if self.cluster is not None:
            if self.n_workers % self.cluster.n_shards != 0:
                raise ConfigError(
                    f"n_workers ({self.n_workers}) must divide evenly "
                    f"across cluster shards ({self.cluster.n_shards})")
