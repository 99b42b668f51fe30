"""Exception hierarchy for the Polyjuice reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures without catching unrelated bugs.
Transaction aborts are *not* exceptions in the public API (aborted
transactions are retried by the simulator), but internally the executor
signals an abort by raising :class:`TransactionAborted`.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class StorageError(ReproError):
    """Base class for storage-layer errors."""


class UnknownTableError(StorageError):
    """A transaction referenced a table that does not exist."""


class DuplicateKeyError(StorageError):
    """An insert collided with an existing committed key."""


class MissingKeyError(StorageError):
    """A read or update referenced a key with no committed version."""


class PolicyError(ReproError):
    """Base class for policy-table errors."""


class PolicyShapeError(PolicyError):
    """A policy table does not match the workload's state space."""


class PolicyValueError(PolicyError):
    """A policy cell holds a value outside its legal range."""


class PolicyFormatError(PolicyError):
    """A serialized policy file could not be parsed."""


class SimulationError(ReproError):
    """Base class for discrete-event simulator errors."""


class SchedulerError(SimulationError):
    """The scheduler was driven in an illegal way (e.g. time regression)."""


class LivelockError(SimulationError):
    """The progress watchdog observed no commit for a full window and the
    run was configured to treat that as fatal (``watchdog_action="raise"``).
    Carries the diagnostics recorded at detection time."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed or holds an illegal value."""


class WorkloadError(ReproError):
    """A workload definition is inconsistent or was misused."""


class TrainingError(ReproError):
    """A trainer or its evaluation engine was configured or driven
    incorrectly, or a fitness evaluation kept failing.

    :class:`~repro.training.parallel.ParallelEvaluationEngine` retries a
    failed attempt — one that raised a :class:`ReproError`, overran its
    timeout (the worker process is killed) or whose worker died — up to
    ``max_retries`` times; when every attempt failed and no
    ``fallback_fitness`` is set it raises this error."""


class CheckpointError(TrainingError):
    """A training checkpoint could not be read or does not match the
    trainer attempting to resume from it."""


class AbortReason:
    """Symbolic reasons a transaction attempt aborted (for statistics)."""

    VALIDATION = "validation"
    EARLY_VALIDATION = "early_validation"
    DIRTY_READ_OF_ABORTED = "dirty_read_of_aborted"
    LOCK_DIE = "lock_die"
    WAIT_CYCLE = "wait_cycle"
    WAIT_TIMEOUT = "wait_timeout"
    #: the fault injector killed the attempt (injected abort / worker crash)
    FAULT = "fault"
    #: the progress watchdog sacrificed the oldest blocked transaction
    LIVELOCK = "livelock"
    #: the invocation's deadline passed while the attempt was in flight
    #: (open-loop admission control; see :mod:`repro.frontend`)
    DEADLINE = "deadline"
    USER = "user"

    ALL = (
        VALIDATION,
        EARLY_VALIDATION,
        DIRTY_READ_OF_ABORTED,
        LOCK_DIE,
        WAIT_CYCLE,
        WAIT_TIMEOUT,
        FAULT,
        LIVELOCK,
        DEADLINE,
        USER,
    )


class PieceRetry(ReproError):
    """Internal control-flow signal: early validation failed and the
    transaction must re-execute from its last successful validation point
    (§4.3).  Never escapes the policy executor — the already-validated,
    already-published prefix stays in place and only the unvalidated suffix
    is rolled back and re-executed."""

    def __init__(self, detail: str = "", site=None) -> None:
        super().__init__(f"early validation failed: {detail}")
        self.detail = detail
        #: optional ``(table, key)`` of the access that failed validation,
        #: used by the tracer for conflict attribution
        self.site = site


class TransactionAborted(ReproError):
    """Internal control-flow signal: the current transaction attempt died.

    The simulator catches this, runs the abort path (release locks, scrub
    access lists, back off) and retries the same transaction input, matching
    the paper's retry-until-commit methodology (§7.1).
    """

    def __init__(self, reason: str, detail: str = "", site=None,
                 reject_reason=None) -> None:
        if reason not in AbortReason.ALL:
            raise ValueError(f"unknown abort reason: {reason!r}")
        super().__init__(f"transaction aborted: {reason}" + (f" ({detail})" if detail else ""))
        self.reason = reason
        self.detail = detail
        #: optional ``(table, key)`` of the conflicting access, used by the
        #: tracer for conflict attribution (None when no single site applies)
        self.site = site
        #: when set, retrying can never succeed until the cluster heals
        #: (e.g. the target shard is down): the invocation is *rejected* —
        #: closed-loop workers drop it and move on, open-loop workers shed
        #: it under this reason — instead of retried into starvation
        self.reject_reason = reject_reason
