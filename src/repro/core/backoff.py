"""Backoff policies: the learned table (§4.5) and the Silo baseline.

The learned backoff table's state space is (transaction type, execution
status commit/abort, number of prior aborted attempts bucketed 0/1/2+);
its action is a bounded discrete multiplier alpha.  A worker adjusts its
per-type backoff multiplicatively on every commit/abort:

    backoff *= (1 + alpha[t, i, aborted])    on abort
    backoff /= (1 + alpha[t, i, committed])  on commit

Silo's baseline is binary exponential backoff, which the paper criticises
for being too short early and too long after several retries, and for not
distinguishing transaction types.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional

from ..config import CostModel
from ..errors import PolicyFormatError, PolicyShapeError, PolicyValueError
from ..ioutil import atomic_write_text

#: discrete alpha choices (bounded, includes 0 = "leave backoff unchanged")
ALPHA_CHOICES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

#: hard ceiling on exponential backoff growth: ``2.0 ** n`` overflows a
#: Python float to ``inf`` around n = 1024, and a long doom cascade can
#: accumulate thousands of aborted attempts; 2^63 microseconds (~292k
#: years simulated) is already beyond any run horizon, so the clamp never
#: changes an observable pause — it only keeps the arithmetic finite
MAX_BACKOFF_DOUBLINGS = 63

#: prior-abort buckets: 0, 1, 2-or-more (§4.5)
N_ABORT_BUCKETS = 3

STATUS_COMMITTED = 0
STATUS_ABORTED = 1
N_STATUSES = 2


def abort_bucket(prior_aborts: int) -> int:
    """Bucket the number of prior aborted attempts as 0 / 1 / 2+."""
    return min(max(prior_aborts, 0), N_ABORT_BUCKETS - 1)


class BackoffPolicy:
    """The learned backoff table: alpha indices per (type, status, bucket).

    Optionally carries deployment bounds alongside the table: ``cap`` (a
    hard ceiling on any pause the policy produces, ticks) and ``jitter``
    (the fraction of each open-loop retry pause randomised away, in place
    of the frontend's default).  Both
    are validated at construction/load time — a corrupted artifact with a
    NaN, infinite or negative bound is rejected with an error naming the
    offending field, never silently deployed.
    """

    def __init__(self, n_types: int,
                 alpha_indices: Optional[List[List[List[int]]]] = None,
                 cap: Optional[float] = None,
                 jitter: Optional[float] = None) -> None:
        if n_types <= 0:
            raise PolicyShapeError("backoff policy needs n_types > 0")
        self.n_types = n_types
        if alpha_indices is None:
            alpha_indices = [[[0] * N_ABORT_BUCKETS for _ in range(N_STATUSES)]
                             for _ in range(n_types)]
        self.alpha_indices = alpha_indices
        #: optional hard ceiling (ticks) on any pause this policy produces
        self.cap = cap
        #: optional jitter fraction in [0, 1] for open-loop retry pauses;
        #: overrides the frontend's ``RETRY_JITTER`` (see
        #: :meth:`~repro.frontend.Frontend.make_backoff`)
        self.jitter = jitter
        self.validate()

    def validate(self) -> None:
        if len(self.alpha_indices) != self.n_types:
            raise PolicyShapeError("backoff table has wrong number of types")
        for per_type in self.alpha_indices:
            if len(per_type) != N_STATUSES:
                raise PolicyShapeError("backoff table has wrong status arity")
            for per_status in per_type:
                if len(per_status) != N_ABORT_BUCKETS:
                    raise PolicyShapeError("backoff table has wrong bucket arity")
                for idx in per_status:
                    if not 0 <= idx < len(ALPHA_CHOICES):
                        raise PolicyValueError(f"alpha index {idx} out of range")
        if self.cap is not None and (
                not math.isfinite(self.cap) or self.cap <= 0):
            raise PolicyValueError(
                f"backoff policy field 'cap' must be a positive finite "
                f"tick count, got {self.cap!r}")
        if self.jitter is not None and (
                not math.isfinite(self.jitter)
                or not 0.0 <= self.jitter <= 1.0):
            raise PolicyValueError(
                f"backoff policy field 'jitter' must lie in [0, 1], "
                f"got {self.jitter!r}")

    def alpha(self, type_index: int, status: int, prior_aborts: int) -> float:
        return ALPHA_CHOICES[
            self.alpha_indices[type_index][status][abort_bucket(prior_aborts)]]

    def clone(self) -> "BackoffPolicy":
        return BackoffPolicy(
            self.n_types,
            [[list(bucket) for bucket in per_type]
             for per_type in self.alpha_indices],
            cap=self.cap, jitter=self.jitter)

    def as_tuple(self) -> tuple:
        return tuple(tuple(tuple(b) for b in t) for t in self.alpha_indices)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BackoffPolicy)
                and self.as_tuple() == other.as_tuple()
                and (self.cap, self.jitter) == (other.cap, other.jitter))

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        data = {"n_types": self.n_types, "alpha_indices": self.alpha_indices}
        # emitted only when set, so artifacts without deployment bounds
        # stay byte-identical to ones written before the fields existed
        if self.cap is not None:
            data["cap"] = self.cap
        if self.jitter is not None:
            data["jitter"] = self.jitter
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BackoffPolicy":
        if not isinstance(data, dict):
            raise PolicyFormatError(
                f"backoff policy must be an object, got {type(data).__name__}")
        try:
            n_types = int(data["n_types"])
            alpha_indices = data["alpha_indices"]
        except KeyError as exc:
            raise PolicyFormatError(
                f"backoff policy missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise PolicyFormatError(
                f"backoff policy field 'n_types': {exc}") from exc
        try:
            table = [[[int(i) for i in bucket] for bucket in per_type]
                     for per_type in alpha_indices]
        except (TypeError, ValueError) as exc:
            raise PolicyFormatError(
                f"backoff policy field 'alpha_indices': {exc}") from exc
        bounds = {}
        for name in ("cap", "jitter"):
            if data.get(name) is not None:
                try:
                    bounds[name] = float(data[name])
                except (TypeError, ValueError) as exc:
                    raise PolicyFormatError(
                        f"backoff policy field {name!r}: {exc}") from exc
        return cls(n_types, table, **bounds)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "BackoffPolicy":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise PolicyFormatError(f"invalid backoff JSON: {exc}") from exc

    def save(self, path: str) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "BackoffPolicy":
        try:
            with open(path) as f:
                text = f.read()
        except OSError as exc:
            raise PolicyFormatError(
                f"cannot read backoff policy {path}: {exc}") from exc
        return cls.from_json(text)


class LearnedBackoffManager:
    """Per-worker runtime state applying a :class:`BackoffPolicy`."""

    __slots__ = ("policy", "cost", "_backoff", "_max")

    def __init__(self, policy: BackoffPolicy, cost: CostModel) -> None:
        self.policy = policy
        self.cost = cost
        self._backoff = [cost.backoff_initial] * policy.n_types
        #: ceiling on any pause: the policy's deployment cap when it
        #: carries one, else the cost model's backoff_max
        self._max = policy.cap if policy.cap is not None else cost.backoff_max

    def on_abort(self, type_index: int, attempt: int) -> float:
        """Called after an aborted attempt; returns the pause before retry.

        ``attempt`` counts aborts so far for this invocation (1 = first
        abort), so the prior-abort count for this execution is attempt - 1.
        """
        alpha = self.policy.alpha(type_index, STATUS_ABORTED, attempt - 1)
        updated = self._backoff[type_index] * (1.0 + alpha)
        self._backoff[type_index] = min(updated, self._max)
        return self._backoff[type_index]

    def on_commit(self, type_index: int, attempts: int) -> None:
        alpha = self.policy.alpha(type_index, STATUS_COMMITTED, attempts)
        updated = self._backoff[type_index] / (1.0 + alpha)
        self._backoff[type_index] = max(updated, self.cost.backoff_initial)

    def current(self, type_index: int) -> float:
        return self._backoff[type_index]


class ExponentialBackoffManager:
    """Silo-style binary exponential backoff (doubles per failed attempt).

    ``cap`` tightens the ceiling on any pause; it is clamped to lie between
    the cost model's ``backoff_initial`` and ``backoff_max`` (``None`` =
    ``backoff_max``).  ``jitter`` randomises that fraction of each pause
    away (0 = deterministic, 1 = uniform in (0, pause]), drawing from
    ``rng`` only when it is positive.
    """

    __slots__ = ("cost", "cap", "jitter", "rng")

    def __init__(self, cost: CostModel, cap: Optional[float] = None,
                 jitter: float = 0.0, rng=None) -> None:
        self.cost = cost
        self.cap = (cost.backoff_max if cap is None else
                    min(max(cap, cost.backoff_initial), cost.backoff_max))
        self.jitter = jitter
        self.rng = rng

    def on_abort(self, type_index: int, attempt: int) -> float:
        doublings = min(attempt - 1, MAX_BACKOFF_DOUBLINGS)
        pause = min(self.cost.backoff_initial * (2.0 ** doublings), self.cap)
        if self.jitter > 0.0:
            pause *= 1.0 - self.jitter * self.rng.random()
        return pause

    def on_commit(self, type_index: int, attempts: int) -> None:
        pass  # stateless: each invocation starts over

    def current(self, type_index: int) -> float:
        return self.cost.backoff_initial


class NoBackoffManager:
    """Retry immediately (used by blocking protocols such as 2PL)."""

    __slots__ = ("pause",)

    def __init__(self, pause: float = 0.0) -> None:
        self.pause = pause

    def on_abort(self, type_index: int, attempt: int) -> float:
        return self.pause

    def on_commit(self, type_index: int, attempts: int) -> None:
        pass

    def current(self, type_index: int) -> float:
        return self.pause
