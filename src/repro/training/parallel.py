"""The process-pool fitness evaluation engine: the one evaluator the
trainers accept (``repro train --jobs N`` and the library alike).

Every candidate of an EA generation (or RL batch) is an independent
simulator run — embarrassingly parallel work.  This engine fans a batch of
evaluations out to up to ``jobs`` forked worker processes, each running the
pure :meth:`~repro.training.fitness.FitnessEvaluator.compute`, and merges
the results order-independently.  It is the one owner of the parent-side
state: the content cache, the ``evaluations`` / ``cache_hits`` counters,
the per-evaluation seed stream, retry / timeout / fallback and metrics.
It keeps three guarantees:

**Determinism.**  Evaluation *i* (a content-cache miss, counted in
deterministic submission order across the whole run) simulates under seed
``derive_seed(config.seed, EVAL_RNG_SALT, i)``.  Seeds are assigned when a
task is *submitted*, never when it completes, and results are merged by
submission index, so ``--jobs 1`` and ``--jobs N`` produce bit-identical
fitness values, policies, histories and checkpoints.  Duplicate candidates
inside one batch are coalesced onto the first occurrence's run (and
counted as the cache hits the serial order would have seen), so the
evaluation-index stream is also independent of the pool size.  The number
of seeds issued so far and the cache are part of the checkpoint state
(:func:`repro.training.checkpoint.encode_evaluator_state`), which keeps the
identical-trajectory guarantee across a resume — even one that changes the
jobs count.

**Hard timeouts.**  A worker that overruns ``timeout`` wall-clock seconds
is SIGKILLed and reaped: nothing keeps simulating in the background and no
counter can be mutated by a zombie attempt.  A failed or killed attempt is
retried (same seed) up to ``max_retries`` times, then ``fallback_fitness``
is used or :class:`~repro.errors.TrainingError` raised.

**Observability.**  When a metrics registry is attached the engine records
batch wall-clock, per-evaluation latency, per-worker-slot utilization,
queue depth and timeout kills, so the speedup is measurable rather than
asserted.

Worker processes are forked per evaluation: ``fork`` inherits the workload
factory closure and the policy objects without pickling, and a fresh child
per task is what makes the kill-on-timeout safe and leak-free.  With
``jobs=1`` and no timeout — or on platforms without ``fork`` — evaluations
run inline, in this process, with the same seeds (no parallelism, no
timeout enforcement).
"""

from __future__ import annotations

import time
from collections import deque
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from ..errors import ReproError, TrainingError
from ..rng import EVAL_RNG_SALT, derive_seed
from .fitness import FitnessEvaluator

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry


def _listify(obj):
    """Tuples -> lists, recursively (cache keys -> JSON)."""
    if isinstance(obj, tuple):
        return [_listify(item) for item in obj]
    return obj


def _tuplify(obj):
    """Lists -> tuples, recursively (JSON -> hashable cache keys)."""
    if isinstance(obj, list):
        return tuple(_tuplify(item) for item in obj)
    return obj


def _child_main(fn: Callable[[], object], conn) -> None:
    """Worker-process entry point: run ``fn`` and ship the outcome back.

    The payload is ``("ok", value)`` on success and ``("err", exc)`` on
    failure; exceptions that cannot be pickled degrade to
    ``("errstr", repr)`` so the parent still learns what happened.
    """
    try:
        payload = ("ok", fn())
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        payload = ("err", exc)
    try:
        conn.send(payload)
    except Exception:
        try:
            conn.send(("errstr", repr(payload[1])))
        except Exception:  # pragma: no cover - pipe gone, parent sees EOF
            pass
    finally:
        conn.close()


def _receive_outcome(conn, process) -> object:
    """Decode a ``_child_main`` payload; raises the child's exception."""
    try:
        status, payload = conn.recv()
    except Exception as exc:  # EOF / unpicklable payload / torn pipe
        raise TrainingError(
            f"evaluation worker died without a result "
            f"(exit code {process.exitcode}): {exc!r}") from None
    if status == "ok":
        return payload
    if status == "errstr":
        raise TrainingError(f"evaluation worker failed: {payload}")
    raise payload  # "err": the child's original exception


class _Task:
    """One pending evaluation: a candidate plus its pre-assigned seed."""

    __slots__ = ("key", "policy", "backoff", "seed", "indices",
                 "attempts_left", "value")

    def __init__(self, key, policy, backoff, seed, index, attempts_left):
        self.key = key
        self.policy = policy
        self.backoff = backoff
        self.seed = seed
        #: result positions this task feeds (duplicates coalesce here)
        self.indices = [index]
        self.attempts_left = attempts_left
        #: set on success (fallbacks are never cached)
        self.value: Optional[float] = None


class _Attempt:
    """One in-flight worker process executing a task."""

    __slots__ = ("task", "process", "conn", "slot", "started", "deadline")

    def __init__(self, task, process, conn, slot, started, deadline):
        self.task = task
        self.process = process
        self.conn = conn
        self.slot = slot
        self.started = started
        self.deadline = deadline


class ParallelEvaluationEngine:
    """The trainers' evaluator: a content-cached, seeded, fault-tolerant
    process pool over a :class:`~repro.training.fitness.FitnessEvaluator`.

    * ``jobs`` concurrent forked worker processes per batch;
    * per-evaluation seeds spawned from the evaluator's config seed with
      :data:`~repro.rng.EVAL_RNG_SALT` and the submission index — see the
      module docstring for the contract;
    * retries (``max_retries``), hard timeout kills (``timeout``) and
      ``fallback_fitness``, accounted in ``retries`` / ``failures`` /
      ``timeouts`` / ``fallbacks_used``.
    """

    def __init__(self, inner: FitnessEvaluator, jobs: int = 1,
                 max_retries: int = 2, timeout: Optional[float] = None,
                 fallback_fitness: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if jobs < 1:
            raise TrainingError("jobs must be >= 1")
        if max_retries < 0:
            raise TrainingError("max_retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise TrainingError("timeout must be None or positive")
        self.inner = inner
        self.jobs = jobs
        self.max_retries = max_retries
        self.timeout = timeout
        self.fallback_fitness = fallback_fitness
        self.metrics = metrics
        self._cache: Dict[tuple, float] = {}
        #: simulator runs that produced a result (cache misses)
        self.evaluations = 0
        self.cache_hits = 0
        #: per-evaluation seed indices handed out so far (checkpointed —
        #: part of the identical-trajectory guarantee across resume)
        self.seeds_issued = 0
        self.retries = 0
        self.failures = 0
        self.timeouts = 0
        self.fallbacks_used = 0
        #: ``fork`` keeps closures (workload factories) usable in the child
        #: without pickling; without it evaluations run inline.  Only a
        #: pool imports multiprocessing: jobs=1 without a timeout is inline
        self._ctx = None
        if jobs > 1 or timeout is not None:
            import multiprocessing
            if "fork" in multiprocessing.get_all_start_methods():
                self._ctx = multiprocessing.get_context("fork")

    def cache_state(self) -> list:
        """JSON-safe snapshot of the content cache.

        Checkpointed alongside the counters: whether a candidate is a hit
        or a miss decides which seed the *next* miss receives, so a resumed
        run must see the exact cache the interrupted run had or its
        trajectory diverges as soon as a duplicate candidate appears.
        """
        return [[_listify(key), value] for key, value in self._cache.items()]

    def restore_cache(self, entries) -> None:
        """Replace the cache with a :meth:`cache_state` snapshot."""
        self._cache = {_tuplify(key): float(value) for key, value in entries}

    # ------------------------------------------------------------------ #

    def evaluate(self, policy, backoff=None) -> float:
        """Single-candidate evaluation through the same seeded pipeline."""
        return self.evaluate_batch([(policy, backoff)])[0]

    def evaluate_batch(self, pairs: Sequence[Tuple]) -> List[float]:
        """Evaluate every (policy, backoff) pair; results keep input order.

        Cache hits are resolved up front (in submission order, so the
        hit/miss stream is jobs-independent); the misses are fanned out to
        the pool and merged by index as workers finish.
        """
        started = time.monotonic()
        results: List[Optional[float]] = [None] * len(pairs)
        tasks: List[_Task] = []
        by_key: Dict[tuple, _Task] = {}
        for index, (policy, backoff) in enumerate(pairs):
            key = (policy.as_tuple(),
                   backoff.as_tuple() if backoff is not None else ())
            if key in self._cache:
                results[index] = self._cache[key]
            elif key in by_key:
                # duplicate within the batch: share the first occurrence's
                # run — the cache hit serial order would have produced
                by_key[key].indices.append(index)
            else:
                by_key[key] = task = _Task(
                    key, policy, backoff,
                    derive_seed(self.inner.config.seed, EVAL_RNG_SALT,
                                self.seeds_issued),
                    index, self.max_retries)
                self.seeds_issued += 1
                tasks.append(task)
                continue
            self.cache_hits += 1
            self._count("train_eval_cache_hits_total")
        if tasks:
            try:
                if self._ctx is None or (self.jobs == 1
                                         and self.timeout is None):
                    self._run_inline(tasks, results)
                else:
                    self._run_pool(tasks, results)
            finally:
                # cache insertion happens here, in submission order — the
                # pool completes tasks in a jobs-dependent order, and the
                # serialized cache (checkpoint state) must not reflect it
                for task in tasks:
                    if task.value is not None:
                        self._cache[task.key] = task.value
        if self.metrics is not None:
            self.metrics.gauge("train_eval_jobs").set(self.jobs)
            self.metrics.gauge("train_eval_batch_wall_seconds").set(
                time.monotonic() - started)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # execution strategies

    def _run_inline(self, tasks: List[_Task],
                    results: List[Optional[float]]) -> None:
        """Serial in-process execution (jobs=1, no timeout, or no fork).

        Bit-identical to the pool path: the per-task seeds were assigned at
        submission, and ``compute`` is the same pure function the forked
        children run.
        """
        queue = deque(tasks)
        while queue:
            task = queue.popleft()
            eval_started = time.monotonic()
            try:
                value = self.inner.compute(task.policy, task.backoff,
                                           seed=task.seed)
            except ReproError as exc:
                self._task_failed(task, exc, queue, results)
                continue
            self._task_succeeded(task, value, results, eval_started)

    def _run_pool(self, tasks: List[_Task],
                  results: List[Optional[float]]) -> None:
        """Fan tasks out to up to ``jobs`` forked workers; kill stragglers."""
        queue = deque(tasks)
        running: List[_Attempt] = []
        free_slots = list(range(self.jobs - 1, -1, -1))
        busy: Dict[int, float] = {slot: 0.0 for slot in range(self.jobs)}
        pool_started = time.monotonic()
        try:
            while queue or running:
                while queue and free_slots:
                    self._gauge("train_eval_queue_depth", len(queue))
                    running.append(self._spawn(queue.popleft(),
                                               free_slots.pop()))
                ready, expired = self._wait_for_progress(running)
                now = time.monotonic()
                for attempt in ready:
                    running.remove(attempt)
                    free_slots.append(attempt.slot)
                    busy[attempt.slot] += now - attempt.started
                    self._finish(attempt, queue, results)
                for attempt in expired:
                    if attempt not in running:  # already handled as ready
                        continue
                    running.remove(attempt)
                    free_slots.append(attempt.slot)
                    busy[attempt.slot] += now - attempt.started
                    self._kill(attempt)
                    self.timeouts += 1
                    self._count("train_eval_timeout_kills_total")
                    self._task_failed(
                        attempt.task,
                        TrainingError(
                            f"fitness evaluation exceeded {self.timeout}s "
                            "timeout (worker process killed)"),
                        queue, results)
        finally:
            for attempt in running:  # error exit: leave no child behind
                self._kill(attempt)
            self._gauge("train_eval_queue_depth", 0)
            if self.metrics is not None:
                wall = max(time.monotonic() - pool_started, 1e-9)
                for slot in range(self.jobs):
                    self.metrics.gauge("train_eval_worker_utilization",
                                       worker=str(slot)).set(
                        min(1.0, busy[slot] / wall))

    # ------------------------------------------------------------------ #
    # pool plumbing

    def _spawn(self, task: _Task, slot: int) -> _Attempt:
        recv, send = self._ctx.Pipe(duplex=False)
        fn = lambda: self.inner.compute(  # noqa: E731 - fork captures this
            task.policy, task.backoff, seed=task.seed)
        process = self._ctx.Process(target=_child_main, args=(fn, send),
                                    daemon=True)
        process.start()
        send.close()  # parent keeps only the read end
        started = time.monotonic()
        deadline = started + self.timeout if self.timeout is not None \
            else None
        return _Attempt(task, process, recv, slot, started, deadline)

    def _wait_for_progress(self, running: List[_Attempt]):
        """Block until a worker finishes or a deadline passes; returns
        (ready attempts, deadline-expired attempts)."""
        now = time.monotonic()
        wait_for: Optional[float] = None
        for attempt in running:
            if attempt.deadline is not None:
                remaining = max(0.0, attempt.deadline - now)
                wait_for = remaining if wait_for is None \
                    else min(wait_for, remaining)
        from multiprocessing import connection
        ready_conns = connection.wait(
            [attempt.conn for attempt in running], timeout=wait_for)
        ready = [attempt for attempt in running
                 if attempt.conn in ready_conns]
        now = time.monotonic()
        expired = [attempt for attempt in running
                   if attempt not in ready
                   and attempt.deadline is not None
                   and now >= attempt.deadline]
        return ready, expired

    def _finish(self, attempt: _Attempt, queue, results) -> None:
        try:
            value = _receive_outcome(attempt.conn, attempt.process)
        except ReproError as exc:
            self._task_failed(attempt.task, exc, queue, results)
            return
        finally:
            attempt.process.join()
            attempt.conn.close()
        self._task_succeeded(attempt.task, value, results, attempt.started)

    def _kill(self, attempt: _Attempt) -> None:
        attempt.process.kill()
        attempt.process.join()
        attempt.conn.close()

    # ------------------------------------------------------------------ #
    # order-independent merge (all counter/cache mutation funnels here)

    def _task_succeeded(self, task: _Task, value: float, results,
                        eval_started: float) -> None:
        self.evaluations += 1
        task.value = value  # cached later, in submission order
        for index in task.indices:
            results[index] = value
        self._count("train_evaluations_total")
        if self.metrics is not None:
            self.metrics.histogram("train_eval_seconds").observe(
                time.monotonic() - eval_started)

    def _task_failed(self, task: _Task, error: BaseException, queue,
                     results) -> None:
        if task.attempts_left > 0:
            task.attempts_left -= 1
            self.retries += 1
            self._count("train_eval_retries_total")
            queue.append(task)  # retried with the same pre-assigned seed
            return
        self.failures += 1
        if self.fallback_fitness is not None:
            self.fallbacks_used += 1
            self._count("train_eval_fallbacks_total")
            for index in task.indices:
                results[index] = self.fallback_fitness
            return
        raise TrainingError(
            f"fitness evaluation failed after {self.max_retries + 1} "
            f"attempts: {error}") from error

    # ------------------------------------------------------------------ #

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _gauge(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)
