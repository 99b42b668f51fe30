"""Process-pool evaluation engine: determinism, timeout kills, accounting.

The contracts under test:

* ``jobs=1`` and ``jobs=N`` produce bit-identical policies, fitness
  histories, artifacts and checkpoint files for both trainers;
* interrupt-at-k + resume — including a jobs-count change at the
  checkpoint boundary — matches the uninterrupted serial run;
* a timed-out evaluation's worker process is killed: no surviving process
  or thread, and counters advance exactly once per logical attempt (the
  old daemon-thread timeout kept simulating in the background and
  double-counted when the zombie finished);
* accounting stays exact under fault-injected slow evaluations.
"""

import multiprocessing
import os
import random
import threading
import time

import pytest

from repro.config import SimConfig, resolve_jobs
from repro.errors import ConfigError, ReproError, TrainingError
from repro.faults import FaultPlan, ScriptedFault
from repro.obs import MetricsRegistry
from repro.training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                            ParallelEvaluationEngine, PolicyGradientTrainer,
                            RLConfig)
from repro.training.ea import random_policy

from tests.helpers import CounterWorkload, counter_spec

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK,
    reason="subprocess timeout kills need the fork start method")

SPEC = counter_spec(3)


def make_inner(seed=5, duration=600.0, **kwargs):
    return FitnessEvaluator(
        lambda: CounterWorkload(n_keys=4, n_accesses=3),
        SimConfig(n_workers=4, duration=duration, seed=seed,
                  collect_latency=False),
        **kwargs)


def make_engine(jobs=1, **kwargs):
    return ParallelEvaluationEngine(make_inner(), jobs=jobs, **kwargs)


def make_ea(jobs, seed=9, metrics=None):
    return EvolutionaryTrainer(
        SPEC, make_engine(jobs=jobs, metrics=metrics),
        EAConfig(population_size=3, children_per_parent=2, iterations=3,
                 seed=seed))


def make_rl(jobs, seed=9):
    return PolicyGradientTrainer(
        SPEC, make_engine(jobs=jobs),
        RLConfig(iterations=2, batch_size=4, seed=seed))


def no_leftover_workers():
    """True when no evaluation worker process survives."""
    for _ in range(50):  # allow a few ms for reaped children to vanish
        if not multiprocessing.active_children():
            break
        time.sleep(0.02)
    return not multiprocessing.active_children()


class _Hanging(FitnessEvaluator):
    """Inner evaluator whose simulation never returns in time."""

    def compute(self, policy, backoff, seed):
        time.sleep(60)


class _Flaky(FitnessEvaluator):
    """Fails the first ``failures`` compute calls with a transient error."""

    def __init__(self, *args, failures=0, **kwargs):
        super().__init__(*args, **kwargs)
        self._failures = failures
        self.compute_calls = 0

    def compute(self, policy, backoff, seed):
        self.compute_calls += 1
        if self.compute_calls <= self._failures:
            raise ReproError("transient failure")
        return super().compute(policy, backoff, seed)


# --------------------------------------------------------------------- #
# engine semantics


class TestEngineBasics:
    def test_invalid_params(self):
        with pytest.raises(TrainingError):
            make_engine(jobs=0)
        with pytest.raises(TrainingError):
            make_engine(max_retries=-1)
        with pytest.raises(TrainingError):
            make_engine(timeout=0.0)

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)
        with pytest.raises(ConfigError):
            resolve_jobs(-2)

    def test_single_evaluate_matches_batch(self):
        rng = random.Random(1)
        policy = random_policy(SPEC, rng)
        a = make_engine(jobs=1).evaluate(policy)
        b = make_engine(jobs=1).evaluate_batch([(policy, None)])[0]
        assert a == b > 0

    def test_cache_hits_and_counters(self):
        engine = make_engine(jobs=1)
        policy = random_policy(SPEC, random.Random(2))
        first = engine.evaluate(policy)
        second = engine.evaluate(policy.clone())
        assert first == second
        assert engine.evaluations == 1
        assert engine.cache_hits == 1
        assert engine.seeds_issued == 1

    def test_duplicates_in_one_batch_coalesce(self):
        engine = make_engine(jobs=2)
        policy = random_policy(SPEC, random.Random(3))
        results = engine.evaluate_batch(
            [(policy, None), (policy.clone(), None)])
        assert results[0] == results[1]
        assert engine.evaluations == 1
        assert engine.cache_hits == 1
        assert engine.seeds_issued == 1

    def test_distinct_candidates_get_distinct_seeds(self):
        # same policy content under two different eval indices would get
        # different seeds; distinct candidates consume consecutive indices
        engine = make_engine(jobs=1)
        rng = random.Random(4)
        engine.evaluate_batch([(random_policy(SPEC, rng), None),
                               (random_policy(SPEC, rng), None)])
        assert engine.seeds_issued == 2
        assert engine.evaluations == 2

    def test_transient_failures_retried_inline(self):
        inner = _Flaky(lambda: CounterWorkload(n_keys=4, n_accesses=3),
                       SimConfig(n_workers=4, duration=600.0, seed=5),
                       failures=2)
        engine = ParallelEvaluationEngine(inner, jobs=1, max_retries=2)
        engine.evaluate(random_policy(SPEC, random.Random(5)))
        assert inner.compute_calls == 3  # two failures + the success
        assert engine.retries == 2
        assert engine.failures == 0
        assert engine.evaluations == 1

    def test_exhausted_retries_raise(self):
        inner = _Flaky(lambda: CounterWorkload(n_keys=4, n_accesses=3),
                       SimConfig(n_workers=4, duration=600.0, seed=5),
                       failures=10)
        engine = ParallelEvaluationEngine(inner, jobs=1, max_retries=1)
        with pytest.raises(TrainingError, match="after 2 attempts"):
            engine.evaluate(random_policy(SPEC, random.Random(6)))
        assert engine.failures == 1

    def test_metrics_fed(self):
        metrics = MetricsRegistry()
        engine = make_engine(jobs=2, metrics=metrics)
        rng = random.Random(7)
        engine.evaluate_batch([(random_policy(SPEC, rng), None)
                               for _ in range(3)])
        names = {metric.name for metric in metrics}
        assert "train_evaluations_total" in names
        assert "train_eval_batch_wall_seconds" in names
        assert metrics.counter("train_evaluations_total").value == \
            engine.evaluations
        if HAS_FORK:
            assert "train_eval_worker_utilization" in names
            assert "train_eval_seconds" in names


# --------------------------------------------------------------------- #
# determinism: jobs=1 == jobs=N, bit for bit


class TestJobsDeterminism:
    @needs_fork
    def test_ea_artifacts_identical_across_jobs(self, tmp_path):
        paths = {}
        for jobs in (1, 4):
            ckpt = tmp_path / f"ckpt{jobs}"
            result = make_ea(jobs).train(checkpoint_dir=str(ckpt))
            policy_path = tmp_path / f"policy{jobs}.json"
            backoff_path = tmp_path / f"backoff{jobs}.json"
            result.best_policy.save(str(policy_path))
            result.best_backoff.save(str(backoff_path))
            paths[jobs] = (policy_path, backoff_path,
                           ckpt / "checkpoint.json", result)
        for a, b in zip(paths[1][:3], paths[4][:3]):
            assert a.read_bytes() == b.read_bytes()
        assert paths[1][3].history == paths[4][3].history
        assert paths[1][3].evaluations == paths[4][3].evaluations

    @needs_fork
    def test_rl_artifacts_identical_across_jobs(self, tmp_path):
        outcomes = {}
        for jobs in (1, 4):
            ckpt = tmp_path / f"ckpt{jobs}"
            result = make_rl(jobs).train(checkpoint_dir=str(ckpt))
            outcomes[jobs] = (result, (ckpt / "checkpoint.json").read_bytes())
        assert outcomes[1][0].history == outcomes[4][0].history
        assert outcomes[1][0].best_policy == outcomes[4][0].best_policy
        assert outcomes[1][0].best_backoff == outcomes[4][0].best_backoff
        assert outcomes[1][1] == outcomes[4][1]

    @needs_fork
    def test_resume_across_jobs_change_matches_serial(self, tmp_path):
        full_dir = tmp_path / "full"
        full = make_ea(1).train(checkpoint_dir=str(full_dir))

        def interrupt(iteration, best, mean):
            if iteration == 1:
                raise KeyboardInterrupt

        partial_dir = tmp_path / "partial"
        partial = make_ea(1).train(checkpoint_dir=str(partial_dir),
                                   progress=interrupt)
        assert partial.interrupted

        resumed = make_ea(4).train(checkpoint_dir=str(partial_dir),
                                   resume=True)
        assert resumed.history == full.history
        assert resumed.best_policy == full.best_policy
        assert resumed.best_backoff == full.best_backoff
        assert resumed.evaluations == full.evaluations
        # the post-resume checkpoint is byte-identical to the serial one
        assert (partial_dir / "checkpoint.json").read_bytes() == \
            (full_dir / "checkpoint.json").read_bytes()

    def test_cache_round_trips_through_checkpoint_state(self):
        engine = make_engine(jobs=1)
        policy = random_policy(SPEC, random.Random(8))
        value = engine.evaluate(policy)
        fresh = make_engine(jobs=1)
        fresh.restore_cache(engine.cache_state())
        assert fresh.evaluate(policy.clone()) == value
        assert fresh.evaluations == 0  # a hit — no new simulator run
        assert fresh.cache_hits == 1


# --------------------------------------------------------------------- #
# timeout kills: no zombies, exact accounting


@needs_fork
class TestTimeoutKills:
    def test_engine_timeout_kills_and_falls_back(self):
        inner = _Hanging(lambda: CounterWorkload(),
                         SimConfig(n_workers=4, duration=600.0, seed=5))
        engine = ParallelEvaluationEngine(inner, jobs=2, timeout=0.2,
                                          max_retries=1,
                                          fallback_fitness=-1.0)
        policy = random_policy(SPEC, random.Random(10))
        assert engine.evaluate(policy) == -1.0
        assert engine.timeouts == 2      # initial attempt + one retry
        assert engine.retries == 1
        assert engine.failures == 1
        assert engine.fallbacks_used == 1
        assert engine.evaluations == 0   # killed runs never count
        assert no_leftover_workers()

    def test_resilient_timeout_leaves_no_live_worker(self):
        inner = _Hanging(lambda: CounterWorkload(),
                         SimConfig(n_workers=4, duration=600.0, seed=5))
        engine = ParallelEvaluationEngine(inner, max_retries=0, timeout=0.1,
                                          fallback_fitness=-1.0)
        before = threading.active_count()
        assert engine.evaluate(
            random_policy(SPEC, random.Random(11))) == -1.0
        assert engine.timeouts == 1
        assert threading.active_count() == before
        assert no_leftover_workers()
        # a daemon-thread timeout would keep evaluating in the background
        # and bump the counters when the zombie finished; a killed process
        # cannot — give a zombie ample time to prove itself absent
        time.sleep(0.4)
        assert engine.evaluations == 0
        assert engine.cache_hits == 0

    def test_counters_advance_exactly_once_per_logical_attempt(self):
        # a timeout episode followed by a successful evaluation must leave
        # exactly one counted evaluation — no background double count
        class _HangOnce(FitnessEvaluator):
            def compute(self, policy, backoff, seed):
                if policy.name == "hang":
                    time.sleep(60)
                return super().compute(policy, backoff, seed)

        inner = _HangOnce(lambda: CounterWorkload(n_keys=4, n_accesses=3),
                          SimConfig(n_workers=4, duration=600.0, seed=5))
        engine = ParallelEvaluationEngine(inner, max_retries=0, timeout=0.15,
                                          fallback_fitness=-1.0)
        slow = random_policy(SPEC, random.Random(12), name="hang")
        fast = random_policy(SPEC, random.Random(13))
        assert engine.evaluate(slow) == -1.0
        assert engine.evaluate(fast) > 0
        time.sleep(0.3)  # any zombie would land its count here
        assert engine.evaluations == 1
        assert engine.timeouts == 1
        assert no_leftover_workers()


# --------------------------------------------------------------------- #
# exact accounting under fault-injected slow evaluations (repro.faults)


class TestSlowFaultAccounting:
    def _plan(self):
        # inflate worker 0's simulated costs 4x mid-run — a deterministic
        # slow-node evaluation, derived from the same seed every time
        return FaultPlan(events=[ScriptedFault(100.0, "slow", 0,
                                               factor=4.0)],
                         name="slow-eval")

    def test_accounting_exact_under_slow_faults(self):
        inner = make_inner(fault_plan=self._plan())
        engine = ParallelEvaluationEngine(inner, jobs=1, max_retries=2)
        policy = random_policy(SPEC, random.Random(14))
        first = engine.evaluate(policy)
        second = engine.evaluate(policy.clone())
        assert first == second
        assert engine.evaluations == 1   # exactly one simulator run
        assert engine.cache_hits == 1    # and exactly one hit
        assert engine.retries == 0
        assert engine.timeouts == 0

    @needs_fork
    def test_slow_fault_runs_identical_across_jobs(self):
        rng = random.Random(15)
        pairs = [(random_policy(SPEC, rng), None) for _ in range(4)]
        outcomes = []
        for jobs in (1, 3):
            inner = make_inner(fault_plan=self._plan())
            engine = ParallelEvaluationEngine(inner, jobs=jobs)
            outcomes.append((engine.evaluate_batch(list(pairs)),
                             engine.evaluations, engine.cache_hits,
                             engine.seeds_issued))
        assert outcomes[0] == outcomes[1]


# --------------------------------------------------------------------- #
# wall-clock speedup (only meaningful with real cores available)


@needs_fork
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup needs >= 4 physical cores")
def test_parallel_speedup_on_multicore():
    def run(jobs):
        trainer = EvolutionaryTrainer(
            SPEC,
            ParallelEvaluationEngine(make_inner(duration=20_000.0),
                                     jobs=jobs),
            EAConfig(population_size=4, children_per_parent=3,
                     iterations=10, seed=21))
        started = time.monotonic()
        result = trainer.train()
        return time.monotonic() - started, result

    serial_seconds, serial = run(1)
    parallel_seconds, parallel = run(4)
    assert serial.history == parallel.history  # identical trajectory
    assert serial_seconds / parallel_seconds >= 2.0
