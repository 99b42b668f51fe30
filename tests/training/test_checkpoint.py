"""Resumable training: checkpoint round-trips, interrupt/resume equivalence,
and resilient evaluation (the engine's retry / timeout / fallback)."""

import json
import multiprocessing
import os
import random
import time

import pytest

from repro.config import SimConfig
from repro.errors import CheckpointError, ReproError, TrainingError
from repro.training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                            ParallelEvaluationEngine, PolicyGradientTrainer,
                            RLConfig, has_checkpoint, load_checkpoint,
                            save_checkpoint)
from repro.training.checkpoint import (checkpoint_path, decode_py_rng,
                                       encode_evaluator_state, encode_py_rng,
                                       restore_evaluator_state)
from repro.training.ea import random_policy

from tests.helpers import CounterWorkload, counter_spec


CONFIG = SimConfig(n_workers=4, duration=600.0, seed=5)


def make_evaluator(**kwargs):
    return ParallelEvaluationEngine(
        FitnessEvaluator(lambda: CounterWorkload(n_keys=4, n_accesses=3),
                         CONFIG),
        **kwargs)


def make_ea():
    return EvolutionaryTrainer(
        counter_spec(3), make_evaluator(),
        EAConfig(population_size=3, children_per_parent=1, iterations=3,
                 seed=9))


def make_rl():
    return PolicyGradientTrainer(
        counter_spec(3), make_evaluator(),
        RLConfig(iterations=3, batch_size=2, seed=9))


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        directory = str(tmp_path)
        save_checkpoint(directory, {"trainer": "ea", "value": [1, 2, 3]})
        assert has_checkpoint(directory)
        data = load_checkpoint(directory)
        assert data["value"] == [1, 2, 3]

    def test_written_compact_and_indented_still_loads(self, tmp_path):
        directory = str(tmp_path)
        path = save_checkpoint(directory, {"trainer": "ea",
                                           "value": [1, {"x": 2.5}]})
        with open(path) as fh:
            text = fh.read()
        document = json.loads(text)
        assert text == json.dumps(document)  # one line, C-encoder layout
        # earlier builds wrote checkpoints with indent=2
        with open(path, "w") as fh:
            json.dump(document, fh, indent=2)
        assert load_checkpoint(directory, expect_trainer="ea") == document

    def test_missing_checkpoint(self, tmp_path):
        assert not has_checkpoint(str(tmp_path))
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path))

    def test_corrupt_checkpoint(self, tmp_path):
        path = checkpoint_path(str(tmp_path))
        with open(path, "w") as fh:
            fh.write("{truncated")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path))

    def test_wrong_trainer_rejected(self, tmp_path):
        save_checkpoint(str(tmp_path), {"trainer": "ea"})
        with pytest.raises(CheckpointError, match="trainer"):
            load_checkpoint(str(tmp_path), expect_trainer="rl")

    def test_wrong_format_rejected(self, tmp_path):
        path = checkpoint_path(str(tmp_path))
        with open(path, "w") as fh:
            json.dump({"format": 999, "trainer": "ea"}, fh)
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(str(tmp_path))

    def test_py_rng_state_round_trip(self):
        rng = random.Random(1234)
        rng.random()
        encoded = json.loads(json.dumps(encode_py_rng(rng)))
        clone = random.Random()
        decode_py_rng(encoded, clone)
        assert [rng.random() for _ in range(5)] == \
            [clone.random() for _ in range(5)]

    def test_bad_rng_state_rejected(self):
        with pytest.raises(CheckpointError):
            decode_py_rng(["bogus"], random.Random())


class TestEAResume:
    def test_interrupt_resume_matches_uninterrupted(self, tmp_path):
        directory = str(tmp_path)
        full = make_ea().train(iterations=3)

        def interrupt(iteration, best, mean):
            if iteration == 1:
                raise KeyboardInterrupt

        partial = make_ea().train(iterations=3, checkpoint_dir=directory,
                                  progress=interrupt)
        assert partial.interrupted
        assert partial.best_fitness > 0

        resumed = make_ea().train(iterations=3, checkpoint_dir=directory,
                                  resume=True)
        assert not resumed.interrupted
        assert resumed.history == full.history
        assert resumed.best_policy == full.best_policy
        assert resumed.best_backoff == full.best_backoff
        assert resumed.best_fitness == full.best_fitness
        assert resumed.evaluations == full.evaluations

    def test_checkpoint_every_k(self, tmp_path):
        directory = str(tmp_path)
        make_ea().train(iterations=3, checkpoint_dir=directory,
                        checkpoint_every=2)
        # the final iteration always checkpoints
        data = load_checkpoint(directory, expect_trainer="ea")
        assert data["next_iteration"] == 3

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(TrainingError, match="checkpoint_dir"):
            make_ea().train(iterations=2, resume=True)

    def test_bad_checkpoint_every(self):
        with pytest.raises(TrainingError):
            make_ea().train(iterations=2, checkpoint_every=0)

    def test_corrupt_population_rejected(self, tmp_path):
        directory = str(tmp_path)
        make_ea().train(iterations=1, checkpoint_dir=directory)
        data = load_checkpoint(directory)
        data["population"][0]["policy"] = {"nonsense": True}
        save_checkpoint(directory, data)
        with pytest.raises(CheckpointError):
            make_ea().train(iterations=2, checkpoint_dir=directory,
                            resume=True)


class TestRLResume:
    def test_interrupt_resume_matches_uninterrupted(self, tmp_path):
        directory = str(tmp_path)
        full = make_rl().train(iterations=3)

        def interrupt(iteration, best, mean):
            if iteration == 1:
                raise KeyboardInterrupt

        partial = make_rl().train(iterations=3, checkpoint_dir=directory,
                                  progress=interrupt)
        assert partial.interrupted

        resumed = make_rl().train(iterations=3, checkpoint_dir=directory,
                                  resume=True)
        assert resumed.history == full.history
        assert resumed.best_policy == full.best_policy
        assert resumed.best_fitness == full.best_fitness

    def test_wrong_trainer_checkpoint_rejected(self, tmp_path):
        directory = str(tmp_path)
        make_ea().train(iterations=1, checkpoint_dir=directory)
        with pytest.raises(CheckpointError, match="trainer"):
            make_rl().train(iterations=2, checkpoint_dir=directory,
                            resume=True)


class TestEvaluatorState:
    def test_round_trip(self):
        engine = make_evaluator()
        engine.evaluate(random_policy(counter_spec(3), random.Random(1)))
        state = json.loads(json.dumps(encode_evaluator_state(engine)))
        fresh = make_evaluator()
        restore_evaluator_state(fresh, state)
        assert encode_evaluator_state(fresh) == state

    def test_pre_engine_checkpoint_resumes_seeds_at_evaluations(self):
        # checkpoints written before the process-pool engine carry no
        # eval_seeds_issued (nor eval_cache): the seed stream restarts at
        # the evaluation count, which is what it equals on a clean run
        engine = make_evaluator()
        restore_evaluator_state(engine, {"evaluations": 7})
        assert engine.evaluations == 7
        assert engine.seeds_issued == engine.evaluations
        assert engine.cache_state() == []

    def test_corrupt_state_rejected(self):
        with pytest.raises(CheckpointError, match="evaluator state"):
            restore_evaluator_state(make_evaluator(), {"evaluations": "x"})


HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class _Scripted(FitnessEvaluator):
    """Inner evaluator with scripted behaviour; ``compute`` runs in a forked
    worker under a timeout or ``jobs > 1``, so state that must survive the
    process boundary lives in files."""

    def __init__(self, error=None, hang=None, fail_marker=None):
        super().__init__(lambda: CounterWorkload(), CONFIG)
        self.error = error
        self.hang = hang
        #: fail while this file is absent; the failing call creates it
        self.fail_marker = fail_marker

    def compute(self, policy, backoff, seed):
        if self.hang is not None:
            time.sleep(self.hang)
        if self.error is not None:
            raise ReproError(self.error)
        if self.fail_marker is not None \
                and not os.path.exists(self.fail_marker):
            open(self.fail_marker, "w").close()
            raise ReproError("transient failure")
        return 100.0


POLICY = random_policy(counter_spec(3), random.Random(2))


class TestResilientEvaluator:
    """Resilient evaluation is the engine's: a failed attempt is retried,
    a hung one is killed, and ``fallback_fitness`` keeps training alive."""

    def test_passthrough(self):
        engine = ParallelEvaluationEngine(_Scripted())
        assert engine.evaluate(POLICY) == 100.0
        assert engine.evaluations == 1
        assert engine.retries == 0

    def test_retries_transient_failures(self, tmp_path):
        # in the pool a retried attempt runs in a fresh worker
        engine = ParallelEvaluationEngine(
            _Scripted(fail_marker=str(tmp_path / "failed")),
            jobs=2, max_retries=2)
        assert engine.evaluate(POLICY) == 100.0
        assert engine.retries == 1
        assert engine.failures == 0
        assert engine.evaluations == 1

    def test_exhausted_retries_raise(self):
        # the worker's own exception crosses the process boundary
        engine = ParallelEvaluationEngine(_Scripted(error="child says no"),
                                          jobs=2, max_retries=1)
        with pytest.raises(TrainingError,
                           match="after 2 attempts: child says no"):
            engine.evaluate(POLICY)
        assert engine.failures == 1
        assert engine.evaluations == 0
        assert not multiprocessing.active_children()

    def test_fallback_fitness(self):
        engine = ParallelEvaluationEngine(_Scripted(error="boom"),
                                          max_retries=0, fallback_fitness=0.0)
        assert engine.evaluate(POLICY) == 0.0
        assert engine.fallbacks_used == 1
        assert engine.evaluations == 0

    @pytest.mark.skipif(not HAS_FORK, reason="timeout kills need fork")
    def test_timeout(self):
        engine = ParallelEvaluationEngine(_Scripted(hang=0.5), max_retries=0,
                                          timeout=0.05, fallback_fitness=-1.0)
        assert engine.evaluate(POLICY) == -1.0
        assert engine.timeouts == 1

    def test_evaluations_counter_is_settable(self):
        # a resume restores the counter the trainers report
        engine = ParallelEvaluationEngine(_Scripted())
        engine.evaluations = 42
        engine.evaluate(POLICY)
        assert engine.evaluations == 43

    def test_trainer_accepts_wrapper(self):
        trainer = EvolutionaryTrainer(
            counter_spec(3), make_evaluator(max_retries=1),
            EAConfig(population_size=2, children_per_parent=1, iterations=1,
                     seed=9))
        result = trainer.train()
        assert result.best_fitness > 0
