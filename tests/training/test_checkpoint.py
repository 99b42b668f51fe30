"""Resumable training: checkpoint round-trips, interrupt/resume equivalence,
and the resilient evaluation wrapper."""

import json
import random

import pytest

from repro.config import SimConfig
from repro.errors import CheckpointError, ReproError, TrainingError
from repro.training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                            PolicyGradientTrainer, ResilientEvaluator,
                            RLConfig, has_checkpoint, load_checkpoint,
                            save_checkpoint)
from repro.training.checkpoint import (checkpoint_path, decode_py_rng,
                                       encode_py_rng)

from tests.helpers import CounterWorkload, counter_spec


def make_evaluator():
    return FitnessEvaluator(lambda: CounterWorkload(n_keys=4, n_accesses=3),
                            SimConfig(n_workers=4, duration=600.0, seed=5))


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


class _ScriptedInner:
    """Stand-in evaluator that fails a scripted number of times."""

    def __init__(self, failures=0, value=100.0, hang=None):
        self.failures = failures
        self.value = value
        self.hang = hang
        self.calls = 0
        self.evaluations = 0
        self.cache_hits = 0

    def evaluate(self, policy, backoff=None):
        self.calls += 1
        if self.hang is not None:
            import time
            time.sleep(self.hang)
        if self.calls <= self.failures:
            raise ReproError("transient failure")
        self.evaluations += 1
        return self.value


class TestResilientEvaluator:
    def test_passthrough(self):
        evaluator = ResilientEvaluator(_ScriptedInner())
        assert evaluator.evaluate(None) == 100.0
        assert evaluator.evaluations == 1
        assert evaluator.retries == 0

    def test_retries_transient_failures(self):
        evaluator = ResilientEvaluator(_ScriptedInner(failures=2),
                                       max_retries=2)
        assert evaluator.evaluate(None) == 100.0
        assert evaluator.retries == 2
        assert evaluator.failures == 0

    def test_exhausted_retries_raise(self):
        evaluator = ResilientEvaluator(_ScriptedInner(failures=10),
                                       max_retries=1)
        with pytest.raises(TrainingError, match="after 2 attempts"):
            evaluator.evaluate(None)
        assert evaluator.failures == 1

    def test_fallback_fitness(self):
        evaluator = ResilientEvaluator(_ScriptedInner(failures=10),
                                       max_retries=0, fallback_fitness=0.0)
        assert evaluator.evaluate(None) == 0.0
        assert evaluator.fallbacks_used == 1

    def test_timeout(self):
        evaluator = ResilientEvaluator(_ScriptedInner(hang=0.5),
                                       max_retries=0, timeout=0.05,
                                       fallback_fitness=-1.0)
        assert evaluator.evaluate(None) == -1.0
        assert evaluator.timeouts >= 1

    def test_counter_proxy_is_settable(self):
        inner = _ScriptedInner()
        evaluator = ResilientEvaluator(inner)
        evaluator.evaluations = 42
        assert inner.evaluations == 42
        assert evaluator.evaluations == 42

    def test_invalid_params(self):
        with pytest.raises(TrainingError):
            ResilientEvaluator(_ScriptedInner(), max_retries=-1)
        with pytest.raises(TrainingError):
            ResilientEvaluator(_ScriptedInner(), timeout=0.0)

    def test_trainer_accepts_wrapper(self):
        trainer = EvolutionaryTrainer(
            counter_spec(3), ResilientEvaluator(make_evaluator()),
            EAConfig(population_size=2, children_per_parent=1, iterations=1,
                     seed=9))
        result = trainer.train()
        assert result.best_fitness > 0
