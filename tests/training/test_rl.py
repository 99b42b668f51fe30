"""Policy-gradient trainer tests (§5.2)."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.errors import TrainingError
from repro.training import (FitnessEvaluator, ParallelEvaluationEngine,
                            PolicyGradientTrainer, RLConfig)
from repro.training.rl import _CellParam
from repro.cc.seeds import occ_policy

from tests.helpers import CounterWorkload, counter_spec


def make_trainer(seed_policy=None, **rl_kwargs):
    spec = counter_spec(2)
    evaluator = ParallelEvaluationEngine(FitnessEvaluator(
        lambda: CounterWorkload(n_keys=4, n_accesses=2),
        SimConfig(n_workers=2, duration=500.0, seed=5)))
    config = RLConfig(iterations=2, batch_size=3, seed=11, **rl_kwargs)
    return PolicyGradientTrainer(spec, evaluator, config,
                                 seed_policy=seed_policy)


class TestCellParam:
    def test_uniform_by_default(self):
        cell = _CellParam(4)
        assert np.allclose(cell.probs(), 0.25)

    def test_bias_towards(self):
        cell = _CellParam(4)
        cell.bias_towards(2, 0.8)
        probs = cell.probs()
        assert probs[2] == pytest.approx(0.8, abs=1e-6)
        assert probs.sum() == pytest.approx(1.0)

    def test_update_moves_probability_towards_good_choice(self):
        cell = _CellParam(3)
        before = cell.probs()[1]
        cell.update(1, advantage=2.0, lr=0.5)
        assert cell.probs()[1] > before

    def test_negative_advantage_moves_away(self):
        cell = _CellParam(3)
        before = cell.probs()[1]
        cell.update(1, advantage=-2.0, lr=0.5)
        assert cell.probs()[1] < before

    def test_single_choice_bias_is_noop(self):
        cell = _CellParam(1)
        cell.bias_towards(0, 0.8)
        assert cell.probs()[0] == 1.0


class TestConfig:
    def test_validation(self):
        with pytest.raises(TrainingError):
            RLConfig(batch_size=0)
        with pytest.raises(TrainingError):
            RLConfig(seed_probability=1.0)


class TestSampling:
    def test_samples_are_valid_policies(self):
        trainer = make_trainer()
        for _ in range(5):
            policy, backoff, _record = trainer._sample()
            policy.validate()
            backoff.validate()

    def test_seeded_trainer_samples_near_seed(self):
        spec = counter_spec(2)
        seed = occ_policy(spec)
        trainer = make_trainer(seed_policy=seed, seed_probability=0.95)
        matches = 0
        samples = 20
        for _ in range(samples):
            policy, _, _ = trainer._sample()
            matches += sum(
                1 for a, b in zip(policy.rows, seed.rows)
                if a.read_dirty == b.read_dirty)
        # with p=0.95 nearly every read cell should match the seed
        assert matches > samples * len(seed.rows) * 0.75

    def test_greedy_policy_of_seeded_trainer_is_seed(self):
        spec = counter_spec(2)
        seed = occ_policy(spec)
        trainer = make_trainer(seed_policy=seed, seed_probability=0.9)
        greedy, _ = trainer.greedy_policy()
        assert greedy.as_tuple() == seed.as_tuple()


class TestTraining:
    def test_runs_and_returns_best(self):
        trainer = make_trainer()
        result = trainer.train()
        assert len(result.history) == 2
        assert result.best_fitness > 0
        result.best_policy.validate()

    def test_history_best_is_monotone(self):
        trainer = make_trainer()
        result = trainer.train()
        curve = result.fitness_curve()
        assert all(b >= a for a, b in zip(curve, curve[1:]))
