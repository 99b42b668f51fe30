"""Trainers populate the metrics registry with their trajectory."""

from repro.config import SimConfig
from repro.obs import MetricsRegistry
from repro.training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                            ParallelEvaluationEngine, PolicyGradientTrainer,
                            RLConfig)

from tests.helpers import CounterWorkload, counter_spec


def evaluator():
    return ParallelEvaluationEngine(FitnessEvaluator(
        lambda: CounterWorkload(n_keys=4, n_accesses=2),
        SimConfig(n_workers=2, duration=500.0, seed=5)))


class TestEATrainingMetrics:
    def test_trajectory_recorded(self):
        registry = MetricsRegistry()
        trainer = EvolutionaryTrainer(
            counter_spec(2), evaluator(),
            EAConfig(population_size=3, children_per_parent=1,
                     iterations=2, seed=9),
            metrics=registry)
        result = trainer.train()
        assert registry.gauge("ea_generation").value == 1.0  # last iteration
        assert registry.gauge("ea_fitness_best").value > 0.0
        assert registry.gauge("ea_fitness_mean").value > 0.0
        assert registry.counter("ea_evaluations_total").value == \
            result.evaluations
        assert registry.histogram("ea_fitness_best_history").count == 2

    def test_no_registry_is_fine(self):
        trainer = EvolutionaryTrainer(
            counter_spec(2), evaluator(),
            EAConfig(population_size=3, children_per_parent=1,
                     iterations=1, seed=9))
        assert trainer.train().best_fitness > 0.0


class TestRLTrainingMetrics:
    def test_trajectory_recorded(self):
        registry = MetricsRegistry()
        trainer = PolicyGradientTrainer(
            counter_spec(2), evaluator(),
            RLConfig(iterations=2, batch_size=3, seed=11),
            metrics=registry)
        trainer.train()
        assert registry.gauge("rl_iteration").value == 1.0
        assert registry.gauge("rl_reward_mean").value > 0.0
        grad = registry.histogram("rl_grad_norm")
        assert grad.count == 2 * 3  # iterations * batch_size
        assert all(sample >= 0.0 for sample in grad._samples)
