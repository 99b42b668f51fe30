"""Evolutionary-trainer tests: operators, schedules, selection, learning."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.errors import TrainingError
from repro.core import actions
from repro.core.backoff import ALPHA_CHOICES
from repro.training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                            ParallelEvaluationEngine)
from repro.training.ea import (Individual, default_backoff, random_backoff,
                               random_policy)

from tests.helpers import CounterWorkload, counter_spec


def make_trainer(spec=None, ea_config=None, evaluator=None):
    spec = spec or counter_spec(3)
    if evaluator is None:
        evaluator = ParallelEvaluationEngine(FitnessEvaluator(
            lambda: CounterWorkload(n_keys=4, n_accesses=3),
            SimConfig(n_workers=4, duration=800.0, seed=5)))
    return EvolutionaryTrainer(spec, evaluator,
                               ea_config or EAConfig(population_size=4,
                                                     children_per_parent=2,
                                                     iterations=2, seed=9))


class TestConfig:
    def test_validation(self):
        with pytest.raises(TrainingError):
            EAConfig(population_size=0)
        with pytest.raises(TrainingError):
            EAConfig(mutation_prob=1.5)
        with pytest.raises(TrainingError):
            EAConfig(selection="lottery")


class TestRandomIndividuals:
    @given(seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_random_policy_always_valid(self, seed):
        spec = counter_spec(3)
        random_policy(spec, random.Random(seed)).validate()

    @given(seed=st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_random_backoff_always_valid(self, seed):
        random_backoff(2, random.Random(seed)).validate()

    def test_default_backoff_doubles(self):
        backoff = default_backoff(2)
        assert backoff.alpha(0, 1, 0) == 1.0  # abort: x2
        assert backoff.alpha(0, 0, 0) == 1.0  # commit: /2


class TestMutation:
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_mutation_preserves_validity(self, seed, p):
        trainer = make_trainer()
        trainer.rng = random.Random(seed)
        parent = Individual(random_policy(trainer.spec, trainer.rng),
                            random_backoff(1, trainer.rng))
        child = trainer._mutate(parent, p, 3.0)
        child.policy.validate()
        child.backoff.validate()

    def test_zero_probability_is_identity(self):
        trainer = make_trainer()
        parent = Individual(random_policy(trainer.spec, trainer.rng),
                            random_backoff(1, trainer.rng))
        child = trainer._mutate(parent, 0.0, 3.0)
        assert child.policy == parent.policy
        assert child.backoff == parent.backoff

    def test_full_probability_changes_something(self):
        trainer = make_trainer()
        parent = Individual(random_policy(trainer.spec, trainer.rng),
                            random_backoff(1, trainer.rng))
        child = trainer._mutate(parent, 1.0, 3.0)
        assert child.policy != parent.policy

    def test_mutation_does_not_touch_parent(self):
        trainer = make_trainer()
        parent = Individual(random_policy(trainer.spec, trainer.rng),
                            random_backoff(1, trainer.rng))
        snapshot = parent.policy.as_tuple()
        trainer._mutate(parent, 1.0, 3.0)
        assert parent.policy.as_tuple() == snapshot


class TestSchedule:
    def test_decays_linearly(self):
        trainer = make_trainer(ea_config=EAConfig(
            mutation_prob=0.4, mutation_prob_final=0.1,
            mutation_lambda=5.0, mutation_lambda_final=1.0))
        p0, lam0 = trainer._schedule(0, 11)
        p_mid, lam_mid = trainer._schedule(5, 11)
        p_end, lam_end = trainer._schedule(10, 11)
        assert p0 == pytest.approx(0.4)
        assert p_end == pytest.approx(0.1)
        assert 0.1 < p_mid < 0.4
        assert lam0 == 5.0 and lam_end >= 1.0


class TestSelection:
    def individuals(self, fitnesses):
        spec = counter_spec(3)
        rng = random.Random(0)
        return [Individual(random_policy(spec, rng), random_backoff(1, rng),
                           fitness) for fitness in fitnesses]

    def test_truncation_keeps_best(self):
        trainer = make_trainer()
        pool = self.individuals([5.0, 1.0, 9.0, 3.0, 7.0])
        survivors = trainer._select(pool, 2)
        assert [ind.fitness for ind in survivors] == [9.0, 7.0]

    def test_tournament_keeps_distinct_individuals(self):
        config = EAConfig(selection="tournament", tournament_size=2, seed=3)
        trainer = make_trainer(ea_config=config)
        pool = self.individuals([1.0, 2.0, 3.0, 4.0])
        survivors = trainer._select(pool, 3)
        assert len(set(id(ind) for ind in survivors)) == 3


class TestWarmStart:
    def test_initial_population_contains_seeds(self):
        trainer = make_trainer(ea_config=EAConfig(population_size=5,
                                                  children_per_parent=2,
                                                  random_initial=1, seed=1))
        population = trainer.initial_population()
        names = {ind.policy.name for ind in population}
        assert {"occ", "2pl*", "ic3"} <= names

    def test_no_warm_start(self):
        trainer = make_trainer(ea_config=EAConfig(population_size=4,
                                                  children_per_parent=2,
                                                  warm_start=False,
                                                  random_initial=4, seed=1))
        population = trainer.initial_population()
        assert all("occ" != ind.policy.name for ind in population)


class TestTraining:
    def test_history_and_best(self):
        trainer = make_trainer()
        result = trainer.train()
        assert len(result.history) == 2
        assert result.best_fitness > 0
        assert result.evaluations > 0
        result.best_policy.validate()

    def test_fitness_never_decreases_with_truncation(self):
        trainer = make_trainer(ea_config=EAConfig(population_size=4,
                                                  children_per_parent=2,
                                                  iterations=4, seed=2))
        result = trainer.train()
        curve = result.fitness_curve()
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))

    def test_action_mask_applied(self):
        def force_clean_reads(policy):
            for row in policy.rows:
                row.read_dirty = actions.CLEAN_READ
            return policy

        trainer = make_trainer()
        trainer.action_mask = force_clean_reads
        result = trainer.train()
        assert all(row.read_dirty == actions.CLEAN_READ
                   for row in result.best_policy.rows)

    def test_crossover_runs(self):
        trainer = make_trainer(ea_config=EAConfig(
            population_size=4, children_per_parent=2, iterations=2,
            use_crossover=True, crossover_prob=1.0, seed=2))
        result = trainer.train()
        assert result.best_fitness > 0


class TestFitnessEvaluator:
    def test_deterministic_without_cache(self):
        # compute is pure: no cache, no counters, the same run per seed
        def make():
            return FitnessEvaluator(
                lambda: CounterWorkload(n_keys=4, n_accesses=2),
                SimConfig(n_workers=2, duration=500.0, seed=5))
        from repro.cc.seeds import occ_policy
        policy = occ_policy(counter_spec(2))
        assert make().compute(policy, None, seed=5) == \
            make().compute(policy, None, seed=5)
