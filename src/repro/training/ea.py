"""Evolutionary-algorithm training (§5.1).

One iteration: take the N surviving parents, create ``children_per_parent``
mutated children each, evaluate every candidate's commit throughput, keep
the best N (truncation selection — the paper found it trains faster than
tournament selection; both are implemented so the ablation bench can
compare).  Mutation flips binary cells and perturbs integer cells by a
uniform offset in [-lambda, lambda], with both the mutation probability p
and lambda decaying over the course of training (the paper's analogue of a
learning-rate schedule).  The initial population is warm-started from the
OCC / 2PL* / IC3 seed policies (§5.1).

Crossover is implemented (for the ablation of §5.1's claim that it hurts)
but disabled by default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from ..errors import PolicyError, TrainingError
from ..core import actions
from ..core.backoff import ALPHA_CHOICES, BackoffPolicy
from ..core.policy import CCPolicy
from ..core.spec import WorkloadSpec
from ..cc.seeds import seed_policies
from .checkpoint import (CheckpointError, decode_py_rng,
                         encode_evaluator_state, encode_py_rng,
                         load_checkpoint, restore_evaluator_state,
                         save_checkpoint)
from .parallel import ParallelEvaluationEngine

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry


def evaluate_pending(evaluator: ParallelEvaluationEngine,
                     individuals: Sequence["Individual"]) -> None:
    """Fill in ``fitness`` for every not-yet-evaluated individual.

    The whole generation is handed to the engine as one batch so it can fan
    it out across worker processes.
    """
    pending = [ind for ind in individuals if ind.fitness is None]
    if not pending:
        return
    fitnesses = evaluator.evaluate_batch(
        [(ind.policy, ind.backoff) for ind in pending])
    for individual, fitness in zip(pending, fitnesses):
        individual.fitness = fitness


@dataclass
class EAConfig:
    """Hyperparameters (paper defaults in comments; scaled-down values are
    chosen by the benches to keep runtimes reasonable)."""

    iterations: int = 300                 # paper: 300
    population_size: int = 8              # paper: 8 survivors
    children_per_parent: int = 4          # paper: 4 (8*5=40 evaluated/iter)
    mutation_prob: float = 0.25           # initial p
    mutation_prob_final: float = 0.05     # p after full decay
    mutation_lambda: float = 4.0          # initial integer-perturbation range
    mutation_lambda_final: float = 1.0
    selection: str = "truncation"         # or "tournament"
    tournament_size: int = 3
    use_crossover: bool = False
    crossover_prob: float = 0.3
    warm_start: bool = True
    #: extra random individuals mixed into the initial population
    random_initial: int = 2
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.population_size <= 0 or self.children_per_parent <= 0:
            raise TrainingError("population parameters must be positive")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise TrainingError("mutation_prob must lie in [0, 1]")
        if self.selection not in ("truncation", "tournament"):
            raise TrainingError(f"unknown selection: {self.selection!r}")


class Individual:
    """One candidate: CC policy + backoff policy + measured fitness."""

    __slots__ = ("policy", "backoff", "fitness")

    def __init__(self, policy: CCPolicy, backoff: BackoffPolicy,
                 fitness: Optional[float] = None) -> None:
        self.policy = policy
        self.backoff = backoff
        self.fitness = fitness

    def clone(self) -> "Individual":
        return Individual(self.policy.clone(), self.backoff.clone())


@dataclass
class TrainingResult:
    """Outcome of a training run."""

    best: Individual
    #: (iteration, best fitness, population-mean fitness) per iteration
    history: List[tuple] = field(default_factory=list)
    evaluations: int = 0
    #: True when training stopped early (SIGINT); ``best`` is best-so-far
    interrupted: bool = False

    @property
    def best_policy(self) -> CCPolicy:
        return self.best.policy

    @property
    def best_backoff(self) -> BackoffPolicy:
        return self.best.backoff

    @property
    def best_fitness(self) -> float:
        return self.best.fitness if self.best.fitness is not None else 0.0

    def fitness_curve(self) -> List[float]:
        return [best for _, best, _ in self.history]


def random_policy(spec: WorkloadSpec, rng: random.Random,
                  name: str = "random") -> CCPolicy:
    """A uniformly random policy (initial-population filler and tests)."""
    policy = CCPolicy(spec, name=name)
    for row in policy.rows:
        row.wait = [rng.randint(*actions.wait_value_range(spec.n_accesses(dep)))
                    for dep in range(spec.n_types)]
        row.read_dirty = rng.randint(0, 1)
        row.write_public = rng.randint(0, 1)
        row.early_validate = rng.randint(0, 1)
    policy.validate()
    return policy


def random_backoff(n_types: int, rng: random.Random) -> BackoffPolicy:
    backoff = BackoffPolicy(n_types)
    for per_type in backoff.alpha_indices:
        for per_status in per_type:
            for bucket in range(len(per_status)):
                per_status[bucket] = rng.randrange(len(ALPHA_CHOICES))
    return backoff


def default_backoff(n_types: int) -> BackoffPolicy:
    """A Silo-like multiplicative backoff: double on abort, halve on commit."""
    backoff = BackoffPolicy(n_types)
    double = ALPHA_CHOICES.index(1.0)
    for per_type in backoff.alpha_indices:
        for bucket in range(len(per_type[0])):
            per_type[0][bucket] = double  # committed: backoff /= 2
            per_type[1][bucket] = double  # aborted:   backoff *= 2
    return backoff


class EvolutionaryTrainer:
    """The paper's EA search over (CC policy, backoff policy) pairs."""

    def __init__(self, spec: WorkloadSpec,
                 evaluator: ParallelEvaluationEngine,
                 config: Optional[EAConfig] = None,
                 action_mask: Optional[Callable] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.spec = spec
        self.evaluator = evaluator
        self.config = config or EAConfig()
        self.rng = random.Random(self.config.seed)
        #: optional fn(policy) -> policy applied after every mutation; used
        #: by the factor-analysis bench to restrict the action space (Fig 6)
        self.action_mask = action_mask
        #: optional metrics registry recording the training trajectory
        self.metrics = metrics

    # ------------------------------------------------------------------ #
    # population management

    def initial_population(self) -> List[Individual]:
        individuals: List[Individual] = []
        n_types = self.spec.n_types
        if self.config.warm_start:
            for policy in seed_policies(self.spec):
                individuals.append(Individual(policy, default_backoff(n_types)))
        for index in range(self.config.random_initial):
            individuals.append(Individual(
                random_policy(self.spec, self.rng, name=f"random{index}"),
                random_backoff(n_types, self.rng)))
        while len(individuals) < self.config.population_size:
            parent = individuals[len(individuals) % max(1, len(individuals))] \
                if individuals else Individual(
                    random_policy(self.spec, self.rng),
                    random_backoff(n_types, self.rng))
            individuals.append(self._mutate(parent, self.config.mutation_prob,
                                            self.config.mutation_lambda))
        if self.action_mask is not None:
            for individual in individuals:
                individual.policy = self.action_mask(individual.policy)
        return individuals[:max(self.config.population_size,
                                len(individuals))]

    # ------------------------------------------------------------------ #
    # variation operators

    def _schedule(self, iteration: int, total: int) -> tuple:
        """Linearly decay p and lambda over training (§5.1)."""
        if total <= 1:
            return self.config.mutation_prob, self.config.mutation_lambda
        frac = min(1.0, iteration / (total - 1))
        p = (self.config.mutation_prob
             + (self.config.mutation_prob_final - self.config.mutation_prob) * frac)
        lam = (self.config.mutation_lambda
               + (self.config.mutation_lambda_final - self.config.mutation_lambda) * frac)
        return p, max(1.0, lam)

    def _mutate(self, parent: Individual, p: float, lam: float) -> Individual:
        child = parent.clone()
        rng = self.rng
        span = int(lam)
        for row in child.policy.rows:
            for dep in range(self.spec.n_types):
                if rng.random() < p:
                    lo, hi = actions.wait_value_range(self.spec.n_accesses(dep))
                    value = row.wait[dep] + rng.randint(-span, span)
                    row.wait[dep] = max(lo, min(hi, value))
            if rng.random() < p:
                row.read_dirty ^= 1
            if rng.random() < p:
                row.write_public ^= 1
            if rng.random() < p:
                row.early_validate ^= 1
        for per_type in child.backoff.alpha_indices:
            for per_status in per_type:
                for bucket in range(len(per_status)):
                    if rng.random() < p:
                        value = per_status[bucket] + rng.randint(-1, 1)
                        per_status[bucket] = max(0, min(len(ALPHA_CHOICES) - 1,
                                                        value))
        child.policy.name = "evolved"
        if self.action_mask is not None:
            child.policy = self.action_mask(child.policy)
        child.policy.validate()
        child.backoff.validate()
        return child

    def _crossover(self, a: Individual, b: Individual) -> Individual:
        """Row-wise mixing of two parents (implemented for the §5.1
        ablation; the paper found it hurts because wait actions across rows
        are correlated)."""
        child = a.clone()
        for row_index in range(len(child.policy.rows)):
            if self.rng.random() < 0.5:
                child.policy.rows[row_index] = b.policy.rows[row_index].clone()
        child.policy.name = "crossover"
        if self.action_mask is not None:
            child.policy = self.action_mask(child.policy)
        return child

    # ------------------------------------------------------------------ #
    # selection

    def _select(self, pool: List[Individual], n: int) -> List[Individual]:
        if self.config.selection == "truncation":
            return sorted(pool, key=lambda ind: ind.fitness, reverse=True)[:n]
        survivors = []
        candidates = list(pool)
        for _ in range(n):
            entrants = self.rng.sample(
                candidates, min(self.config.tournament_size, len(candidates)))
            winner = max(entrants, key=lambda ind: ind.fitness)
            survivors.append(winner)
            candidates.remove(winner)
        return survivors

    # ------------------------------------------------------------------ #

    # ------------------------------------------------------------------ #
    # checkpointing

    def _save_checkpoint(self, directory: str, population: List[Individual],
                         history: List[tuple], next_iteration: int,
                         total: int) -> None:
        save_checkpoint(directory, {
            "trainer": "ea",
            "next_iteration": next_iteration,
            "total": total,
            "rng_state": encode_py_rng(self.rng),
            "population": [
                {"policy": individual.policy.to_dict(),
                 "backoff": individual.backoff.to_dict(),
                 "fitness": individual.fitness}
                for individual in population],
            "history": [list(entry) for entry in history],
            **encode_evaluator_state(self.evaluator),
        })

    def _restore_checkpoint(self, directory: str) -> tuple:
        data = load_checkpoint(directory, expect_trainer="ea")
        try:
            population = [
                Individual(CCPolicy.from_dict(self.spec, entry["policy"]),
                           BackoffPolicy.from_dict(entry["backoff"]),
                           entry.get("fitness"))
                for entry in data["population"]]
            history = [tuple(entry) for entry in data["history"]]
            next_iteration = int(data["next_iteration"])
            total = int(data["total"])
            restore_evaluator_state(self.evaluator, data)
        except (KeyError, TypeError, ValueError, PolicyError) as exc:
            raise CheckpointError(f"corrupt EA checkpoint: {exc}") from exc
        decode_py_rng(data["rng_state"], self.rng)
        return population, history, next_iteration, total

    # ------------------------------------------------------------------ #

    def train(self, iterations: Optional[int] = None,
              progress: Optional[Callable] = None,
              checkpoint_dir: Optional[str] = None,
              checkpoint_every: int = 1,
              resume: bool = False) -> TrainingResult:
        """Run the EA; returns the best individual and the fitness history.

        With ``checkpoint_dir`` set, the full trainer state (population with
        fitness, RNG state, history) is written atomically after every
        ``checkpoint_every``-th iteration; ``resume=True`` restores it and
        continues the identical trajectory the uninterrupted run would have
        taken.  A ``KeyboardInterrupt`` stops training at the current point
        and returns the best individual so far (``interrupted=True``); the
        last on-disk checkpoint remains the consistent resume point.
        """
        if checkpoint_every <= 0:
            raise TrainingError("checkpoint_every must be positive")
        start_iteration = 0
        history: List[tuple] = []
        if resume:
            if checkpoint_dir is None:
                raise TrainingError("resume=True requires checkpoint_dir")
            population, history, start_iteration, saved_total = \
                self._restore_checkpoint(checkpoint_dir)
            total = iterations if iterations is not None else saved_total
        else:
            total = iterations if iterations is not None \
                else self.config.iterations
            population = self.initial_population()
        interrupted = False
        try:
            evaluate_pending(self.evaluator, population)
            for iteration in range(start_iteration, total):
                p, lam = self._schedule(iteration, total)
                pool = list(population)
                for parent in population:
                    for _ in range(self.config.children_per_parent):
                        if (self.config.use_crossover
                                and len(population) > 1
                                and self.rng.random() < self.config.crossover_prob):
                            other = self.rng.choice(
                                [ind for ind in population if ind is not parent])
                            child = self._crossover(parent, other)
                            child = self._mutate(child, p, lam)
                        else:
                            child = self._mutate(parent, p, lam)
                        pool.append(child)
                evaluate_pending(self.evaluator, pool)
                population = self._select(pool, self.config.population_size)
                best = population[0] if self.config.selection == "truncation" \
                    else max(population, key=lambda ind: ind.fitness)
                mean = sum(ind.fitness for ind in population) / len(population)
                history.append((iteration, best.fitness, mean))
                if self.metrics is not None:
                    self.metrics.gauge("ea_generation").set(iteration)
                    self.metrics.gauge("ea_fitness_best").set(best.fitness)
                    self.metrics.gauge("ea_fitness_mean").set(mean)
                    self.metrics.histogram("ea_fitness_best_history").observe(
                        best.fitness)
                    # per-generation timeline of the best candidate
                    # (zero-padded label: label sort == generation order)
                    generation = str(iteration).zfill(4)
                    self.metrics.gauge("ea_timeline_fitness_best",
                                       generation=generation).set(best.fitness)
                    self.metrics.gauge("ea_timeline_fitness_mean",
                                       generation=generation).set(mean)
                    self.metrics.counter("ea_evaluations_total").inc(
                        self.evaluator.evaluations
                        - self.metrics.counter("ea_evaluations_total").value)
                if progress is not None:
                    progress(iteration, best.fitness, mean)
                if checkpoint_dir is not None and \
                        ((iteration + 1) % checkpoint_every == 0
                         or iteration + 1 == total):
                    self._save_checkpoint(checkpoint_dir, population, history,
                                          iteration + 1, total)
        except KeyboardInterrupt:
            # best-so-far exit; the last on-disk checkpoint (a consistent
            # iteration boundary) remains the resume point
            interrupted = True
        evaluated = [ind for ind in population if ind.fitness is not None]
        if not evaluated:
            raise KeyboardInterrupt  # interrupted before any evaluation
        best = max(evaluated, key=lambda ind: ind.fitness)
        return TrainingResult(best=best, history=history,
                              evaluations=self.evaluator.evaluations,
                              interrupted=interrupted)
