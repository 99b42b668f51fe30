"""Policy-gradient (REINFORCE) training — the §5.2 alternative to EA.

Every policy-table cell is parameterised by a logit vector over its legal
choices; a softmax turns logits into a sampling distribution.  Each
iteration samples a batch of concrete policies, measures their commit
throughput (the reward), and ascends the likelihood-ratio gradient with a
moving-average baseline — Williams' REINFORCE, as the paper does (their
implementation used TensorFlow; NumPy suffices for these table sizes).

The paper initialises RL with an IC3-like policy at ~80% probability to
help it under high contention (§7.5); ``seed_policy`` reproduces that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..errors import PolicyError, TrainingError
from ..obs.metrics import MetricsRegistry
from ..core import actions
from ..core.backoff import ALPHA_CHOICES, BackoffPolicy
from ..core.policy import CCPolicy, PolicyRow
from ..core.spec import WorkloadSpec
from .checkpoint import (CheckpointError, decode_np_rng,
                         encode_evaluator_state, encode_np_rng,
                         load_checkpoint, restore_evaluator_state,
                         save_checkpoint)
from .ea import TrainingResult, Individual, default_backoff
from .parallel import ParallelEvaluationEngine


@dataclass
class RLConfig:
    iterations: int = 100
    batch_size: int = 8
    learning_rate: float = 0.12
    #: probability mass given to the seed policy's action in each cell
    seed_probability: float = 0.8
    #: reward normalisation scale (throughput is divided by this)
    reward_scale: float = 100_000.0
    baseline_momentum: float = 0.7
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.iterations < 0:
            raise TrainingError("batch_size and iterations must be positive")
        if not 0.0 < self.seed_probability < 1.0:
            raise TrainingError("seed_probability must lie in (0, 1)")


class _CellParam:
    """Logits for one multinomial cell."""

    __slots__ = ("logits",)

    def __init__(self, n_choices: int) -> None:
        self.logits = np.zeros(n_choices, dtype=np.float64)

    def bias_towards(self, choice: int, probability: float) -> None:
        n = len(self.logits)
        if n == 1:
            return
        rest = (1.0 - probability) / (n - 1)
        self.logits[:] = math.log(rest)
        self.logits[choice] = math.log(probability)

    def probs(self) -> np.ndarray:
        shifted = self.logits - self.logits.max()
        e = np.exp(shifted)
        return e / e.sum()

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.logits), p=self.probs()))

    def update(self, choice: int, advantage: float, lr: float) -> float:
        """Ascend the likelihood-ratio gradient; returns the squared norm of
        the (advantage-scaled) gradient for observability."""
        probs = self.probs()
        grad = -probs
        grad[choice] += 1.0
        grad *= advantage
        self.logits += lr * grad
        return float(np.dot(grad, grad))

    def argmax(self) -> int:
        return int(self.logits.argmax())


class PolicyGradientTrainer:
    """REINFORCE over the tabular policy space."""

    def __init__(self, spec: WorkloadSpec,
                 evaluator: ParallelEvaluationEngine,
                 config: Optional[RLConfig] = None,
                 seed_policy: Optional[CCPolicy] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.spec = spec
        self.evaluator = evaluator
        self.config = config or RLConfig()
        #: optional metrics registry recording the training trajectory
        self.metrics = metrics
        self.np_rng = np.random.default_rng(self.config.seed)
        # cell parameters, laid out row-major to mirror the policy table
        self._wait_cells: List[List[_CellParam]] = []
        self._binary_cells: List[List[_CellParam]] = []  # [read, write, ev]
        for row_index in range(spec.n_states):
            waits = []
            for dep in range(spec.n_types):
                lo, hi = actions.wait_value_range(spec.n_accesses(dep))
                waits.append(_CellParam(hi - lo + 1))
            self._wait_cells.append(waits)
            self._binary_cells.append([_CellParam(2) for _ in range(3)])
        self._backoff_cells = [
            [[_CellParam(len(ALPHA_CHOICES)) for _ in range(3)]
             for _ in range(2)]
            for _ in range(spec.n_types)]
        if seed_policy is not None:
            self._apply_seed(seed_policy)

    # ------------------------------------------------------------------ #

    def _apply_seed(self, policy: CCPolicy) -> None:
        """Bias every cell towards the seed policy's choice (§7.5)."""
        probability = self.config.seed_probability
        for row_index, row in enumerate(policy.rows):
            for dep, value in enumerate(row.wait):
                self._wait_cells[row_index][dep].bias_towards(
                    value - actions.NO_WAIT, probability)
            binaries = self._binary_cells[row_index]
            binaries[0].bias_towards(row.read_dirty, probability)
            binaries[1].bias_towards(row.write_public, probability)
            binaries[2].bias_towards(row.early_validate, probability)

    def _sample(self) -> tuple:
        """Sample one concrete (policy, backoff, choice-record)."""
        rows = []
        choices = []
        for row_index in range(self.spec.n_states):
            wait = []
            row_choices = []
            for dep in range(self.spec.n_types):
                choice = self._wait_cells[row_index][dep].sample(self.np_rng)
                row_choices.append(choice)
                wait.append(choice + actions.NO_WAIT)
            binary_choices = [cell.sample(self.np_rng)
                              for cell in self._binary_cells[row_index]]
            row_choices.extend(binary_choices)
            choices.append(row_choices)
            rows.append(PolicyRow(wait, binary_choices[0], binary_choices[1],
                                  binary_choices[2]))
        policy = CCPolicy(self.spec, rows, name="rl-sample")
        backoff = BackoffPolicy(self.spec.n_types)
        backoff_choices = []
        for t in range(self.spec.n_types):
            per_type = []
            for status in range(2):
                per_status = []
                for bucket in range(3):
                    choice = self._backoff_cells[t][status][bucket].sample(
                        self.np_rng)
                    backoff.alpha_indices[t][status][bucket] = choice
                    per_status.append(choice)
                per_type.append(per_status)
            backoff_choices.append(per_type)
        return policy, backoff, (choices, backoff_choices)

    def _reinforce(self, record: tuple, advantage: float) -> float:
        """Apply one REINFORCE step; returns the L2 norm of the full
        concatenated gradient across all cells."""
        lr = self.config.learning_rate
        choices, backoff_choices = record
        sq_norm = 0.0
        for row_index, row_choices in enumerate(choices):
            for dep in range(self.spec.n_types):
                sq_norm += self._wait_cells[row_index][dep].update(
                    row_choices[dep], advantage, lr)
            for b in range(3):
                sq_norm += self._binary_cells[row_index][b].update(
                    row_choices[self.spec.n_types + b], advantage, lr)
        for t, per_type in enumerate(backoff_choices):
            for status, per_status in enumerate(per_type):
                for bucket, choice in enumerate(per_status):
                    sq_norm += self._backoff_cells[t][status][bucket].update(
                        choice, advantage, lr)
        return math.sqrt(sq_norm)

    # ------------------------------------------------------------------ #

    def greedy_policy(self) -> tuple:
        """The current mode of the distribution (argmax per cell)."""
        rows = []
        for row_index in range(self.spec.n_states):
            wait = [self._wait_cells[row_index][dep].argmax() + actions.NO_WAIT
                    for dep in range(self.spec.n_types)]
            binaries = [cell.argmax()
                        for cell in self._binary_cells[row_index]]
            rows.append(PolicyRow(wait, binaries[0], binaries[1], binaries[2]))
        policy = CCPolicy(self.spec, rows, name="rl-greedy")
        backoff = BackoffPolicy(self.spec.n_types)
        for t in range(self.spec.n_types):
            for status in range(2):
                for bucket in range(3):
                    backoff.alpha_indices[t][status][bucket] = \
                        self._backoff_cells[t][status][bucket].argmax()
        return policy, backoff

    # ------------------------------------------------------------------ #
    # checkpointing

    def _logits_state(self) -> dict:
        return {
            "wait": [[cell.logits.tolist() for cell in row]
                     for row in self._wait_cells],
            "binary": [[cell.logits.tolist() for cell in row]
                       for row in self._binary_cells],
            "backoff": [[[cell.logits.tolist() for cell in per_status]
                         for per_status in per_type]
                        for per_type in self._backoff_cells],
        }

    def _restore_logits(self, state: dict) -> None:
        def fill(cell: _CellParam, values) -> None:
            array = np.asarray(values, dtype=np.float64)
            if array.shape != cell.logits.shape:
                raise CheckpointError(
                    f"checkpoint logit vector has shape {array.shape}, "
                    f"trainer expects {cell.logits.shape}")
            cell.logits[:] = array
        try:
            for row, saved_row in zip(self._wait_cells, state["wait"]):
                for cell, values in zip(row, saved_row):
                    fill(cell, values)
            for row, saved_row in zip(self._binary_cells, state["binary"]):
                for cell, values in zip(row, saved_row):
                    fill(cell, values)
            for per_type, saved_type in zip(self._backoff_cells,
                                            state["backoff"]):
                for per_status, saved_status in zip(per_type, saved_type):
                    for cell, values in zip(per_status, saved_status):
                        fill(cell, values)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt RL checkpoint: {exc}") from exc

    def _save_checkpoint(self, directory: str, next_iteration: int,
                         total: int, baseline: Optional[float],
                         history: List[tuple], best_policy, best_backoff,
                         best_fitness: float) -> None:
        save_checkpoint(directory, {
            "trainer": "rl",
            "next_iteration": next_iteration,
            "total": total,
            "rng_state": encode_np_rng(self.np_rng),
            "logits": self._logits_state(),
            "baseline": baseline,
            "history": [list(entry) for entry in history],
            "best": None if best_policy is None else {
                "policy": best_policy.to_dict(),
                "backoff": best_backoff.to_dict(),
                "fitness": best_fitness,
            },
            **encode_evaluator_state(self.evaluator),
        })

    def _restore_checkpoint(self, directory: str) -> tuple:
        data = load_checkpoint(directory, expect_trainer="rl")
        try:
            next_iteration = int(data["next_iteration"])
            total = int(data["total"])
            baseline = data.get("baseline")
            history = [tuple(entry) for entry in data["history"]]
            self._restore_logits(data["logits"])
            best = data.get("best")
            if best is not None:
                best_policy = CCPolicy.from_dict(self.spec, best["policy"])
                best_backoff = BackoffPolicy.from_dict(best["backoff"])
                best_fitness = float(best["fitness"])
            else:
                best_policy, best_backoff = None, None
                best_fitness = float("-inf")
            restore_evaluator_state(self.evaluator, data)
        except (KeyError, TypeError, ValueError, PolicyError) as exc:
            raise CheckpointError(f"corrupt RL checkpoint: {exc}") from exc
        decode_np_rng(data["rng_state"], self.np_rng)
        return (next_iteration, total, baseline, history,
                best_policy, best_backoff, best_fitness)

    # ------------------------------------------------------------------ #

    def train(self, iterations: Optional[int] = None,
              progress: Optional[Callable] = None,
              checkpoint_dir: Optional[str] = None,
              checkpoint_every: int = 1,
              resume: bool = False) -> TrainingResult:
        """Run REINFORCE; checkpoint/resume semantics match
        :meth:`EvolutionaryTrainer.train` (atomic state snapshots every
        ``checkpoint_every`` iterations, deterministic continuation, SIGINT
        returns best-so-far with ``interrupted=True``)."""
        if checkpoint_every <= 0:
            raise TrainingError("checkpoint_every must be positive")
        start_iteration = 0
        baseline = None
        history: List[tuple] = []
        best_policy, best_backoff, best_fitness = None, None, float("-inf")
        if resume:
            if checkpoint_dir is None:
                raise TrainingError("resume=True requires checkpoint_dir")
            (start_iteration, saved_total, baseline, history,
             best_policy, best_backoff, best_fitness) = \
                self._restore_checkpoint(checkpoint_dir)
            total = iterations if iterations is not None else saved_total
        else:
            total = iterations if iterations is not None \
                else self.config.iterations
        interrupted = False
        try:
            for iteration in range(start_iteration, total):
                batch = [self._sample() for _ in range(self.config.batch_size)]
                # one batch, so the engine can evaluate the samples in
                # parallel
                fitnesses = self.evaluator.evaluate_batch(
                    [(policy, backoff) for policy, backoff, _ in batch])
                rewards = [fitness / self.config.reward_scale
                           for fitness in fitnesses]
                mean_reward = float(np.mean(rewards))
                if baseline is None:
                    baseline = mean_reward
                else:
                    momentum = self.config.baseline_momentum
                    baseline = momentum * baseline + (1 - momentum) * mean_reward
                grad_norms = []
                for (policy, backoff, record), reward in zip(batch, rewards):
                    grad_norms.append(self._reinforce(record, reward - baseline))
                    fitness = reward * self.config.reward_scale
                    if fitness > best_fitness:
                        best_fitness = fitness
                        best_policy, best_backoff = policy, backoff
                history.append((iteration, best_fitness,
                                mean_reward * self.config.reward_scale))
                if self.metrics is not None:
                    self.metrics.gauge("rl_iteration").set(iteration)
                    self.metrics.gauge("rl_reward_mean").set(
                        mean_reward * self.config.reward_scale)
                    self.metrics.gauge("rl_baseline").set(
                        baseline * self.config.reward_scale)
                    self.metrics.gauge("rl_fitness_best").set(best_fitness)
                    hist = self.metrics.histogram("rl_grad_norm")
                    for norm in grad_norms:
                        hist.observe(norm)
                    # per-iteration timeline of the best candidate
                    # (zero-padded label: label sort == iteration order)
                    generation = str(iteration).zfill(4)
                    self.metrics.gauge("rl_timeline_fitness_best",
                                       generation=generation).set(best_fitness)
                    self.metrics.gauge(
                        "rl_timeline_reward_mean",
                        generation=generation).set(
                            mean_reward * self.config.reward_scale)
                if progress is not None:
                    progress(iteration, best_fitness,
                             mean_reward * self.config.reward_scale)
                if checkpoint_dir is not None and \
                        ((iteration + 1) % checkpoint_every == 0
                         or iteration + 1 == total):
                    self._save_checkpoint(checkpoint_dir, iteration + 1,
                                          total, baseline, history,
                                          best_policy, best_backoff,
                                          best_fitness)
        except KeyboardInterrupt:
            interrupted = True
            if best_policy is None:
                raise  # interrupted before any evaluation finished
        if best_policy is None:
            best_policy, best_backoff = self.greedy_policy()
            best_fitness = self.evaluator.evaluate(best_policy, best_backoff)
        best = Individual(best_policy, best_backoff, best_fitness)
        return TrainingResult(best=best, history=history,
                              evaluations=self.evaluator.evaluations,
                              interrupted=interrupted)


def ic3_seed_policy(spec: WorkloadSpec) -> CCPolicy:
    """Convenience re-export used by the Fig 5 bench."""
    from ..cc.ic3 import ic3_policy
    return ic3_policy(spec)


# keep these names importable for tests
__all__ = [
    "PolicyGradientTrainer",
    "RLConfig",
    "ic3_seed_policy",
]

_UNUSED_IMPORTS = (random, default_backoff)  # noqa: intentional re-export anchors
