"""Offline policy training (§5): evolutionary algorithm and policy-gradient.

The trainers search the policy space for the (CC policy, backoff policy)
pair with the highest simulated commit throughput on a given workload —
the paper's reward.  ``EvolutionaryTrainer`` is the paper's main method
(population + cell-wise mutation + truncation selection + warm start);
``PolicyGradientTrainer`` is the §5.2 REINFORCE alternative it is compared
against in Fig 5.

``PolicyGradientTrainer`` and ``RLConfig`` are the only users of numpy,
which is not a runtime dependency: they are resolved on first attribute
access (PEP 562), so importing this package — or running the EA trainer —
never imports numpy.
"""

from .checkpoint import (CHECKPOINT_FORMAT_VERSION, has_checkpoint,
                         load_checkpoint, save_checkpoint)
from .ea import (EAConfig, EvolutionaryTrainer, Individual, TrainingResult,
                 evaluate_pending)
from .fitness import FitnessEvaluator
from .parallel import ParallelEvaluationEngine

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "EAConfig",
    "EvolutionaryTrainer",
    "FitnessEvaluator",
    "Individual",
    "ParallelEvaluationEngine",
    "PolicyGradientTrainer",
    "RLConfig",
    "TrainingResult",
    "evaluate_pending",
    "has_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
]


def __getattr__(name):
    if name in ("PolicyGradientTrainer", "RLConfig"):
        from . import rl
        return getattr(rl, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
