"""Offline policy training (§5): evolutionary algorithm and policy-gradient.

The trainers search the policy space for the (CC policy, backoff policy)
pair with the highest simulated commit throughput on a given workload —
the paper's reward.  ``EvolutionaryTrainer`` is the paper's main method
(population + cell-wise mutation + truncation selection + warm start);
``PolicyGradientTrainer`` is the §5.2 REINFORCE alternative it is compared
against in Fig 5.

``PolicyGradientTrainer`` and ``RLConfig`` are the only users of numpy,
which is not a runtime dependency.  Every name here is resolved from its
submodule on first access (PEP 562), so importing this package — or
running the EA trainer — never imports numpy.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "CHECKPOINT_FORMAT_VERSION": ".checkpoint",
    "EAConfig": ".ea",
    "EvolutionaryTrainer": ".ea",
    "FitnessEvaluator": ".fitness",
    "Individual": ".ea",
    "ParallelEvaluationEngine": ".parallel",
    "PolicyGradientTrainer": ".rl",
    "RLConfig": ".rl",
    "TrainingResult": ".ea",
    "evaluate_pending": ".ea",
    "has_checkpoint": ".checkpoint",
    "load_checkpoint": ".checkpoint",
    "save_checkpoint": ".checkpoint",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
