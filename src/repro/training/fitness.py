"""Fitness evaluation: policy -> simulated commit throughput.

The paper measures each candidate policy's commit throughput by replaying
the target workload (§5); we run the policy through the simulator under a
fixed evaluation configuration.

:class:`FitnessEvaluator` is only what a forked evaluation worker needs:
the workload factory, the evaluation config, an optional fault plan and
the pure :meth:`FitnessEvaluator.compute`, which runs one simulation and
touches no shared state.  Everything stateful — the content cache, the
evaluation counters, the per-evaluation seed stream, retry / timeout /
fallback and metrics — belongs to the one evaluator the trainers accept,
:class:`~repro.training.parallel.ParallelEvaluationEngine`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..config import SimConfig
from ..bench.runner import run_protocol
from ..core.backoff import BackoffPolicy
from ..core.executor import PolicyExecutor
from ..core.policy import CCPolicy


class FitnessEvaluator:
    """Evaluates (CC policy, backoff policy) pairs on a workload.

    ``fault_plan`` (optional) attaches a deterministic
    :class:`~repro.faults.FaultPlan` to every evaluation run — used by the
    robustness tests to exercise evaluation under injected slowdowns.
    """

    def __init__(self, workload_factory: Callable, config: SimConfig,
                 fault_plan=None) -> None:
        self.workload_factory = workload_factory
        self.config = config
        self.fault_plan = fault_plan

    def compute(self, policy: CCPolicy, backoff: Optional[BackoffPolicy],
                seed: int) -> float:
        """Simulated commit throughput (TPS) of one run under ``seed``.

        Pure — no cache, no counters — so it is safe to call in a forked
        worker process; the engine derives ``seed`` per evaluation.
        """
        config = dataclasses.replace(self.config, seed=seed)
        cc = PolicyExecutor(policy=policy, backoff_policy=backoff)
        result = run_protocol(self.workload_factory, cc, config,
                              check_invariants=False,
                              fault_plan=self.fault_plan)
        return result.throughput
