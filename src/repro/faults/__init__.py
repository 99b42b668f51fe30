"""Deterministic fault injection and chaos testing for simulated runs.

Faults are described by a serializable :class:`FaultPlan` (rate-based
perturbation plus scripted events pinned to exact simulated times) and
applied by a :class:`FaultInjector` whose randomness derives from the run's
root seed — the same (seed, plan, protocol) triple always yields the same
fault sequence and the same commit counts.  :func:`run_chaos` sweeps fault
plans across protocols and checks the simulator's invariants (time
accounting, serializability, lock-table drain) after every perturbed run.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "EVENT_KINDS": ".plan",
    "FAULT_PLAN_FORMAT_VERSION": ".plan",
    "FAULT_RNG_SALT": ".injector",
    "RATE_KINDS": ".plan",
    "ChaosResult": ".chaos",
    "FaultInjector": ".injector",
    "FaultPlan": ".plan",
    "ScriptedFault": ".plan",
    "corrupt_policy_cell": ".injector",
    "default_plans": ".chaos",
    "run_chaos": ".chaos",
    "run_chaos_cell": ".chaos",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
