"""Simulated epoch-based durability: group-commit WAL, checkpoints,
whole-node crash & recovery, and the durability oracle.

Disabled unless ``SimConfig.durability`` is set; when off, the simulator
never touches this package and runs are bit-identical to a build without
it.  See DESIGN.md "Durability & recovery" for the model.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Checkpoint": ".manager",
    "DurabilityManager": ".manager",
    "DurableView": ".view",
    "LogRecord": ".log",
    "RESTART_RNG_SALT": ".manager",
    "RecoveryReport": ".manager",
    "WriteImage": ".log",
    "apply_record": ".log",
    "filter_history": ".oracle",
    "verify_recovery": ".oracle",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
