"""Simulated epoch-based durability: group-commit WAL, checkpoints,
whole-node crash & recovery, and the durability oracle.

Disabled unless ``SimConfig.durability`` is set; when off, the simulator
never touches this package and runs are bit-identical to a build without
it.  See DESIGN.md "Durability & recovery" for the model.
"""

from .log import LogRecord, WriteImage, apply_record
from .manager import (Checkpoint, DurabilityManager, RecoveryReport,
                      RESTART_RNG_SALT)
from .oracle import filter_history, verify_recovery
from .view import DurableView

__all__ = [
    "Checkpoint",
    "DurabilityManager",
    "DurableView",
    "LogRecord",
    "RESTART_RNG_SALT",
    "RecoveryReport",
    "WriteImage",
    "apply_record",
    "filter_history",
    "verify_recovery",
]
