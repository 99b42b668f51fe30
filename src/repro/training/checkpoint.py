"""Training checkpoints: crash-safe save/resume for both trainers.

A checkpoint captures everything a trainer needs to continue exactly where
it stopped: the population (EA) or parameter table (RL), the trainer's RNG
state, the fitness history, the best individual so far and the evaluation
count.  Checkpoints are written atomically (temp file + ``os.replace``), so
a kill at any instant leaves either the previous checkpoint or the new one
— never a torn file.  Resuming from iteration *k* of a run seeded the same
way continues the identical trajectory the uninterrupted run would have
taken: the restored RNG state replays the same mutations/samples, and
restored individuals keep their fitness so no evaluation is repeated.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Optional

from ..errors import CheckpointError
from ..ioutil import atomic_write_text, load_json

#: current checkpoint format version
CHECKPOINT_FORMAT_VERSION = 1

#: file name used inside a checkpoint directory
CHECKPOINT_BASENAME = "checkpoint.json"


# ---------------------------------------------------------------------- #
# RNG state codecs (JSON keeps arbitrary-precision ints, so both the
# Mersenne Twister word vector and PCG64's 128-bit state survive intact)


def encode_py_rng(rng: random.Random) -> list:
    """``random.Random.getstate()`` as a JSON-safe nested list."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def decode_py_rng(data: Any, rng: random.Random) -> None:
    """Restore a state produced by :func:`encode_py_rng` into ``rng``."""
    try:
        version, internal, gauss_next = data
        rng.setstate((version, tuple(internal), gauss_next))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt python RNG state: {exc}") from exc


def encode_np_rng(np_rng) -> dict:
    """A numpy ``Generator``'s bit-generator state (already JSON-safe)."""
    return np_rng.bit_generator.state


def decode_np_rng(data: Any, np_rng) -> None:
    try:
        np_rng.bit_generator.state = data
    except (TypeError, ValueError, KeyError) as exc:
        raise CheckpointError(f"corrupt numpy RNG state: {exc}") from exc


# ---------------------------------------------------------------------- #
# disk format


def encode_evaluator_state(engine) -> dict:
    """The evaluation-engine state a checkpoint must carry.

    ``evaluations`` restores the cost accounting; ``eval_seeds_issued``
    restores the per-evaluation seed stream of the
    :class:`~repro.training.parallel.ParallelEvaluationEngine`, so a
    resumed run hands every future evaluation the same simulator seed the
    uninterrupted run would have — the identical-trajectory guarantee holds
    even across a ``--jobs`` change at the checkpoint boundary.  The cache
    content is trajectory state too: the hit/miss stream decides which
    seed each future miss receives.
    """
    return {"evaluations": engine.evaluations,
            "eval_seeds_issued": engine.seeds_issued,
            "eval_cache": engine.cache_state()}


def restore_evaluator_state(engine, data: dict) -> None:
    """Restore the state written by :func:`encode_evaluator_state`.

    Tolerates checkpoints from before the process-pool engine (no
    ``eval_seeds_issued`` key): the seed counter falls back to the
    evaluation count, which is what it equals on any failure-free run.
    """
    try:
        engine.evaluations = int(data.get("evaluations", 0))
        engine.seeds_issued = int(
            data.get("eval_seeds_issued", engine.evaluations))
        if "eval_cache" in data:
            engine.restore_cache(data["eval_cache"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt evaluator state in checkpoint: {exc}") from exc


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_BASENAME)


def save_checkpoint(directory: str, payload: dict) -> str:
    """Atomically write ``payload`` as the directory's checkpoint; returns
    the file path.  The directory is created if needed."""
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory)
    document = dict(payload)
    document["format"] = CHECKPOINT_FORMAT_VERSION
    # one-shot, unindented json.dumps runs json's C encoder; an indented
    # dump takes the pure-Python one (on an EA checkpoint ~4x the save
    # time, ~5x the bytes).  No one edits a checkpoint by hand, and the
    # loader reads either layout.
    atomic_write_text(path, json.dumps(document))
    return path


def load_checkpoint(directory: str,
                    expect_trainer: Optional[str] = None) -> dict:
    """Load and sanity-check a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`~repro.errors.CheckpointError` when the file is missing,
    unreadable, of an unknown format version, or written by a different
    trainer than ``expect_trainer``."""
    path = checkpoint_path(directory)
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint found at {path}")
    try:
        data = load_json(path, "checkpoint")
    except Exception as exc:
        raise CheckpointError(str(exc)) from exc
    if not isinstance(data, dict):
        raise CheckpointError(f"{path}: checkpoint must be a JSON object")
    declared = data.get("format")
    if declared != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format {declared!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})")
    if expect_trainer is not None and data.get("trainer") != expect_trainer:
        raise CheckpointError(
            f"{path}: checkpoint was written by trainer "
            f"{data.get('trainer')!r}, not {expect_trainer!r}")
    return data


def has_checkpoint(directory: str) -> bool:
    return os.path.exists(checkpoint_path(directory))
