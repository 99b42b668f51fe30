"""Serial vs parallel training wall-clock (the ``--jobs`` speedup).

Runs the same seeded 10-generation EA twice — once with ``jobs=1`` and once
with ``jobs=min(4, cores)`` — asserts the two trajectories are identical
(the determinism contract), and writes the measured wall-clock numbers to
``BENCH_train.json`` at the repo root.

Standalone (not a pytest-benchmark figure bench)::

    PYTHONPATH=src python benchmarks/bench_train_parallel.py

On a single-core host the parallel run cannot be faster (fork overhead
makes it slightly slower); the artifact records the host's core count so
the numbers read honestly.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time

from repro.config import SimConfig
from repro.training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                            ParallelEvaluationEngine)
from repro.workloads.micro import make_micro_factory
from repro.workloads.micro.workload import micro_spec

ITERATIONS = 10
FITNESS_DURATION = 8_000.0
SEED = 7

OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_train.json"


def run(jobs: int):
    spec = micro_spec()
    factory = make_micro_factory(theta=0.5)
    engine = ParallelEvaluationEngine(
        FitnessEvaluator(factory,
                         SimConfig(n_workers=8, duration=FITNESS_DURATION,
                                   seed=SEED, collect_latency=False)),
        jobs=jobs)
    trainer = EvolutionaryTrainer(
        spec, engine,
        EAConfig(population_size=4, children_per_parent=2,
                 iterations=ITERATIONS, seed=SEED))
    started = time.monotonic()
    result = trainer.train()
    elapsed = time.monotonic() - started
    return elapsed, result


def main() -> int:
    cores = os.cpu_count() or 1
    # at least 2 so the pool path is actually exercised and its overhead
    # measured, even on a single-core host
    parallel_jobs = max(2, min(4, cores))
    print(f"host: {cores} cores; comparing jobs=1 vs jobs={parallel_jobs}")

    serial_seconds, serial = run(1)
    print(f"jobs=1: {serial_seconds:.1f}s "
          f"({serial.evaluations} evaluations)")
    parallel_seconds, parallel = run(parallel_jobs)
    print(f"jobs={parallel_jobs}: {parallel_seconds:.1f}s "
          f"({parallel.evaluations} evaluations)")

    identical = (serial.history == parallel.history
                 and serial.best_policy == parallel.best_policy
                 and serial.best_backoff == parallel.best_backoff)
    assert identical, "determinism contract violated: trajectories differ"
    speedup = serial_seconds / parallel_seconds

    document = {
        "benchmark": "10-generation EA on micro (theta=0.5), "
                     "serial vs process-pool evaluation",
        "host": {"cores": cores, "platform": platform.platform(),
                 "python": platform.python_version()},
        "config": {"iterations": ITERATIONS,
                   "population_size": 4, "children_per_parent": 2,
                   "fitness_duration_ticks": FITNESS_DURATION,
                   "fitness_workers": 8, "seed": SEED},
        "serial": {"jobs": 1, "wall_seconds": round(serial_seconds, 2),
                   "evaluations": serial.evaluations},
        "parallel": {"jobs": parallel_jobs,
                     "wall_seconds": round(parallel_seconds, 2),
                     "evaluations": parallel.evaluations},
        "speedup": round(speedup, 2),
        "trajectories_identical": identical,
        "note": ("speedup scales with physical cores; on a 1-core host the "
                 "pool pays fork overhead for no gain — the determinism "
                 "contract (bit-identical artifacts) holds regardless"),
    }
    OUT.write_text(json.dumps(document, indent=2) + "\n")
    print(f"speedup: {speedup:.2f}x; wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
