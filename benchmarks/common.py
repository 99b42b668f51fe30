"""Shared infrastructure for the experiment benches.

Every figure/table of the paper has one bench module.  Each bench runs its
experiment once (inside ``benchmark.pedantic(..., rounds=1)`` so
pytest-benchmark reports the experiment's wall time), prints the same
rows/series the paper reports, and appends the output to
``benchmarks/_artifacts/results.txt`` (the source for EXPERIMENTS.md).

Two profiles control scale (environment variable ``REPRO_BENCH_PROFILE``):

* ``quick`` (default): scaled-down runs — 16 simulated workers, short
  horizons, small EA budgets.  The *shape* of every result (who wins, by
  roughly what factor, where crossovers fall) matches the paper; absolute
  TPS does not (see DESIGN.md).
* ``paper``: closer to the paper's methodology (48 workers, longer
  horizons, larger EA budgets).  Expect hours.

Trained policies are cached on disk under ``benchmarks/_artifacts`` so
re-running a bench (or several benches sharing a policy) never retrains.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass

from repro.config import SimConfig
from repro.bench.reporting import format_table
from repro.bench.runner import run_named, run_protocol
from repro.obs import MetricsRegistry
from repro.core.backoff import BackoffPolicy
from repro.core.policy import CCPolicy
from repro.training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                            ParallelEvaluationEngine)
from repro.workloads.micro import make_micro_factory
from repro.workloads.micro.workload import micro_spec
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec
from repro.workloads.tpce import make_tpce_factory, tpce_spec

ARTIFACTS = pathlib.Path(__file__).parent / "_artifacts"
ARTIFACTS.mkdir(exist_ok=True)

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "quick")


@dataclass(frozen=True)
class BenchProfile:
    n_workers: int
    duration: float
    warmup: float
    seed: int
    ea_iterations: int
    ea_population: int
    ea_children: int
    fitness_workers: int
    fitness_duration: float


PROFILES = {
    "quick": BenchProfile(n_workers=16, duration=8000.0, warmup=1000.0,
                          seed=42, ea_iterations=10, ea_population=5,
                          ea_children=3, fitness_workers=16,
                          fitness_duration=3000.0),
    "paper": BenchProfile(n_workers=48, duration=30_000.0, warmup=3000.0,
                          seed=42, ea_iterations=300, ea_population=8,
                          ea_children=4, fitness_workers=48,
                          fitness_duration=10_000.0),
}

PROF = PROFILES[PROFILE]

#: shared metrics registry: every ``measure()`` call records its run's
#: aggregates here; ``export_metrics()`` snapshots it into the artifacts
METRICS = MetricsRegistry()


def export_metrics() -> None:
    """Write the accumulated bench metrics to the artifacts directory
    (JSON and CSV), named by profile.  Idempotent; call at any point."""
    if len(METRICS) == 0:
        return
    METRICS.write_json(str(ARTIFACTS / f"metrics_{PROFILE}.json"))
    METRICS.write_csv(str(ARTIFACTS / f"metrics_{PROFILE}.csv"))


def sim_config(n_workers=None, duration=None, warmup=None, seed=None,
               **kwargs) -> SimConfig:
    return SimConfig(
        n_workers=n_workers if n_workers is not None else PROF.n_workers,
        duration=duration if duration is not None else PROF.duration,
        warmup=warmup if warmup is not None else PROF.warmup,
        seed=seed if seed is not None else PROF.seed,
        **kwargs)


def fitness_config(n_workers=None, duration=None, seed=None) -> SimConfig:
    return SimConfig(
        n_workers=n_workers or PROF.fitness_workers,
        duration=duration or PROF.fitness_duration,
        seed=seed if seed is not None else PROF.seed + 1,
        collect_latency=False)


def evaluator(workload_factory, fitness_cfg=None) -> ParallelEvaluationEngine:
    """The fitness evaluator `repro train` uses, over the bench's fitness
    configuration."""
    return ParallelEvaluationEngine(
        FitnessEvaluator(workload_factory, fitness_cfg or fitness_config()))


def ea_config(iterations=None, seed=None, **kwargs) -> EAConfig:
    return EAConfig(
        iterations=iterations if iterations is not None else PROF.ea_iterations,
        population_size=PROF.ea_population,
        children_per_parent=PROF.ea_children,
        seed=seed if seed is not None else PROF.seed + 2,
        **kwargs)


# ---------------------------------------------------------------------- #
# trained-policy cache


def _policy_paths(tag: str):
    return (ARTIFACTS / f"policy_{tag}_{PROFILE}.json",
            ARTIFACTS / f"backoff_{tag}_{PROFILE}.json")


def train_or_load(tag: str, spec, workload_factory, fitness_cfg=None,
                  iterations=None):
    """Train Polyjuice for a workload, or load the cached result."""
    policy_path, backoff_path = _policy_paths(tag)
    if policy_path.exists() and backoff_path.exists():
        policy = CCPolicy.load(spec, str(policy_path))
        backoff = BackoffPolicy.from_json(backoff_path.read_text())
        return policy, backoff
    trainer = EvolutionaryTrainer(spec, evaluator(workload_factory,
                                                  fitness_cfg),
                                  ea_config(iterations))
    result = trainer.train()
    policy = result.best_policy
    policy.name = f"polyjuice-{tag}"
    policy.save(str(policy_path))
    backoff_path.write_text(result.best_backoff.to_json())
    return policy, result.best_backoff


def trained_tpcc(n_warehouses: int = 1):
    return train_or_load(
        f"tpcc_wh{n_warehouses}", tpcc_spec(),
        make_tpcc_factory(n_warehouses=n_warehouses, seed=PROF.seed))


def trained_tpcc_threads(n_warehouses: int, n_workers: int):
    if n_workers == PROF.fitness_workers:
        return trained_tpcc(n_warehouses)  # same training setup: reuse
    return train_or_load(
        f"tpcc_wh{n_warehouses}_w{n_workers}", tpcc_spec(),
        make_tpcc_factory(n_warehouses=n_warehouses, seed=PROF.seed),
        fitness_cfg=fitness_config(n_workers=n_workers))


def trained_tpce(theta: float = 3.0):
    return train_or_load(
        f"tpce_t{theta}", tpce_spec(),
        make_tpce_factory(theta=theta, seed=PROF.seed))


def trained_micro(theta: float = 0.8):
    return train_or_load(
        f"micro_t{theta}", micro_spec(),
        make_micro_factory(theta=theta, seed=PROF.seed),
        iterations=max(4, PROF.ea_iterations // 2))


# ---------------------------------------------------------------------- #
# measurement + reporting helpers


def measure(workload_factory, cc_name, config, policy=None, backoff=None,
            **kwargs):
    """Throughput of one protocol (handles polyjuice policies)."""
    kwargs.setdefault("metrics", METRICS)
    result = run_named(workload_factory, cc_name, config, policy=policy,
                       backoff_policy=backoff, check_invariants=False,
                       **kwargs)
    export_metrics()
    return result


def emit(title: str, text: str) -> None:
    """Print a result block and append it to the artifacts log."""
    block = f"\n=== {title} ({PROFILE} profile) ===\n{text}\n"
    print(block)
    with open(ARTIFACTS / "results.txt", "a") as f:
        f.write(block)


def table(title, headers, rows) -> None:
    emit(title, format_table(headers, rows))
