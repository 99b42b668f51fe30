"""One fitness evaluator: `repro train` and the library train alike.

The golden hashes pin the CLI trajectory of the ``train_ea`` harness shape
(micro theta 0.8, EA, checkpointed) at ``--jobs 1`` and ``--jobs 2``; they
were recorded before the evaluator refactor that made
:class:`~repro.training.parallel.ParallelEvaluationEngine` the only
evaluator the trainers accept, and must not move.  One re-record since:
the checkpoint hash moved when a park began breaking every wait-for cycle
it closes — evaluation #1, the 2PL* warm-start seed, stopped deadlocking
(82 000 -> 455 000 TPS); the policy and backoff hashes stayed.  The
library test builds the same trainer by hand and must reproduce the CLI's
history and best policy exactly.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.config import SimConfig
from repro.training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                            ParallelEvaluationEngine)
from repro.workloads.micro import make_micro_factory
from repro.workloads.micro.workload import micro_spec

SEED = 1
WORKERS = 8
FITNESS_DURATION = 1000.0
ITERATIONS, POPULATION, CHILDREN = 3, 4, 2

GOLDEN = {
    "policy.json":
        "f18fabf0ad1c71481d0bca0cb3ad1ac892f410c3708fc73f0c696efe81d713cf",
    "backoff.json":
        "14d3017319e383673287702d2f7f77da56769d55d44880c8fd568c415a8c5fa9",
    "checkpoint.json":
        "cca8327ad55a5110ef2b8774308e72a4d56ed87f4a4bdb8e402a48a24fa5b3ad",
}


def cli_train(directory, jobs):
    paths = {"policy.json": directory / "policy.json",
             "backoff.json": directory / "backoff.json",
             "checkpoint.json": directory / "ckpt" / "checkpoint.json"}
    assert main([
        "train", "--workload", "micro", "--theta", "0.8", "--trainer", "ea",
        "--workers", str(WORKERS),
        "--fitness-duration", str(FITNESS_DURATION),
        "--iterations", str(ITERATIONS), "--population", str(POPULATION),
        "--children", str(CHILDREN), "--jobs", str(jobs),
        "--seed", str(SEED), "--checkpoint", str(directory / "ckpt"),
        "--policy-out", str(paths["policy.json"]),
        "--backoff-out", str(paths["backoff.json"])]) == 0
    return paths


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    return cli_train(tmp_path_factory.mktemp("jobs1"), jobs=1)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_trajectory_golden_jobs1(serial_run):
    assert {name: sha256(path) for name, path in serial_run.items()} == GOLDEN


def test_cli_trajectory_golden_jobs2(tmp_path):
    paths = cli_train(tmp_path, jobs=2)
    assert {name: sha256(path) for name, path in paths.items()} == GOLDEN


def test_library_trains_as_the_cli_does(serial_run, tmp_path, capsys):
    capsys.readouterr()
    engine = ParallelEvaluationEngine(FitnessEvaluator(
        make_micro_factory(theta=0.8, seed=SEED),
        SimConfig(n_workers=WORKERS, duration=FITNESS_DURATION, seed=SEED,
                  collect_latency=False)))
    result = EvolutionaryTrainer(
        micro_spec(), engine,
        EAConfig(iterations=ITERATIONS, population_size=POPULATION,
                 children_per_parent=CHILDREN, seed=SEED)).train()
    checkpoint = json.loads(serial_run["checkpoint.json"].read_text())
    assert result.history == [tuple(entry)
                              for entry in checkpoint["history"]]
    result.best_policy.save(str(tmp_path / "policy.json"))
    result.best_backoff.save(str(tmp_path / "backoff.json"))
    for name in ("policy.json", "backoff.json"):
        assert (tmp_path / name).read_bytes() == \
            serial_run[name].read_bytes()
    assert result.evaluations == checkpoint["evaluations"]
