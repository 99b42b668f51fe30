#!/usr/bin/env python
"""Train a Polyjuice policy for contended TPC-C and compare it to baselines.

This is the paper's §5 pipeline end to end:

1. warm-start an evolutionary search from the OCC / 2PL* / IC3 seed
   policies;
2. evaluate candidates by simulated commit throughput;
3. save the winning (CC policy, backoff policy) pair to disk — the same
   JSON files the §6 deployment flow would hand to the database;
4. reload and evaluate against every baseline.

Run:  python examples/train_tpcc_policy.py [iterations]
(The default 8 iterations takes a couple of minutes; the paper uses 300.)
"""

import sys
import time

from repro import CCPolicy, SimConfig, run_named
from repro.core.backoff import BackoffPolicy
from repro.training import (EAConfig, EvolutionaryTrainer, FitnessEvaluator,
                            ParallelEvaluationEngine)
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

POLICY_PATH = "trained_tpcc_policy.json"
BACKOFF_PATH = "trained_tpcc_backoff.json"


def main() -> None:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    spec = tpcc_spec()
    factory = make_tpcc_factory(n_warehouses=1)

    fitness_cfg = SimConfig(n_workers=16, duration=3_000, seed=7,
                            collect_latency=False)
    # the evaluator `repro train` uses: same seeds, same trajectory
    evaluator = ParallelEvaluationEngine(FitnessEvaluator(factory,
                                                          fitness_cfg))
    trainer = EvolutionaryTrainer(
        spec, evaluator,
        EAConfig(iterations=iterations, population_size=5,
                 children_per_parent=3, seed=42))

    print(f"training for {iterations} iterations "
          f"({5 + 5 * 3} candidates per iteration)...")
    start = time.time()
    result = trainer.train(progress=lambda i, best, mean: print(
        f"  iter {i:3d}: best {best:10,.0f} TPS   mean {mean:10,.0f} TPS"))
    print(f"done in {time.time() - start:.0f}s "
          f"({result.evaluations} evaluations)\n")

    result.best_policy.save(POLICY_PATH)
    with open(BACKOFF_PATH, "w") as f:
        f.write(result.best_backoff.to_json())
    print(f"saved policy to {POLICY_PATH} and backoff to {BACKOFF_PATH}\n")

    # reload from disk (as the C++ engine would) and evaluate
    policy = CCPolicy.load(spec, POLICY_PATH)
    with open(BACKOFF_PATH) as f:
        backoff = BackoffPolicy.from_json(f.read())

    eval_cfg = SimConfig(n_workers=16, duration=10_000, warmup=1_000, seed=3)
    print(f"{'cc':12s} {'TPS':>10s}")
    learned = run_named(factory, "polyjuice", eval_cfg, policy=policy,
                        backoff_policy=backoff)
    print(f"{'polyjuice':12s} {learned.throughput:10,.0f}")
    for cc in ("ic3", "silo", "2pl"):
        baseline = run_named(factory, cc, eval_cfg)
        print(f"{cc:12s} {baseline.throughput:10,.0f}")


if __name__ == "__main__":
    main()
