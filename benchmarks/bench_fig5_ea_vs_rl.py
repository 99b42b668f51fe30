"""Figure 5: EA vs policy-gradient (RL) training on TPC-C, 1 warehouse.

Paper shape: both improve over their starting point, but EA reaches a
substantially better policy in the same number of iterations (309K vs
178K TPS in the paper); RL is seeded with an IC3-like policy at 80%
probability, as §7.5 describes.
"""

from repro.cc.ic3 import ic3_policy
from repro.training import (EvolutionaryTrainer, PolicyGradientTrainer,
                            RLConfig)
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

from .common import PROF, ea_config, emit, evaluator, table

ITERATIONS = max(4, PROF.ea_iterations // 2)


def run_experiment():
    spec = tpcc_spec()
    factory = make_tpcc_factory(n_warehouses=1, seed=PROF.seed)

    ea = EvolutionaryTrainer(spec, evaluator(factory),
                             ea_config(iterations=ITERATIONS))
    ea_result = ea.train()

    rl = PolicyGradientTrainer(
        spec, evaluator(factory),
        RLConfig(iterations=ITERATIONS,
                 batch_size=PROF.ea_population * (PROF.ea_children + 1),
                 seed=PROF.seed + 3),
        seed_policy=ic3_policy(spec))
    rl_result = rl.train()
    return ea_result, rl_result


def test_fig5_ea_vs_rl(once):
    ea_result, rl_result = once(run_experiment)
    rows = []
    for iteration in range(ITERATIONS):
        rows.append([iteration,
                     ea_result.history[iteration][1],
                     rl_result.history[iteration][1]])
    table("Fig 5: training curves (best fitness, TPS)",
          ["iteration", "EA", "RL"], rows)
    emit("Fig 5 final",
         f"EA best: {ea_result.best_fitness:,.0f} TPS "
         f"({ea_result.evaluations} evals); "
         f"RL best: {rl_result.best_fitness:,.0f} TPS "
         f"({rl_result.evaluations} evals)")
    # EA at least matches RL given the same per-iteration budget (paper:
    # EA is clearly better; at quick scale we assert non-inferiority)
    assert ea_result.best_fitness >= rl_result.best_fitness * 0.9
