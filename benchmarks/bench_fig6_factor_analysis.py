"""Figure 6: factor analysis — growing the action space step by step.

The paper starts from OCC-only actions and cumulatively adds: learned
backoff + coarse-grained (wait-for-commit) waiting, early validation,
fine-grained waiting, and dirty reads/write exposure.  Each step is an EA
run whose action space is restricted with a mask; throughput should
broadly increase as actions are added (1 and 8 warehouses in the paper;
we run the contended point and a moderate one).
"""

from repro.core import actions
from repro.training import EvolutionaryTrainer
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

from .common import PROF, ea_config, evaluator, measure, sim_config, table

STEP_ITERATIONS = max(2, PROF.ea_iterations // 5)


def occ_only(policy):
    """Strip everything: pure OCC actions."""
    for row in policy.rows:
        row.wait = [actions.NO_WAIT] * len(row.wait)
        row.read_dirty = actions.CLEAN_READ
        row.write_public = actions.PRIVATE
        row.early_validate = actions.NO_EARLY_VALIDATE
    return policy


def coarse_wait(policy):
    """+ learned backoff and coarse (commit-level) waits."""
    spec = policy.spec
    for row in policy.rows:
        row.wait = [value if value == actions.NO_WAIT
                    else actions.wait_commit_value(spec.n_accesses(dep))
                    for dep, value in enumerate(row.wait)]
        row.read_dirty = actions.CLEAN_READ
        row.write_public = actions.PRIVATE
        row.early_validate = actions.NO_EARLY_VALIDATE
    return policy


def plus_early_validation(policy):
    """+ early validation (publication of reads, piece retry)."""
    spec = policy.spec
    for row in policy.rows:
        row.wait = [value if value == actions.NO_WAIT
                    else actions.wait_commit_value(spec.n_accesses(dep))
                    for dep, value in enumerate(row.wait)]
        row.read_dirty = actions.CLEAN_READ
        row.write_public = actions.PRIVATE
    return policy


def plus_fine_wait(policy):
    """+ fine-grained (access-level) waits; reads still clean/private."""
    for row in policy.rows:
        row.read_dirty = actions.CLEAN_READ
        row.write_public = actions.PRIVATE
    return policy


def full_space(policy):
    return policy


STEPS = [
    ("occ actions only", occ_only),
    ("+backoff+coarse wait", coarse_wait),
    ("+early validation", plus_early_validation),
    ("+fine-grained wait", plus_fine_wait),
    ("+dirty read/visibility (full)", full_space),
]


def run_experiment():
    spec = tpcc_spec()
    rows = []
    for n_warehouses in (1, 4):
        factory = make_tpcc_factory(n_warehouses=n_warehouses,
                                    seed=PROF.seed)
        config = sim_config()
        for label, mask in STEPS:
            trainer = EvolutionaryTrainer(spec, evaluator(factory),
                                          ea_config(iterations=STEP_ITERATIONS),
                                          action_mask=mask)
            result = trainer.train()
            throughput = measure(factory, "polyjuice", config,
                                 policy=result.best_policy,
                                 backoff=result.best_backoff).throughput
            rows.append([n_warehouses, label, throughput])
    return rows


def test_fig6_factor_analysis(once):
    rows = once(run_experiment)
    table("Fig 6: factor analysis (action-space ablation)",
          ["warehouses", "action space", "TPS"], rows)
    # the full action space must beat the OCC-only space under contention
    contended = [r for r in rows if r[0] == 1]
    assert contended[-1][2] > contended[0][2]
