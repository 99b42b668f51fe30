"""Figure 8a: TPC-E throughput as the Zipf theta varies (0..4).

Paper shape: throughput collapses as theta grows for every algorithm;
at high contention (theta >= 2) Polyjuice wins, mainly through its
*learned backoff* (§7.4) — the TRADE_ORDER type stops escalating its
backoff on abort.
"""

from repro.workloads.tpce import make_tpce_factory

from .common import PROF, emit, measure, sim_config, table, trained_tpce

THETAS = [0.0, 1.0, 2.0, 3.0, 4.0]
CCS = ["silo", "2pl", "ic3"]


def run_experiment():
    rows = []
    policy, backoff = trained_tpce(3.0)
    for theta in THETAS:
        factory = make_tpce_factory(theta=theta, seed=PROF.seed)
        config = sim_config()
        row = [theta]
        for cc in CCS:
            row.append(measure(factory, cc, config).throughput)
        row.append(measure(factory, "polyjuice", config, policy=policy,
                           backoff=backoff).throughput)
        rows.append(row)
    return rows, backoff


def test_fig8a_tpce(once):
    rows, backoff = once(run_experiment)
    table("Fig 8a: TPC-E throughput vs Zipf theta",
          ["theta"] + CCS + ["polyjuice"], rows)
    emit("Fig 8a learned backoff alphas (per type: commit/abort rows)",
         str(backoff.to_dict()))
    # every protocol commits at every theta (IC3 and 2PL once deadlocked
    # at theta >= 2, and the ratio checks below passed on 0 >= 0)
    assert all(tps > 0 for row in rows for tps in row[1:]), rows
    # contention collapses throughput
    assert rows[0][1] > rows[-1][1] * 2
    # at the trained contention point polyjuice is competitive with the best
    trained_row = next(r for r in rows if r[0] == 3.0)
    best_baseline = max(trained_row[1:4])
    assert trained_row[4] > best_baseline * 0.85
