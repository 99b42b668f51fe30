"""A run imports only the layers it installs.

Each opt-in layer (cluster, durability, faults, the report and its
analysers, the serializability oracle, TPC-E, every baseline protocol) is
imported where a run installs it, never by ``import repro.cli`` or by a
run that leaves it off.  One fresh interpreter runs the steps below in
order and prints, after each, which watched modules are loaded; a module
must appear at the step that first asks for it and not before.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: the opt-in layers a closed-loop single-node run never needs (and the
#: process pool, which only ``--jobs N > 1`` or an evaluation timeout uses)
WATCHED = ("repro.cluster.runtime", "repro.cluster.durability",
           "repro.durability.manager", "repro.durability.oracle",
           "repro.faults", "repro.obs.report",
           "repro.obs.insight", "repro.analysis", "repro.workloads.tpce",
           "repro.cc.occ", "repro.cc.two_pl", "repro.cc.ic3",
           "repro.cc.tebaldi", "repro.cc.cormcc", "multiprocessing")

SCRIPT = r'''
import json, sys
WATCHED = %r

def loaded():
    return sorted(m for m in sys.modules for w in WATCHED
                  if m == w or m.startswith(w + "."))

steps = []
def step(name):
    steps.append([name, loaded()])

import repro.cli
import repro.training.ea
from repro.cc.seeds import occ_policy
from repro.config import (ClusterConfig, DurabilityConfig, FrontendConfig,
                          SimConfig)
from repro.workloads.tpcc import make_tpcc_factory, tpcc_spec

def config(**kw):
    return SimConfig(n_workers=2, duration=600.0, warmup=0.0, seed=3, **kw)

tpcc = make_tpcc_factory(n_warehouses=1, seed=3)
repro.cli.run_named(tpcc, "polyjuice", config(),
                    policy=occ_policy(tpcc_spec()))
repro.cli.run_named(tpcc, "polyjuice",
                    config(frontend=FrontendConfig(arrival_rate=50_000.0)),
                    policy=occ_policy(tpcc_spec()))
step("closed and open loop, single node")

from repro.cc import make_cc
for name in ("silo", "2pl", "ic3", "tebaldi", "cormcc"):
    make_cc(name)
    step("make_cc " + name)

from repro.bench.runner import run_named
run_named(tpcc, "silo", config(durability=DurabilityConfig()))
step("durability")

from repro.faults import FaultPlan
plan = FaultPlan(rates={"abort": 0.01})
step("fault plan")
run_named(tpcc, "silo", config(), fault_plan=plan)
step("fault injection")

from repro.cluster.workloads import make_cluster_tpcc_factory
step("cluster workloads")
run_named(make_cluster_tpcc_factory(2, 2, n_warehouses=2, seed=3), "silo",
          config(cluster=ClusterConfig(n_shards=2),
                 durability=DurabilityConfig()))
step("cluster with durability")

from repro.cluster import make_cluster_tpce_factory
make_cluster_tpce_factory(2, 2)
step("cluster TPC-E")

from repro.faults import ScriptedFault
crash = FaultPlan(events=[ScriptedFault(300.0, "node_crash")])
run_named(tpcc, "silo", config(durability=DurabilityConfig()),
          fault_plan=crash)
step("node crash")

from repro.obs import build_report
step("report")

from repro.training import FitnessEvaluator, ParallelEvaluationEngine
ParallelEvaluationEngine(FitnessEvaluator(tpcc, config()), jobs=1)
step("inline evaluation")
ParallelEvaluationEngine(FitnessEvaluator(tpcc, config()), jobs=2)
step("evaluation pool")
print(json.dumps(steps))
'''


def run_steps(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", SCRIPT % (WATCHED,)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    result = {}
    seen = set()
    for name, modules in steps:
        assert seen <= set(modules), f"{name}: a module was unloaded"
        result[name] = set(modules) - seen
        seen = set(modules)
    return result


def test_each_layer_is_imported_where_a_run_installs_it(tmp_path):
    new = run_steps(tmp_path)
    assert new["closed and open loop, single node"] == set()
    assert new["make_cc silo"] == {"repro.cc.occ"}
    for name, module in (("2pl", "repro.cc.two_pl"), ("ic3", "repro.cc.ic3"),
                         ("tebaldi", "repro.cc.tebaldi"),
                         ("cormcc", "repro.cc.cormcc")):
        assert new["make_cc " + name] == {module}, name
    assert new["durability"] == {"repro.durability.manager"}
    assert {"repro.faults", "repro.faults.plan"} <= new["fault plan"]
    assert "repro.faults.injector" in (new["fault plan"]
                                       | new["fault injection"])
    assert new["cluster workloads"] == set()
    assert {"repro.cluster.runtime", "repro.cluster.durability"} \
        <= new["cluster with durability"]
    assert {"repro.workloads.tpce", "repro.workloads.tpce.workload"} \
        <= new["cluster TPC-E"]
    assert {"repro.durability.oracle", "repro.analysis.serializability"} \
        <= new["node crash"]
    assert new["report"] == {"repro.obs.report", "repro.obs.insight"}
    assert new["inline evaluation"] == set()
    assert "multiprocessing" in new["evaluation pool"]
