"""Polyjuice: High-Performance Transactions via Learned Concurrency Control.

Simulation-based reproduction of the OSDI 2021 paper.  The package builds
everything the paper's evaluation needs:

* a discrete-event simulated multi-core in-memory database
  (:mod:`repro.sim`, :mod:`repro.storage`);
* the learnable CC policy space and policy-driven executor
  (:mod:`repro.core`);
* the baseline algorithms — Silo/OCC, 2PL, IC3, Tebaldi, CormCC
  (:mod:`repro.cc`);
* TPC-C, a TPC-E subset and the 10-type micro-benchmark
  (:mod:`repro.workloads`);
* evolutionary and policy-gradient trainers (:mod:`repro.training`);
* the e-commerce trace analysis of §7.6 (:mod:`repro.trace`);
* the experiment harness regenerating every figure and table
  (:mod:`repro.bench`);
* observability — event tracing, metrics, time accounting
  (:mod:`repro.obs`);
* epoch-durable group-commit logging, node-crash recovery and the
  durability oracle (:mod:`repro.durability`).

Quickstart::

    from repro import SimConfig, run_named
    from repro.workloads.tpcc import make_tpcc_factory

    config = SimConfig(n_workers=16, duration=30_000)
    result = run_named(make_tpcc_factory(n_warehouses=1), "silo", config)
    print(result.throughput)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "BackoffPolicy": ".core.backoff",
    "CCPolicy": ".core.policy",
    "CostModel": ".config",
    "DurabilityConfig": ".config",
    "ExperimentResult": ".bench.runner",
    "MemorySink": ".obs.tracing",
    "MetricsRegistry": ".obs.metrics",
    "PolicyExecutor": ".core.executor",
    "ReproError": ".errors",
    "SimConfig": ".config",
    "TimeAccountant": ".obs.profile",
    "TraceEvent": ".obs.tracing",
    "TICKS_PER_SECOND": ".config",
    "TransactionAborted": ".errors",
    "WorkloadSpec": ".core.spec",
    "make_cc": ".cc.registry",
    "run_named": ".bench.runner",
    "run_protocol": ".bench.runner",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
