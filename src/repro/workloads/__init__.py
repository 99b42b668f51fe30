"""Benchmark workloads: TPC-C, the TPC-E subset, and the micro-benchmark.

Convenience re-exports::

    from repro.workloads import make_tpcc_factory, make_tpce_factory, \\
        make_micro_factory
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "MicroWorkload": ".micro",
    "MixEntry": ".base",
    "TPCCScale": ".tpcc",
    "TPCCWorkload": ".tpcc",
    "TPCEScale": ".tpce",
    "TPCEWorkload": ".tpce",
    "Workload": ".base",
    "make_micro_factory": ".micro",
    "make_tpcc_factory": ".tpcc",
    "make_tpce_factory": ".tpce",
    "tpcc_spec": ".tpcc",
    "tpce_spec": ".tpce",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
