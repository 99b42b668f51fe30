"""Sharded multi-node cluster simulation with cross-shard 2PC.

The cluster layer partitions the database across N simulated shards,
pins workers to home shards, charges remote record accesses as network
round trips, and commits cross-shard transactions with two-phase commit
over per-shard epoch WALs (presumed abort; see
:mod:`repro.cluster.durability` — the 2PC layer on top of the durability
core, which runs the per-shard logs themselves).  Admission is not
here: the one :class:`~repro.frontend.Frontend` keeps a queue per shard
and reads the shard count, worker pinning and shard-down flags off the
runtime it is handed.  ``config.cluster is None`` disables the whole
layer: no runtime, no 2PC layer, and the durability core and the
frontend with their single-node shard count of one.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ClusterCC": ".cc",
    "ClusterDurability": ".durability",
    "ClusterMicro": ".workloads",
    "ClusterRuntime": ".runtime",
    "ClusterTPCC": ".workloads",
    "ClusterTPCE": ".tpce",
    "DecisionMarker": ".durability",
    "DecisionRecord": ".durability",
    "HashPartitioner": ".partition",
    "ModuloPartitioner": ".partition",
    "NET_RNG_SALT": ".network",
    "Network": ".network",
    "Partitioner": ".partition",
    "PrepareRecord": ".durability",
    "RangePartitioner": ".partition",
    "SHARD_RESTART_RNG_SALT": ".durability",
    "ShardCrashReport": ".durability",
    "ShardedFrontend": "..frontend.frontend",
    "ShardedTable": ".runtime",
    "TPCEPartitioner": ".tpce",
    "partitioner_for": ".workloads",
    "make_cluster_micro_factory": ".workloads",
    "make_cluster_tpcc_factory": ".workloads",
    "make_cluster_tpce_factory": ".tpce",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
