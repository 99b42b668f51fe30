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

from ..frontend import Frontend
from .cc import ClusterCC
from .durability import (ClusterDurability, DecisionMarker, DecisionRecord,
                         PrepareRecord, SHARD_RESTART_RNG_SALT,
                         ShardCrashReport)
from .network import NET_RNG_SALT, Network
from .partition import (HashPartitioner, ModuloPartitioner, Partitioner,
                        RangePartitioner)
from .runtime import ClusterRuntime, ShardedTable
from .workloads import (ClusterMicro, ClusterTPCC, ClusterTPCE,
                        TPCEPartitioner, make_cluster_micro_factory,
                        make_cluster_tpcc_factory, make_cluster_tpce_factory,
                        partitioner_for)


class ShardedFrontend(Frontend):
    # never instantiated: only benchmarks/harness/child.py's import needs it
    pass


__all__ = [
    "ClusterCC",
    "ClusterDurability",
    "ClusterMicro",
    "ClusterRuntime",
    "ClusterTPCC",
    "ClusterTPCE",
    "DecisionMarker",
    "DecisionRecord",
    "HashPartitioner",
    "ModuloPartitioner",
    "NET_RNG_SALT",
    "Network",
    "Partitioner",
    "PrepareRecord",
    "RangePartitioner",
    "SHARD_RESTART_RNG_SALT",
    "ShardCrashReport",
    "ShardedFrontend",
    "ShardedTable",
    "TPCEPartitioner",
    "partitioner_for",
    "make_cluster_micro_factory",
    "make_cluster_tpcc_factory",
    "make_cluster_tpce_factory",
]
