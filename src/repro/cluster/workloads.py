"""Cluster workload adapters: shard-local draws plus a cross-shard knob.

Each adapter subclasses the single-node workload and changes only *where
ids are drawn from*: a client's transactions touch that client's home
shard's id ranges, except that with probability ``cross_shard_ratio``
one access target is drawn from another shard — the distributed-ratio
knob every partitioned-database benchmark sweeps.

Clients (and workers) map to shards with the same contiguous-block
formula the runtime uses (``client * n_shards // n_clients``), so an
invocation drawn for client ``c`` lands on a worker whose home shard
owns its data.  Each adapter also exposes :meth:`make_partitioner`, the
hook :func:`partitioner_for` uses to build the run's partitioner.

Determinism: the adapters draw from the same per-client RNG streams the
base workloads use; shard-local draws simply use shard-sized ranges.
Cluster adapters are only ever active when ``config.cluster`` is set, so
they owe no draw-for-draw compatibility with the single-node workloads.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional

from ..errors import ConfigError
from ..core.protocol import TxnInvocation
from ..workloads.micro.workload import (ACCESSES_PER_TYPE, COLD_TABLE,
                                        HOT_TABLE, N_TYPES, MicroWorkload,
                                        _bump)
from ..workloads.tpcc import schema as tpcc_schema
from ..workloads.tpcc import transactions as tpcc_txns
from ..workloads.tpcc.schema import TPCCScale
from ..workloads.tpcc.workload import TPCCWorkload
from ..workloads.tpcc.workload import DEFAULT_MIX as TPCC_MIX
from ..core.ops import UpdateOp
from .._lazy import lazy_exports
from .partition import HashPartitioner, Partitioner, RangePartitioner

#: the TPC-E adapter lives in :mod:`repro.cluster.tpce`, which imports the
#: TPC-E workload package only when a TPC-E cluster run asks for it
__getattr__, __dir__ = lazy_exports(__name__, {
    name: ".tpce" for name in ("NEW_TRADE_BLOCK", "TPCE_REPLICATED",
                               "TPCEPartitioner", "ClusterTPCE",
                               "make_cluster_tpce_factory")})


def partitioner_for(workload, n_shards: int) -> Partitioner:
    """The run's partitioner: the workload's own (cluster adapters) or
    the generic first-key-component hash fallback."""
    maker = getattr(workload, "make_partitioner", None)
    if maker is not None:
        return maker()
    return HashPartitioner(n_shards)


def _shard_of_client(client: int, n_shards: int, n_clients: int) -> int:
    return client * n_shards // n_clients


def _first_client_of_shard(shard: int, n_shards: int, n_clients: int) -> int:
    # smallest c with c * n_shards // n_clients == shard
    return (shard * n_clients + n_shards - 1) // n_shards


def _other_shard(rng: random.Random, home: int, n_shards: int) -> int:
    other = rng.randrange(n_shards - 1)
    return other + 1 if other >= home else other


# --------------------------------------------------------------------- #
# TPC-C


class ClusterTPCC(TPCCWorkload):
    """TPC-C partitioned by warehouse ranges; ITEM replicated.

    * Clients of shard ``s`` round-robin over that shard's warehouses.
    * With probability ``cross_shard_ratio``, NewOrder's supply
      warehouses and Payment's customer warehouse come from another
      shard — the classic TPC-C "remote warehouse" knob, redirected from
      the spec's fixed 1%/15% to the sweep parameter.
    * PAYMENT history ids are drawn from per-shard congruent streams
      (``h_id % n_shards == shard``) so the hash-partitioned HISTORY
      insert is always shard-local.
    """

    name = "tpcc-cluster"

    def __init__(self, n_shards: int, n_clients: int,
                 cross_shard_ratio: float = 0.1,
                 scale: Optional[TPCCScale] = None, seed: int = 0,
                 mix=TPCC_MIX) -> None:
        super().__init__(scale=scale, seed=seed, mix=mix)
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        if n_clients < n_shards:
            raise ConfigError(
                f"n_clients ({n_clients}) must be >= n_shards ({n_shards})")
        if self.scale.n_warehouses < n_shards:
            raise ConfigError(
                f"TPC-C needs >= 1 warehouse per shard: "
                f"{self.scale.n_warehouses} warehouses, {n_shards} shards")
        if not 0.0 <= cross_shard_ratio <= 1.0:
            raise ConfigError("cross_shard_ratio must be in [0, 1]")
        self.n_shards = n_shards
        self.n_clients = n_clients
        self.cross_shard_ratio = cross_shard_ratio
        self._partitioner = self.make_partitioner()
        #: per-shard remote warehouse pools (all other shards' warehouses)
        self._remote_pools: List[List[int]] = []
        for shard in range(n_shards):
            lo, hi = self._partitioner.shard_range(tpcc_schema.WAREHOUSE,
                                                   shard)
            self._remote_pools.append(
                [w for w in range(1, self.scale.n_warehouses + 1)
                 if not lo <= w <= hi])
        #: per-shard history-id streams, congruent to the shard mod
        #: n_shards (HISTORY is hash-partitioned on h_id)
        self._shard_history: List[itertools.count] = [
            itertools.count(1) for _ in range(n_shards)]

    def make_partitioner(self) -> RangePartitioner:
        w_range = (0, 1, self.scale.n_warehouses)
        ranges = {table: w_range for table in (
            tpcc_schema.WAREHOUSE, tpcc_schema.DISTRICT, tpcc_schema.CUSTOMER,
            tpcc_schema.STOCK, tpcc_schema.ORDER, tpcc_schema.NEW_ORDER,
            tpcc_schema.ORDER_LINE)}
        return RangePartitioner(self.n_shards, ranges,
                                replicated=frozenset({tpcc_schema.ITEM}))

    # ------------------------------------------------------------------ #

    def shard_of_client(self, client: int) -> int:
        return _shard_of_client(client, self.n_shards, self.n_clients)

    def home_warehouse(self, worker_id: int) -> int:
        shard = self.shard_of_client(worker_id)
        lo, hi = self._partitioner.shard_range(tpcc_schema.WAREHOUSE, shard)
        first = _first_client_of_shard(shard, self.n_shards, self.n_clients)
        return lo + (worker_id - first) % (hi - lo + 1)

    def make_invocation(self, type_name: str, rng: random.Random,
                        worker_id: int) -> TxnInvocation:
        shard = self.shard_of_client(worker_id)
        pool = self._remote_pools[shard]
        home_w = self.home_warehouse(worker_id)
        type_index = self.spec.type_index(type_name)
        if type_name == tpcc_schema.NEWORDER:
            inputs = tpcc_txns.generate_neworder(
                rng, self.scale, home_w, next(self._clock),
                remote_prob=self.cross_shard_ratio, remote_pool=pool)
            return TxnInvocation(
                type_index, type_name,
                lambda: tpcc_txns.neworder_program(inputs))
        if type_name == tpcc_schema.PAYMENT:
            h_id = shard + self.n_shards * next(self._shard_history[shard])
            inputs = tpcc_txns.generate_payment(
                rng, self.scale, home_w, h_id,
                remote_prob=self.cross_shard_ratio, remote_pool=pool)
            return TxnInvocation(
                type_index, type_name,
                lambda: tpcc_txns.payment_program(inputs))
        # DELIVERY is single-warehouse: the base path (which calls the
        # overridden home_warehouse) is already shard-local
        return super().make_invocation(type_name, rng, worker_id)


# --------------------------------------------------------------------- #
# micro


class ClusterMicro(MicroWorkload):
    """Micro-benchmark over range-partitioned key spaces.

    Every table (hot, cold, per-type unique) is split into contiguous
    per-shard blocks; a client draws all its keys from its home shard's
    blocks, except that with probability ``cross_shard_ratio`` *one*
    cold access targets another shard's cold block — the minimal
    cross-shard transaction (single remote write participant)."""

    name = "micro-cluster"

    def __init__(self, n_shards: int, n_clients: int,
                 cross_shard_ratio: float = 0.1, theta: float = 0.6,
                 hot_range: int = 4000, cold_range: int = 10_000_000,
                 unique_range: int = 100_000, n_types: int = N_TYPES,
                 accesses_per_type: int = ACCESSES_PER_TYPE,
                 seed: int = 7) -> None:
        super().__init__(theta=theta, hot_range=hot_range,
                         cold_range=cold_range, unique_range=unique_range,
                         n_types=n_types,
                         accesses_per_type=accesses_per_type, seed=seed)
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        if n_clients < n_shards:
            raise ConfigError(
                f"n_clients ({n_clients}) must be >= n_shards ({n_shards})")
        for name, value in (("hot_range", hot_range),
                            ("cold_range", cold_range),
                            ("unique_range", unique_range)):
            if value < n_shards:
                raise ConfigError(
                    f"micro needs {name} >= n_shards ({value} < {n_shards})")
        if not 0.0 <= cross_shard_ratio <= 1.0:
            raise ConfigError("cross_shard_ratio must be in [0, 1]")
        self.n_shards = n_shards
        self.n_clients = n_clients
        self.cross_shard_ratio = cross_shard_ratio
        self._partitioner = self.make_partitioner()

    def make_partitioner(self) -> RangePartitioner:
        ranges = {
            HOT_TABLE: (0, 0, self.hot_range - 1),
            COLD_TABLE: (0, 0, self.cold_range - 1),
        }
        for type_index in range(self.n_types):
            ranges[f"TYPE{type_index}"] = (0, 0, self.unique_range - 1)
        return RangePartitioner(self.n_shards, ranges)

    def shard_of_client(self, client: int) -> int:
        return _shard_of_client(client, self.n_shards, self.n_clients)

    def make_invocation(self, type_name: str, rng: random.Random,
                        worker_id: int) -> TxnInvocation:
        shard = self.shard_of_client(worker_id)
        part = self._partitioner
        type_index = self.spec.type_index(type_name)
        hot_lo, hot_hi = part.shard_range(HOT_TABLE, shard)
        hot_key = hot_lo + self._zipf.sample() % (hot_hi - hot_lo + 1)
        cold_lo, cold_hi = part.shard_range(COLD_TABLE, shard)
        n_cold = self.accesses_per_type - 2
        cold_keys = [rng.randint(cold_lo, cold_hi) for _ in range(n_cold)]
        if (self.n_shards > 1 and self.cross_shard_ratio > 0.0
                and rng.random() < self.cross_shard_ratio):
            remote = _other_shard(rng, shard, self.n_shards)
            r_lo, r_hi = part.shard_range(COLD_TABLE, remote)
            cold_keys[rng.randrange(n_cold)] = rng.randint(r_lo, r_hi)
        unique_table = f"TYPE{type_index}"
        u_lo, u_hi = part.shard_range(unique_table, shard)
        unique_key = rng.randint(u_lo, u_hi)
        last_id = self.accesses_per_type - 1

        def program():
            yield UpdateOp(HOT_TABLE, (hot_key,), _bump, access_id=0)
            for offset, cold_key in enumerate(cold_keys):
                yield UpdateOp(COLD_TABLE, (cold_key,), _bump,
                               access_id=1 + offset)
            yield UpdateOp(unique_table, (unique_key,), _bump,
                           access_id=last_id)

        return TxnInvocation(type_index, type_name, program)


# --------------------------------------------------------------------- #
# factories (mirror the single-node make_*_factory helpers)


def make_cluster_tpcc_factory(n_shards: int, n_clients: int,
                              cross_shard_ratio: float = 0.1,
                              n_warehouses: int = 4, seed: int = 0,
                              scale: Optional[TPCCScale] = None,
                              mix=TPCC_MIX):
    def factory() -> ClusterTPCC:
        actual = scale or TPCCScale(n_warehouses=n_warehouses)
        return ClusterTPCC(n_shards, n_clients, cross_shard_ratio,
                           scale=actual, seed=seed, mix=mix)
    return factory


def make_cluster_micro_factory(n_shards: int, n_clients: int,
                               cross_shard_ratio: float = 0.1,
                               theta: float = 0.6, **kwargs):
    def factory() -> ClusterMicro:
        return ClusterMicro(n_shards, n_clients, cross_shard_ratio,
                            theta=theta, **kwargs)
    return factory
