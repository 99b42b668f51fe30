"""Cluster runtime: shard ownership tracking over one shared database.

The cluster is simulated as a bookkeeping layer over the existing
single-node machinery — one :class:`~repro.storage.database.Database`,
one concurrency-control instance, one scheduler clock — rather than N
physically separate databases.  What makes it a cluster is *cost* and
*failure* semantics:

* every record access is classified local/remote against the
  :class:`~repro.cluster.partition.Partitioner`; remote accesses charge a
  network round trip and are impossible across a partition;
* commits that touched remote shards pay a 2PC prepare round and write
  per-shard prepare/decision WAL records
  (:class:`~repro.cluster.durability.ClusterDurability`);
* workers are pinned to home shards in contiguous blocks
  (``worker_id * n_shards // n_workers``), so ``n_workers`` keeps its
  single-node meaning (total across the cluster) and per-shard
  parallelism is ``n_workers / n_shards``.

Access classification happens *inside* the storage layer:
:meth:`ClusterRuntime.shard_tables` swaps every table of the live
database for a :class:`ShardedTable` that adopts the same record storage
and notifies the runtime on each access.  Outside transaction execution
(loaders, invariant sweeps, oracle snapshots) ``active_shard`` is None
and the notification is a no-op, so nothing but transactional accesses
is ever charged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from ..errors import AbortReason, ReproError, TransactionAborted
from ..frontend.admission import SHED_SHARD_DOWN
from ..sim.scheduler import RunLayer
from ..storage.table import Table
from .network import Network
from .partition import Partitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SimConfig
    from ..sim.scheduler import Scheduler
    from ..storage.database import Database


class ShardedTable(Table):
    """A table that reports every transactional access to the runtime.

    Adopts the wrapped table's rows and key index *by reference* (no
    copy): swapping a ``Table`` for its ``ShardedTable`` in
    ``db._tables`` changes observation, not state."""

    __slots__ = ("_rt",)

    def __init__(self, base: Table, runtime: "ClusterRuntime") -> None:
        self._adopt(base)
        self._rt = runtime

    def get_record(self, key):
        self._rt.note_access(self.name, key)
        return Table.get_record(self, key)

    def ensure_record(self, key, version_id):
        self._rt.note_access(self.name, key)
        return Table.ensure_record(self, key, version_id)

    def scan_committed(self, lo, hi, limit=None, reverse=False):
        # a scan is charged once, against the shard owning its lower
        # bound (the bundled workloads' scans never cross a shard
        # boundary: range partitions align with scan prefixes)
        self._rt.note_access(self.name, lo)
        return Table.scan_committed(self, lo, hi, limit, reverse)


class ClusterRuntime(RunLayer):
    """Per-run cluster state: partitioner, network, per-txn access sets,
    pending network charges, and cluster-wide counters.  Attached to the
    scheduler as ``scheduler.cluster``."""

    def __init__(self, config: "SimConfig", partitioner: Partitioner) -> None:
        if config.cluster is None:
            raise ReproError("ClusterRuntime requires config.cluster")
        self.config = config
        self.cc_config = config.cluster
        self.n_shards = config.cluster.n_shards
        self.n_workers = config.n_workers
        self.partitioner = partitioner
        self.network = Network(self.n_shards, config.cluster.net_latency,
                               config.cluster.net_jitter,
                               config.cluster.net_bandwidth, config.seed)
        self.scheduler: Optional["Scheduler"] = None
        #: home shard of the transaction currently executing (None outside
        #: transaction execution: loaders, oracles, invariant sweeps)
        self.active_shard: Optional[int] = None
        self.active_worker: int = -1
        #: network ticks owed by each worker, drained at its next yield
        self._pending_net: Dict[int, float] = {}
        #: remote shards touched by each worker's current transaction
        self._touched: Dict[int, Set[int]] = {}
        # -- partial-failure state ---------------------------------------- #
        #: per-shard down flags (scripted ``shard_crash``); ``any_down``
        #: gates every hot-path check so a crash-free run never pays
        self.shard_down: List[bool] = [False] * self.n_shards
        self.any_down = False
        self._ever_down = False
        self.shard_down_aborts = 0
        # -- counters ---------------------------------------------------- #
        self.shard_commits: List[int] = [0] * self.n_shards
        self.cross_shard_commits = 0
        self.cross_shard_attempts = 0
        self.partition_aborts = 0
        self.remote_accesses = 0
        self.net_ticks_total = 0.0
        self.prepare_ticks_total = 0.0
        self.prepares_total = 0

    # ------------------------------------------------------------------ #
    # wiring

    def install(self, scheduler: "Scheduler") -> None:
        self.scheduler = scheduler
        scheduler.cluster = self

    def shard_tables(self, db: "Database") -> None:
        """Swap every table of ``db`` for a :class:`ShardedTable` in
        place.  Must run before CC setup (the executor caches the table
        dict at setup time)."""
        for name, table in list(db._tables.items()):
            if not isinstance(table, ShardedTable):
                db._tables[name] = ShardedTable(table, self)

    # ------------------------------------------------------------------ #
    # shard topology

    def shard_of_worker(self, worker_id: int) -> int:
        """Home shard of a worker: contiguous blocks, so per-shard
        parallelism is exactly ``n_workers / n_shards``."""
        return worker_id * self.n_shards // self.n_workers

    def durability_shard(self, table: str, key: tuple) -> int:
        """Which shard's WAL owns a write image."""
        return self.partitioner.home_shard(table, key)

    # ------------------------------------------------------------------ #
    # partial failure (driven by ClusterDurability.shard_crash / rejoin)

    def mark_shard_down(self, shard: int) -> None:
        self.shard_down[shard] = True
        self.any_down = True
        self._ever_down = True

    def mark_shard_up(self, shard: int) -> None:
        self.shard_down[shard] = False
        self.any_down = any(self.shard_down)

    # ------------------------------------------------------------------ #
    # the access hot path (called from ShardedTable on every record touch)

    def note_access(self, table: str, key: tuple) -> None:
        home = self.active_shard
        if home is None:
            return  # non-transactional access: loader / oracle / sweep
        if self.partitioner.is_replicated(table):
            return  # reference data: a local replica exists everywhere
        shard = self.partitioner.shard_of(table, key)
        if shard == home:
            return
        if self.any_down and self.shard_down[shard]:
            # degraded mode: the first remote access to a down shard
            # rejects the transaction (admission filters arrivals whose
            # *home* shard is down; cross-shard reach is caught here)
            self.shard_down_aborts += 1
            raise TransactionAborted(
                AbortReason.FAULT,
                f"shard {shard} is down",
                site=f"{table}{key}",
                reject_reason=SHED_SHARD_DOWN)
        now = self.scheduler.now
        if self.network.is_partitioned(home, shard, now):
            self.partition_aborts += 1
            raise TransactionAborted(
                AbortReason.FAULT,
                f"network partition: shard {home} cannot reach {shard}",
                site=f"{table}{key}")
        self.remote_accesses += 1
        rtt = 2.0 * self.network.delay(home, shard, now)
        worker = self.active_worker
        self._pending_net[worker] = self._pending_net.get(worker, 0.0) + rtt
        self.net_ticks_total += rtt
        touched = self._touched.get(worker)
        if touched is None:
            touched = self._touched[worker] = set()
        touched.add(shard)

    def take_net(self, worker_id: int) -> float:
        """Network ticks the worker owes; drained by the CC wrapper at
        the transaction's next yield point."""
        return self._pending_net.pop(worker_id, 0.0)

    def touched_shards(self, worker_id: int) -> Set[int]:
        return self._touched.get(worker_id, set())

    # ------------------------------------------------------------------ #
    # transaction lifecycle (driven by the ClusterCC wrapper)

    def end_txn_commit(self, worker_id: int) -> float:
        """Commit bookkeeping after the inner protocol installed the
        transaction.  Returns the extra ticks the committing worker must
        pay: the 2PC prepare round trip to the farthest participant
        (prepares fan out in parallel), plus — if a partition separates
        the coordinator from a participant at commit time — the stall
        until the link heals (the writes are installed; the coordinator
        cannot abort, it can only wait to confirm)."""
        home = self.shard_of_worker(worker_id)
        self.shard_commits[home] += 1
        touched = self._touched.pop(worker_id, None)
        self._pending_net.pop(worker_id, None)
        timeline = self.scheduler.timeline
        if timeline is not None:
            timeline.on_shard_commit(self.scheduler.now, home)
        if not touched:
            return 0.0
        self.cross_shard_commits += 1
        now = self.scheduler.now
        extra = 0.0
        for shard in sorted(touched):
            self.prepares_total += 1
            heal = self.network.heal_time(home, shard, now)
            rtt = (heal - now) + 2.0 * self.network.delay(home, shard, heal)
            if rtt > extra:
                extra = rtt
        self.prepare_ticks_total += extra
        self.net_ticks_total += extra
        return extra

    def abandon_txn(self, worker_id: int) -> None:
        """Abort/crash cleanup: drop the per-txn access state.  Network
        ticks already drained at earlier yields stay charged; the not-
        yet-drained remainder is forgiven (the abort cost path takes
        over, same as every other in-flight cost at abort)."""
        self._touched.pop(worker_id, None)
        self._pending_net.pop(worker_id, None)

    # ------------------------------------------------------------------ #

    def metrics_rows(self):
        """(name, value) pairs for the metrics file / report."""
        rows = [
            ("cluster_shards", float(self.n_shards)),
            ("cluster_cross_shard_commits", float(self.cross_shard_commits)),
            ("cluster_partition_aborts", float(self.partition_aborts)),
            ("cluster_remote_accesses", float(self.remote_accesses)),
            ("cluster_net_ticks_total", self.net_ticks_total),
            ("cluster_prepare_ticks_total", self.prepare_ticks_total),
            ("cluster_prepares_total", float(self.prepares_total)),
            ("cluster_net_messages", float(self.network.messages_total)),
        ]
        if self._ever_down:
            rows.append(("cluster_shard_down_aborts",
                         float(self.shard_down_aborts)))
        for shard, commits in enumerate(self.shard_commits):
            rows.append((f"cluster_commits_shard{shard}", float(commits)))
        return rows

    def install_metrics(self, registry, **labels: str) -> None:
        for name, value in self.metrics_rows():
            registry.gauge(name, **labels).set(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ClusterRuntime(shards={self.n_shards}, "
                f"cross_commits={self.cross_shard_commits})")
