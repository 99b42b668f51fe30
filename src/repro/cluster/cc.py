"""ClusterCC: interposes on any CC protocol to charge network costs.

The wrapper delegates everything to the wrapped protocol and interposes
only on :meth:`run_transaction`, driving the inner generator by hand so
it can:

* mark the runtime's ``active_shard``/``active_worker`` around every
  resume of the inner generator — this is what arms the
  :class:`~repro.cluster.runtime.ShardedTable` access notifications for
  exactly the spans where transactional code runs;
* drain the network ticks a resume accumulated (remote record round
  trips) as an extra ``Cost`` yield before forwarding the inner
  directive, so remote accesses are charged at the access's own yield
  point, in simulated-time order;
* after the inner generator completes (the transaction installed), pay
  the 2PC prepare round trip to the touched remote shards via
  :meth:`ClusterRuntime.end_txn_commit`.

Exception routing mirrors the scheduler contract: anything thrown into
the wrapper at a yield is re-thrown into the inner generator at its
yield point (so abort cleanup runs inside the protocol, exactly as
without the wrapper), and ``GeneratorExit`` closes the inner generator
before propagating (worker teardown on crash).

Wrapping changes nothing for a single shard: every access is local, no
network ticks accrue, no prepare round exists — but ``--shards 1`` runs
skip the wrapper entirely (``cluster=None``) so the single-node path
stays literally the same code.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from ..core.protocol import ConcurrencyControl
from ..sim.events import Cost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.protocol import TxnInvocation
    from ..sim.worker import Worker
    from .runtime import ClusterRuntime


class ClusterCC(ConcurrencyControl):
    """Transparent cluster-cost wrapper around a CC protocol."""

    def __init__(self, inner: ConcurrencyControl,
                 runtime: "ClusterRuntime") -> None:
        # no super().__init__(): db/spec/config/ids/recorder live on the
        # inner protocol (forwarded below) so registry code, validation
        # and tests see one consistent protocol state
        self._inner = inner
        self._runtime = runtime

    # ------------------------------------------------------------------ #
    # delegation (state lives on the inner protocol)

    @property
    def name(self):
        return self._inner.name

    @property
    def db(self):
        return self._inner.db

    @db.setter
    def db(self, value):
        self._inner.db = value

    @property
    def spec(self):
        return self._inner.spec

    @property
    def config(self):
        return self._inner.config

    @property
    def ids(self):
        return self._inner.ids

    @property
    def recorder(self):
        return self._inner.recorder

    @recorder.setter
    def recorder(self, value):
        self._inner.recorder = value

    @property
    def backoff_policy(self):
        return getattr(self._inner, "backoff_policy", None)

    def setup(self, db, spec, config) -> None:
        self._inner.setup(db, spec, config)

    def on_node_recovery(self, new_db) -> None:
        self._inner.on_node_recovery(new_db)

    def make_backoff(self, worker: "Worker"):
        return self._inner.make_backoff(worker)

    def describe(self) -> str:
        return f"{self._inner.describe()}+cluster"

    # ------------------------------------------------------------------ #

    def run_transaction(self, worker: "Worker", invocation: "TxnInvocation",
                        attempt: int, first_start: float) -> Generator:
        runtime = self._runtime
        wid = worker.worker_id
        home = runtime.shard_of_worker(wid)
        gen = self._inner.run_transaction(worker, invocation, attempt,
                                          first_start)
        try:
            to_send = None
            pending_exc = None
            while True:
                runtime.active_shard = home
                runtime.active_worker = wid
                try:
                    if pending_exc is not None:
                        try:
                            directive = gen.throw(pending_exc)
                        finally:
                            # also when it comes back out: its traceback
                            # then holds this frame, and a frame local
                            # naming it would close a reference cycle per
                            # aborted attempt
                            pending_exc = None
                    else:
                        directive = gen.send(to_send)
                except StopIteration:
                    break
                finally:
                    runtime.active_shard = None
                net = runtime.take_net(wid)
                if net > 0.0:
                    try:
                        yield Cost(net)
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:
                        pending_exc = exc
                        to_send = None
                        continue
                try:
                    to_send = yield directive
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    pending_exc = exc
                    to_send = None
            # the inner protocol installed the transaction: commit-side
            # cluster bookkeeping plus the 2PC prepare round trip
            extra = runtime.end_txn_commit(wid)
            if extra > 0.0:
                yield Cost(extra)
        finally:
            runtime.active_shard = None
            runtime.abandon_txn(wid)
