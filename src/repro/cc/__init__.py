"""Baseline concurrency-control algorithms (§7.1's comparison set).

* :class:`~repro.cc.occ.SiloOCC` — raw Silo/OCC fast path (no access-list
  bookkeeping, no policy overhead).
* :class:`~repro.cc.two_pl.TwoPL` — native 2PL with optimised WAIT-DIE.
* :func:`~repro.cc.seeds.occ_policy` / :func:`~repro.cc.seeds.two_pl_star_policy`
  / :func:`~repro.cc.ic3.ic3_policy` — the Table 1 encodings of existing
  algorithms inside Polyjuice's action space (also the EA's warm start).
* :class:`~repro.cc.ic3.IC3` — IC3/Callas-RP as a fixed-policy executor.
* :class:`~repro.cc.tebaldi.Tebaldi` — transaction-group federation.
* :class:`~repro.cc.cormcc.CormCC` — data-partition federation with
  probe-and-pick between OCC and 2PL.
* :func:`~repro.cc.registry.make_cc` — name → instance factory.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "CormCC": ".cormcc",
    "IC3": ".ic3",
    "SiloOCC": ".occ",
    "Tebaldi": ".tebaldi",
    "TwoPL": ".two_pl",
    "available_cc_names": ".registry",
    "ic3_policy": ".ic3",
    "ic3_wait_table": ".ic3",
    "make_cc": ".registry",
    "occ_policy": ".seeds",
    "seed_policies": ".seeds",
    "tebaldi_policy": ".tebaldi",
    "two_pl_star_policy": ".seeds",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
