"""cProfile of the ``Scheduler.run`` span, bucketed by module path
(instrument B).

cProfile charges every Python-level call, not native work, which shifts the
proportions — the shares find where the loop's time goes and the call
counts (which repeat exactly for a seed) size it; neither is a speed.
Speeds come from the untraced repetitions.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

#: every share that is a *leaf* of the partition: these sum to 1
LEAF_BUCKETS = (
    "sim.scheduler", "sim.worker", "sim.stats", "sim.python_other",
    "core.executor", "core.validation", "core.other", "cc", "storage",
    "workloads.txn_logic", "durability", "cluster", "frontend", "obs",
)

#: sub-shares reported inside a leaf (not part of the sum)
SUB_BUCKETS = {
    "storage.access_list": ("storage", "access_list"),
    "cluster.durability": ("cluster", "durability"),
    "cluster.network": ("cluster", "network"),
}

_NAMED_MODULES = {
    ("sim", "scheduler"): "sim.scheduler",
    # the event types the loop dispatches on belong to the loop
    ("sim", "events"): "sim.scheduler",
    ("sim", "worker"): "sim.worker",
    ("sim", "stats"): "sim.stats",
    ("core", "executor"): "core.executor",
    ("core", "validation"): "core.validation",
}

_PACKAGE_BUCKETS = {
    "core": "core.other", "cc": "cc", "storage": "storage",
    "workloads": "workloads.txn_logic", "durability": "durability",
    "cluster": "cluster", "frontend": "frontend", "obs": "obs",
}


def module_of(filename: str) -> Tuple[str, str]:
    """``.../repro/<pkg>/<module>.py`` -> ``(pkg, module)``; anything that
    is not inside a ``repro`` sub-package (builtins, heapq, the standard
    library, repro's top-level helpers such as ``rng.py``) -> ``("", "")``.
    """
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts:
        return ("", "")
    tail = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
    if len(tail) < 2:
        return ("", "")
    module = tail[-1][:-3] if tail[-1].endswith(".py") else tail[-1]
    return (tail[0], module)


def bucket_of(filename: str) -> str:
    """The leaf bucket a profiled function's file belongs to."""
    pkg, module = module_of(filename)
    named = _NAMED_MODULES.get((pkg, module))
    if named is not None:
        return named
    return _PACKAGE_BUCKETS.get(pkg, "sim.python_other")


def bucket_profile(entries: Iterable) -> Dict[str, Dict[str, float]]:
    """Fold ``cProfile.Profile.getstats()`` entries into per-bucket self
    time shares and call counts.

    Returns ``{"self_frac": {bucket: share}, "calls": {bucket: n},
    "total_calls": n, "total_s": seconds}``; the leaf shares sum to 1.
    """
    self_s = {bucket: 0.0 for bucket in LEAF_BUCKETS}
    self_s.update({bucket: 0.0 for bucket in SUB_BUCKETS})
    calls = {bucket: 0 for bucket in self_s}
    total_s = 0.0
    total_calls = 0
    for entry in entries:
        code = entry.code
        filename = code if isinstance(code, str) else code.co_filename
        bucket = bucket_of(filename)
        self_s[bucket] += entry.inlinetime
        calls[bucket] += entry.callcount
        total_s += entry.inlinetime
        total_calls += entry.callcount
        pkg_module = module_of(filename)
        for sub, key in SUB_BUCKETS.items():
            if pkg_module == key:
                self_s[sub] += entry.inlinetime
                calls[sub] += entry.callcount
    shares = {bucket: (value / total_s if total_s > 0 else 0.0)
              for bucket, value in self_s.items()}
    return {"self_frac": shares, "calls": calls,
            "total_calls": total_calls, "total_s": total_s}
