"""The public API surface: everything README documents must import."""

import importlib

import pytest


def test_top_level_exports():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_workloads_exports():
    from repro import workloads
    for name in workloads.__all__:
        assert hasattr(workloads, name), name


@pytest.mark.parametrize("module", [
    "repro", "repro.config", "repro.errors", "repro.rng", "repro.cli",
    "repro.storage", "repro.sim", "repro.core", "repro.cc",
    "repro.workloads", "repro.workloads.tpcc", "repro.workloads.tpce",
    "repro.workloads.micro", "repro.training", "repro.trace",
    "repro.analysis", "repro.bench", "repro.obs", "repro.obs.tracing",
    "repro.obs.metrics", "repro.obs.profile",
])
def test_module_imports_cleanly(module):
    importlib.import_module(module)


def test_readme_quickstart_snippet_runs():
    from repro import SimConfig, run_named
    from repro.workloads.tpcc import make_tpcc_factory
    config = SimConfig(n_workers=2, duration=800)
    factory = make_tpcc_factory(n_warehouses=1)
    result = run_named(factory, "silo", config)
    assert result.throughput > 0


def test_version():
    import repro
    assert repro.__version__ == "1.0.0"


def test_every_public_module_has_docstring():
    import repro
    modules = [
        "repro", "repro.core.executor", "repro.core.policy",
        "repro.core.spec", "repro.core.backoff", "repro.core.validation",
        "repro.cc.occ", "repro.cc.two_pl", "repro.cc.ic3",
        "repro.cc.tebaldi", "repro.cc.cormcc", "repro.training.ea",
        "repro.training.rl", "repro.trace.generator",
        "repro.trace.analysis", "repro.analysis.serializability",
        "repro.sim.scheduler", "repro.sim.worker", "repro.storage.table",
        "repro.obs", "repro.obs.tracing", "repro.obs.metrics",
        "repro.obs.profile",
    ]
    for name in modules:
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__) > 40, name


def _package_roots():
    import pkgutil
    import repro
    return ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg)


@pytest.mark.parametrize("package", _package_roots())
def test_every_exported_name_resolves(package):
    """Package roots resolve their names lazily (``repro._lazy``): every
    name in ``__all__`` must still resolve, show in ``dir()`` and bind
    under ``import *``; an unknown name is an AttributeError."""
    module = importlib.import_module(package)
    names = getattr(module, "__all__", [])
    listed = dir(module)
    for name in names:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(names) <= set(namespace)
    assert not hasattr(module, "no_such_name")


def test_the_cluster_aliases_still_resolve():
    from repro.cluster import ShardedFrontend
    from repro.cluster.workloads import (ClusterTPCE,
                                         make_cluster_tpce_factory)
    from repro.frontend import Frontend
    from repro.workloads.tpce import TPCEWorkload
    assert issubclass(ShardedFrontend, Frontend)
    assert issubclass(ClusterTPCE, TPCEWorkload)
    assert isinstance(make_cluster_tpce_factory(2, 2)(), ClusterTPCE)
