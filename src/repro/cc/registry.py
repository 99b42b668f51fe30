"""Name → concurrency-control factory registry for the bench harness."""

from __future__ import annotations

import sys
from typing import Callable, Dict, Optional, Sequence

from ..errors import ConfigError
from ..core.backoff import BackoffPolicy
from ..core.executor import PolicyExecutor
from ..core.policy import CCPolicy


def _baseline(name: str):
    # through the package's lazy table: a baseline's module is imported
    # the first time a run asks for that baseline
    return getattr(sys.modules[__package__], name)


_FACTORIES: Dict[str, Callable[..., object]] = {
    "silo": lambda **kw: _baseline("SiloOCC")(),
    "occ": lambda **kw: _baseline("SiloOCC")(),
    "2pl": lambda **kw: _baseline("TwoPL")(
        assume_ordered=kw.get("assume_ordered", True)),
    "ic3": lambda **kw: _baseline("IC3")(),
    "tebaldi": lambda **kw: _baseline("Tebaldi")(groups=kw.get("groups")),
    "cormcc": lambda **kw: _baseline("CormCC")(),
}


def available_cc_names() -> list:
    return sorted(set(_FACTORIES) | {"polyjuice"})


def make_cc(name: str, policy: Optional[CCPolicy] = None,
            backoff_policy: Optional[BackoffPolicy] = None,
            groups: Optional[Sequence[Sequence[str]]] = None,
            **kwargs):
    """Instantiate a CC protocol by name.

    ``polyjuice`` takes a trained :class:`CCPolicy` (and optionally a
    :class:`BackoffPolicy`); the baselines ignore those arguments.
    """
    if name == "polyjuice":
        return PolicyExecutor(policy=policy, backoff_policy=backoff_policy,
                              name="polyjuice")
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown CC {name!r}; available: {available_cc_names()}")
    return factory(groups=groups, **kwargs)
