"""Lazy re-exports for package roots (PEP 562).

A package root that re-exports names from its submodules would, with an
import block, load every submodule whenever any one of them is imported
(``import repro.cc.registry`` first runs ``repro/cc/__init__.py``).  With
a table instead, each name's submodule is imported the first time the
name is read — ``repro.cc.TwoPL``, ``from repro.cc import TwoPL`` or
``from repro.cc import *`` — and the value is then bound on the package
like an ordinary attribute, so later reads never come back here.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(module: str, table: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``module``, resolving each name of
    ``table`` from its submodule (``".ic3"``, relative to the module's
    package) on first access."""

    def __getattr__(name: str) -> object:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}") from None
        owner = sys.modules[module]
        value = getattr(importlib.import_module(submodule,
                                                owner.__package__), name)
        setattr(owner, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[module])) | set(table))

    return __getattr__, __dir__
