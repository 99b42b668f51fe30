"""No module outside ``repro.sim`` writes the scheduler's private state.

Every other layer aborts, wakes or respawns workers through the
scheduler's public verbs (``interrupt``, ``abort_parked``, ``notify``,
``crash_workers`` ...).  This guard parses ``src/repro`` and fails on any
module outside ``repro/sim/`` that assigns to (or deletes) a private
attribute of a scheduler, calls a private scheduler method, or calls a
method on a private attribute.  Reading ``_workers`` stays allowed.

A scheduler is recognised by name: a variable called ``scheduler`` /
``sched``, or an attribute ``.scheduler`` (``self.scheduler``,
``worker.scheduler``).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: private attributes other layers may read (and call read-only methods on)
READABLE = {"_workers"}


def _is_scheduler(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("scheduler", "sched")
    return isinstance(node, ast.Attribute) and node.attr == "scheduler"


def _private_attr(node: ast.AST):
    """The ``scheduler._x`` node at the root of ``node``'s attribute /
    subscript chain, or ``None``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and _is_scheduler(node.value):
            return node
        node = node.value
    return None


def _targets(node: ast.AST):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if isinstance(node, ast.Delete):
        return node.targets
    return []


def violations(path: Path):
    found = []
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        for target in _targets(node):
            for leaf in ast.walk(target):
                private = _private_attr(leaf)
                if private is not None:
                    found.append((node.lineno, f"writes {private.attr}"))
                    break
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            continue
        func = node.func
        if func.attr.startswith("_") and _is_scheduler(func.value):
            found.append((node.lineno, f"calls {func.attr}"))
            continue
        private = _private_attr(func.value)
        if private is not None and private.attr not in READABLE:
            found.append((node.lineno,
                          f"calls {private.attr}...{func.attr}"))
    return found


def test_no_private_scheduler_writes_outside_sim():
    sim = SRC / "sim"
    offences = [f"{path.relative_to(SRC)}:{line}: {what}"
                for path in sorted(SRC.rglob("*.py"))
                if sim not in path.parents
                for line, what in violations(path)]
    assert offences == []


def test_guard_sees_each_kind_of_write(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "scheduler._pending_exc[w] = exc\n"
        "self.scheduler._dirty = set()\n"
        "del sched._parked[w]\n"
        "scheduler._schedule_worker(w, 0.0)\n"
        "scheduler._parked.pop(w)\n"
        "n = len(scheduler._workers)\n"
        "w = scheduler._workers[0]\n"
        "scheduler.interrupt(w, exc, 'fault')\n")
    assert [line for line, _ in violations(probe)] == [1, 2, 3, 4, 5]
