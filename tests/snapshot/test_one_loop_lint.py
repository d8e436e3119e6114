"""One-loop audit: one event heap, popped in one place.

PR 15 folded four dispatch loops into ``Simulator._dispatch``; the
windowed sharded kernel kept a fifth (its own ``_dispatch`` over
per-shard heaps) until it was deleted. This lint keeps a second loop
from growing back: ``heapq`` is the kernel module's private business,
``heappop`` is referenced by the loop alone, and the one subclass the
tree has left drives nothing itself.
"""

from __future__ import annotations

import ast
import os

from tests.snapshot.test_rng_lint import _python_files

KERNEL = os.path.join("sim", "kernel.py")


def _tree(path: str) -> ast.AST:
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _imports_heapq(tree: ast.AST) -> bool:
    for node in ast.walk(tree):  # any level: a function-local import counts
        if isinstance(node, ast.Import):
            if any(alias.name == "heapq" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
            return True
    return False


def test_only_the_kernel_imports_heapq():
    importers = sorted(
        rel for rel, path in _python_files() if _imports_heapq(_tree(path))
    )
    assert importers == [KERNEL], (
        "an event heap outside repro/sim/kernel.py is a second event "
        f"loop in the making: {importers}"
    )


def test_only_the_dispatch_loop_pops_the_heap():
    (kernel_path,) = [path for rel, path in _python_files() if rel == KERNEL]
    poppers = set()
    for node in ast.walk(_tree(kernel_path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                name = getattr(inner, "id", None) or getattr(inner, "attr", None)
                if name in ("heappop", "_heappop"):
                    poppers.add(node.name)
    assert poppers == {"_dispatch"}


def test_sharded_simulator_inherits_the_loop():
    from repro.sim.kernel import Simulator
    from repro.sim.shard import ShardedSimulator

    own = vars(ShardedSimulator)
    for name in ("_dispatch", "step", "run", "run_until_idle", "pending_events"):
        assert name not in own, f"ShardedSimulator.{name} shadows the one loop"
    # the two names benchmarks/e2e/spans.py patches by class __dict__ are
    # the inherited functions, not copies
    assert own["schedule_at"] is vars(Simulator)["schedule_at"]
    assert own["flush_metrics"] is vars(Simulator)["flush_metrics"]
