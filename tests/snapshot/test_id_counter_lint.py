"""Id counters belong to a run, not to the interpreter.

A ``count()`` at module or class level is one id space shared by every
run in the process: two systems built in one interpreter interfere, a
snapshot has to ship the counter beside the pickled graph, and a state
hash of a scenario depends on whatever ran before it. Checkpoint ids,
message ids and the scenario harness's flight ids were such counters
until each run got its own (``MobileSystem.checkpoint_ids`` /
``message_ids``, ``ScenarioHarness.checkpoint_ids`` / ``message_ids``).
This lint keeps the next one from growing back; a counter created in a
function (a constructor) is fine.
"""

from __future__ import annotations

import ast
import os

from tests.snapshot.test_rng_lint import _python_files

#: the fallback id of a message built by hand outside any system or
#: harness (both pass ``msg_id``): only tests build such messages
ALLOWED = {os.path.join("net", "message.py"): 1}


def _shared_counters(tree: ast.AST):
    """Lines of ``count()`` / ``itertools.count()`` calls outside any
    function: run once per process, at import or class creation."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "count" and (
                    isinstance(func, ast.Name)
                    or getattr(func.value, "id", None) == "itertools"
                ):
                    found.append(child.lineno)
            visit(child)

    visit(tree)
    return found


def test_no_process_wide_id_counters():
    offenders = {}
    for rel, path in _python_files():
        with open(path, "r", encoding="utf-8") as fh:
            lines = _shared_counters(ast.parse(fh.read(), filename=path))
        if len(lines) > ALLOWED.get(rel, 0):
            offenders[rel] = lines
    assert not offenders, (
        "module- or class-level itertools.count(): give the run that "
        f"issues the ids a counter of its own instead: {offenders}"
    )


def test_the_lint_sees_both_spellings():
    source = (
        "import itertools\nfrom itertools import count\n"
        "_a = count()\nclass C:\n    _b = itertools.count(5)\n"
        "    def __init__(self):\n        self.c = count()\n"
        "def f():\n    return count()\n"
    )
    assert _shared_counters(ast.parse(source)) == [3, 5]
