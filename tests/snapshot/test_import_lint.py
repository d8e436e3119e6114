"""Dependency audit: every third-party import is a declared dependency.

``pip install .`` on a clean environment installs exactly what
``pyproject.toml`` lists, so a top-level ``import`` of anything else
makes ``import repro`` fail there while passing on a developer machine
that happens to have the package. This lint walks the package AST and
fails on any module-level import that is neither stdlib, nor ``repro``,
nor named in ``[project] dependencies``. Imports inside functions are
the sanctioned way to keep an optional dependency optional and are not
checked. The list is empty, so today this is a stdlib-only lint.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys

import pytest

from tests.snapshot.test_rng_lint import _package_root, _python_files


def _declared_dependencies() -> set:
    pyproject = os.path.join(_package_root(), "..", "..", "pyproject.toml")
    with open(pyproject, "r", encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M).group(1)
    # "numpy>=1.20" -> numpy; distribution names map to import names 1:1 here
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).replace("-", "_").lower()
            for spec in re.findall(r'"([^"]+)"', block)}


def _top_level_imports(path: str):
    """(line, root module) of every import executed at import time —
    module level, including inside top-level ``try``/``if`` blocks."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                yield node.lineno, node.module.split(".")[0]
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
                continue
            for field in ("body", "orelse", "finalbody"):
                pending.extend(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs Python >= 3.10"
)
def test_top_level_imports_are_declared():
    allowed = _declared_dependencies() | set(sys.stdlib_module_names) | {"repro"}
    offenders = {}
    for rel, path in _python_files():
        found = [
            f"line {line}: {module}"
            for line, module in _top_level_imports(path)
            if module.lower() not in allowed
        ]
        if found:
            offenders[rel] = found
    assert not offenders, (
        "third-party imports missing from pyproject.toml [project] "
        f"dependencies (declare them, or import inside the function): {offenders}"
    )


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs Python >= 3.10"
)
def test_cold_start_is_stdlib_only():
    """A fresh ``import repro.cli`` — what every CLI call, campaign worker
    and benchmark child pays — loads nothing but the standard library and
    ``repro``: scipy cost ~0.65 s per interpreter and numpy ~80 ms, even
    when imported from inside a function. What the interpreter loaded
    before (``site`` and its ``.pth`` hooks) is not ``repro``'s doing;
    ``__mp_main__`` is the alias ``multiprocessing`` gives ``__main__``."""
    src = os.path.join(_package_root(), "..")
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli\n"
        "roots = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "allowed = set(sys.stdlib_module_names) | {'repro', '__mp_main__'}\n"
        "print(sorted(roots - allowed))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


#: the runtime's layers: none of them may touch a vector clock
_MESSAGE_PATH = ("sim", "net", "core", "checkpointing", "workload", "scenarios")
_CLOCK_NAMES = {"VectorClock", "VCDelta", "Stamp"}


def test_the_message_path_imports_no_clock():
    """Messages are judged by per-channel counts; a clock imported into
    the runtime is the first step back to stamping every message. (The
    module stays importable: snapshot images name ``PackedInts`` there.)"""
    offenders = {}
    for rel, path in _python_files():
        if rel.split(os.sep)[0] not in _MESSAGE_PATH:
            continue
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found = [
            f"line {node.lineno}: {name}"
            for node in ast.walk(tree)
            for name in (
                [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom)
                else [node.attr] if isinstance(node, ast.Attribute) else []
            )
            if name in _CLOCK_NAMES
        ]
        if found:
            offenders[rel] = found
    assert not offenders, f"vector clocks imported on the message path: {offenders}"
