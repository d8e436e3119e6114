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
import importlib
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


#: modules a one-protocol run never calls into: a fresh ``run`` of the
#: mutable protocol must not compile them
_NOT_ON_A_MUTABLE_RUN = (
    "repro.sim.shard",
    "repro.obs.forensics",
    "repro.obs.profiler",
    "repro.explore.fuzz",
    "repro.explore.shrink",
    "repro.explore.injections",
    "repro.analysis.comparison",
    "repro.snapshot.timetravel",
) + tuple(
    f"repro.checkpointing.{name}"
    for name in ("chandy_lamport", "elnozahy", "koo_toueg", "simple_schemes",
                 "timer_based", "uncoordinated", "recovery", "failures",
                 "message_log")
)


def test_a_fresh_mutable_run_loads_only_what_it_runs():
    """Package exports and the protocol registry resolve on first use, so
    a sequential 16-process mutable point run after ``import repro.cli``
    leaves the shard kernel, the explorer, forensics, the profiler, the
    cost tables, time travel and the other eight protocols unloaded."""
    src = os.path.join(_package_root(), "..")
    probe = (
        "import sys\n"
        "import repro.cli\n"
        "from repro.campaign import RunPoint, build_point_runtime\n"
        "_, _, runner = build_point_runtime(RunPoint(\n"
        "    protocol='mutable', workload_params={'mean_send_interval': 20.0},\n"
        "    system_params={'n_processes': 16},\n"
        "    run_params={'max_initiations': 2}, seed=11))\n"
        "runner.run()\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    loaded = set(out.stdout.split())
    assert "repro.checkpointing.mutable" in loaded
    assert sorted(loaded & set(_NOT_ON_A_MUTABLE_RUN)) == []


def _packages():
    root = _package_root()
    for dirpath, _, names in os.walk(root):
        if "__init__.py" in names:
            rel = os.path.relpath(dirpath, os.path.dirname(root))
            yield rel.replace(os.sep, ".")


@pytest.mark.parametrize("package", sorted(_packages()))
def test_every_export_resolves_inside_its_package(package):
    """A package's exports load on first use from a table of name ->
    submodule; an entry left behind by a move or a rename fails here."""
    module = importlib.import_module(package)
    names = getattr(module, "__all__", [])
    namespace: dict = {}
    exec(f"from {package} import *", namespace)  # noqa: S102 - the star import under test
    assert sorted(set(names) - set(namespace)) == []
    prefix = package + "."
    for name in names:
        value = getattr(module, name)
        if name.startswith("__"):
            continue  # the package's own, e.g. ``__version__``
        home = getattr(value, "__module__", None)
        if home is not None:
            assert home == package or home.startswith(prefix), (name, home)
        else:  # a constant: some submodule of the package defines it
            holders = [
                loaded for loaded, mod in list(sys.modules.items())
                if loaded.startswith(prefix)
                and getattr(mod, name, None) is value
            ]
            assert holders, name


#: the runtime's layers, and the names none of them may touch: a vector
#: clock, or a trace index (they read channel counts, not the trace)
_MESSAGE_PATH = ("sim", "net", "core", "checkpointing", "workload", "scenarios")
_FORBIDDEN = {
    "clock": {"VectorClock", "VCDelta", "Stamp"},
    "trace-index": {"TraceIndex"},
}


@pytest.mark.parametrize("what", sorted(_FORBIDDEN))
def test_the_message_path_imports_no(what):
    """Messages are judged by per-channel counts; a clock imported into
    the runtime is the first step back to stamping every message, and an
    index built there is the first step back to a runtime answer that is
    silently wrong when message tracing is off. (The clock module stays
    importable: snapshot images name ``PackedInts`` there.)"""
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
            if name in _FORBIDDEN[what]
        ]
        if found:
            offenders[rel] = found
    assert not offenders, f"{what} names used on the message path: {offenders}"


def test_only_the_jsonl_sink_subscribes_to_the_trace():
    """The trace is output, not input. The runtime follows waves through
    ``CheckpointProtocol.observers``, which fire at every trace level and
    pickle with the system; a trace subscriber hears nothing at
    ``TraceLevel.OFF`` and is dropped at pickling. So the one
    ``.subscribe`` in the package is the output sink's, in
    ``sim/export.py``."""
    offenders = {}
    for rel, path in _python_files():
        if rel == os.path.join("sim", "export.py"):
            continue
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "subscribe"
        ]
        if found:
            offenders[rel] = found
    assert not offenders, f".subscribe used outside sim/export.py: {offenders}"


#: the calls that change what the process-wide cyclic collector does
_COLLECTOR_SWITCHES = {"disable", "enable", "freeze", "unfreeze", "set_threshold"}


def test_only_the_pause_helper_switches_the_collector():
    """The collector is process-wide: a switch left off, or a frozen
    ``MobileSystem`` (cyclic, so never freed), outlives the call that made
    it. ``sim/gcpause.py``'s context manager is the one place that turns
    it off, and it puts back what it found; every other module pauses
    through it."""
    offenders = {}
    for rel, path in _python_files():
        if rel == os.path.join("sim", "gcpause.py"):
            continue
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found = [
            f"line {node.lineno}: {name}"
            for node in ast.walk(tree)
            for name in (
                [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom) and node.module == "gc"
                else [node.attr]
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "gc"
                else []
            )
            if name in _COLLECTOR_SWITCHES
        ]
        if found:
            offenders[rel] = found
    assert not offenders, f"gc switched outside sim/gcpause.py: {offenders}"


def test_one_body_restores_a_process():
    """A rollback restores a process in one place,
    ``DistributedRecovery._restore`` in ``checkpointing/recovery.py``,
    which both the message protocol and the instant rollback run. A
    second ``.restore_state(`` caller would be a second rollback body,
    free to skip the incarnation, the store wipe or the deferred drop."""
    recovery = os.path.join("checkpointing", "recovery.py")
    calls, bodies = [], []
    for rel, path in _python_files():
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "restore_state"
            ):
                calls.append((rel, node.lineno))
            elif rel == recovery and getattr(node, "name", None) == "_restore":
                bodies.append(range(node.lineno, node.end_lineno + 1))
    inside = [(rel, any(line in body for body in bodies)) for rel, line in calls]
    assert inside == [(recovery, True)], (
        f".restore_state( called outside the one restore: {calls}"
    )
