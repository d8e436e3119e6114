"""Builder census: one place assembles a run.

``repro.campaign.engine.build_point_runtime`` is the only code that
turns parameters into a (MobileSystem, Workload, ExperimentRunner)
triple; every entry point — CLI, report, explorer, kernel bench, the
``benchmarks/bench_*.py`` files — describes its run as a ``RunPoint``
and comes through it. This lint walks the ASTs and fails on a direct
``MobileSystem(...)`` / ``ExperimentRunner(...)`` call anywhere else, so
a new hand-rolled copy of the build cannot creep back in.
"""

from __future__ import annotations

import ast
import glob
import os

from tests.snapshot.test_rng_lint import _package_root, _python_files

CONSTRUCTORS = {"MobileSystem", "ExperimentRunner"}

#: the builder itself
ALLOWED = {os.path.join("campaign", "engine.py")}


def _constructor_calls(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CONSTRUCTORS:
                yield f"line {node.lineno}: {name}(...)"


def _bench_files():
    benchmarks = os.path.join(_package_root(), "..", "..", "benchmarks")
    for path in sorted(glob.glob(os.path.join(benchmarks, "*.py"))):
        yield os.path.join("benchmarks", os.path.basename(path)), path


def test_runs_are_assembled_in_one_place():
    offenders = {}
    for rel, path in list(_python_files()) + list(_bench_files()):
        if rel in ALLOWED:
            continue
        found = list(_constructor_calls(path))
        if found:
            offenders[rel] = found
    assert not offenders, (
        "build the run with repro.campaign.engine.build_point_runtime"
        f"(RunPoint(...)) instead of by hand: {offenders}"
    )
