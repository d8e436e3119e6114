"""Surface census: every public name in ``src/repro`` has a non-test caller.

The public surface is what a production entry point reaches — the CLI,
the examples, the benchmarks. A public module-level
``def``/``class`` that only tests reference is code the tests keep alive
for their own sake, and it is how a second result store, a message dict
export and a ``Timer`` class each outlived their last caller. This lint
walks the ASTs and fails on any such name, so the next one is either
given a caller, made private, deleted — or argued for in ``ALLOWED``.

A reference is an identifier use (``Name``, ``Attribute`` or a
from-import alias) in another line of ``src/repro``, in ``benchmarks/``
or in ``examples/``. A package ``__init__`` re-export is not a caller,
and neither is a word in a CI file.
"""

from __future__ import annotations

import ast
import glob
import os

from tests.snapshot.test_rng_lint import _package_root, _python_files

#: name -> why it stays without a non-test caller (at most 2; a third
#: means something should be deleted instead)
ALLOWED = {
    "RandomWalkMobility": "paper content: the §2.1 mobility model behind handoff",
    "required_samples": "paper content: the §5.2 sample-size rule for the 10 % CI bar",
}

MAX_ALLOWED = 2


def _repo_root() -> str:
    return os.path.normpath(os.path.join(_package_root(), "..", ".."))


def _parse(path: str) -> ast.Module:
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _public_definitions():
    """(name, "rel/path.py:line") of every public module-level def/class."""
    for rel, path in _python_files():
        if os.path.basename(rel) == "__init__.py":
            continue
        for node in _parse(path).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                yield node.name, f"{rel}:{node.lineno}"


def _identifiers(path: str, count_import_aliases: bool = True):
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif count_import_aliases and isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name


def _non_test_references() -> set:
    root = _repo_root()
    seen = set()
    for rel, path in _python_files():
        reexport = os.path.basename(rel) == "__init__.py"
        seen.update(_identifiers(path, count_import_aliases=not reexport))
    for folder in ("benchmarks", "examples"):
        pattern = os.path.join(root, folder, "**", "*.py")
        for path in glob.glob(pattern, recursive=True):
            seen.update(_identifiers(path))
    return seen


def test_every_public_name_has_a_non_test_caller():
    referenced = _non_test_references()
    orphans = {
        name: where
        for name, where in _public_definitions()
        if name not in referenced and name not in ALLOWED
    }
    assert not orphans, (
        "public names only tests reference (give them a caller, make them "
        f"private, or delete them with their tests): {orphans}"
    )


def test_allowlist_is_small_and_live():
    assert len(ALLOWED) <= MAX_ALLOWED
    assert all(reason.strip() for reason in ALLOWED.values())
    defined = {name for name, _ in _public_definitions()}
    stale = sorted(set(ALLOWED) - defined)
    assert not stale, f"ALLOWED names no longer defined in src/repro: {stale}"
    needless = sorted(set(ALLOWED) & _non_test_references())
    assert not needless, f"ALLOWED names that now have a caller: {needless}"


# -- vocabulary census ---------------------------------------------------

#: files besides ``analysis/trace_index.py`` that may compare a record
#: kind against "comp_recv", each with its reason (at most two)
KIND_READERS = {
    os.path.join("analysis", "timeline.py"): "renderer: draws one glyph "
    "per record kind; it pairs nothing",
}

MAX_KIND_READERS = 2


def _kind_comparisons(path: str, kind: str):
    """Lines comparing something against ``kind`` (``==``, ``in (...)``)."""
    for node in ast.walk(_parse(path)):
        if not isinstance(node, ast.Compare):
            continue
        for operand in [node.left, *node.comparators]:
            members = (
                operand.elts
                if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                else [operand]
            )
            if any(
                isinstance(m, ast.Constant) and m.value == kind for m in members
            ):
                yield node.lineno


def test_the_trace_vocabulary_is_read_in_one_place():
    """Which receive belongs to which send is decided by TraceIndex only:
    a second ``kind == "comp_recv"`` is a second private trace walk."""
    index = os.path.join("analysis", "trace_index.py")
    readers = {
        rel: lines
        for rel, path in _python_files()
        if (lines := list(_kind_comparisons(path, "comp_recv")))
    }
    assert index in readers
    offenders = {
        rel: lines
        for rel, lines in readers.items()
        if rel != index and rel not in KIND_READERS
    }
    assert not offenders, (
        "take message pairs from repro.analysis.trace_index.TraceIndex "
        f"instead of reading comp_recv records: {offenders}"
    )
    assert len(KIND_READERS) <= MAX_KIND_READERS
    assert all(reason.strip() for reason in KIND_READERS.values())
    stale = sorted(set(KIND_READERS) - set(readers))
    assert not stale, f"KIND_READERS entries that no longer read it: {stale}"
