"""Package exports that load on first use (PEP 562).

A package hands :func:`lazy_exports` one table of public name ->
submodule. Nothing is imported until a name is read, so a process
compiles only the submodules it touches.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``. The
    first read of a name imports ``package.<table[name]>`` and binds the
    name in the package, so later reads are plain lookups."""

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return list(table), __getattr__, __dir__
