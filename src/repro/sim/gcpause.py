"""Bulk construction with the cyclic collector paused.

Building a system, pickling an image and unpickling one allocate many
containers and free none, so each collection they trigger walks live
objects and finds nothing (``gc.collect()`` right after returns 0).
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_open = 0  # pauses open in this process, across threads
_restore = False  # whether the first of them found the collector on


@contextmanager
def _paused_collector() -> Iterator[None]:
    """Hold the collector off for the body. The last pause to close puts
    back the state the first one found, also when a body raises."""
    global _open, _restore
    with _lock:
        if not _open:
            _restore = gc.isenabled()
            gc.disable()
        _open += 1
    try:
        yield
    finally:
        with _lock:
            _open -= 1
            if not _open and _restore:
                gc.enable()
