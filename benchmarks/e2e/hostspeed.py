"""Host-speed correction for every time the benchmark reports.

The host this benchmark is sized on (2 virtual cores of a shared machine)
changes speed by up to 1.5x for minutes at a time: a fixed pure-Python
loop takes 1.1 ms when the neighbouring hardware threads are idle and
1.3 to 1.6 ms when they are not, and simulator code slows by the same
factor (the ratio of a 16-host run to the loop stays within 3 % while
both move by 40 %). Raw host times therefore differ more between two
runs of one commit than a regression bound allows.

So each timed section is bracketed by that loop, and its time is scaled
to a host on which the loop takes :data:`REFERENCE_S`::

    seconds = raw_seconds * REFERENCE_S / loop_seconds_now

``raw_seconds`` is ``time.perf_counter`` around the section and is kept
beside the corrected value. The loop lives here, outside the program, so
no change to the program can move it; what the correction cannot see is
a slowdown that hits memory traffic and not arithmetic.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter, thread_time
from typing import Iterator

#: the loop's usual time on the sizing host; corrected times read as
#: seconds on a host in that state
REFERENCE_S = 0.0013


def _spin() -> float:
    started = perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    return perf_counter() - started


def probe() -> float:
    """Seconds the reference loop takes right now (median of three)."""
    return statistics.median((_spin(), _spin(), _spin()))


def corrected(raw_seconds: float, loop_before: float, loop_after: float) -> float:
    """``raw_seconds`` scaled to a host on which the loop takes REFERENCE_S."""
    return raw_seconds * REFERENCE_S * 2.0 / (loop_before + loop_after)


class Timed:
    """One timed section: corrected and raw seconds, thread CPU seconds."""

    seconds = 0.0
    raw = 0.0
    cpu = 0.0


@contextmanager
def timed() -> Iterator[Timed]:
    result = Timed()
    before = probe()
    cpu_started, started = thread_time(), perf_counter()
    try:
        yield result
    finally:
        result.raw = perf_counter() - started
        result.cpu = thread_time() - cpu_started
        result.seconds = corrected(result.raw, before, probe())
