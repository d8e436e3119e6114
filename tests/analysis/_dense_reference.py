"""Reference implementations the production code is checked against.

``DenseVectorClock`` and :func:`snapshot_consistent` are the
vector-clock witness the channel-count test
(:func:`repro.analysis.consistency.check_channel_counts`) replaced on
the message path; the equivalence matrix
(``tests/integration/test_scale_equivalence.py``) requires the two to
agree on every line it draws.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple


class DenseVectorClock:
    """A Mattern/Fidge vector clock on a dense list of ints: the clock the
    channel-count witness is checked against. ``tests/integration/
    test_scale_equivalence.py`` replays one per process over a run's
    DEBUG trace and judges lines with :func:`snapshot_consistent`.
    """

    __slots__ = ("pid", "clock")

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.clock = [0] * n

    def tick(self) -> None:
        """Advance the local component (one local event)."""
        self.clock[self.pid] += 1

    def merge(self, other: Sequence[int]) -> None:
        """Componentwise max with a full timestamp."""
        self.clock = [a if a > b else b for a, b in zip(self.clock, other)]

    def snapshot(self) -> Tuple[int, ...]:
        """An immutable plain-int tuple copy of the current clock."""
        return tuple(self.clock)


def snapshot_consistent(snapshots: Iterable[Tuple[int, Sequence[int]]]) -> bool:
    """The vector-clock test for a global checkpoint.

    ``snapshots`` is an iterable of ``(pid, vector_clock)`` pairs, one per
    process. True iff no pair exhibits an orphan: for every i, j,
    ``vc_j[i] <= vc_i[i]``.
    """
    items = list(snapshots)
    own = {pid: vc[pid] for pid, vc in items}
    for pid_j, vc_j in items:
        for pid_i, own_i in own.items():
            if pid_i != pid_j and vc_j[pid_i] > own_i:
                return False
    return True
