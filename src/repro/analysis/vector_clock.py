"""Vector clocks (Mattern/Fidge) for the verification layer.

No message carries a clock: the runtime counts messages per channel
(``AppProcess.sent`` / ``received``) and the consistency checkers judge a
line from those counts (:mod:`repro.analysis.consistency`). A clock is
built only where a verifier replays happened-before over a trace —
forensics' :class:`~repro.obs.forensics.EventGraph`.

Snapshot images written while int vectors were stored packed name
``PackedInts`` in this module; :mod:`repro.snapshot.state` loads them.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union


class VCDelta:
    """A sparse vector-clock stamp: ``pairs`` of ``(index, value)``.

    :meth:`VectorClock.merge_stamp` tells it from a full stamp by type.
    Snapshot images written while messages carried clocks hold these.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Tuple[Tuple[int, int], ...]) -> None:
        self.pairs = pairs


class VectorClock:
    """A vector clock for one process: a dense list of ints.

    A plain class on purpose: an image written while processes kept a
    clock unpickles into one (its old slot names become attributes)
    before the restore drops it.
    """

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.clock = [0] * n

    def tick(self) -> None:
        """Advance the local component (one local event)."""
        self.clock[self.pid] += 1

    def merge(self, other: Sequence[int]) -> None:
        """Componentwise max with a full timestamp."""
        self.clock = [a if a > b else b for a, b in zip(self.clock, other)]

    def merge_delta(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Componentwise max with a sparse ``(index, value)`` stamp."""
        clock = self.clock
        for i, value in pairs:
            if value > clock[i]:
                clock[i] = value

    def merge_stamp(self, stamp: Union[Sequence[int], VCDelta]) -> None:
        """Merge either stamp form."""
        if type(stamp) is VCDelta:
            self.merge_delta(stamp.pairs)
        else:
            self.merge(stamp)

    def stamp_for(self, dst: int) -> Tuple[int, ...]:
        """The stamp for a message bound for ``dst``: the whole clock."""
        return self.snapshot()

    def snapshot(self) -> Tuple[int, ...]:
        """An immutable plain-int tuple copy of the current clock."""
        return tuple(self.clock)


def happened_before(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether timestamp ``a`` causally precedes ``b`` (a < b)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def concurrent(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether two timestamps are causally unordered."""
    return not happened_before(a, b) and not happened_before(b, a) and tuple(a) != tuple(b)
