"""Vector clocks (Mattern/Fidge) for the verification layer.

No message carries a clock: the runtime counts messages per channel
(``AppProcess.sent`` / ``received``) and the consistency checkers judge a
line from those counts (:mod:`repro.analysis.consistency`). A clock is
built only where a verifier replays happened-before over a trace —
forensics' :class:`~repro.obs.forensics.EventGraph`.

:class:`PackedInts` also lives here because snapshot images name it by
this module: it is how an int vector is stored in one.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union


def spread(n: int, entries: Mapping[int, int]) -> List[int]:
    """The ``n``-entry list that is zero except at ``entries``."""
    values = [0] * n
    for index, value in entries.items():
        values[index] = value
    return values


class PackedInts(NamedTuple):
    """An int64 vector as bytes: what a snapshot stores for one.

    With ``indices`` ``None``, ``data`` is the whole vector
    (little-endian int64). Otherwise ``data`` holds the non-zero entries
    only and ``indices`` (little-endian int32) says where they go -
    :meth:`of_entries` picks that form when under half the entries are
    non-zero, which at 1k+ processes is nearly every csn vector: pickled
    element by element they were the bulk of a snapshot.
    """

    n: int
    indices: Optional[bytes]
    data: bytes

    @classmethod
    def of_entries(cls, n: int, entries: Mapping[int, int]) -> "PackedInts":
        """The ``n``-vector holding ``entries`` (index -> value)."""
        items = sorted(item for item in entries.items() if item[1])
        if 2 * len(items) >= n:
            return cls(n, None, struct.pack(f"<{n}q", *spread(n, entries)))
        return cls(
            n,
            struct.pack(f"<{len(items)}i", *[index for index, _ in items]),
            struct.pack(f"<{len(items)}q", *[value for _, value in items]),
        )

    def entries(self) -> Dict[int, int]:
        """The non-zero entries, index -> plain int."""
        data = struct.unpack(f"<{len(self.data) // 8}q", self.data)
        if self.indices is None:
            return {index: value for index, value in enumerate(data) if value}
        return dict(zip(struct.unpack(f"<{len(data)}i", self.indices), data))


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
