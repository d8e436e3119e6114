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

from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as _np  # vectorized max: ~100x a pure-Python merge at 1024 entries


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
    :meth:`of` picks that form when under half the entries are non-zero,
    which at 1k+ processes is nearly every csn vector: pickled element
    by element they were the bulk of a snapshot.
    """

    n: int
    indices: Optional[bytes]
    data: bytes

    @classmethod
    def of(cls, values: "_np.ndarray") -> "PackedInts":
        nonzero = _np.flatnonzero(values)
        if 2 * len(nonzero) < len(values):
            return cls(
                len(values),
                nonzero.astype("<i4").tobytes(),
                values[nonzero].astype("<i8", copy=False).tobytes(),
            )
        return cls(len(values), None, values.astype("<i8", copy=False).tobytes())

    @classmethod
    def of_entries(cls, n: int, entries: Mapping[int, int]) -> "PackedInts":
        """What :meth:`of` gives for the ``n``-vector holding ``entries``
        (index -> value), built from them while under half are set."""
        items = sorted(item for item in entries.items() if item[1])
        if 2 * len(items) >= n:
            return cls.of(_np.array(spread(n, entries), dtype=_np.int64))
        return cls(
            n,
            _np.array([index for index, _ in items], dtype="<i4").tobytes(),
            _np.array([value for _, value in items], dtype="<i8").tobytes(),
        )

    def entries(self) -> Dict[int, int]:
        """The non-zero entries, index -> plain int."""
        data = _np.frombuffer(self.data, dtype="<i8").tolist()
        if self.indices is None:
            return {index: value for index, value in enumerate(data) if value}
        return dict(zip(_np.frombuffer(self.indices, dtype="<i4").tolist(), data))

    def unpack(self) -> "_np.ndarray":
        """A fresh, writable int64 array holding the vector."""
        data = _np.frombuffer(self.data, dtype="<i8")
        if self.indices is None:
            return data.astype(_np.int64)
        values = _np.zeros(self.n, dtype=_np.int64)
        values[_np.frombuffer(self.indices, dtype="<i4")] = data
        return values


class VCDelta:
    """A sparse vector-clock stamp: ``pairs`` of ``(index, value)``.

    :meth:`VectorClock.merge_stamp` tells it from a full stamp by type.
    Snapshot images written while messages carried clocks hold these.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Tuple[Tuple[int, int], ...]) -> None:
        self.pairs = pairs


class VectorClock:
    """A vector clock for one process: a dense int64 array.

    A plain class on purpose: an image written while processes kept a
    clock unpickles into one (its old slot names become attributes)
    before the restore drops it.
    """

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.clock = _np.zeros(n, dtype=_np.int64)

    def tick(self) -> None:
        """Advance the local component (one local event)."""
        self.clock[self.pid] += 1

    def merge(self, other: Sequence[int]) -> None:
        """Componentwise max with a full timestamp."""
        # an explicit int64 view: letting numpy infer a tuple's dtype
        # costs half as much again at 1024 entries
        _np.maximum(self.clock, _np.asarray(other, dtype=_np.int64), out=self.clock)

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
        return tuple(self.clock.tolist())


def happened_before(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether timestamp ``a`` causally precedes ``b`` (a < b)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def concurrent(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether two timestamps are causally unordered."""
    return not happened_before(a, b) and not happened_before(b, a) and tuple(a) != tuple(b)
