"""Vector clocks (Mattern/Fidge) used by the verification layer.

The runtime stamps every computation message with the sender's vector
clock and merges on delivery. Checkpoints snapshot the clock, giving the
consistency checker a protocol-independent way to decide whether a set
of checkpoints could contain an orphan message: a global checkpoint
``{ckpt_i}`` is consistent iff for all i, j:
``ckpt_j.vc[i] <= ckpt_i.vc[i]`` — no checkpoint has observed more of
process i than process i's own checkpoint records.

Delta stamps (Singhal-Kshemkalyani)
-----------------------------------
A full N-entry stamp per message is the dominant per-message cost at
large populations (profiled: ``merge`` alone was >50% of a 1024-process
run). A clock therefore tracks, per entry, when it last changed and, per
destination, when it last sent; a send carries only the entries changed
since the previous send on that channel, as a :class:`VCDelta`. The
technique is sound on FIFO channels: every entry omitted from a delta
either was carried by an earlier message on the same channel, or has
never changed from its initial zero — and a componentwise-max merge of
an already-known (or zero) entry is a no-op. Receivers accept either
stamp form via :meth:`VectorClock.merge_stamp`; the resulting clocks are
equal, entry for entry, to stamping every message in full (the
full-stamp reference clock lives in ``tests/analysis/_dense_reference.py``).

Three refinements keep the per-send cost proportional to the *delta*
rather than to N (uniform traffic at 1k+ processes rarely reuses a
channel, so the textbook scheme degenerates into full stamps with extra
bookkeeping — measured slower than stamping every message in full):

* the changed-entry map is kept in change order (dict insertion order,
  move-to-end on change), so building a delta walks only the suffix
  newer than the channel's last send and stops;
* a delta larger than ``n // 8`` entries falls back to a full stamp —
  one int64 array copy to build and one ``np.maximum`` to merge, both
  cheaper than a long pair list;
* merging a full stamp records a single ``_full_at`` watermark instead
  of per-entry stamps (a safe overapproximation: channels last served
  before the watermark get a full stamp next time) and clears the
  changed map, so dense phases run entirely on C-level full-stamp
  operations.

:meth:`VectorClock.restore` (rollback) clears the per-channel
bookkeeping, so every post-rollback channel starts with a full stamp and
no receiver can depend on a delta whose base was dropped by the
incarnation ghost-check.

Sparse until dense
------------------
A clock starts with no array, only the entries it has written; ``tick``,
the pair loops, ``snapshot`` and pickling work on those. The first
whole-vector operation (a full-stamp ``merge``, a full stamp to send,
``restore``, an outside read of ``.clock``) builds the int64 array, once.
n clocks of n zeros each were most of a large build's memory
(docs/SCALING.md, "Zero clocks are resident").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as _np  # vectorized max: ~100x a pure-Python merge at 1024 entries

#: shared all-zero snapshots by population size — at build time every
#: process checkpoints an all-zero clock, and N distinct N-tuples of
#: zeros is O(N^2) memory for nothing.
_ZERO_SNAPSHOTS: Dict[int, Tuple[int, ...]] = {}


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
    which at 1k+ processes is nearly every clock and csn vector: pickled
    element by element they were the bulk of a snapshot.
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
    """A sparse vector-clock stamp: only the entries that changed.

    ``pairs`` is a tuple of ``(index, value)`` pairs. Produced by
    :meth:`VectorClock.stamp_for`; consumed by
    :meth:`VectorClock.merge_stamp`. Kept as a distinct type (rather
    than a bare tuple-of-pairs) so receivers can distinguish it from a
    full stamp unambiguously.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Tuple[Tuple[int, int], ...]) -> None:
        self.pairs = pairs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VCDelta) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __reduce__(self):
        return (VCDelta, (self.pairs,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VCDelta {dict(self.pairs)}>"


#: what a message may carry as its vector-clock stamp
Stamp = Union[Tuple[int, ...], VCDelta]


class VectorClock:
    """A mutable vector clock for one process, with the
    Singhal-Kshemkalyani bookkeeping :meth:`stamp_for` needs to emit
    :class:`VCDelta` stamps."""

    __slots__ = (
        "pid", "_n", "_array", "_cells", "_ticks", "_changed", "_ls",
        "_full_at", "_cap",
    )

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self._n = n
        #: the int64 ndarray the whole-vector operations work on; ``None``
        #: until the first of them (:meth:`_materialise`)
        self._array: Optional["_np.ndarray"] = None
        #: what one-entry reads and writes go through. While sparse, the
        #: entries written so far (a miss reads 0 at C level; the 0 it
        #: leaves behind is dropped on the way out). Once dense, a
        #: memoryview of the array: it hands out plain ints where
        #: indexing the array boxes a numpy scalar first
        self._cells = defaultdict(int)
        #: monotone op counter; stamps in _changed/_ls refer to it
        self._ticks = 0
        #: entry -> op stamp of its last change, in change order (the
        #: dict is move-to-end on every change)
        self._changed: Dict[int, int] = {}
        #: destination -> op stamp of the last send to it
        self._ls: Dict[int, int] = {}
        #: op stamp of the last full-stamp merge/restore — a collective
        #: change stamp covering *every* entry (safe overapproximation)
        self._full_at = 0
        #: deltas longer than this ride as full stamps instead
        self._cap = max(8, n // 8)

    def _attach(self, clock: "_np.ndarray") -> None:
        self._n = len(clock)
        self._array = clock
        self._cells = memoryview(clock)

    def _materialise(self) -> "_np.ndarray":
        """Go dense: the entries into a fresh array, once, for good."""
        entries = self._cells
        self._attach(_np.zeros(self._n, dtype=_np.int64))
        cells = self._cells
        for i, value in entries.items():
            cells[i] = value
        return self._array

    @property
    def clock(self) -> "_np.ndarray":
        """The clock as its int64 array (materialises a sparse clock);
        observation that should not is :meth:`snapshot`."""
        clock = self._array
        return self._materialise() if clock is None else clock

    def __getstate__(self):
        clock = self._array
        return None, {
            "pid": self.pid,
            "clock": PackedInts.of_entries(self._n, self._cells)
            if clock is None else PackedInts.of(clock),
            "_ticks": self._ticks,
            "_changed": self._changed, "_ls": self._ls,
            "_full_at": self._full_at, "_cap": self._cap,
        }

    def __setstate__(self, state) -> None:
        # ``(None, {slot: value})`` is also what pickle writes for a
        # ``__slots__`` class by default, so a format-1 snapshot (whose
        # ``clock`` is the array itself) restores through here too.
        slots = dict(state[1])
        clock = slots.pop("clock")
        # an image of a clock that stamped every message in full says so
        full_stamped = slots.pop("_delta", True) is False
        for name, value in slots.items():
            setattr(self, name, value)
        if isinstance(clock, PackedInts) and clock.indices is not None:
            # under half full when written: sparse again
            self._n, self._array = clock.n, None
            self._cells = defaultdict(int, clock.entries())
        else:
            self._attach(clock.unpack() if isinstance(clock, PackedInts) else clock)
        if full_stamped:  # its receivers hold no delta base
            self.restore(self.snapshot())

    def tick(self) -> None:
        """Advance the local component (one local event)."""
        self._cells[self.pid] += 1
        self._ticks += 1
        changed = self._changed
        changed.pop(self.pid, None)
        changed[self.pid] = self._ticks

    def merge(self, other: Sequence[int]) -> None:
        """Componentwise max with a received full timestamp."""
        clock = self._array
        if clock is None:
            clock = self._materialise()
        if type(other) is not _np.ndarray:
            other = _np.asarray(other, dtype=_np.int64)
        _np.maximum(clock, other, out=clock)
        # One watermark instead of per-entry stamps: channels whose last
        # send predates it get a full stamp next time.
        self._ticks += 1
        self._full_at = self._ticks
        self._changed.clear()

    def merge_delta(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Componentwise max with a sparse (index, value) stamp."""
        cells = self._cells
        self._ticks += 1
        ticks = self._ticks
        changed = self._changed
        for i, value in pairs:
            if value > cells[i]:
                cells[i] = value
                changed.pop(i, None)
                changed[i] = ticks

    def merge_stamp(self, stamp: Stamp) -> None:
        """Merge either stamp form a message may carry."""
        if type(stamp) is VCDelta:
            self.merge_delta(stamp.pairs)
        else:
            self.merge(stamp)

    def stamp_for(self, dst: int) -> Stamp:
        """The stamp to attach to a message bound for ``dst``.

        The entries changed since the last send to ``dst`` (never-sent
        channels count every nonzero entry as changed), as a
        :class:`VCDelta` — or a full stamp when the delta would be long,
        or when a full-stamp merge/restore postdates the channel's last
        send.
        """
        ls = self._ls.get(dst, 0)
        self._ls[dst] = self._ticks
        if self._full_at > ls:
            return self._full_stamp()
        cells = self._cells
        changed = self._changed
        pairs = []
        append = pairs.append
        cap = self._cap
        # _changed is in ascending change order; the reversed walk stops
        # at the first entry the channel has already carried.
        for i in reversed(changed):
            if changed[i] <= ls:
                break
            if len(pairs) >= cap:
                return self._full_stamp()
            append((i, cells[i]))
        return VCDelta(tuple(pairs))

    def _full_stamp(self):
        """A full stamp: an immutable-by-convention array copy (one C
        memcpy, merged with one vectorized max)."""
        clock = self._array
        if clock is None:
            clock = self._materialise()
        return clock.copy()

    def snapshot(self) -> Tuple[int, ...]:
        """An immutable plain-int tuple copy of the current clock."""
        clock = self._array
        if clock is None:
            if not self._cells:
                return self._zero_snapshot(self._n)
            return tuple(spread(self._n, self._cells))
        if not clock.any():
            return self._zero_snapshot(len(clock))
        return tuple(clock.tolist())

    @staticmethod
    def _zero_snapshot(n: int) -> Tuple[int, ...]:
        zero = _ZERO_SNAPSHOTS.get(n)
        if zero is None:
            zero = _ZERO_SNAPSHOTS[n] = (0,) * n
        return zero

    def restore(self, snap: Sequence[int]) -> None:
        """Reset the clock to a snapshot (used by rollback).

        This also invalidates the per-destination send bookkeeping: the
        next send on every channel carries a full stamp, so no receiver
        depends on deltas whose base predates the rollback (or was
        dropped by the incarnation ghost-check).
        """
        self._attach(_np.array(snap, dtype=_np.int64))
        self._ticks += 1
        self._full_at = self._ticks
        self._changed.clear()
        self._ls.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VC p{self.pid} {self.snapshot()}>"


def happened_before(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether timestamp ``a`` causally precedes ``b`` (a < b)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def concurrent(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether two timestamps are causally unordered."""
    return not happened_before(a, b) and not happened_before(b, a) and tuple(a) != tuple(b)


def snapshot_consistent(snapshots: Iterable[Tuple[int, Tuple[int, ...]]]) -> bool:
    """Consistency test for a global checkpoint.

    ``snapshots`` is an iterable of ``(pid, vector_clock)`` pairs, one per
    process. Returns True iff no pair exhibits an orphan: for every i, j,
    ``vc_j[i] <= vc_i[i]``.
    """
    items = list(snapshots)
    own = {pid: vc[pid] for pid, vc in items}
    for pid_j, vc_j in items:
        for pid_i, own_i in own.items():
            if pid_i == pid_j:
                continue
            if vc_j[pid_i] > own_i:
                return False
    return True
