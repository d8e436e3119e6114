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
run). In *delta mode* a clock tracks, per entry, when it last changed
and, per destination, when it last sent; a send then carries only the
entries changed since the previous send on that channel, as a
:class:`VCDelta`. The technique is sound on FIFO channels: every entry
omitted from a delta either was carried by an earlier message on the
same channel, or has never changed from its initial zero — and a
componentwise-max merge of an already-known (or zero) entry is a no-op.
Receivers accept either stamp form via
:meth:`VectorClock.merge_stamp`; the resulting clocks are equal, entry
for entry, to full-stamp mode.

Three refinements keep the per-send cost proportional to the *delta*
rather than to N (uniform traffic at 1k+ processes rarely reuses a
channel, so the textbook scheme degenerates into full stamps with extra
bookkeeping — measured slower than full mode):

* the changed-entry map is kept in change order (dict insertion order,
  move-to-end on change), so building a delta walks only the suffix
  newer than the channel's last send and stops;
* a delta larger than ``n // 8`` entries falls back to a full tuple
  stamp — cheaper to build (one C-level ``tuple``) and cheaper to merge
  (one C-level ``map(max, ...)``) than a long pair list;
* merging a full stamp records a single ``_full_at`` watermark instead
  of per-entry stamps (a safe overapproximation: channels last served
  before the watermark get a full stamp next time) and clears the
  changed map, so dense phases run entirely on C-level full-stamp
  operations.

:meth:`VectorClock.restore` (rollback) clears the per-channel
bookkeeping, so every post-rollback channel starts with a full stamp and
no receiver can depend on a delta whose base was dropped by the
incarnation ghost-check.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as _np  # vectorized max: ~100x a pure-Python merge at 1024 entries

#: shared all-zero snapshots by population size — at build time every
#: process checkpoints an all-zero clock, and N distinct N-tuples of
#: zeros is O(N^2) memory for nothing.
_ZERO_SNAPSHOTS: Dict[int, Tuple[int, ...]] = {}


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
    :meth:`VectorClock.stamp_for` in delta mode; consumed by
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
    """A mutable vector clock for one process.

    With ``delta=True`` the clock additionally maintains the
    Singhal-Kshemkalyani bookkeeping needed to emit :class:`VCDelta`
    stamps from :meth:`stamp_for`; the default is the classic
    full-stamp behaviour (and :meth:`stamp_for` then returns full
    snapshots, which is the equivalence-testing reference path).
    """

    __slots__ = (
        "pid", "clock", "_cells", "_delta", "_ticks", "_changed", "_ls",
        "_full_at", "_cap",
    )

    def __init__(self, pid: int, n: int, delta: bool = False) -> None:
        self.pid = pid
        # np.zeros is a calloc; below malloc's mmap threshold (8 n bytes is,
        # at every n run here) it comes off the heap and is resident, not
        # lazily mapped: docs/SCALING.md, "Zero clocks are resident"
        self._attach(_np.zeros(n, dtype=_np.int64))
        self._delta = delta
        #: monotone op counter; stamps in _changed/_ls refer to it
        self._ticks = 0
        #: entry -> op stamp of its last change, in change order (the
        #: dict is move-to-end on every change; delta mode only)
        self._changed: Dict[int, int] = {}
        #: destination -> op stamp of the last send to it (delta mode)
        self._ls: Dict[int, int] = {}
        #: op stamp of the last full-stamp merge/restore — a collective
        #: change stamp covering *every* entry (safe overapproximation)
        self._full_at = 0
        #: deltas longer than this ride as full tuple stamps instead
        self._cap = max(8, n // 8)

    def _attach(self, clock: "_np.ndarray") -> None:
        #: int64 ndarray, for the whole-vector operations; all external
        #: observation goes through :meth:`snapshot` (plain-int tuples)
        self.clock = clock
        #: the same buffer as a memoryview, for the one-entry reads and
        #: writes: it hands out plain ints where indexing the array
        #: boxes a numpy scalar first (several times the cost per read)
        self._cells = memoryview(clock)

    def __getstate__(self):
        slots = {
            name: getattr(self, name) for name in self.__slots__ if name != "_cells"
        }
        slots["clock"] = PackedInts.of(self.clock)
        return None, slots

    def __setstate__(self, state) -> None:
        # ``(None, {slot: value})`` is also what pickle writes for a
        # ``__slots__`` class by default, so a format-1 snapshot (whose
        # ``clock`` is the array itself) restores through here too.
        for name, value in state[1].items():
            setattr(self, name, value)
        clock = self.clock
        self._attach(clock.unpack() if isinstance(clock, PackedInts) else clock)

    def tick(self) -> None:
        """Advance the local component (one local event)."""
        self._cells[self.pid] += 1
        if self._delta:
            self._ticks += 1
            changed = self._changed
            changed.pop(self.pid, None)
            changed[self.pid] = self._ticks

    def merge(self, other: Sequence[int]) -> None:
        """Componentwise max with a received full timestamp."""
        clock = self.clock
        if type(other) is not _np.ndarray:
            other = _np.asarray(other, dtype=_np.int64)
        _np.maximum(clock, other, out=clock)
        if self._delta:
            # One watermark instead of per-entry stamps: channels whose
            # last send predates it get a full stamp next time.
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

        Full-stamp mode: a full snapshot (the historical behaviour).
        Delta mode: the entries changed since the last send to ``dst``
        (never-sent channels count every nonzero entry as changed), as a
        :class:`VCDelta` — or a full tuple stamp when the delta would be
        long, or when a full-stamp merge/restore postdates the channel's
        last send.
        """
        if not self._delta:
            return self._full_stamp()
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
        return self.clock.copy()

    def snapshot(self) -> Tuple[int, ...]:
        """An immutable plain-int tuple copy of the current clock."""
        clock = self.clock
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

        In delta mode this also invalidates the per-destination send
        bookkeeping: the next send on every channel carries a full
        stamp, so no receiver depends on deltas whose base predates the
        rollback (or was dropped by the incarnation ghost-check).
        """
        self._attach(_np.array(snap, dtype=_np.int64))
        if self._delta:
            self._ticks += 1
            self._full_at = self._ticks
            self._changed.clear()
            self._ls.clear()

    def reset_deltas(self) -> None:
        """Force full stamps on every channel from now on."""
        self._ls.clear()
        self._ticks += 1
        self._full_at = self._ticks
        self._changed.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "Δ" if self._delta else ""
        return f"<VC{mode} p{self.pid} {self.clock}>"


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
