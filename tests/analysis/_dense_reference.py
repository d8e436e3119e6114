"""The dense ``IntVector`` and ``VectorClock`` the sparse ones replaced.

Kept verbatim (names aside) from the commit before
``repro.checkpointing.state.IntVector`` went dict-backed and
``repro.analysis.vector_clock.VectorClock`` stopped allocating its
array up front: an ``array('q')`` per vector and an ``np.zeros(n)`` per
clock. ``test_sparse_vs_dense.py`` drives both through the same
operation sequences; they must agree observation for observation.

``DenseVectorClock`` with ``delta=False`` (its default) is also the
full-stamp oracle: it stamps every message with its whole clock, the
mode ``VectorClock`` no longer has. The equivalence matrix
(``tests/integration/test_scale_equivalence.py``) swaps it into every
process of a built system and requires the run to be byte-identical.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as _np

from repro.analysis.vector_clock import PackedInts, Stamp, VCDelta

_ZERO_SNAPSHOTS: Dict[int, Tuple[int, ...]] = {}


class DenseIntVector:
    """A dense int vector with a list-like surface, backed by ``array``.

    Accepts a size (zero-filled), an iterable of ints, or the
    :class:`~repro.analysis.vector_clock.PackedInts` it pickles as.
    """

    __slots__ = ("_a",)

    #: 'q' (8-byte signed) keeps the surface a drop-in for Python ints
    #: well past any csn the simulator can reach
    typecode = "q"
    _itemsize = array(typecode).itemsize

    def __init__(self, init: Union[int, Iterable[int], PackedInts] = 0) -> None:
        if isinstance(init, int):
            self._a = array(self.typecode, bytes(self._itemsize * init))
        elif isinstance(init, PackedInts):
            self._a = array(self.typecode, init.unpack().tobytes())
        else:
            self._a = array(self.typecode, init)

    def __len__(self) -> int:
        return len(self._a)

    def __getitem__(self, index: int) -> int:
        return self._a[index]

    def __setitem__(self, index: int, value: int) -> None:
        self._a[index] = value

    def __iter__(self) -> Iterator[int]:
        return iter(self._a)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DenseIntVector):
            return self._a == other._a
        if isinstance(other, (list, tuple)):
            return len(other) == len(self._a) and all(
                a == b for a, b in zip(self._a, other)
            )
        return NotImplemented

    def __reduce__(self):
        return (type(self), (PackedInts.of(_np.frombuffer(self._a, dtype=_np.int64)),))

    def copy(self) -> "DenseIntVector":
        dup = type(self).__new__(type(self))
        dup._a = array(self.typecode, self._a)
        return dup

    def __copy__(self) -> "DenseIntVector":
        return self.copy()

    def __deepcopy__(self, memo) -> "DenseIntVector":
        return self.copy()

    def tolist(self) -> List[int]:
        return self._a.tolist()

    def clear(self) -> None:
        """Zero every entry."""
        self._a = array(self.typecode, bytes(self._itemsize * len(self._a)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseIntVector({self._a.tolist()!r})"


class DenseVectorClock:
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
