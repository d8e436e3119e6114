"""Reference implementations the production code is checked against.

``DenseIntVector`` is kept verbatim (name aside) from the commit before
``repro.checkpointing.state.IntVector`` went dict-backed: an
``array('q')`` per vector. ``test_sparse_vs_dense.py`` drives both
through the same operation sequences; they must agree observation for
observation.

``DenseVectorClock`` and :func:`snapshot_consistent` are the
vector-clock witness the channel-count test
(:func:`repro.analysis.consistency.check_channel_counts`) replaced on
the message path; the equivalence matrix
(``tests/integration/test_scale_equivalence.py``) requires the two to
agree on every line it draws.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as _np

from repro.analysis.vector_clock import PackedInts


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
    """A Mattern/Fidge vector clock on a dense int64 array: the clock the
    channel-count witness is checked against. ``tests/integration/
    test_scale_equivalence.py`` replays one per process over a run's
    DEBUG trace and judges lines with :func:`snapshot_consistent`.
    """

    __slots__ = ("pid", "clock")

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.clock = _np.zeros(n, dtype=_np.int64)

    def tick(self) -> None:
        """Advance the local component (one local event)."""
        self.clock[self.pid] += 1

    def merge(self, other: Sequence[int]) -> None:
        """Componentwise max with a full timestamp."""
        _np.maximum(self.clock, other, out=self.clock)

    def snapshot(self) -> Tuple[int, ...]:
        """An immutable plain-int tuple copy of the current clock."""
        return tuple(self.clock.tolist())


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
