"""Array-backed per-process state stores for the checkpointing protocols.

The paper's per-process structures — the csn array, the R dependency
bit-vector, and the MR structure piggybacked on requests — were plain
Python lists of ints/bools/:class:`~repro.checkpointing.types.MREntry`.
At 16 processes that is fine; at 1k-10k mobile hosts the O(N) per-object
allocations (every process holds several N-entry vectors; every request
carries one) and the O(N) scans over them dominate. These stores keep
the exact list-like surface the protocol code (and its tests) already
use, while changing the representation:

* :class:`IntVector` — dict-backed sparse int vector. Its size is the
  number of non-zero entries, so an untouched csn vector is O(1).
* :class:`BitVector` — ``bytearray``-backed bool vector. One byte per
  entry, and :meth:`BitVector.true_indices` finds set bits with
  C-level ``bytearray.find`` scans instead of a Python loop over N —
  the scan the request-propagation path (``prop_cp``) runs per wave.
* :class:`MRVector` — sparse dict-backed MR. A fresh MR is O(1) instead
  of N ``MREntry`` allocations, and the copy taken per request hop is
  O(entries actually set). Reads of unset slots return the shared
  all-zero entry, so protocol decisions are identical to the dense
  representation's.

All three deep-copy and pickle cleanly, so the generic protocol
``state_dict()``/``load_state_dict()`` round-trip and whole-simulation
snapshots work unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Union

from repro.analysis.vector_clock import PackedInts, spread
from repro.checkpointing.types import MREntry

__all__ = ["BitVector", "IntVector", "MRVector", "true_indices"]


class IntVector:
    """An int vector with a list-like surface that stores what was written.

    The entries that are not zero live in a dict, so a vector nobody has
    written to costs the same at any length (n processes with two
    n-entry vectors each were a third of a large build's memory).
    Indices run ``0 .. len - 1``; anything else raises ``IndexError``.

    Accepts a size (all zero), an iterable of ints, or the
    :class:`~repro.analysis.vector_clock.PackedInts` it pickles as.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, init: Union[int, Iterable[int], PackedInts] = 0) -> None:
        if isinstance(init, int):
            self._n, self._d = init, {}
        elif isinstance(init, PackedInts):
            self._n, self._d = init.n, init.entries()
        else:
            values = list(init)
            self._n = len(values)
            self._d = {i: value for i, value in enumerate(values) if value}

    def __len__(self) -> int:
        return self._n

    def _check(self, index: int) -> None:
        if not 0 <= index < self._n:
            raise IndexError(f"IntVector index {index} out of range({self._n})")

    def __getitem__(self, index: int) -> int:
        value = self._d.get(index)
        if value is None:
            self._check(index)
            return 0
        return value

    def __setitem__(self, index: int, value: int) -> None:
        self._check(index)
        if value:
            self._d[index] = value
        else:
            self._d.pop(index, None)

    def __iter__(self) -> Iterator[int]:
        return iter(self.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntVector):
            return self._n == other._n and self._d == other._d
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    def __reduce__(self):
        return (type(self), (PackedInts.of_entries(self._n, self._d),))

    def copy(self) -> "IntVector":
        dup = type(self).__new__(type(self))
        dup._n, dup._d = self._n, self._d.copy()
        return dup

    def __copy__(self) -> "IntVector":
        return self.copy()

    def __deepcopy__(self, memo) -> "IntVector":
        return self.copy()

    def tolist(self) -> List[int]:
        return spread(self._n, self._d)

    def clear(self) -> None:
        """Zero every entry."""
        self._d = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntVector({self.tolist()!r})"


class BitVector:
    """A dense bool vector with a list-like surface, backed by ``bytearray``."""

    __slots__ = ("_b",)

    def __init__(self, init: Union[int, bytes, Iterable[bool]] = 0) -> None:
        if isinstance(init, (int, bytes)):
            # a size, or the one-0/1-byte-per-entry image __reduce__ writes
            self._b = bytearray(init)
        else:
            self._b = bytearray(1 if v else 0 for v in init)

    def __len__(self) -> int:
        return len(self._b)

    def __getitem__(self, index: int) -> bool:
        return bool(self._b[index])

    def __setitem__(self, index: int, value: bool) -> None:
        self._b[index] = 1 if value else 0

    def __iter__(self) -> Iterator[bool]:
        return (bool(b) for b in self._b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitVector):
            return self._b == other._b
        if isinstance(other, (list, tuple)):
            return len(other) == len(self._b) and all(
                bool(a) == bool(b) for a, b in zip(self._b, other)
            )
        return NotImplemented

    def __reduce__(self):
        return (type(self), (bytes(self._b),))

    def copy(self) -> "BitVector":
        dup = type(self).__new__(type(self))
        dup._b = bytearray(self._b)
        return dup

    def __copy__(self) -> "BitVector":
        return self.copy()

    def __deepcopy__(self, memo) -> "BitVector":
        return self.copy()

    def tolist(self) -> List[bool]:
        return [bool(b) for b in self._b]

    def any(self) -> bool:
        """Whether any bit is set (C-level scan)."""
        return self._b.find(1) >= 0

    def true_indices(self) -> Iterator[int]:
        """Indices of set bits, ascending — C-level ``find`` scans, so
        the cost is O(set bits) Python operations, not O(N)."""
        buf = self._b
        index = buf.find(1)
        while index >= 0:
            yield index
            index = buf.find(1, index + 1)

    def or_with(self, other: Union["BitVector", Sequence[bool]]) -> None:
        """In-place componentwise OR (the §3.3.4 give-back merge)."""
        buf = self._b
        if isinstance(other, BitVector):
            for index in other.true_indices():
                buf[index] = 1
        else:
            for index, value in enumerate(other):
                if value:
                    buf[index] = 1

    def clear(self) -> None:
        """Reset every bit in place."""
        self._b = bytearray(len(self._b))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVector({self.tolist()!r})"


def true_indices(vec: Union[BitVector, Sequence[bool]]) -> Iterable[int]:
    """Indices of truthy entries of either a BitVector or a plain list.

    Protocol code uses this so hand-built test fixtures may still pass
    plain ``List[bool]`` vectors where the runtime uses BitVectors.
    """
    if isinstance(vec, BitVector):
        return vec.true_indices()
    return (index for index, value in enumerate(vec) if value)


#: shared all-zero MR slot — reads of unset MRVector entries return this
_MR_ZERO = MREntry()


class MRVector:
    """The MR request structure, stored sparsely.

    Indexing an unset slot returns the shared all-zero
    :class:`~repro.checkpointing.types.MREntry`, which is exactly what a
    dense ``fresh_mr(n)`` slot holds — every csn/r comparison the
    protocol makes sees identical values, so the request-suppression
    decisions are identical to the dense representation's.
    """

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries=None) -> None:
        self.n = n
        self._entries = dict(entries) if entries else {}

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> MREntry:
        return self._entries.get(index, _MR_ZERO)

    def __setitem__(self, index: int, entry: MREntry) -> None:
        self._entries[index] = entry

    def __iter__(self) -> Iterator[MREntry]:
        entries = self._entries
        return (entries.get(i, _MR_ZERO) for i in range(self.n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MRVector):
            return self.n == other.n and list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return len(other) == self.n and list(self) == list(other)
        return NotImplemented

    def __reduce__(self):
        return (type(self), (self.n, self._entries))

    def copy(self) -> "MRVector":
        return MRVector(self.n, self._entries)

    def __copy__(self) -> "MRVector":
        return self.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MRVector(n={self.n}, {self._entries!r})"
