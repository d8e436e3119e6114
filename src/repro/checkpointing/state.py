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
* :class:`BitVector` — the indices of its set bits. A fresh R is O(1),
  the copy a checkpoint keeps is O(set bits), and the scan ``prop_cp``
  runs per request (:meth:`BitVector.true_indices`) sorts the handful
  of peers heard from instead of scanning N entries.
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

    def __getitem__(self, index: int) -> int:
        value = self._d.get(index)
        if value is None:
            if not 0 <= index < self._n:
                raise IndexError(f"IntVector index {index} out of range({self._n})")
            return 0
        return value

    def __setitem__(self, index: int, value: int) -> None:
        if not 0 <= index < self._n:
            raise IndexError(f"IntVector index {index} out of range({self._n})")
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

    __copy__ = copy

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
    """A bool vector with a list-like surface that stores its set bits.

    Accepts a size (true at ``ones``), an iterable of bools, or the
    one-0/1-byte-per-entry ``bytes`` image of older snapshots (scanned
    with C-level ``bytes.find``). Indices run ``0 .. len - 1``.
    """

    __slots__ = ("_n", "_s")

    def __init__(
        self, init: Union[int, bytes, Iterable[bool]] = 0, ones: Iterable[int] = ()
    ) -> None:
        if isinstance(init, bytes):
            ones, index = [], init.find(1)
            while index >= 0:
                ones.append(index)
                index = init.find(1, index + 1)
            init = len(init)
        elif not isinstance(init, int):
            values = list(init)
            init, ones = len(values), [i for i, v in enumerate(values) if v]
        self._n, self._s = init, set(ones)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> bool:
        if not 0 <= index < self._n:
            raise IndexError(f"BitVector index {index} out of range({self._n})")
        return index in self._s

    def __setitem__(self, index: int, value: bool) -> None:
        if not 0 <= index < self._n:
            raise IndexError(f"BitVector index {index} out of range({self._n})")
        if value:
            self._s.add(index)
        else:
            self._s.discard(index)

    def __iter__(self) -> Iterator[bool]:
        return iter(self.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitVector):
            return self._n == other._n and self._s == other._s
        if isinstance(other, (list, tuple)):
            return self.tolist() == [bool(v) for v in other]
        return NotImplemented

    def __reduce__(self):
        return (type(self), (self._n, sorted(self._s)))

    def copy(self) -> "BitVector":
        dup = type(self).__new__(type(self))
        dup._n, dup._s = self._n, self._s.copy()
        return dup

    __copy__ = copy

    def __deepcopy__(self, memo) -> "BitVector":
        return self.copy()

    def tolist(self) -> List[bool]:
        return [i in self._s for i in range(self._n)]

    def any(self) -> bool:
        """Whether any bit is set."""
        return bool(self._s)

    def true_indices(self) -> Iterator[int]:
        """Indices of set bits, ascending."""
        return iter(sorted(self._s))

    def or_with(self, other: Union["BitVector", Sequence[bool]]) -> None:
        """In-place componentwise OR (the §3.3.4 give-back merge)."""
        if not isinstance(other, BitVector):
            other = BitVector(other)
        self._s |= other._s

    def clear(self) -> None:
        """Reset every bit in place."""
        self._s.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVector({self._n}, {sorted(self._s)!r})"


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
