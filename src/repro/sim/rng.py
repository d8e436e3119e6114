"""Seeded, named random-number streams.

Different parts of a simulation (workload at each process, mobility,
failure injection) draw from *independent* named streams derived from a
single master seed. Adding a new consumer of randomness therefore never
perturbs the draws seen by existing consumers, which keeps regression
baselines stable and experiments reproducible.
"""

from __future__ import annotations

import _random
import hashlib
import random
import struct
from typing import Dict, Optional, Sequence, TypeVar

T = TypeVar("T")


class _Stream(_random.Random):
    """``random.Random``'s draws with no instance ``__dict__`` (it held
    only ``gauss_next``, now a slot: ~340 bytes a stream) and a compact
    pickle: the state's 625 words as bytes, not 3.8 kB of Python ints,
    restored into a bare ``__new__`` instance. Draws are unchanged.
    """

    __slots__ = ("gauss_next",)

    def seed(self, a: int) -> None:  # random.Random.seed for an int seed
        _random.Random.seed(self, a)
        self.gauss_next = None

    __init__ = seed

    def getstate(self):
        return self.VERSION, _random.Random.getstate(self), self.gauss_next

    def setstate(self, state) -> None:
        _, words, self.gauss_next = state
        _random.Random.setstate(self, words)

    def __reduce__(self):
        version, words, gauss_next = self.getstate()
        packed = struct.pack(f"<{len(words)}I", *words)
        return _restore_stream, (version, packed, gauss_next)


# The draws (choice, expovariate, gauss, ...); random.Random's seed,
# getstate and setstate reach C through super(), hence the three above.
for _name, _member in vars(random.Random).items():
    if not _name.startswith("__") and _name not in vars(_Stream):
        setattr(_Stream, _name, _member)


def _restore_stream(version: int, packed: bytes, gauss_next) -> _Stream:
    stream = _Stream.__new__(_Stream)
    words = struct.unpack(f"<{len(packed) // 4}I", packed)
    stream.setstate((version, words, gauss_next))
    return stream


def raw_rng(seed: int) -> _Stream:
    """A bare seeded generator for consumers that manage their own seed.

    This is the single sanctioned constructor for a generator outside
    this module: everything stochastic either draws from a
    :class:`RandomStreams` stream or builds its generator here, so
    snapshot capture can account for every generator in the simulation
    (a lint test enforces this). Seed semantics are exactly
    ``random.Random(seed)`` for an int seed — callers that switched from
    a direct constructor keep byte-identical draw sequences.
    """
    return _Stream(seed)


class RandomStreams:
    """A factory of independent streams, each drawing as ``random.Random``.

    Each stream is identified by a string name; its seed is derived by
    hashing the master seed together with the name, so streams are stable
    across runs and machines.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: name -> its stream; ``None`` once :meth:`one_shot` has used it up
        self._streams: Dict[str, Optional[_Stream]] = {}

    def _derive(self, name: str) -> _Stream:
        if name in self._streams:
            raise ValueError(f"stream {name!r} is in use or was a one-shot: not derived again")
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return _Stream(int.from_bytes(digest[:8], "big"))

    def stream(self, name: str) -> _Stream:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = self._derive(name)
        return rng

    def one_shot(self, name: str) -> _Stream:
        """The stream for ``name``, same draws, for a consumer that draws
        once: not kept (a Mersenne state is 2.5 kB, in every snapshot
        too), and asking for the name again raises rather than restart."""
        rng = self._derive(name)
        self._streams[name] = None
        return rng

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream ``name``."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean!r}")
        return self.stream(name).expovariate(1.0 / mean)

    def uniform_int(self, name: str, low: int, high: int) -> int:
        """One integer uniform on [low, high] from stream ``name``."""
        return self.stream(name).randint(low, high)

    def choice(self, name: str, options: Sequence[T]) -> T:
        """One uniform choice from ``options`` from stream ``name``."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        return self.stream(name).choice(options)
