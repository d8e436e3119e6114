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

#: the C Mersenne Twister seeding that ``random.Random.seed`` ends in
_c_seed = _random.Random.seed


class _Stream(random.Random):
    """``random.Random`` with a compact pickle; draws are unchanged.

    The inherited reduce writes the Mersenne state as 625 Python ints
    (3.8 kB, and a 1024-process image holds 3 072 of them) and restores
    through ``Random()``, which seeds from ``os.urandom`` only for
    ``setstate`` to overwrite it. This one writes the words as bytes and
    restores into a bare ``__new__`` instance.
    """

    def __reduce__(self):
        version, words, gauss_next = self.getstate()
        packed = struct.pack(f"<{len(words)}I", *words)
        return _restore_stream, (version, packed, gauss_next)


def _restore_stream(version: int, packed: bytes, gauss_next) -> _Stream:
    stream = _Stream.__new__(_Stream)
    words = struct.unpack(f"<{len(packed) // 4}I", packed)
    stream.setstate((version, words, gauss_next))
    return stream


def raw_rng(seed: int) -> random.Random:
    """A bare seeded generator for consumers that manage their own seed.

    This is the single sanctioned constructor for ``random.Random``
    outside this module: everything stochastic either draws from a
    :class:`RandomStreams` stream or builds its generator here, so
    snapshot capture can account for every generator in the simulation
    (a lint test enforces this). Seed semantics are exactly
    ``random.Random(seed)`` — callers that switched from a direct
    constructor keep byte-identical draw sequences.
    """
    return _Stream(seed)


class RandomStreams:
    """A factory of independent ``random.Random`` streams.

    Each stream is identified by a string name; its seed is derived by
    hashing the master seed together with the name, so streams are stable
    across runs and machines.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: name -> its stream; ``None`` once :meth:`one_shot` has used it up
        self._streams: Dict[str, Optional[random.Random]] = {}

    def _derive(self, name: str) -> random.Random:
        if name in self._streams:
            raise ValueError(f"stream {name!r} is in use or was a one-shot: not derived again")
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        # What _Stream(seed) does for an int seed, minus the Python
        # __init__ / seed wrappers: one C seeding (a 4096-process run
        # derives 12 288 streams at start).
        stream = _Stream.__new__(_Stream)
        _c_seed(stream, int.from_bytes(digest[:8], "big"))
        stream.gauss_next = None
        return stream

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = self._derive(name)
        return rng

    def one_shot(self, name: str) -> random.Random:
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
