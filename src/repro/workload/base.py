"""Workload abstraction.

A workload drives the application layer: it decides when each process
sends computation messages and to whom. Workloads are event-driven —
each process's next send is scheduled on the kernel — and respect the
process runtime's blocking (a blocked process's sends are deferred by
the runtime itself, so workloads never need to check).

Every send runs through one pair, :meth:`Workload._arm` and
:meth:`Workload._fire`, over a table of numbered slots: a slot is one
stream of sends (its sender, its two named random streams, its peers and
its rate), and a subclass only names its slots (:meth:`Workload._bind`).
A send makes its draws from its streams' C methods alone, computing what
``random.Random`` itself does on every supported Python:
``_randbelow(n)`` for n > 0 is ``r = getrandbits(n.bit_length())``,
drawn again while ``r >= n``, and ``expovariate(lambd)`` is
``-log(1.0 - random()) / lambd``. The next send is scheduled at
``sim._now + delay``, what ``sim.schedule(delay, ...)`` computes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import log as _log
from typing import Any, Callable, Dict, List

from repro.core.system import MobileSystem
from repro.sim.rng import RandomStreams

#: what is rebuilt on use, never pickled: the slot table and the shared
#: population list (and an older image's ``_bound``, ``_views``, ``_lambd``)
_DERIVED = ("_slots", "_pids", "_bound", "_views", "_lambd")


class _Slot:
    """One stream of sends: from ``pid`` to ``peers`` minus the entry at
    index ``skip``, with exponential gaps of rate ``lambd``.

    ``random`` and ``getrandbits`` are the C methods of the slot's delay
    and destination streams (``getrandbits`` a :class:`_FirstDraw` until
    the first send). ``peers`` is shared by every slot drawing from the
    same population: n slots cost one list, not n lists of n - 1.
    """

    __slots__ = ("pid", "random", "getrandbits", "peers", "skip", "lambd")

    def __init__(self, pid: int, random: Callable[[], float],
                 getrandbits: Callable[[int], int], peers: List[int],
                 skip: int, lambd: float) -> None:
        self.pid = pid
        self.random = random
        self.getrandbits = getrandbits
        self.peers = peers
        self.skip = skip
        self.lambd = lambd


class _FirstDraw:
    """A slot's ``getrandbits`` until its first send derives the slot's
    destination stream (2.5 kB of state) and puts its C method here."""

    __slots__ = ("slot", "streams", "name")

    def __init__(self, slot: _Slot, streams: RandomStreams, name: str) -> None:
        self.slot, self.streams, self.name = slot, streams, name

    def __call__(self, k: int) -> int:
        getrandbits = self.slot.getrandbits = self.streams.stream(self.name).getrandbits
        return getrandbits(k)


class _Bindings(dict):
    """slot -> what ``bind(slot)`` returns, bound on the slot's first
    lookup; after that a send reads ``bindings[slot]`` without a Python
    frame."""

    def __init__(self, bind: Callable[[int], _Slot]) -> None:
        super().__init__()
        self.bind = bind

    def __missing__(self, slot: int) -> _Slot:
        bound = self[slot] = self.bind(slot)
        return bound


class Workload(ABC):
    """Base class for traffic generators."""

    def __init__(self, system: MobileSystem) -> None:
        self.system = system
        self._running = False
        self.messages_generated = 0
        self._fresh_tables()

    def _fresh_tables(self) -> None:
        #: slot -> its :class:`_Slot`, from :meth:`_bind` on first use
        self._slots = _Bindings(self._bind)
        #: every pid in pid-table order, built by :meth:`_everyone`
        self._pids: List[int] = []

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        for name in _DERIVED:
            state.pop(name, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # An older image's tables (none in format 1; ``choice``
        # bindings, ``_Others`` views or stream tuples later) are
        # dropped, and the slots refill on use.
        self.__dict__.update(state)
        for name in _DERIVED:
            self.__dict__.pop(name, None)
        self._fresh_tables()

    @property
    def running(self) -> bool:
        """Whether the workload is actively generating traffic."""
        return self._running

    def start(self) -> None:
        """Begin generating traffic."""
        if self._running:
            return
        self._running = True
        self._schedule_initial()

    def stop(self) -> None:
        """Stop generating new traffic (in-flight messages still arrive)."""
        self._running = False

    @abstractmethod
    def _schedule_initial(self) -> None:
        """Arm the first send of every slot (subclass hook)."""

    def _bind(self, slot: int) -> _Slot:
        """The :class:`_Slot` numbered ``slot`` (subclass hook)."""
        raise NotImplementedError

    def _make_slot(self, pid: int, delays: str, destinations: str,
                   peers: List[int], skip: int, mean: float) -> _Slot:
        """A slot sending from ``pid`` with gaps of mean ``mean`` drawn
        from stream ``delays`` and destinations drawn from stream
        ``destinations``: the names and per-stream draw order of per-call
        ``streams.exponential`` / ``streams.choice``."""
        streams = self.system.streams
        slot = _Slot(pid, streams.stream(delays).random, None, peers, skip, 1.0 / mean)
        slot.getrandbits = _FirstDraw(slot, streams, destinations)
        return slot

    def _everyone(self) -> List[int]:
        """Every pid, in pid-table order (``0 .. n - 1``, so a pid is its
        own index); one list shared by every slot that uses it."""
        if not self._pids:
            self._pids = list(self.system.processes)
        return self._pids

    def _arm(self, slot: int) -> None:
        """Schedule ``slot``'s next send, ``expovariate(lambd)`` from now."""
        bound = self._slots[slot]
        delay = -_log(1.0 - bound.random()) / bound.lambd
        sim = self.system.sim
        sim.schedule_at(sim._now + delay, self._fire, slot)

    def _fire(self, slot: int) -> None:
        """Send one message of ``slot`` to a uniform peer (skipped while
        the sender is disconnected) and arm its next send."""
        if not self._running:
            return
        bound = self._slots[slot]
        peers = bound.peers
        last = len(peers) - 1
        if last:  # _randbelow(last), without its frame
            k = last.bit_length()
            getrandbits = bound.getrandbits
            index = getrandbits(k)
            while index >= last:
                index = getrandbits(k)
            process = self.system.processes[bound.pid]
            if not process.host.disconnected:
                self.messages_generated += 1
                process.send_computation(
                    peers[index + (index >= bound.skip)], self.messages_generated
                )
        self._arm(slot)
