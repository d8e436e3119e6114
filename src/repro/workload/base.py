"""Workload abstraction.

A workload drives the application layer: it decides when each process
sends computation messages and to whom. Workloads are event-driven —
each process's next send is scheduled on the kernel — and respect the
process runtime's blocking (a blocked process's sends are deferred by
the runtime itself, so workloads never need to check).

A send makes its draws from its streams' C methods alone, computing what
``random.Random`` itself does on every supported Python:
``_randbelow(n)`` for n > 0 is ``r = getrandbits(n.bit_length())``,
drawn again while ``r >= n``, and ``expovariate(lambd)`` is
``-log(1.0 - random()) / lambd``. The next send is scheduled at
``sim._now + delay``, what ``sim.schedule(delay, ...)`` computes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Tuple

from repro.core.system import MobileSystem


class _Others:
    """``pids`` minus the entry at index ``skip``: a population of n
    costs one shared list and n two-slot views, not n lists of n - 1.

    A send draws from it what ``rng.choice`` over the materialised
    ``[p for p in pids if p != pids[skip]]`` would:
    ``i = rng._randbelow(len(_pids) - 1)``, then ``_pids[i + (i >= _skip)]``.
    """

    __slots__ = ("_pids", "_skip")

    def __init__(self, pids: List[int], skip: int) -> None:
        self._pids = pids
        self._skip = skip


def _others_by_pid(pids: List[int]) -> Dict[int, _Others]:
    """For every member of ``pids``, the view of everyone else in it."""
    return {pid: _Others(pids, index) for index, pid in enumerate(pids)}


class _Bindings(dict):
    """pid -> what ``bind(pid)`` returns, bound on the pid's first lookup;
    after that a send reads ``bindings[pid]`` without a Python frame."""

    def __init__(self, bind: Callable[[int], Tuple[Any, ...]]) -> None:
        super().__init__()
        self.bind = bind

    def __missing__(self, pid: int) -> Tuple[Any, ...]:
        bound = self[pid] = self.bind(pid)
        return bound


class Workload(ABC):
    """Base class for traffic generators."""

    def __init__(self, system: MobileSystem) -> None:
        self.system = system
        self._running = False
        self.messages_generated = 0
        self._fresh_tables()

    def _fresh_tables(self) -> None:
        #: pid -> what :meth:`_bind` returned for it (its named streams,
        #: looked up and bound once instead of once per send)
        self._bound = _Bindings(self._bind)
        #: pid -> its possible destinations: everyone else in ``_pids``,
        #: the population in pid-table order, one list shared by all the
        #: views (:meth:`_everyone_but`) - or in the list a subclass
        #: with a narrower notion of peer filled the table from
        self._pids: List[int] = []
        self._views: Dict[int, _Others] = {}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # The per-pid tables are derived from the streams and the
        # population: an image's (none in format 1; ``choice`` bindings
        # in older ones) are dropped, and they refill on use.
        self.__dict__.update(state)
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
        """Schedule the first send of every process (subclass hook)."""

    def _bind(self, pid: int) -> Tuple[Any, ...]:
        """The per-send callables of ``pid`` (subclass hook)."""
        raise NotImplementedError

    def _everyone_but(self, pid: int) -> _Others:
        """Every process but ``pid``, in pid-table order; the shared
        list and the views are built on the first call."""
        if not self._pids:
            self._pids = list(self.system.processes)
            self._views = _others_by_pid(self._pids)
        return self._views[pid]

    def _send(self, pid: int, dst_pid: int) -> None:
        """Emit one application message (skipped while disconnected)."""
        process = self.system.processes[pid]
        if process.host.disconnected:
            return
        self.messages_generated += 1
        process.send_computation(dst_pid, self.messages_generated)
