"""Workload abstraction.

A workload drives the application layer: it decides when each process
sends computation messages and to whom. Workloads are event-driven —
each process's next send is scheduled on the kernel — and respect the
process runtime's blocking (a blocked process's sends are deferred by
the runtime itself, so workloads never need to check).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Tuple

from repro.core.system import MobileSystem


class _Others:
    """``pids`` minus the entry at index ``skip``, as an O(1) sequence view.

    ``rng.choice(view)`` makes the same ``_randbelow(len(pids) - 1)``
    draw and returns the same pid as ``choice`` over the materialised
    ``[p for p in pids if p != pids[skip]]``, but a population of n
    costs one shared list and n two-slot views, not n lists of n - 1.
    """

    __slots__ = ("_pids", "_skip")

    def __init__(self, pids: List[int], skip: int) -> None:
        self._pids = pids
        self._skip = skip

    def __len__(self) -> int:
        return len(self._pids) - 1

    def __getitem__(self, index: int) -> int:
        if index < 0:
            raise IndexError(index)
        return self._pids[index if index < self._skip else index + 1]


def _others_by_pid(pids: List[int]) -> Dict[int, _Others]:
    """For every member of ``pids``, the view of everyone else in it."""
    return {pid: _Others(pids, index) for index, pid in enumerate(pids)}


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
        self._bound: Dict[int, Tuple[Any, ...]] = {}
        #: pid -> its possible destinations: everyone else in ``_pids``,
        #: the population in pid-table order, one list shared by all the
        #: views (:meth:`_everyone_but`) - or in the list a subclass
        #: with a narrower notion of peer filled the table from
        self._pids: List[int] = []
        self._views: Dict[int, _Others] = {}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # A format-1 snapshot predates the per-pid tables: start them
        # empty, as a new workload does, and let them refill on use.
        self._fresh_tables()
        self.__dict__.update(state)

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

    def _bindings(self, pid: int) -> Tuple[Any, ...]:
        bound = self._bound.get(pid)
        if bound is None:
            bound = self._bound[pid] = self._bind(pid)
        return bound

    def _everyone_but(self, pid: int) -> _Others:
        """Every process but ``pid``, in pid-table order; the shared
        list is rebuilt when the population's size has changed."""
        processes = self.system.processes
        if len(self._pids) != len(processes):
            self._pids = list(processes)
            self._views = _others_by_pid(self._pids)
        return self._views[pid]

    def _send(self, pid: int, dst_pid: int) -> None:
        """Emit one application message (skipped while disconnected)."""
        process = self.system.processes[pid]
        if process.host.disconnected:
            return
        self.messages_generated += 1
        process.send_computation(dst_pid, payload=self.messages_generated)
