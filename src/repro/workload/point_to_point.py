"""Point-to-point workload (paper §5.1).

Each process sends computation messages with exponentially distributed
inter-send times; the destination of each message is uniformly
distributed over all other processes.
"""

from __future__ import annotations

from math import log as _log

from repro.core.config import PointToPointWorkloadConfig
from repro.core.system import MobileSystem
from repro.workload.base import Workload


class PointToPointWorkload(Workload):
    """Uniform-destination exponential traffic."""

    def __init__(
        self, system: MobileSystem, config: PointToPointWorkloadConfig
    ) -> None:
        super().__init__(system)
        self.config = config
        if config.mean_send_interval <= 0:
            raise ValueError(
                f"exponential mean must be positive, got {config.mean_send_interval!r}"
            )
        self._lambd = 1.0 / config.mean_send_interval

    def _bind(self, pid: int):
        # The C draws of the same named streams, in the same order as
        # per-call lookups would make them (see ``workload.base``).
        stream = self.system.streams.stream
        return (
            stream(f"workload.p2p.{pid}").random,
            stream(f"workload.p2p.dst.{pid}").getrandbits,
            self._everyone_but(pid),
        )

    def _schedule_initial(self) -> None:
        for pid in self.system.processes:
            self._schedule_next(pid)

    def _schedule_next(self, pid: int) -> None:
        sim = self.system.sim
        delay = -_log(1.0 - self._bound[pid][0]()) / self._lambd
        sim.schedule_at(sim._now + delay, self._fire, pid)

    def _fire(self, pid: int) -> None:
        if not self._running:
            return
        random, getrandbits, peers = self._bound[pid]
        last = len(peers._pids) - 1
        if last:  # _randbelow(last), without its frame
            k = last.bit_length()
            index = getrandbits(k)
            while index >= last:
                index = getrandbits(k)
            self._send(pid, peers._pids[index + (index >= peers._skip)])
        sim = self.system.sim
        delay = -_log(1.0 - random()) / self._lambd
        sim.schedule_at(sim._now + delay, self._fire, pid)
