"""Point-to-point workload (paper §5.1).

Each process sends computation messages with exponentially distributed
inter-send times; the destination of each message is uniformly
distributed over all other processes.
"""

from __future__ import annotations

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
        # The draws come from the same named streams in the same order as
        # per-call lookups would make them, so sequences are identical.
        stream = self.system.streams.stream
        return (
            stream(f"workload.p2p.{pid}").expovariate,
            stream(f"workload.p2p.dst.{pid}").choice,
        )

    def _schedule_initial(self) -> None:
        for pid in self.system.processes:
            self._schedule_next(pid)

    def _schedule_next(self, pid: int) -> None:
        expo, _ = self._bindings(pid)
        self.system.sim.schedule(expo(self._lambd), self._fire, pid)

    def _fire(self, pid: int) -> None:
        if not self.running:
            return
        expo, choice = self._bindings(pid)
        peers = self._everyone_but(pid)
        if peers:
            self._send(pid, choice(peers))
        self.system.sim.schedule(expo(self._lambd), self._fire, pid)
