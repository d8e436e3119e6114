"""Point-to-point workload (paper §5.1).

Each process sends computation messages with exponentially distributed
inter-send times; the destination of each message is uniformly
distributed over all other processes.
"""

from __future__ import annotations

from repro.core.config import PointToPointWorkloadConfig
from repro.core.system import MobileSystem
from repro.workload.base import Workload, _Slot


class PointToPointWorkload(Workload):
    """Uniform-destination exponential traffic: slot = pid."""

    def __init__(
        self, system: MobileSystem, config: PointToPointWorkloadConfig
    ) -> None:
        super().__init__(system)
        self.config = config

    def _bind(self, pid: int) -> _Slot:
        return self._make_slot(pid, f"workload.p2p.{pid}", f"workload.p2p.dst.{pid}",
                               self._everyone(), pid, self.config.mean_send_interval)

    def _schedule_initial(self) -> None:
        for pid in self.system.processes:
            self._arm(pid)
