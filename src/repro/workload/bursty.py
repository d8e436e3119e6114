"""Bursty (ON/OFF) traffic — an extension beyond the paper's workloads.

Each process alternates between exponentially-distributed ON periods,
during which it sends at a high rate, and OFF periods of silence — a
better model of interactive mobile applications than pure Poisson
traffic. Burstiness stresses the mutable-checkpoint machinery harder:
a burst landing inside someone's checkpointing window produces exactly
the tagged-message races that force mutable checkpoints, so the
redundant-mutable curve is livelier than under §5.1's smooth traffic
(see ``benchmarks/bench_bursty_extension.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import MobileSystem
from repro.errors import ConfigurationError
from repro.workload.base import Workload, _Slot


@dataclass(frozen=True)
class BurstyWorkloadConfig:
    """ON/OFF traffic parameters.

    During ON periods a process sends with exponential inter-send times
    of mean ``burst_send_interval``; ON and OFF period lengths are
    exponential with means ``mean_on`` / ``mean_off``. The long-run
    average rate is ``(mean_on / (mean_on + mean_off)) / burst_send_interval``.
    """

    burst_send_interval: float = 0.5
    mean_on: float = 5.0
    mean_off: float = 95.0

    def __post_init__(self) -> None:
        if min(self.burst_send_interval, self.mean_on, self.mean_off) <= 0:
            raise ConfigurationError("bursty parameters must be positive")

    @property
    def average_rate(self) -> float:
        """Long-run messages per second per process."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return duty / self.burst_send_interval


class BurstyWorkload(Workload):
    """ON/OFF point-to-point traffic with uniform destinations: slot =
    pid, sending only while ``pid`` is in a burst."""

    def __init__(self, system: MobileSystem, config: BurstyWorkloadConfig) -> None:
        super().__init__(system)
        self.config = config
        self._on = {pid: False for pid in system.processes}

    def is_on(self, pid: int) -> bool:
        """Whether ``pid`` is currently in a burst."""
        return self._on[pid]

    def _bind(self, pid: int) -> _Slot:
        return self._make_slot(pid, f"bursty.send.{pid}", f"bursty.dst.{pid}",
                               self._everyone(), pid, self.config.burst_send_interval)

    def _schedule_initial(self) -> None:
        for pid in self.system.processes:
            # stagger: start everyone in an OFF period
            self._schedule_burst_start(pid)

    # -- period machinery ------------------------------------------------
    def _schedule_burst_start(self, pid: int) -> None:
        off = self.system.streams.exponential(f"bursty.off.{pid}", self.config.mean_off)
        self.system.sim.schedule(off, self._burst_start, pid)

    def _burst_start(self, pid: int) -> None:
        if not self._running:
            return
        self._on[pid] = True
        on = self.system.streams.exponential(f"bursty.on.{pid}", self.config.mean_on)
        self.system.sim.schedule(on, self._burst_end, pid)
        self._arm(pid)

    def _burst_end(self, pid: int) -> None:
        self._on[pid] = False
        if self._running:
            self._schedule_burst_start(pid)

    def _fire(self, pid: int) -> None:
        # a send still queued when its burst ended is dropped, unarmed
        if self._on[pid]:
            Workload._fire(self, pid)
