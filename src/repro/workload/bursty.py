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
from repro.workload.base import Workload


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
    """ON/OFF point-to-point traffic with uniform destinations."""

    def __init__(self, system: MobileSystem, config: BurstyWorkloadConfig) -> None:
        super().__init__(system)
        self.config = config
        self._on = {pid: False for pid in system.processes}

    def is_on(self, pid: int) -> bool:
        """Whether ``pid`` is currently in a burst."""
        return self._on[pid]

    def _bind(self, pid: int):
        # The (off, on, send, dst) streams of ``pid``; names and the draw
        # order on each are those of per-call
        # ``streams.exponential(name, mean)`` / ``streams.choice``.
        stream = self.system.streams.stream
        return (
            stream(f"bursty.off.{pid}"),
            stream(f"bursty.on.{pid}"),
            stream(f"bursty.send.{pid}"),
            stream(f"bursty.dst.{pid}"),
        )

    def _schedule_initial(self) -> None:
        for pid in self.system.processes:
            # stagger: start everyone in an OFF period
            self._schedule_burst_start(pid)

    # -- period machinery ------------------------------------------------
    def _schedule_burst_start(self, pid: int) -> None:
        off, _, _, _ = self._bindings(pid)
        delay = off.expovariate(1.0 / self.config.mean_off)
        self.system.sim.schedule(delay, self._burst_start, pid)

    def _burst_start(self, pid: int) -> None:
        if not self.running:
            return
        self._on[pid] = True
        _, on, _, _ = self._bindings(pid)
        duration = on.expovariate(1.0 / self.config.mean_on)
        self.system.sim.schedule(duration, self._burst_end, pid)
        self._schedule_send(pid)

    def _burst_end(self, pid: int) -> None:
        self._on[pid] = False
        if self.running:
            self._schedule_burst_start(pid)

    # -- sends within a burst ------------------------------------------------
    def _schedule_send(self, pid: int) -> None:
        _, _, send, _ = self._bindings(pid)
        delay = send.expovariate(1.0 / self.config.burst_send_interval)
        self.system.sim.schedule(delay, self._fire, pid)

    def _fire(self, pid: int) -> None:
        if not self.running or not self._on[pid]:
            return
        others = self._everyone_but(pid)
        if others:
            _, _, _, dst = self._bindings(pid)
            self._send(pid, dst.choice(others))
        self._schedule_send(pid)
