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
from math import log as _log

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
        # The (off, on, send) delay draws, the destination draw and the
        # candidates of ``pid``: C draws of the streams (see
        # ``workload.base``) whose names and draw order on each are those
        # of per-call ``streams.exponential(name, mean)`` /
        # ``streams.choice``.
        stream = self.system.streams.stream
        return (
            stream(f"bursty.off.{pid}").random,
            stream(f"bursty.on.{pid}").random,
            stream(f"bursty.send.{pid}").random,
            stream(f"bursty.dst.{pid}").getrandbits,
            self._everyone_but(pid),
        )

    def _schedule_initial(self) -> None:
        for pid in self.system.processes:
            # stagger: start everyone in an OFF period
            self._schedule_burst_start(pid)

    # -- period machinery ------------------------------------------------
    def _schedule_burst_start(self, pid: int) -> None:
        off = self._bound[pid][0]
        delay = -_log(1.0 - off()) / (1.0 / self.config.mean_off)
        sim = self.system.sim
        sim.schedule_at(sim._now + delay, self._burst_start, pid)

    def _burst_start(self, pid: int) -> None:
        if not self._running:
            return
        self._on[pid] = True
        on = self._bound[pid][1]
        duration = -_log(1.0 - on()) / (1.0 / self.config.mean_on)
        sim = self.system.sim
        sim.schedule_at(sim._now + duration, self._burst_end, pid)
        self._schedule_send(pid)

    def _burst_end(self, pid: int) -> None:
        self._on[pid] = False
        if self._running:
            self._schedule_burst_start(pid)

    # -- sends within a burst ------------------------------------------------
    def _schedule_send(self, pid: int) -> None:
        send = self._bound[pid][2]
        delay = -_log(1.0 - send()) / (1.0 / self.config.burst_send_interval)
        sim = self.system.sim
        sim.schedule_at(sim._now + delay, self._fire, pid)

    def _fire(self, pid: int) -> None:
        if not self._running or not self._on[pid]:
            return
        _, _, _, getrandbits, others = self._bound[pid]
        last = len(others._pids) - 1
        if last:  # _randbelow(last), without its frame
            k = last.bit_length()
            index = getrandbits(k)
            while index >= last:
                index = getrandbits(k)
            self._send(pid, others._pids[index + (index >= others._skip)])
        self._schedule_send(pid)
