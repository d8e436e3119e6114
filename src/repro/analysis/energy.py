"""Energy accounting for mobile hosts (the §1 motivation, quantified).

The paper's design constraints are energy-driven: wireless transmission
is expensive, so the checkpointing algorithm should minimize both the
data shipped to stable storage and the synchronization messages — and
broadcasts "may waste the energy" of hosts in doze mode (§5.3.2).

:class:`EnergyModel` turns the per-host byte/wakeup counters the network
layer already maintains into energy figures; :class:`DozeManager` puts
idle hosts to sleep so experiments can measure how often checkpointing
traffic wakes them (the broadcast-vs-update commit trade-off).

The default coefficients follow the classic WaveLAN measurements
(Feeney & Nilsson, INFOCOM 2001): transmitting costs roughly twice as
much per byte as receiving, and every wakeup costs a fixed transition
charge. Absolute joules are not the point — the *ratios* between
protocol variants are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import MobileSystem


@dataclass(frozen=True)
class EnergyParams:
    """Energy coefficients (microjoules per byte, millijoules per event)."""

    tx_uj_per_byte: float = 1.9
    rx_uj_per_byte: float = 1.0
    wakeup_mj: float = 10.0
    idle_mw: float = 50.0
    doze_mw: float = 2.0


@dataclass
class HostEnergy:
    """Energy breakdown for one mobile host."""

    pid: int
    tx_bytes: int
    rx_bytes: int
    background_bytes: int
    wakeups: int
    doze_time: float
    awake_time: float
    tx_mj: float = field(init=False)
    rx_mj: float = field(init=False)
    wakeup_mj: float = field(init=False)
    idle_mj: float = field(init=False)

    def finalize(self, params: EnergyParams) -> "HostEnergy":
        self.tx_mj = (self.tx_bytes + self.background_bytes) * params.tx_uj_per_byte / 1000.0
        self.rx_mj = self.rx_bytes * params.rx_uj_per_byte / 1000.0
        self.wakeup_mj = self.wakeups * params.wakeup_mj
        self.idle_mj = (
            self.awake_time * params.idle_mw + self.doze_time * params.doze_mw
        ) / 1000.0
        return self

    @property
    def total_mj(self) -> float:
        return self.tx_mj + self.rx_mj + self.wakeup_mj + self.idle_mj


class EnergyModel:
    """Reads the per-host counters of a system into energy reports."""

    def __init__(self, system: "MobileSystem", params: EnergyParams = EnergyParams()) -> None:
        self.system = system
        self.params = params

    def host_report(self, pid: int) -> HostEnergy:
        """Energy breakdown for ``pid``'s mobile host."""
        process = self.system.processes[pid]
        mh = process.host
        # every link a mobile host used: the cells it left, then its live pair
        uplink, downlink = getattr(mh, "uplink", None), getattr(mh, "downlink", None)
        uplink_bytes = getattr(mh, "left_tx_bytes", 0) + (uplink.bytes_sent if uplink else 0)
        rx_bytes = getattr(mh, "left_rx_bytes", 0) + (downlink.bytes_sent if downlink else 0)
        now = self.system.sim.now
        doze_time = getattr(mh, "doze_time", 0.0)
        if getattr(mh, "dozing", False):
            doze_time += now - mh._doze_started
        report = HostEnergy(
            pid=pid,
            tx_bytes=uplink_bytes,
            rx_bytes=rx_bytes,
            background_bytes=getattr(mh, "background_bytes", 0),
            wakeups=getattr(mh, "wakeups", 0),
            doze_time=doze_time,
            awake_time=max(now - doze_time, 0.0),
        )
        return report.finalize(self.params)

    def report(self) -> Dict[int, HostEnergy]:
        """Per-host energy for every process on a mobile host."""
        return {pid: self.host_report(pid) for pid in self.system.processes}

    def totals(self) -> Dict[str, float]:
        """System-wide sums (millijoules and counts)."""
        rows = self.report().values()
        return {
            "tx_mj": sum(r.tx_mj for r in rows),
            "rx_mj": sum(r.rx_mj for r in rows),
            "wakeup_mj": sum(r.wakeup_mj for r in rows),
            "total_mj": sum(r.total_mj for r in rows),
            "wakeups": sum(r.wakeups for r in rows),
        }


class DozeManager:
    """Puts idle mobile hosts into doze mode (§1's doze operation).

    A host dozes once it has had no send/receive activity for
    ``idle_timeout`` seconds; any downlink arrival wakes it (handled by
    the MH itself). The manager polls on the simulation clock.
    """

    def __init__(
        self,
        system: "MobileSystem",
        idle_timeout: float = 30.0,
        poll_interval: float = 5.0,
    ) -> None:
        self.system = system
        self.idle_timeout = idle_timeout
        self.poll_interval = poll_interval
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule()

    def stop(self) -> None:
        self._running = False

    def _schedule(self) -> None:
        self.system.sim.schedule(self.poll_interval, self._poll)

    def _poll(self) -> None:
        if not self._running:
            return
        now = self.system.sim.now
        for mh in self.system.mhs:
            if (
                not mh.dozing
                and not mh.disconnected
                and now - mh.last_activity >= self.idle_timeout
            ):
                mh.doze()
        self._schedule()
