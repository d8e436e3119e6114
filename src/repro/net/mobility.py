"""Handoff and mobility models (paper §2.2, correctness proof Case 2).

A handoff moves an MH from its current cell to another. During the gap
the MH has no wireless link: its own sends queue in an outbox, and
traffic addressed to it is buffered by the *old* MSS, which flushes the
buffer over the wired backbone once the MH reattaches — this is the
MSS-to-MSS forwarding the correctness proof relies on, so a checkpoint
request issued mid-handoff still reaches the process.

:class:`RandomWalkMobility` is a workload-style driver that performs
handoffs at exponentially distributed intervals, for stress tests and
the mobility example.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import NetworkError
from repro.net.disconnect import BufferRecord
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.mh import MobileHost
    from repro.net.mss import MobileSupportStation
    from repro.net.network import MobileNetwork


def handoff(
    network: "MobileNetwork",
    mh: "MobileHost",
    new_mss: "MobileSupportStation",
    delay: Optional[float] = None,
) -> None:
    """Move ``mh`` from its current cell into ``new_mss``'s cell.

    The link is down for ``delay`` seconds (default
    ``network.params.handoff_delay``). All traffic that would have used
    the old downlink during the gap — including messages already queued
    on it — is buffered at the old MSS and forwarded to the new MSS when
    the MH reattaches.
    """
    if mh.disconnected:
        raise NetworkError(f"{mh.name} is disconnected; reconnect instead of handoff")
    old_mss = mh.mss
    if old_mss is None:
        raise NetworkError(f"{mh.name} has no current MSS")
    if old_mss is new_mss:
        return
    gap = network.params.handoff_delay if delay is None else delay

    old_downlink = mh.detach()
    network.forget_mh_location(mh)
    # Anything not yet on the air stays with the old MSS for forwarding.
    old_downlink.pause()
    stranded = old_downlink.drain_pending()
    buffer = BufferRecord(mh.name)
    buffer.buffered.extend(stranded)
    old_mss.disconnect_records[mh.name] = buffer
    network.note_disconnect_holder(mh.name, old_mss)
    network.sim.metrics.counter("net.handoffs").inc()
    network.sim.trace.record(
        network.sim.now, "handoff_start", mh=mh.name, src=old_mss.name, dst=new_mss.name
    )

    def complete() -> None:
        del old_mss.disconnect_records[mh.name]
        network.forget_disconnect_holder(mh.name)
        mh.attach_to(new_mss)
        if buffer.buffered:
            network.sim.metrics.counter("net.handoff_forwarded").inc(
                len(buffer.buffered)
            )
        for message in buffer.buffered:
            network.route_from_mss(old_mss, message)
        network.sim.trace.record(
            network.sim.now,
            "handoff_complete",
            mh=mh.name,
            src=old_mss.name,
            dst=new_mss.name,
            forwarded=len(buffer.buffered),
        )

    network.sim.schedule(gap, complete)


class RandomWalkMobility:
    """Drives random handoffs for a set of mobile hosts.

    Each move picks a uniformly random MH and a uniformly random target
    cell different from its current one; inter-move times are exponential
    with the configured mean.
    """

    def __init__(
        self,
        network: "MobileNetwork",
        streams: RandomStreams,
        mean_residence_time: float,
    ) -> None:
        if mean_residence_time <= 0:
            raise ValueError("mean_residence_time must be positive")
        if len(network.mss_list) < 2:
            raise NetworkError("random-walk mobility needs at least two cells")
        self.network = network
        self.streams = streams
        self.mean_residence_time = mean_residence_time
        self.moves = 0
        self._stopped = False

    def start(self) -> None:
        """Begin scheduling moves."""
        self._schedule_next()

    def stop(self) -> None:
        """Stop after any already-scheduled move."""
        self._stopped = True

    def _schedule_next(self) -> None:
        delay = self.streams.exponential("mobility", self.mean_residence_time)
        self.network.sim.schedule(delay, self._move)

    def _move(self) -> None:
        if self._stopped:
            return
        candidates = [
            mh
            for mh in self.network.mh_list
            if not mh.disconnected and mh.mss is not None
        ]
        if candidates:
            mh = self.streams.choice("mobility", candidates)
            targets = [mss for mss in self.network.mss_list if mss is not mh.mss]
            if targets:
                new_mss = self.streams.choice("mobility", targets)
                handoff(self.network, mh, new_mss)
                self.moves += 1
        self._schedule_next()
