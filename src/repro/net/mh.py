"""Mobile hosts (MHs).

An MH communicates only through the wireless channel pair to the MSS of
the cell it currently occupies. It may move between cells (handoff,
handled by :mod:`repro.net.mobility` through the network object) and may
voluntarily disconnect (handled by :mod:`repro.net.disconnect`).

Doze mode is modelled as a flag plus wake-on-message semantics; it does
not change timing but lets experiments count how often checkpointing
traffic wakes a sleeping host (the energy argument of §1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import NotConnectedError
from repro.net.channel import FifoChannel
from repro.net.message import Message
from repro.net.node import Host

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.mss import MobileSupportStation
    from repro.net.network import MobileNetwork


class MobileHost(Host):
    """A mobile host attached to at most one MSS at a time.

    ``mss``, ``uplink`` and ``downlink`` are the network's one record of
    where the host is: all three are set while it is in a cell and all
    three are ``None`` while it hands off or is disconnected.
    """

    #: bytes sent on the uplinks / downlinks of cells this host has left
    #: (per-cell channels are dropped at :meth:`detach`); class defaults,
    #: so images from before these totals load as 0
    left_tx_bytes = 0
    left_rx_bytes = 0

    def __init__(self, network: "MobileNetwork", name: str) -> None:
        super().__init__(network, name)
        self.mss: Optional["MobileSupportStation"] = None
        self.uplink: Optional[FifoChannel] = None
        self.downlink: Optional[FifoChannel] = None
        self.dozing = False
        self.wakeups = 0
        # Sequence number of the last message received on the downlink;
        # reported in disconnect(sn) per §2.2.
        self.last_downlink_sn = 0
        self._downlink_counter = 0
        # Sends attempted while between cells (handoff gap) queue here and
        # flush on reattachment; voluntary disconnection never queues
        # because the paper's model forbids send events while disconnected
        # (the workload is paused by the disconnect manager).
        self._outbox: list = []
        self.disconnected = False
        # bytes moved by background (precopy) checkpoint transfers
        self.background_bytes = 0
        # last send/receive instant, used by doze management
        self.last_activity = 0.0
        # accumulated time spent dozing
        self.doze_time = 0.0
        self._doze_started = 0.0

    # -- attachment ---------------------------------------------------------
    def attach_to(self, mss: "MobileSupportStation") -> None:
        """Join ``mss``'s cell, creating fresh wireless channels."""
        params = self.network.params
        delays = self.network.delay_table(params.wireless_bandwidth_bps)
        self.mss = mss
        self.uplink = FifoChannel(
            self.sim,
            params.wireless_bandwidth_bps,
            params.wireless_latency,
            mss.on_wireless_arrival,
            name=f"{self.name}->{mss.name}",
            contention=params.model_contention,
            link_class="wireless",
            tx_delay=delays,
        )
        self.downlink = FifoChannel(
            self.sim,
            params.wireless_bandwidth_bps,
            params.wireless_latency,
            self.on_downlink_arrival,
            name=f"{mss.name}->{self.name}",
            contention=params.model_contention,
            link_class="wireless",
            tx_delay=delays,
        )
        self.network.location_changed()
        for message in self._outbox:
            self.uplink.send(message)
        self._outbox.clear()

    def detach(self) -> None:
        """Leave the current cell; messages already on the air still arrive."""
        if self.mss is None:
            raise NotConnectedError(f"{self.name} is not attached to any MSS")
        self.left_tx_bytes += self.uplink.bytes_sent
        self.left_rx_bytes += self.downlink.bytes_sent
        self.mss = self.uplink = self.downlink = None
        self.network.location_changed()

    # -- traffic -------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Transmit over the uplink toward the current MSS.

        During a handoff gap the message queues in the outbox and is
        flushed on reattachment. During voluntary disconnection (§2.2)
        the MSS holding the disconnect record sends a system message on
        the host's behalf, and a computation send is an error (no send
        events occur while disconnected).
        """
        if self.disconnected:
            if message.kind != "system":
                raise NotConnectedError(
                    f"{self.name} is disconnected and cannot send message {message.msg_id}"
                )
            self.network.mss_serving(self).send(message)
            return
        self.network._c_wireless_sends.value += 1
        if self.uplink is None or self.mss is None:
            self._outbox.append(message)
            return
        self.last_activity = self.sim._now
        self.uplink.send(message)

    def on_downlink_arrival(self, message: Message) -> None:
        """Wireless delivery from the MSS: wake if dozing, then deliver."""
        now = self.sim._now
        if self.dozing:
            self.dozing = False
            self.wakeups += 1
            self.sim.metrics.counter("net.wakeups").inc()
            self.doze_time += now - self._doze_started
        self.last_activity = now
        self._downlink_counter += 1
        self.last_downlink_sn = self._downlink_counter
        # straight to the pid's handler; the miss path raises UnknownHostError
        handler = self._process_handlers.get(message.dst_pid) or self.deliver_to_process
        handler(message)

    def transfer_checkpoint_data(self, data: Message) -> None:
        """Ship checkpoint data to the current MSS.

        Default (paper) model: a background "precopy" transfer that takes
        its full transmission time but does not delay foreground
        messages. Under ``model_contention`` the data competes on the
        uplink like any other traffic.
        """
        if self.disconnected:
            raise NotConnectedError(f"{self.name} is disconnected")
        if self.mss is None or self.uplink is None:
            self._outbox.append(data)
            return
        params = self.network.params
        if params.model_contention:
            self.uplink.send(data)
            return
        self.background_bytes += data.size_bytes
        mss = self.mss
        tx_time = data.size_bytes * 8.0 / params.wireless_bandwidth_bps
        if params.shared_cell_medium:
            # Concurrent bulk transfers in one cell serialize on the
            # shared 802.11 airtime (the paper's 32 s worst case).
            start = max(self.sim._now, mss.bulk_busy_until)
            finish = start + tx_time
            mss.bulk_busy_until = finish
            metrics = self.sim.metrics  # listed from the first bulk transfer
            (metrics._counters.get("net.bulk_bytes")
             or metrics.counter("net.bulk_bytes")).value += data.size_bytes
            self.sim.schedule_at(
                finish + params.wireless_latency,
                mss.on_wireless_arrival,
                data,
                stream=(self, "bulk"),
            )
        else:
            self.sim.schedule(
                tx_time + params.wireless_latency,
                mss.on_wireless_arrival,
                data,
                stream=(self, "bulk"),
            )

    def doze(self) -> None:
        """Enter doze mode (next arrival wakes the host)."""
        if not self.dozing:
            self.dozing = True
            self._doze_started = self.sim.now
