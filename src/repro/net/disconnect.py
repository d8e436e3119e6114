"""Voluntary disconnection and reconnection of mobile hosts (paper §2.2).

Protocol recap:

* Before disconnecting, the MH takes a local checkpoint and transfers it
  to its MSS as ``disconnect_checkpoint``, together with its message
  dependency information, then sends ``disconnect(sn)``.
* While disconnected, the MSS buffers all computation messages for the
  MH. If a checkpoint request arrives, the MSS converts
  ``disconnect_checkpoint`` into the MH's new checkpoint and propagates
  the request using the saved dependency information — this is delegated
  to a protocol-supplied :class:`DisconnectProxy` so the network layer
  stays protocol-agnostic. The proxy drives the process's own protocol
  instance; what it sends leaves from this MSS, because
  :meth:`~repro.net.network.MobileNetwork.mss_serving` resolves a
  disconnected MH to the MSS holding its record.
* On reconnection (possibly at a different MSS) the support information
  is transferred, the MH processes the buffered messages, and — if the
  proxy took a checkpoint on its behalf — clears its dependency state
  first.

Timing simplification: the MSS's disconnect record is created at the
instant the MH initiates disconnection rather than when ``disconnect(sn)``
physically arrives; the in-flight window is not interesting to the
checkpointing algorithms and closing it keeps routing total. The
checkpoint data transfer itself is still charged to the wireless link.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, List, Optional

from repro.errors import NetworkError, NotConnectedError
from repro.net.message import CheckpointDataMessage, Message, SystemMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.mh import MobileHost
    from repro.net.mss import MobileSupportStation
    from repro.net.network import MobileNetwork


class DisconnectProxy(ABC):
    """Protocol-side agent that acts for a disconnected process.

    Implementations capture whatever per-process protocol state is needed
    (dependency vector, csn, ...) at disconnect time.
    """

    @abstractmethod
    def handle_system_message(
        self,
        mss: "MobileSupportStation",
        record: "DisconnectRecord",
        message: SystemMessage,
    ) -> bool:
        """Handle a protocol message on behalf of the disconnected process.

        Returns True if consumed; False to have the MSS buffer it for
        delivery after reconnection.
        """


class BufferRecord:
    """Buffers every message addressed to an absent MH (handoff gap) at
    ``holder``, the MSS that has the MH's custody."""

    def __init__(self, mh_name: str, holder: "MobileSupportStation") -> None:
        self.mh_name = mh_name
        self.holder = holder
        self.buffered: List[Message] = []

    def absorb(self, message: Message) -> None:
        """Store ``message`` for later flushing."""
        self.buffered.append(message)


class DisconnectRecord(BufferRecord):
    """Support information an MSS keeps for a disconnected MH (§2.2)."""

    def __init__(
        self,
        mh_name: str,
        holder: "MobileSupportStation",
        disconnect_checkpoint: Any,
        proxy: Optional[DisconnectProxy],
        last_recv_sn: int,
    ) -> None:
        super().__init__(mh_name, holder)
        self.disconnect_checkpoint = disconnect_checkpoint
        self.proxy = proxy
        self.last_recv_sn = last_recv_sn
        #: set True by the proxy if it converted disconnect_checkpoint
        #: into a real checkpoint while the MH was away
        self.checkpoint_taken_on_behalf = False

    def absorb(self, message: Message) -> None:
        """Buffer computation traffic; offer system traffic to the proxy."""
        if isinstance(message, SystemMessage) and self.proxy is not None:
            if self.proxy.handle_system_message(self.holder, self, message):
                return
        self.buffered.append(message)


def disconnect(
    network: "MobileNetwork",
    mh: "MobileHost",
    disconnect_checkpoint: Any,
    proxy: Optional[DisconnectProxy] = None,
    checkpoint_bytes: Optional[int] = None,
) -> DisconnectRecord:
    """Voluntarily disconnect ``mh`` from its current MSS.

    The checkpoint transfer is charged to the uplink (it is the last
    transmission before the link drops). Returns the record now held by
    the old MSS.
    """
    if mh.disconnected:
        raise NetworkError(f"{mh.name} is already disconnected")
    mss = mh.mss
    if mss is None or mh.uplink is None:
        raise NotConnectedError(f"{mh.name} has no MSS to disconnect from")
    pid = mh.process_ids[0] if mh.process_ids else -1
    data = CheckpointDataMessage(
        src_pid=pid,
        dst_pid=None,
        checkpoint_ref=disconnect_checkpoint,
        msg_id=next(network.message_ids),
    )
    if checkpoint_bytes is not None:
        data.size_bytes = checkpoint_bytes
    # Charge the transfer to the link without routing it as a normal
    # message (its destination is the MSS itself, not a process).
    mh.uplink.occupy(data)
    record = DisconnectRecord(
        mh.name,
        mss,
        disconnect_checkpoint,
        proxy,
        last_recv_sn=mh.last_downlink_sn,
    )
    network.take_custody(record)
    mh.detach()
    mh.disconnected = True
    network.sim.metrics.counter("net.disconnects").inc()
    network.sim.trace.record(
        network.sim.now, "disconnect", mh=mh.name, mss=mss.name, sn=record.last_recv_sn
    )
    return record


def reconnect(
    network: "MobileNetwork",
    mh: "MobileHost",
    new_mss: "MobileSupportStation",
) -> DisconnectRecord:
    """Reconnect ``mh`` at ``new_mss`` and replay buffered traffic.

    The old MSS is the one the network's custody map names (standing in
    for §2.2's broadcast search when the MH lost its last MSS's
    identity); support information is transferred and buffered messages
    are routed to the MH in order.
    """
    if not mh.disconnected:
        raise NetworkError(f"{mh.name} is not disconnected")
    record = network.release_custody(mh.name)
    old_mss = record.holder
    mh.disconnected = False
    mh.attach_to(new_mss)
    # Transfer support information and replay buffered messages in order.
    # Buffered traffic is re-routed from the old MSS so it pays the wired
    # transfer cost to the new cell.
    network.sim.metrics.counter("net.reconnects").inc()
    if record.buffered:
        network.sim.metrics.counter("net.buffered_replayed").inc(
            len(record.buffered)
        )
    for message in record.buffered:
        network.route_from_mss(old_mss, message)
    network.sim.trace.record(
        network.sim.now,
        "reconnect",
        mh=mh.name,
        old_mss=old_mss.name,
        new_mss=new_mss.name,
        replayed=len(record.buffered),
        checkpoint_taken_on_behalf=record.checkpoint_taken_on_behalf,
    )
    return record
